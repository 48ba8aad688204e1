import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest

from zfhp import (
    DomainError,
    build_mobius,
    PoleError,
    TruncatedSeries,
    f_k,
    g_k,
    hk_coeffs,
    lambda_apply,
)
from zfhp import arith, functionals
from zfhp.functionals import approx_reciprocal_s_partial_sums, lambda_hk_truncated
from zfhp.arith import _DIVIDE_BLOCK
from zfhp.series import hk_coefficient_envelope

import oracles
from oracles import (
    approx_reciprocal_s_full_tables,
    approx_reciprocal_s_oracle,
    approx_reciprocal_s_stream,
    approx_reciprocal_s_table_kernel,
    lambda_hk_truncated_whole,
    weighted_mertens_full_table,
)

U = 2.0**-53


def monomial(k: int) -> TruncatedSeries:
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return TruncatedSeries(coeffs)


class TestLambdaApply:
    def test_constant_maps_to_minus_reciprocal(self):
        ev = lambda_apply(TruncatedSeries([1.0]), 2.0)
        assert ev.value == -0.5
        assert ev.tail_bound is None  # no envelope given, no bound claimed
        assert lambda_apply(TruncatedSeries([1.0]), 2.0, coeff_bound=1.0).tail_bound == 0.0

    def test_single_basis_term(self):
        ev = lambda_apply(TruncatedSeries([0.0, 1.0]), 2.0)
        assert ev.value == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 17])
    @pytest.mark.parametrize("s", [0.8, 2.0, 1.5 + 1.0j])
    def test_monomials_reproduce_fk_exactly(self, k, s):
        from zfhp import fk_values

        ev = lambda_apply(monomial(k), s)
        # one-term sum: no truncation error, bit-identical to the vector entry
        assert ev.value == complex(fk_values(k, s)[k - 1])
        assert ev.value == pytest.approx(f_k(k, s), rel=1e-14, abs=1e-300)

    def test_rejects_left_half_plane(self):
        with pytest.raises(DomainError):
            lambda_apply(TruncatedSeries([1.0]), -1.0)

    def test_rejects_a_negative_coeff_bound(self):
        with pytest.raises(ValueError, match="coeff_bound must be nonnegative"):
            lambda_apply(TruncatedSeries([1.0, 0.5]), 2.0, coeff_bound=-1.0)

    def test_hk_value_matches_gk_within_tail(self):
        h2 = hk_coeffs(2, 10**5)
        ev = lambda_apply(h2, 2.0, coeff_bound=hk_coefficient_envelope(2, 10**5))
        ref = g_k(2, 2.0)
        assert abs(ev.value - ref) <= ev.tail_bound + 1e-8
        assert abs(ev.value - ref) < 1e-6
        assert ref.real == pytest.approx((math.pi**2 / 6.0) / 8.0, abs=1e-12)

    def test_tail_monotone_in_degree(self):
        values = []
        for degree in (10, 100, 1000, 10000):
            ev = lambda_apply(hk_coeffs(2, degree), 0.8, coeff_bound=1.0)
            values.append(ev.tail_bound)
        assert all(b < a for a, b in zip(values, values[1:]))


def lambda_apply_error_bound(k: int, s: complex, n: int, value: complex) -> float:
    """Rounding bound of lambda_apply(hk_coeffs(k, n), s) against its exact finite sum.

    Each closed-form term b_j of (I - S) h_k is within 6u |b_j| (at most
    two divisions and a subtraction, where |b_j| >= (1/j)/2 for k | j), and
    coefficient m is a sequential running sum of m + 1 of them, so it is
    off by at most gamma_{m+7} S_m with S_m = log(k)/k + sum_{j<=m} |b_j|,
    which also bounds |a_m|.  f_m(s) from ``fk_values`` is within
    u (12 |1-s| log(m+1) + 64) relative: the power exp((1-s) log m) as in
    ``lambda_hk_truncated``, plus expm1 of (1-s) log1p(1/m), which is well
    conditioned for |1-s| log 2 < 4 as on the grids below.  With
    |f_m(s)| <= |1-s|/|s| m^-sigma, the product (3u) and the exactly
    rounded sum (u |value|), the oracle's error is at most the returned value.
    """
    m = np.arange(1, n + 1, dtype=np.float64)
    b = (1.0 / k) / m
    b[k - 1 :: k] -= 1.0 / m[k - 1 :: k]
    s_m = (math.log(k) / k + np.cumsum(np.abs(b))) * (1.0 + 1e-12)
    gamma = (m + 7.0) * U / (1.0 - (m + 7.0) * U)
    f_rel = U * (12.0 * abs(1.0 - s) * np.log(m + 1.0) + 64.0)
    f_bound = abs(1.0 - s) / abs(s) * m ** (-s.real)
    head = 4 * U * math.log(k) / k / abs(s)
    return float(np.sum((gamma + f_rel + 3 * U) * s_m * f_bound)) + head + U * abs(value)


def lambda_hk_exact(k: int, s: complex, n: int, dps: int = 40) -> complex:
    """Lambda^(s)(h_k truncated at n) as the term-by-term sum, in mpmath.

    a_m = (H_m - H_{floor(m/k)} - log k)/k and f_m(s) from its definition,
    independent of both the closed form and the float oracle.
    """
    with mpmath.workdps(dps):
        sm = mpmath.mpc(s.real, s.imag)
        harmonic = [mpmath.mpf(0)]
        for j in range(1, n + 1):
            harmonic.append(harmonic[-1] + mpmath.mpf(1) / j)
        log_k = mpmath.log(k)
        total = (log_k / k) / sm
        for j in range(1, n + 1):
            a = (harmonic[j] - harmonic[j // k] - log_k) / k
            total += a * (-(mpmath.power(j + 1, 1 - sm) - mpmath.power(j, 1 - sm)) / sm)
        return complex(total)


class TestLambdaHkTruncated:
    @pytest.mark.parametrize("n", [5, 50, 2000])
    @pytest.mark.parametrize("s", [0.6, 0.75 + 1j, 1.5 + 5j, 2.0])
    @pytest.mark.parametrize("k", [2, 3, 7, 20])
    def test_matches_lambda_apply_oracle(self, k, s, n):
        # covers n < k (5 with k = 7, 20) and k | n (50 with k = 2; 2000 with k = 2, 20)
        s = complex(s)
        (ev,) = lambda_hk_truncated([k], [s], n)
        oracle = lambda_apply(hk_coeffs(k, n), s).value
        tol = ev.rounding_bound + lambda_apply_error_bound(k, s, n, oracle)
        assert abs(ev.value - oracle) <= tol
        assert ev.k == k and ev.s == s

    @pytest.mark.parametrize("k, s", [(5, 0.6 + 0j), (7, 1.5 + 5j)])
    def test_within_rounding_bound_of_40_digit_value(self, k, s):
        (ev,) = lambda_hk_truncated([k], [s], 2000)
        exact = lambda_hk_exact(k, s, 2000)
        assert abs(ev.value - exact) <= ev.rounding_bound
        # the bound is derived, but not vacuous
        assert ev.rounding_bound < 1e-11 * max(1.0, abs(exact))

    def test_tail_bound_uses_proved_envelope(self):
        (ev,) = lambda_hk_truncated([2], [2.0], 1000)
        h2 = hk_coeffs(2, 1000)
        m = np.arange(500, 1001)  # max m |a_m| over the top half: the fitted estimate
        fitted = lambda_apply(h2, 2.0, coeff_bound=np.max(m * np.abs(h2.coeffs[500:])))
        assert ev.tail_bound >= fitted.tail_bound
        assert ev.tail_bound == pytest.approx(fitted.tail_bound, rel=1e-2)

    def test_k_major_order_and_shared_tables(self):
        ks, grid = [3, 2, 7], [2.0 + 0j, 0.75 + 1j]
        evs = lambda_hk_truncated(ks, grid, 300)
        assert [(e.k, e.s) for e in evs] == [(k, s) for k in ks for s in grid]
        for e in evs:
            (alone,) = lambda_hk_truncated([e.k], [e.s], 300)
            assert alone.value == e.value

    def test_value_independent_of_k_list(self):
        # the seed-0 lambda-grid sweep: other k add cut points, and the
        # exactly rounded prefix sums do not depend on them
        grid = [complex(re, im) for re in (0.6, 0.75, 1.5, 2.0) for im in (0.0, 1.0, 5.0)]
        sweep = {(e.k, e.s): e.value for e in lambda_hk_truncated(range(2, 21), grid, 100000)}
        for k in range(2, 21):
            for e in lambda_hk_truncated([k], grid, 100000):
                assert e.value == sweep[k, e.s], (k, e.s)

    @pytest.mark.parametrize(
        "n",
        [_DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, _DIVIDE_BLOCK + 1, 2 * _DIVIDE_BLOCK, 3 * _DIVIDE_BLOCK + 5],
    )
    def test_blocked_walk_equals_the_whole_array_oracle(self, n):
        # k = 2 at n = 2 B cuts on the block edge B, k = 3 at 3 B + 5 one past
        # it, and k = n + 1 > n gives the cut 0
        ks = [2, 3, 7, 20, 1000, n + 1]
        grid = [0.6 + 5j, 2.0, 0.75 + 1j, 0.55 + 40j]
        got = lambda_hk_truncated(ks, grid, n)
        want = lambda_hk_truncated_whole(ks, grid, n)
        assert repr(got) == repr(want)

    def test_peak_does_not_grow_with_the_degree(self):
        # 6.4 MB at N = 10^5 and 64 MB at 10^6 with whole-array prefix sums
        def peak(n: int) -> int:
            tracemalloc.start()
            try:
                lambda_hk_truncated(range(2, 21), [0.6 + 5j, 2.0], n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**5), peak(10**6)
        assert large < 1.1 * small

    def test_refuses_a_degree_beyond_float64_integers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("walk started")

        monkeypatch.setattr(functionals, "_walk_parts", refuse)
        with pytest.raises(ValueError, match=r"degree = 9007199254740992 outside 1\.\.2\^53 - 1"):
            lambda_hk_truncated([2], [2.0], 2**53)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_hk_truncated([], [2.0], 100)
        with pytest.raises(ValueError):
            lambda_hk_truncated([1], [2.0], 100)
        with pytest.raises(ValueError):
            lambda_hk_truncated([2], [2.0], 0)
        with pytest.raises(DomainError):
            lambda_hk_truncated([2], [-1.0], 100)


def linearity_defect(f: TruncatedSeries, g: TruncatedSeries, a, b, s) -> float:
    """|Lambda(a f + b g) - a Lambda(f) - b Lambda(g)| at s, for f and g of one degree."""
    combo = TruncatedSeries(a * f.coeffs + b * g.coeffs)
    rhs = a * lambda_apply(f, s).value + b * lambda_apply(g, s).value
    return abs(lambda_apply(combo, s).value - rhs)


class TestLinearity:
    def test_zero_coefficients(self):
        f = TruncatedSeries([1.0, 2.0])
        assert linearity_defect(f, f, 0.0, 0.0, 2.0) == 0.0

    def test_cancellation(self):
        f = TruncatedSeries(np.linspace(0.1, 1.0, 20))
        assert linearity_defect(f, f, 1.0, -1.0, 2.0) <= 1e-12

    def test_random_combinations_within_bound(self):
        rng = np.random.default_rng(99)
        s = 1.5 + 1.0j
        from zfhp import lq_norm

        for _ in range(20):
            f = TruncatedSeries(rng.normal(size=64) + 1j * rng.normal(size=64))
            g = TruncatedSeries(rng.normal(size=64) + 1j * rng.normal(size=64))
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            defect = linearity_defect(f, g, a, b, s)
            bound = 1e-10 * (1.0 + abs(a) * lq_norm(f, 2.0) + abs(b) * lq_norm(g, 2.0))
            assert defect <= bound


B = 1 << 19  # arith._SIEVE_BLOCK, pinned below
STRADDLE = [B - 1, B, B + 1, 2 * B + 65537]  # across 2^16 blocks and 2^19 segments


@pytest.fixture(scope="module")
def mobius_straddle():
    return build_mobius(STRADDLE[-1])


def approx(ns, s):
    """The values of the production kernel at one s."""
    return [value for value, _ in approx_reciprocal_s_partial_sums(ns, [s])[0]]


def ceil_two_thirds(n: int) -> int:
    """The least L with L^3 >= n^2."""
    limit = round(n ** (2 / 3))
    while limit**3 < n * n:
        limit += 1
    while (limit - 1) ** 3 >= n * n:
        limit -= 1
    return limit


def assert_agrees(ns, grid, want):
    """Each value is within its bound of the exactly rounded ``want``, at every n."""
    got = approx_reciprocal_s_partial_sums(ns, grid)
    for row, expected in zip(got, want):
        for n, (value, bound), oracle in zip(ns, row, expected):
            assert abs(value - oracle) <= bound, n


class TestApproxReciprocal:
    def test_block_sizes_pinned(self):
        assert arith._SIEVE_BLOCK == B
        assert oracles.APPROX_BLOCK == 1 << 16
        assert functionals._APPROX_CHUNK == 1 << 13

    def test_single_term_is_minus_g2(self):
        got = approx([2], 2.0)[0]
        assert got == pytest.approx(-g_k(2, 2.0), abs=1e-14)

    def test_residual_shrinks_over_decades(self):
        r100 = abs(approx([100], 2.0)[0] + 0.5)
        r10k = abs(approx([10**4], 2.0)[0] + 0.5)
        assert r10k < r100

    def test_limit_consistency_at_s2(self):
        # sum mu(k) k^(-2) telescopes against 1/zeta(2); the residual at 1e6
        # is dominated by the slow Möbius harmonic sum
        got = approx([10**6], 2.0)[0]
        assert abs(got + 0.5) < 0.05

    @pytest.mark.parametrize("s", [2.0, 1.5, 0.75 + 3j, 2.0 + 14.13j])
    def test_kernel_equals_full_range_oracle(self, s, mobius_100k):
        # unsorted, with duplicates, across L = 2155, ending at the oracle table's limit
        ns = [1000, 2, 65538, 100, 1000, 65537, 2, 2155, 2156, 10**5]
        want = [approx_reciprocal_s_oracle(n, s, mobius_100k) for n in ns]
        assert_agrees(ns, [s], [want])

    @pytest.mark.parametrize("s", [2.0, 0.75 + 3j])
    def test_streamed_equals_table_kernel_across_segments(self, s, mobius_straddle):
        # the exact stream, now the oracle, against the table kernel it replaced
        for ns in ([n] for n in STRADDLE):
            assert approx_reciprocal_s_stream(ns, [s])[0] == approx_reciprocal_s_table_kernel(
                ns, s, mobius_straddle
            )
        # unsorted, with duplicates, every straddling checkpoint in one pass
        ns = [B + 1, 2, B - 1, 65538, B, 2 * B + 65537, 2, B - 1, 100]
        got = approx_reciprocal_s_stream(ns, [s])[0]
        assert got == approx_reciprocal_s_table_kernel(ns, s, mobius_straddle)

    def test_one_sieve_pass_serves_the_whole_grid(self, monkeypatch):
        grid = [2.0, 1.5 + 1j, 0.75 + 14.13j]
        ns = [2 * B + 65537, 100, B]
        want = approx_reciprocal_s_stream(ns, grid)
        calls = []
        sieve = arith._sieve_segment

        def counted(lo, hi, primes):
            calls.append((lo, hi))
            return sieve(lo, hi, primes)

        monkeypatch.setattr(arith, "_sieve_segment", counted)
        assert_agrees(ns, grid, want)
        assert calls == [(0, ceil_two_thirds(2 * B + 65537) + 1)]

    def test_compacted_parts_stay_exact(self, monkeypatch, mobius_100k):
        # the stream oracle with 8 k per block: its parts exceed a block's
        # worth, and are compacted, every few blocks
        monkeypatch.setattr(oracles, "APPROX_BLOCK", 8)
        ns = [10**5, 37, 5000]
        for s in (2.0, 0.75 + 3j):
            got = approx_reciprocal_s_stream(ns, [s])[0]
            assert got == approx_reciprocal_s_table_kernel(ns, s, mobius_100k)

    @pytest.mark.parametrize("block", [B, 3001], ids=["segments", "segments-inside-chunks"])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 2.466, 0.75 + 3j, 2 + 14.13j])
    def test_kept_entries_equal_the_full_tables(self, s, block, monkeypatch):
        # unsorted, with duplicates, across S = 1000 and L = 10^4, with L,
        # L + 1, squares, cubes and 10^6 = 100^3 = 1000^2; a sieve segment of
        # 3001 entries cuts every chunk at other points than the oracle's
        monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
        ns = [10**6, 2, 999, 1000, 1001, 9999, 10**4, 10**4 + 1, 961, 4096, 65536, 99999, 12, 2, 10**4, 123457]
        limit = functionals._approx_limit(10**6)
        assert limit == 10**4
        mu = build_mobius(limit).values
        (table,) = functionals._mertens_tables(limit, [s if s == 1 else complex(s)], ns)
        assert functionals._weighted_mertens(table, ns) == weighted_mertens_full_table(mu, s, ns)
        if s != 1:
            assert approx_reciprocal_s_partial_sums(ns, [s]) == approx_reciprocal_s_full_tables(ns, [s], limit)

    def test_kept_entries_equal_the_full_tables_across_segments(self):
        # L = 542,884 > 2^19, S = 20,000: 4 * 10^8 = 20000^2, 343 * 10^6 = 700^3
        ns = [4 * 10**8, 542884, 542885, 20000, 20001, 343 * 10**6, B, B + 1, 3, 4 * 10**8]
        limit = functionals._approx_limit(4 * 10**8)
        assert limit == 542884
        grid = [2.466, 2 + 14.13j]
        assert approx_reciprocal_s_partial_sums(ns, grid) == approx_reciprocal_s_full_tables(ns, grid, limit)

    @pytest.mark.parametrize("s", [1.0, 2.466, 0.75 + 3j])
    def test_recursion_rereads_its_own_writes(self, s):
        # the recursion writes M~(floor(n/d)) into the by-k columns it reads:
        # a second call, and a call on fewer n, find the same values there.
        # S = 1000 and L = 10^4; 10^6 and 10^6 - 1 share most floor(n/k), and
        # 5 * 10^5 shares floor(n/2k) with 10^6
        ns = [10**6, 10**6 - 1, 5 * 10**5, 10**4 + 1, 10**4, 9999, 2000, 1001, 1000, 7]
        limit = functionals._approx_limit(10**6)
        (table,) = functionals._mertens_tables(limit, [s if s == 1 else complex(s)], ns)
        first = functionals._weighted_mertens(table, ns)
        assert functionals._weighted_mertens(table, ns) == first
        assert functionals._weighted_mertens(table, [5 * 10**5, 1001]) == {n: first[n] for n in (5 * 10**5, 1001)}

    @pytest.mark.parametrize(
        "ns",
        [range(2, 10**4 + 1),
         [k**2 for k in range(2, 94906266, 9973)] + [k**3 for k in range(2, 208064, 97)],
         range(math.isqrt((2**31 - 1) ** 3) - 50, math.isqrt((2**31 - 1) ** 3) + 51),
         range(10**14 - 50, 10**14 + 51),
         [2**53 - 1]],
        ids=["to-1e4", "squares-and-cubes", "cap-starts", "around-1e14", "2^53-1"])
    def test_table_limit_needs_no_floor(self, ns):
        # ceil(n^(2/3)) >= sqrt(n), and 2^31 - 1 > isqrt(2^53 - 1): the limit
        # is what it was with a floor of isqrt(n), and at least that
        for n in ns:
            floor = math.isqrt(n)
            assert functionals._approx_limit(n) == max(min(ceil_two_thirds(n), 2**31 - 1), floor) >= floor, n

    def test_table_rows_take_no_exact_parts(self, monkeypatch):
        # every n, on either side of L, comes from the weighted-Mertens
        # tables or recursion, not from a blocked re-summation of its terms
        def refuse(*args):
            raise AssertionError("exact parts taken")

        limit = ceil_two_thirds(10**5)
        ns, grid = [2, 100, limit, limit + 1, 10**5], [2.0, 0.75 + 3j]
        want = approx_reciprocal_s_stream(ns, grid)
        monkeypatch.setattr(functionals, "_walk_parts", refuse)
        assert_agrees(ns, grid, want)

    def test_peak_within_the_memory_estimate(self):
        # the stream oracle within the estimate it was guarded by
        n = 2 * B + 65537
        tracemalloc.start()
        try:
            approx_reciprocal_s_stream([n, 100], [2.0, 0.75 + 3j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= oracles.approx_stream_bytes(n, 2)

    def test_peak_within_the_table_estimate(self):
        n = 8 * 10**6  # tables in five chunks
        limit = ceil_two_thirds(n)
        tracemalloc.start()
        try:
            approx_reciprocal_s_partial_sums([n, 10**6, 100], [2.0, 0.75 + 3j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= functionals._approx_bytes([n, 10**6, 100], [2.0, 0.75 + 3j], limit)

    def test_peak_within_the_estimate_for_many_n(self):
        # 100 n above L = 10^4: their kept entries at floor(n/k), about
        # 2 * 800 per n and s, outweigh the sieve, the chunk and the recursion
        ns = list(range(10**6, 6 * 10**5, -4000))
        tracemalloc.start()
        try:
            approx_reciprocal_s_partial_sums(ns, [0.75 + 3j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= functionals._approx_bytes(ns, [0.75 + 3j], 10**4)

    def test_peak_is_of_order_sqrt_n(self):
        # tables to L = 215,444 would take 7 MB; the kept entries, the sieve
        # segment and the recursion's arrays stay below 4 MB
        tracemalloc.start()
        try:
            approx_reciprocal_s_partial_sums([10**8], [2.0, 0.75 + 3j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("s", [2.0, 1.5 + 1j, 0.75 + 5j, 0.51 + 14.13j])
    def test_within_bound_of_the_stream_to_1e7(self, s):
        ns = [10, 1000, 46416, 46417, 10**5, 10**6, 10**7]
        want = approx_reciprocal_s_stream(ns, [s])
        assert_agrees(ns, [s], want)

    def test_sieve_limit_is_two_thirds_power(self, monkeypatch):
        # a complexity pin: one pass over the sieve segments, to about
        # n^(2/3), not to n
        calls = []
        sieve = arith._sieve_segment

        def counted(lo, hi, primes):
            calls.append((lo, hi))
            return sieve(lo, hi, primes)

        monkeypatch.setattr(arith, "_sieve_segment", counted)
        n = 10**9
        (value, bound), = approx_reciprocal_s_partial_sums([n], [2.0])[0]
        assert [lo for lo, _ in calls] == list(range(0, calls[-1][1], B))
        assert all(hi == lo + B for lo, hi in calls[:-1])
        assert calls[-1][1] - 1 <= ceil_two_thirds(n) + 1
        assert abs(value + 0.5) < 1e-3 and bound < 1e-9

    def test_memory_budget_leaves_the_table_limit(self, monkeypatch):
        # memory no longer grows with L: a budget that holds the O(sqrt n)
        # charge keeps L = n^(2/3), and one that does not is refused
        n, grid = 10**6, [0.75 + 3j]
        need = functionals._approx_bytes([n, 2000, 4000], grid, 10**4)
        want = approx_reciprocal_s_stream([n, 2000, 4000], grid)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert functionals._approx_limit(n) == 10**4
        assert_agrees([n, 2000, 4000], grid, want)
        pages["SC_PHYS_PAGES"] = need - 1
        assert functionals._approx_limit(n) == 10**4
        with pytest.raises(ValueError, match=f"n = {n} needs an estimated"):
            approx_reciprocal_s_partial_sums([n, 2000, 4000], grid)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            approx([1], 2.0)
        with pytest.raises(ValueError):
            approx([10, 1], 2.0)
        with pytest.raises(ValueError):
            approx([], 2.0)
        with pytest.raises(ValueError):
            approx_reciprocal_s_partial_sums([10], [])
        with pytest.raises(ValueError, match=r"2\^20"):
            approx([10], 2.0**21)

    def test_refuses_n_beyond_exact_float64_integers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sieved")

        monkeypatch.setattr(arith, "_sieve_segment", refuse)
        with pytest.raises(ValueError, match=r"n < 2\^53"):
            approx([10, 2**53], 2.0)

    def test_refuses_beyond_physical_memory(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sieved")

        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**12}  # 16 MiB
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(arith, "_sieve_segment", refuse)
        monkeypatch.setattr(arith, "_primes_up_to", refuse)
        n = 10**12
        assert functionals._approx_bytes([n], [2.0], functionals._approx_limit(n)) > 2**24
        with pytest.raises(ValueError, match=f"n = {n} needs an estimated"):
            approx([n], 2.0)

    def test_domain_errors(self):
        with pytest.raises(PoleError):
            approx([10], 1.0)
        with pytest.raises(DomainError):
            approx([10], -2.0)

    def test_reporting_only_region_runs(self):
        # 1/2 < Re(s) <= 1: residuals are reported, nothing asserted on them
        value = approx([1000], 0.75)[0]
        assert np.isfinite(value.real) and np.isfinite(value.imag)
