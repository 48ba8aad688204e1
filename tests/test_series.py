import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from zfhp import (
    TruncatedSeries,
    build_mobius,
    hk_coeffs,
    ims_hk_coeffs,
    lq_norm,
    mobius_sum_over_k,
)
from zfhp.series import (_DIVIDE_BLOCK, CoefficientBlocks, _kernel_bytes, hk_coefficient_envelope,
                         mobius_ims_partial_sums)

from oracles import accumulated_ims, advance_ims_allocating, bounded_divisor_sum, mobius_ims_one_buffer, pieces


def concatenated(blocks: CoefficientBlocks) -> np.ndarray:
    """One pass of ``blocks`` as a new array; each block is copied before the next one overwrites it."""
    return np.concatenate([block.copy() for block in blocks])


def log_series_oracle(f0_coeffs: np.ndarray) -> np.ndarray:
    """Taylor coefficients of log(f) from those of f (f(0) != 0).

    Uses the differential recurrence n g_n f_0 = n f_n - sum_{m<n} m g_m f_{n-m},
    a path independent of any logarithm expansion identity.
    """
    f = np.asarray(f0_coeffs, dtype=np.float64)
    g = np.zeros_like(f)
    g[0] = math.log(f[0])
    for n in range(1, f.size):
        conv = sum(m * g[m] * f[n - m] for m in range(1, n))
        g[n] = (n * f[n] - conv) / (n * f[0])
    return g


def ims_hk_oracle(k: int, degree: int) -> np.ndarray:
    """(I - S) h_k = (1/k) log((1 + z + ... + z^(k-1))/k), expanded numerically."""
    poly = np.zeros(degree + 1)
    poly[: min(k, degree + 1)] = 1.0 / k
    return log_series_oracle(poly) / k


class TestTruncatedSeries:
    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])
        with pytest.raises(ValueError):
            TruncatedSeries([1.0, math.nan])
        with pytest.raises(ValueError):
            TruncatedSeries([1.0, math.inf])

    def test_degree_keeps_trailing_zeros(self):
        f = TruncatedSeries([1.0, 0.0, 0.0])
        assert f.degree == 2

    def test_coeffs_read_only(self):
        f = TruncatedSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 3.0


class TestHkGenerators:
    def test_ims_k2_hand_expansion(self):
        got = ims_hk_coeffs(2, 3).coeffs
        want = [-math.log(2) / 2, 0.5, -0.25, 1.0 / 6.0]
        assert np.allclose(got, want, atol=1e-15)

    def test_ims_k3_hand_expansion(self):
        got = ims_hk_coeffs(3, 2).coeffs
        want = [-math.log(3) / 3, 1.0 / 3.0, 1.0 / 6.0]
        assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_ims_coefficient_at_degree_k(self, k):
        coeffs = ims_hk_coeffs(k, k).coeffs
        assert coeffs[k] == pytest.approx((1.0 / k) * (1.0 / k - 1.0), abs=1e-15)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_ims_matches_log_series_oracle(self, k):
        got = ims_hk_coeffs(k, 200).coeffs
        want = ims_hk_oracle(k, 200)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_ims_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ims_hk_coeffs(1, 10)
        with pytest.raises(ValueError):
            ims_hk_coeffs(2, -1)

    def test_hk_k2_running_values(self):
        h2 = hk_coeffs(2, 4).coeffs
        a0 = -math.log(2) / 2
        assert h2[0] == pytest.approx(a0, abs=1e-15)
        assert h2[1] == pytest.approx(a0 + 0.5, abs=1e-15)
        assert h2[2] == pytest.approx(a0 + 0.25, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_hk_inverts_back_to_ims(self, k):
        n = 500
        recovered = np.diff(hk_coeffs(k, n).coeffs, prepend=0.0)
        assert np.allclose(recovered, ims_hk_coeffs(k, n).coeffs, atol=1e-13)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_hk_tail_decay(self, k):
        n = 10**5
        coeffs = hk_coeffs(k, n).coeffs
        m = np.arange(k * k + 1, n + 1, dtype=np.float64)
        assert np.all(np.abs(coeffs[k * k + 1 :]) < 10.0 * k / m)


U = 2.0**-53


def m_times_hk_coeff(k: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m |a_m| for the h_k coefficients, with a bound on its error.

    a_m = (H_m - H_M - log k)/k, M = floor(m/k).  For M < 16 the harmonic
    numbers come from mpmath at 40 digits (error below one rounding of the
    result, 2u).  For M >= 16, with m = kM + r, H_m - H_M - log k equals

        log1p(r/(kM)) + c(m) - c(M),  c(n) = 1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(252n^6),

    up to 2/(240 M^8) (Euler-Maclaurin: |H_n - log n - gamma - c(n)| <=
    1/(240 n^8)).  Evaluated in float (log1p within 4 ulp), each of the
    three terms is below 1/M in size and within 9u/M, the two sums add
    6u/M, and m/k <= 2M, so m |a_m| is within 64u + 1/(60 M^7).
    """
    m = np.asarray(m, dtype=np.int64)
    big_m = m // k
    out = np.empty(m.size)
    err = np.empty(m.size)
    small = big_m < 16
    with mpmath.workdps(40):
        log_k = mpmath.log(k)
        for i in np.flatnonzero(small):
            mi = int(m[i])
            d = mpmath.harmonic(mi) - mpmath.harmonic(mi // k) - log_k
            out[i] = float(abs(d) * mi / k)
    err[small] = 2 * U
    mf = m[~small].astype(np.float64)
    mm = big_m[~small].astype(np.float64)
    r = mf - k * mm

    def c(n):
        return 1 / (2 * n) - 1 / (12 * n**2) + 1 / (120 * n**4) - 1 / (252 * n**6)

    d = np.log1p(r / (k * mm)) + c(mf) - c(mm)
    out[~small] = mf * np.abs(d) / k
    err[~small] = 64 * U + 1 / (60 * mm**7)
    return out, err


class TestHkCoefficientEnvelope:
    @pytest.mark.parametrize("n", [5, 100, 10**4])
    @pytest.mark.parametrize("k", [2, 3, 7, 20])
    def test_bounds_every_coefficient_beyond_cutoff(self, k, n):
        m = np.arange(n + 1, 50 * n + 1)
        values, err = m_times_hk_coeff(k, m)
        bound = hk_coefficient_envelope(k, n)
        assert np.all(values + err <= bound)

    @pytest.mark.parametrize("k", [2, 3, 7, 20])
    def test_approaches_sharp_constant(self, k):
        sharp = (k - 1) / (2 * k)
        assert sharp < hk_coefficient_envelope(k, 10**5) < sharp * (1 + 1e-3)
        m = np.arange(10**5 - 2 * k, 10**5 + 1)
        values, _ = m_times_hk_coeff(k, m)
        assert np.max(values) > sharp * (1 - 1e-3)

    @pytest.mark.parametrize("k", [2, 20])
    def test_covers_the_fitted_slope(self, k):
        # max m |a_m| over the top half of the stored range, the estimate it replaces
        m = np.arange(50_000, 10**5 + 1)
        fitted = np.max(m * np.abs(hk_coeffs(k, 10**5).coeffs[50_000:]))
        assert hk_coefficient_envelope(k, 10**5) > fitted

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hk_coefficient_envelope(1, 10)
        with pytest.raises(ValueError):
            hk_coefficient_envelope(2, -1)


class TestMobiusPartialSums:
    def test_n2_is_minus_ims2(self, mobius_1k):
        (got,) = mobius_ims_partial_sums([2], 50, mobius_1k)
        want = ims_hk_coeffs(2, 50)
        assert np.array_equal(concatenated(got), -want.coeffs)

    def test_hand_coefficient_n3_m6(self, mobius_1k):
        (got,) = mobius_ims_partial_sums([3], 6, mobius_1k)
        assert concatenated(got)[6] == pytest.approx(7.0 / 36.0, abs=1e-15)

    @pytest.mark.parametrize("n", [10, 100])
    def test_coefficient_identity_cross_check(self, n, mobius_1k):
        degree = 2000
        (blocks,) = mobius_ims_partial_sums([n], degree, mobius_1k)
        got = concatenated(blocks)
        c_n = mobius_sum_over_k(mobius_1k, n) - 1.0  # sum over k = 2..n
        rng = np.random.default_rng(n)
        for m in [1, 2, 6, 30, 210, *rng.integers(1, degree + 1, size=40)]:
            divisor_part = bounded_divisor_sum(int(m), n, mobius_1k) - 1  # drop d = 1
            want = (c_n - divisor_part) / m
            assert got[m] == pytest.approx(want, abs=1e-12), m

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_matches_accumulation_oracle(self, n, mobius_1k):
        # the oracle makes at most 2n roundings into coefficient m >= 1, of
        # terms whose absolute sum is at most (n + 1)/m, so it is off by at
        # most (n + 1)^2 eps/m (read m as 1 at m = 0); the closed form's own
        # error fits in the rest of (n + 2)^2 eps/m
        degree = 5000
        (blocks,) = mobius_ims_partial_sums([n], degree, mobius_1k)
        got = concatenated(blocks)
        want = accumulated_ims(n, degree, mobius_1k)
        m = np.maximum(np.arange(degree + 1), 1)
        tol = (n + 2) ** 2 * np.finfo(np.float64).eps / m
        assert np.all(np.abs(got - want) <= tol)

    # 510510 = 2 3 5 7 11 13 17 is the least m with omega(m) = 7: the
    # kernel sums its divisors in int8 ``d`` at these degrees, the oracle
    # in int32
    @pytest.mark.parametrize(
        "degree",
        [_DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, _DIVIDE_BLOCK + 1, 3 * _DIVIDE_BLOCK + 5, 510510 + 1000],
    )
    def test_bit_equal_to_allocating_oracle_across_division_blocks(self, degree, mobius_1k):
        ns = [10, 100, 1000]
        d = np.zeros(degree + 1, dtype=np.int32)
        streams = zip(mobius_ims_partial_sums(ns, degree, mobius_1k), mobius_ims_one_buffer(ns, degree, mobius_1k))
        for prev, n, (blocks, one_buffer) in zip([1, *ns], ns, streams):
            want = advance_ims_allocating(d, prev, n, mobius_1k).view(np.int64)
            assert np.array_equal(one_buffer.view(np.int64), want), n
            for _ in range(2):  # every pass forms the same bits
                assert np.array_equal(concatenated(blocks).view(np.int64), want), n

    def test_int8_divisor_sums_at_seven_primes(self):
        # every divisor d >= 2 of 510510 = 2 3 5 7 11 13 17, the least m
        # with omega(m) = 7, is sieved by n = 510510; on the way its
        # partial sum D falls to -8 at n = 455, in the int8 ``d`` of the
        # kernel and the int32 ``d`` of the oracle alike
        degree = 510510 + 1000
        table = build_mobius(degree)
        ns = [455, 1000, 510510, degree]
        d = np.zeros(degree + 1, dtype=np.int32)
        extremes = []
        for prev, n, blocks in zip([1, *ns], ns, mobius_ims_partial_sums(ns, degree, table)):
            assert blocks.passes.args[0].dtype == np.int8
            want = advance_ims_allocating(d, prev, n, table).view(np.int64)
            assert np.array_equal(concatenated(blocks).view(np.int64), want), n
            extremes.append(int(d[510510]))
        assert extremes == [-8, -6, -1, -1]

    def test_divisor_dtype_and_charge_at_the_cut(self, mobius_1k):
        # 9,699,690 = 2 3 5 7 11 13 17 19, the least m with omega(m) = 8:
        # int8, 1 byte per coefficient, below it and int16, 2 bytes, from it
        for degree, dtype in ((9_699_689, np.int8), (9_699_690, np.int16)):
            assert _kernel_bytes(degree) == np.dtype(dtype).itemsize * (degree + 1) + 16 * _DIVIDE_BLOCK
            (blocks,) = mobius_ims_partial_sums([2], degree, mobius_1k)
            assert blocks.passes.args[0].dtype == dtype and blocks.size == degree + 1

    # L = M/2 for M = 2000, 65534, 65542 (L = 32771 prime, so M/2 has no
    # split) and 196618: several whole segments in a block, one short of
    # a block, straddling its end, and spanning several blocks
    @pytest.mark.parametrize("length", [1000, _DIVIDE_BLOCK - 1, 32771, 3 * _DIVIDE_BLOCK + 5])
    def test_pieces_cut_at_segments_equal_the_oracle(self, length, mobius_1k):
        degree = 4 * _DIVIDE_BLOCK + 17
        d = np.zeros(degree + 1, dtype=np.int32)
        (blocks,) = mobius_ims_partial_sums([100], degree, mobius_1k)
        want = advance_ims_allocating(d, 1, 100, mobius_1k)
        cut, start = [], 0
        for q, r, piece in pieces(blocks, length):
            assert q * length + r == start and r + piece.size <= length
            assert 0 < piece.size <= _DIVIDE_BLOCK
            cut.append(piece.copy())
            start += piece.size
        assert np.array_equal(np.concatenate(cut).view(np.int64), want.view(np.int64))

    def test_one_block_buffer_reused(self, mobius_1k):
        # every block of every pass and checkpoint is one buffer of
        # _DIVIDE_BLOCK floats, overwritten by the next block
        degree = 3 * _DIVIDE_BLOCK + 5
        partial_sums = mobius_ims_partial_sums([10, 100], degree, mobius_1k)
        first = next(partial_sums)
        blocks = iter(first)
        head = next(blocks)
        address = head.__array_interface__["data"][0]
        at_10 = head.copy()
        assert head.size == _DIVIDE_BLOCK and head.flags.writeable
        head[:] = np.nan  # a caller's change lasts only until the buffer is formed again
        for block in blocks:
            assert block.__array_interface__["data"][0] == address
        assert not np.array_equal(head, at_10)
        assert np.array_equal(next(iter(first)), at_10)
        second = next(partial_sums)
        assert all(b.__array_interface__["data"][0] == address for b in second)
        (at_100,) = mobius_ims_partial_sums([100], degree, mobius_1k)
        assert np.array_equal(concatenated(second), concatenated(at_100))

    def test_residual_shrinks_from_n10_to_n100(self, mobius_1k):
        degree = 10**5
        target = np.zeros(degree + 1)
        target[0], target[1] = 1.0, -1.0
        values = [
            lq_norm(TruncatedSeries(concatenated(coeffs) - target), 2.0)
            for coeffs in mobius_ims_partial_sums([10, 100], degree, mobius_1k)
        ]
        assert values[1] < values[0]

    def test_argument_validation(self, mobius_1k):
        # refused at the call, before the first array is asked for
        for ns in ([1], [1001], [], [10, 10]):
            with pytest.raises(ValueError):
                mobius_ims_partial_sums(ns, 10, mobius_1k)

    def test_refuses_degree_beyond_memory_before_allocating(self, mobius_1k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the memory guard refused")

        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB of partial-sum buffers"):
                mobius_ims_partial_sums([10], 2**60, mobius_1k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
