import math
import os
import tracemalloc

import numpy as np
import pytest

from zfhp import (
    build_mobius,
    mobius_logsum_over_k,
    mobius_sum_over_k,
)

from zfhp.arith import (
    _DIVIDE_BLOCK,
    _SIEVE_BLOCK,
    _mobius_segments,
    _prime_bytes,
    _primes_up_to,
    _sieve_bytes,
    _sieve_segment,
    _walk_parts,
    exact_parts,
    exact_sum,
)

from oracles import (bounded_divisor_sum, mobius_linear_sieve, mobius_logsum_whole, mobius_sum_whole,
                     mobius_whole_table_sieve)


def mu_by_trial_division(n: int, primes: list[int]) -> int:
    """Independent oracle: factor n over a precomputed prime list."""
    if n == 1:
        return 1
    count = 0
    m = n
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def primes_by_trial_division(bound: int) -> list[int]:
    primes: list[int] = []
    for m in range(2, bound + 1):
        if all(m % p for p in primes if p * p <= m):
            primes.append(m)
    return primes


def tau_by_divisor_pairs(n: int) -> int:
    count = 0
    for a in range(1, math.isqrt(n) + 1):
        if n % a == 0:
            count += 1 if a * a == n else 2
    return count


def test_mobius_trivial_values():
    table = build_mobius(12)
    assert table.mu(1) == 1
    assert table.mu(2) == -1
    assert table.mu(6) == 1  # 6 = 2 * 3
    assert table.mu(12) == 0  # 4 | 12


def test_mobius_invariants_small():
    table = build_mobius(50)
    for p in (2, 3, 5, 7, 11, 13, 47):
        assert table.mu(p) == -1
    for n in (4, 8, 9, 16, 18, 25, 45, 49, 50):
        assert table.mu(n) == 0
    assert set(int(v) for v in table.values[1:]) <= {-1, 0, 1}


def test_mobius_matches_trial_division_oracle(mobius_100k):
    primes = primes_by_trial_division(math.isqrt(10**5) + 1)
    values = mobius_100k.values
    for n in range(1, 10**5 + 1):
        assert values[n] == mu_by_trial_division(n, primes), n


def test_mobius_matches_linear_sieve_for_small_limits():
    # covers limit = p^2 and p^2 - 1, and prime and composite isqrt(limit)
    for limit in range(1, 401):
        assert np.array_equal(build_mobius(limit).values, mobius_linear_sieve(limit)), limit


def test_mobius_matches_linear_sieve(mobius_100k):
    assert np.array_equal(mobius_100k.values, mobius_linear_sieve(10**5))


def test_mobius_table_contract(mobius_100k):
    values = mobius_100k.values
    assert values.dtype == np.int8
    assert not values.flags.writeable
    assert values[0] == 0
    assert values.size == 10**5 + 1


def test_mobius_rejects_zero_limit():
    with pytest.raises(ValueError):
        build_mobius(0)


@pytest.mark.parametrize("n", [0, 13])
def test_mu_outside_the_table_refused(n):
    with pytest.raises(ValueError, match=f"^n = {n} outside table range 1..12$"):
        build_mobius(12).mu(n)


def test_mobius_rejects_limit_beyond_int32_radical():
    # refused before any allocation; never test this by allocating
    with pytest.raises(ValueError, match="2\\^31"):
        build_mobius(2**31)


def segment_edge_limits() -> dict[str, int]:
    """Limits that put the last segment, or a multiple of some p^2, at a segment edge."""
    # lo = 1 (mod 9): the multiples lo - 1 and lo + 8 of 9 straddle the boundary lo
    lo = pow(_SIEVE_BLOCK, -1, 9) * _SIEVE_BLOCK
    # the smallest prime p with p^2 longer than a segment: a segment holds
    # at most one multiple of p^2, here p^2 and 2 p^2 in two segments
    p = next(m for m in range(math.isqrt(_SIEVE_BLOCK) + 1, _SIEVE_BLOCK) if is_prime(m))
    assert (lo - 1) % 9 == 0 and lo > _SIEVE_BLOCK and p * p > _SIEVE_BLOCK
    return {
        "block-1": _SIEVE_BLOCK - 1,
        "block": _SIEVE_BLOCK,
        "block+1": _SIEVE_BLOCK + 1,
        "2block+1": 2 * _SIEVE_BLOCK + 1,
        "9-straddles": lo + 8,
        "p^2-beyond-block": 2 * p * p,
        "1e6+7": 10**6 + 7,
    }


def is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


@pytest.mark.parametrize("limit", segment_edge_limits().values(), ids=segment_edge_limits().keys())
def test_segmented_sieve_matches_whole_table_sieve(limit):
    assert np.array_equal(build_mobius(limit).values, mobius_whole_table_sieve(limit))


@pytest.fixture(scope="module")
def linear_sieve_two_segments():
    return mobius_linear_sieve(2 * _SIEVE_BLOCK + 1)


@pytest.mark.parametrize(
    "limit",
    [_SIEVE_BLOCK - 1, _SIEVE_BLOCK, 2 * _SIEVE_BLOCK - 1, 2 * _SIEVE_BLOCK, 2 * _SIEVE_BLOCK + 1],
    ids=["block-1", "block", "2block-1", "2block", "2block+1"],
)
def test_segment_stream_matches_linear_sieve(limit, linear_sieve_two_segments):
    # limit + 1 a multiple of the segment length, and just past one
    segments = list(_mobius_segments(limit))
    assert [lo for lo, _ in segments] == list(range(0, limit + 1, _SIEVE_BLOCK))
    assert all(segment.dtype == np.int8 for _, segment in segments)
    streamed = np.concatenate([segment for _, segment in segments])
    assert np.array_equal(streamed, linear_sieve_two_segments[: limit + 1])


@pytest.mark.parametrize(
    "lo, hi",
    [(2**31 - 512, 2**31 + 512), (2**31 - 1024, 2**31), (2**32 - 512, 2**32 + 512)],
    ids=["2^31+-512", "ending-at-2^31", "2^32+-512"],
)
def test_segment_beyond_int32_matches_trial_division(lo, hi):
    # the radical and index range of a segment past 2^31 are int64; no full sieve runs here
    r = math.isqrt(hi - 1)
    primes = _primes_up_to(r)
    assert primes[-1] <= r < primes[-1] + 100 and len(primes) == len(set(primes))
    segment = _sieve_segment(lo, hi, primes)
    assert segment.dtype == np.int8
    assert [int(v) for v in segment] == [mu_by_trial_division(n, primes) for n in range(lo, hi)]


@pytest.mark.parametrize("lo", [0, 2**31], ids=["int32", "int64"])
def test_segment_peak_within_the_sieve_estimate(lo):
    hi = lo + _SIEVE_BLOCK
    r = math.isqrt(hi - 1)
    primes = _primes_up_to(r)
    tracemalloc.start()
    try:
        _sieve_segment(lo, hi, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sieve_bytes(hi - 1) - _prime_bytes(r)


@pytest.mark.parametrize("r", [1, 2, 100, 10**6])
def test_base_primes_peak_within_their_estimate(r):
    tracemalloc.start()
    try:
        primes = _primes_up_to(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _prime_bytes(r)
    assert [p for p in primes if p <= 1000] == primes_by_trial_division(min(r, 1000))


def test_mobius_peak_memory_is_the_table_plus_one_segment():
    limit = 2**22
    tracemalloc.start()
    try:
        build_mobius(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (limit + 1) + 16 * _SIEVE_BLOCK


def refuse_allocation(*args, **kwargs):
    raise AssertionError("allocated before the memory guard refused")


def half_a_gib_of_physical_memory(name: str) -> int:
    return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**17}[name]


def test_mobius_refuses_tables_beyond_physical_memory(monkeypatch):
    # never test this by allocating: the guard must refuse first
    monkeypatch.setattr(os, "sysconf", half_a_gib_of_physical_memory)
    monkeypatch.setattr(np, "ones", refuse_allocation)
    monkeypatch.setattr(np, "empty", refuse_allocation)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"needs an estimated 1\.9 GiB of Möbius.* 0\.5 GiB"):
            build_mobius(2 * 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mobius_sum_trivial_cutoffs(mobius_1k):
    assert mobius_sum_over_k(mobius_1k, 1) == 1.0
    assert mobius_sum_over_k(mobius_1k, 3) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_mobius_logsum_trivial_cutoffs(mobius_1k):
    assert mobius_logsum_over_k(mobius_1k, 1) == 0.0
    assert mobius_logsum_over_k(mobius_1k, 2) == pytest.approx(-math.log(2) / 2, abs=1e-15)


def test_partial_sums_approach_limits(mobius_1m):
    # limits are 0 and -1; magnitudes shrink between the decades tested
    assert abs(mobius_sum_over_k(mobius_1m, 10**6)) < abs(mobius_sum_over_k(mobius_1m, 10**4))
    assert abs(mobius_logsum_over_k(mobius_1m, 10**6) + 1.0) < abs(
        mobius_logsum_over_k(mobius_1m, 10**4) + 1.0
    )


@pytest.mark.parametrize("n", [_DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, _DIVIDE_BLOCK + 1, 3 * _DIVIDE_BLOCK + 5])
def test_blocked_sums_equal_the_whole_array_sums(n, mobius_100k):
    # one block less one term, one block, one term into the next, and
    # three blocks and a short one
    assert mobius_sum_over_k(mobius_100k, n).hex() == mobius_sum_whole(mobius_100k, n).hex()
    assert mobius_logsum_over_k(mobius_100k, n).hex() == mobius_logsum_whole(mobius_100k, n).hex()


def test_sums_hold_one_block_at_ten_million():
    # 400 MB at 10^7 when each sum formed its float64 arrays over the whole range
    table = build_mobius(10**7)
    tracemalloc.start()
    try:
        mobius_sum_over_k(table, 10**7)
        mobius_logsum_over_k(table, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


class TestWalkParts:
    B = _DIVIDE_BLOCK

    def terms(self, lo, j):
        # x at the j of the piece, and a second sum of -x/2
        assert j[0] == lo and np.array_equal(j, np.arange(lo, lo + j.size))
        x = self.x[lo - 1 : lo - 1 + j.size]
        return [x, -x * 0.5]

    def setup_method(self):
        rng = np.random.default_rng(27)
        size = 5 * self.B + 7
        self.x = rng.uniform(-1.0, 1.0, size) * np.exp2(rng.integers(-80, 1, size))

    def test_parts_at_every_cut_sum_exactly(self):
        b = self.B
        cuts = [0, 1, 5, b - 1, b, b + 1, 2 * b, 3 * b + 2, 3 * b + 3, 5 * b + 7]
        got = list(_walk_parts(self.terms, 2, cuts))
        assert len(got) == len(cuts)
        for c, (first, second) in zip(cuts, got):
            assert exact_sum(first) == exact_sum(self.x[:c]), c
            assert exact_sum(second) == exact_sum(-self.x[:c] * 0.5), c
            assert len(first) <= 32 and len(second) <= 32

    def test_start_leaves_out_the_first_terms(self):
        ((parts, _),) = _walk_parts(self.terms, 2, [2 * self.B + 9], start=3)
        assert exact_sum(parts) == exact_sum(self.x[2 : 2 * self.B + 9])

    def test_parts_stay_few_over_many_blocks_and_cuts(self):
        # a cut every 97 indices: the running parts are re-compressed at each
        cuts = list(range(1, 3 * self.B, 97))
        lengths = [len(parts) for parts, _ in _walk_parts(self.terms, 2, cuts)]
        assert max(lengths) <= 6


def test_sum_cutoff_out_of_range(mobius_1k):
    with pytest.raises(ValueError):
        mobius_sum_over_k(mobius_1k, 1001)
    with pytest.raises(ValueError):
        mobius_logsum_over_k(mobius_1k, 0)


def test_bounded_divisor_sum_trivial(mobius_1k):
    assert bounded_divisor_sum(6, 6, mobius_1k) == 0  # 1 - 1 - 1 + 1
    assert bounded_divisor_sum(6, 2, mobius_1k) == 0  # 1 - 1
    assert bounded_divisor_sum(12, 3, mobius_1k) == -1  # 1 - 1 - 1


def test_bounded_divisor_sum_within_tau(mobius_1k):
    assert [tau_by_divisor_pairs(n) for n in (1, 2, 12, 36)] == [1, 2, 6, 9]
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = int(rng.integers(1, 601))
        n = int(rng.integers(1, 601))
        assert abs(bounded_divisor_sum(j, n, mobius_1k)) <= tau_by_divisor_pairs(j)


def test_bounded_divisor_sum_needs_table_coverage():
    small = build_mobius(5)
    with pytest.raises(ValueError):
        bounded_divisor_sum(12, 12, small)  # divisor 6 <= n but beyond table
    assert bounded_divisor_sum(12, 3, small) == -1  # needed divisors are covered


def test_tables_are_read_only(mobius_1k):
    with pytest.raises(ValueError):
        mobius_1k.values[3] = 1


# exact_parts / exact_sum against math.fsum, the oracle: both are exactly
# rounded, so they must agree with ==, the sign of a zero result included.


def assert_same_float(got: float, want: float) -> None:
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def check_against_fsum(x: np.ndarray) -> None:
    assert_same_float(exact_sum(x), math.fsum(x.tolist()))
    # the lemma itself: the parts add up exactly to the terms.  Every float
    # is a multiple of 2^-1074, so a nonzero exact difference rounds to a
    # nonzero float.
    if np.all(np.isfinite(x)) and np.max(np.abs(x), initial=0.0) < 1e300:
        assert math.fsum(exact_parts(x) + (-x).tolist()) == 0.0


def spread_array(rng, size: int) -> np.ndarray:
    """Mixed signs, magnitudes spread over e^-30 .. e^30."""
    return rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-30.0, 30.0, size))


@pytest.mark.parametrize("seed", range(8))
def test_exact_sum_matches_fsum_on_spread_magnitudes(seed):
    rng = np.random.default_rng(seed)
    for size in (3, 17, 1000, int(rng.integers(2, 70000))):
        check_against_fsum(spread_array(rng, size))


def test_exact_sum_matches_fsum_with_cancellation():
    rng = np.random.default_rng(11)
    x = spread_array(rng, 5000)
    check_against_fsum(np.concatenate([x, -x[::-1], [1e-300, 2.0**-1074]]))
    check_against_fsum(np.array([1.0, 2.0**-53, -1.0, 2.0**-106, 3.0 * 2.0**-160]))


def test_exact_sum_matches_fsum_on_subnormals():
    rng = np.random.default_rng(3)
    tiny = 2.0**-1074
    x = rng.integers(-(2**40), 2**40, 4096).astype(np.float64) * tiny
    assert np.all(np.abs(x) < 2.0**-1022)
    check_against_fsum(x)
    check_against_fsum(np.concatenate([x, spread_array(rng, 4096)]))


@pytest.mark.parametrize(
    "zeros", [[0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0, 0.0], [-0.0] * 70000]
)
def test_exact_sum_of_signed_zeros(zeros):
    check_against_fsum(np.array(zeros))


@pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
def test_exact_sum_at_block_edges(size):
    check_against_fsum(spread_array(np.random.default_rng(size), size))


def test_exact_sum_complex_is_per_component():
    rng = np.random.default_rng(5)
    z = spread_array(rng, 3000) + 1j * spread_array(rng, 3000)
    got = exact_sum(z)
    assert isinstance(got, complex)
    assert got == complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


def test_exact_sum_near_overflow_takes_the_fallback():
    x = np.array([1e308, -1e308, 1.5e308, 1e292, -3.0])
    assert exact_parts(x) == x.tolist()
    check_against_fsum(x)
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    with pytest.raises(OverflowError):
        exact_sum(np.array([1e308, 1e308]))


@pytest.mark.parametrize("values", [[math.inf], [math.nan], [1.0, -math.inf, 2.0]])
def test_exact_sum_of_non_finite_matches_fsum(values):
    assert_same_float(exact_sum(np.array(values)), math.fsum(values))


def test_exact_sum_of_opposite_infinities_raises_like_fsum():
    with pytest.raises(ValueError) as want:
        math.fsum([math.inf, -math.inf])
    with pytest.raises(ValueError) as got:
        exact_sum(np.array([math.inf, -math.inf]))
    assert str(got.value) == str(want.value)


def test_exact_parts_leaves_its_input_alone():
    x = np.array([1.0, 2.0**-60, -3.5])
    before = x.copy()
    exact_parts(x)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("seed", range(4))
def test_exact_sum_of_a_list_is_that_of_its_array(seed):
    # a list of floats goes to math.fsum as it is: the same float as the
    # exact parts of its array, since both are exactly rounded
    rng = np.random.default_rng(seed)
    x = spread_array(rng, 2000)
    for values in (x.tolist(), np.concatenate([x, -x[::-1], [2.0**-1074]]).tolist(), exact_parts(x), [], [-0.0]):
        assert_same_float(exact_sum(values), exact_sum(np.array(values)))
