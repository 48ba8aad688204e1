import itertools
import math
import tracemalloc

import numpy as np
import pytest

import zfhp.arith
from zfhp import (
    WeightFamily,
    c4_halfplane,
    classify,
    extremal_probe,
    parse_weight_family,
    rm_sequence,
)
from zfhp.weights import (
    TABLE1_STRIPS,
    _prime_sieve_bytes,
    _rm_tail,
    all_integers,
    arithmetic_progression,
    parse_subsequence,
    prime_indices,
    rm_is_bounded,
)

from oracles import c4_partial_sums, prime_indices_incremental, stretchedexp_tail_gammaincc

# one representative family of every kind, in the order of the table
TABLE_FAMILIES = [parse_weight_family(label) for label in TABLE1_STRIPS]

ACCEPTANCE_FAMILIES = [
    *(WeightFamily("power", alpha=a) for a in (0.25, 1.0, 2.0)),
    *(WeightFamily("powerlog", alpha=a, beta=b) for a in (0.25, 1.0, 2.0) for b in (1.0, 2.0)),
    *(WeightFamily("quasiexp", alpha=a) for a in (0.25, 1.0, 2.0)),
    *(WeightFamily("stretchedexp", alpha=a) for a in (0.25, 0.5, 0.9)),
    *(WeightFamily("geometric", eps=e) for e in (0.25, 0.5, 0.9)),
    *(WeightFamily("superexp", alpha=a) for a in (1.5, 2.0)),
    WeightFamily("identity"),
]


class TestWeightFamily:
    def test_parse_round_trip(self):
        for text, label in (
            ("identity", "identity"),
            ("power:0.25", "power:0.25"),
            ("powerlog:1,2", "powerlog:1.0,2.0"),
            ("quasiexp:1", "quasiexp:1.0"),
            ("stretchedexp:0.5", "stretchedexp:0.5"),
            ("geometric:0.5", "geometric:0.5"),
            ("superexp:2", "superexp:2.0"),
        ):
            fam = parse_weight_family(text)
            assert fam.label == label
            assert parse_weight_family(fam.label) == fam

    def test_label_keeps_every_digit(self):
        # parameters that agree to six significant digits print apart
        a, b = parse_weight_family("power:0.123456789"), parse_weight_family("power:0.1234571")
        assert (a.params, b.params) == ("0.123456789", "0.1234571")
        awkward = [WeightFamily("power", alpha=0.25000001), WeightFamily("powerlog", alpha=1 / 3, beta=0.1),
                   WeightFamily("geometric", eps=1 - 2**-40), WeightFamily("superexp", alpha=np.float64(1.1))]
        for fam in [*ACCEPTANCE_FAMILIES, *TABLE_FAMILIES, *awkward]:
            assert parse_weight_family(fam.label) == fam, fam.label

    def test_parse_errors(self):
        for text in ("nope", "power", "power:0", "power:1,2", "geometric:1.5", "superexp:0.5"):
            with pytest.raises(ValueError):
                parse_weight_family(text)

    def test_weights_at_least_one(self):
        n = np.arange(0, 200)
        for fam in ACCEPTANCE_FAMILIES:
            w = fam.w(n)
            assert np.all(w >= 1.0), fam.label

    def test_w0_is_one_everywhere(self):
        for fam in ACCEPTANCE_FAMILIES:
            assert float(fam.w(0)) == 1.0

    def test_small_n_conventions(self):
        assert float(WeightFamily("powerlog", alpha=1.0, beta=2.0).w(1)) == 1.0
        assert float(WeightFamily("quasiexp", alpha=1.0).w(1)) == 1.0
        assert float(WeightFamily("geometric", eps=0.5).w(1)) == 2.0

    def test_fast_growth_saturates_to_inf(self):
        fam = WeightFamily("superexp", alpha=2.0)
        assert math.isinf(float(fam.w(100)))


class TestC4Halfplane:
    def test_identity(self):
        assert c4_halfplane(WeightFamily("identity")) == 0.5

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
    def test_power(self, alpha):
        assert c4_halfplane(WeightFamily("power", alpha=alpha)) == 0.5 + alpha
        assert c4_halfplane(WeightFamily("powerlog", alpha=alpha, beta=1.0)) == 0.5 + alpha

    @pytest.mark.parametrize(
        "fam",
        [
            WeightFamily("geometric", eps=0.5),
            WeightFamily("quasiexp", alpha=1.0),
            WeightFamily("stretchedexp", alpha=0.5),
            WeightFamily("superexp", alpha=2.0),
        ],
    )
    def test_no_halfplane_kinds(self, fam):
        assert c4_halfplane(fam) is None

    @pytest.mark.parametrize(
        "fam",
        [WeightFamily("identity"), WeightFamily("power", alpha=1.0)],
    )
    def test_numeric_cross_check_at_threshold(self, fam):
        # partial sums between 1e5 and 1e6 flatten above r* and keep
        # growing below it
        r_star = c4_halfplane(fam)
        s1, s2 = c4_partial_sums(fam, r_star + 0.1, (10**5, 10**6))
        assert s2 / s1 < 1.05
        s1, s2 = c4_partial_sums(fam, r_star - 0.1, (10**5, 10**6))
        assert s2 / s1 > 1.2

    def test_numeric_divergence_for_geometric_at_any_r(self):
        s1, s2 = c4_partial_sums(WeightFamily("geometric", eps=0.5), 5.0, (10**2, 10**3))
        assert math.isinf(s2) or s2 / s1 > 1.2


class TestRmSequence:
    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.9])
    def test_geometric_is_constant(self, eps):
        want = 1.0 / (1.0 - eps * eps)
        rm = rm_sequence(WeightFamily("geometric", eps=eps), 50)
        assert np.max(np.abs(rm - want)) < 1e-10

    def test_power_two_grows_linearly(self):
        rm = rm_sequence(WeightFamily("power", alpha=2.0), 1000)
        m = np.arange(10, 1001)
        assert np.all(rm[10:] >= m / 4.0)
        assert rm[1000] > 100.0
        assert np.all(np.diff(rm[10:]) > 0)

    def test_divergent_kinds_report_inf(self):
        assert np.all(np.isinf(rm_sequence(WeightFamily("identity"), 5)))
        assert np.all(np.isinf(rm_sequence(WeightFamily("power", alpha=0.5), 5)))
        assert np.all(np.isinf(rm_sequence(WeightFamily("powerlog", alpha=0.4, beta=1.0), 5)))

    def test_superexp_tends_to_one(self):
        rm = rm_sequence(WeightFamily("superexp", alpha=2.0), 20)
        assert np.all(np.isfinite(rm))
        assert abs(rm[20] - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "fam,cutoff",
        [
            (WeightFamily("power", alpha=2.0), 10**4),
            (WeightFamily("quasiexp", alpha=1.0), 10**3),
            (WeightFamily("stretchedexp", alpha=0.5), 10**3),
            (WeightFamily("geometric", eps=0.5), 10**3),
            (WeightFamily("superexp", alpha=1.5), 10**3),
        ],
    )
    def test_doubling_cutoff_stays_within_tail_bound(self, fam, cutoff):
        m_max = 20
        base = rm_sequence(fam, m_max, cutoff)
        refined = rm_sequence(fam, m_max, 2 * cutoff)
        w_sq = fam.w(np.arange(m_max + 1)) ** 2
        allowance = w_sq * _rm_tail(fam, cutoff) + 1e-12 * np.abs(base)
        assert np.all(np.abs(refined - base) <= allowance)

    def test_stretchedexp_tail_bounds_the_gammaincc_oracle(self):
        branches = set()
        for alpha in (0.05, 0.1, 0.2, 0.5, 0.9, 0.99):
            a = 1.0 / alpha
            for t in (1, 3, 10, 10**3, 10**6):
                branches.add(2.0 * t**alpha > a - 1.0)
                bound = _rm_tail(WeightFamily("stretchedexp", alpha=alpha), t)
                oracle = stretchedexp_tail_gammaincc(alpha, t)
                assert bound >= oracle
                assert bound <= 1.5 * oracle or oracle == bound == 0.0
        assert branches == {False, True}

    def test_stretchedexp_beyond_float_range_is_inf_not_an_error(self):
        # a = 250: the tail near Gamma(250) / 2^250 is beyond float range
        rm = rm_sequence(WeightFamily("stretchedexp", alpha=0.004), 3)
        assert np.all(np.isinf(rm))

    def test_m_max_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError):
            rm_sequence(WeightFamily("geometric", eps=0.5), 100, 50)

    @pytest.mark.parametrize(
        "family, m_max, cutoff, message",
        [("power:2", -1, None, "m_max must be >= 0"), ("quasiexp:1", 1, 2, "tail_cutoff must be >= 3")],
        ids=["negative-m-max", "quasiexp-cutoff-below-3"],
    )
    def test_invalid_arguments_refused(self, family, m_max, cutoff, message):
        with pytest.raises(ValueError, match=message):
            rm_sequence(parse_weight_family(family), m_max, cutoff)

    # every kind with a finite tail at 10^6 entries; m_max = cutoff holds
    # the most arrays for the power kinds, the exponential kinds loop over m
    @pytest.mark.parametrize(
        "family, m_max",
        [("identity", 10**6), ("power:2", 10**6), ("powerlog:1,2", 10**6), ("quasiexp:1", 3),
         ("stretchedexp:0.5", 3), ("geometric:0.5", 3), ("superexp:2", 3)],
    )
    def test_peak_within_the_charge(self, family, m_max):
        cutoff = 10**6
        tracemalloc.start()
        try:
            rm_sequence(parse_weight_family(family), m_max, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * (cutoff + 1) + 2**12

    def test_refuses_a_cutoff_beyond_memory_before_allocating(self, monkeypatch):
        monkeypatch.setattr(zfhp.arith, "_physical_bytes", lambda: 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^tail_cutoff = 1000000 needs an estimated 0\.1 GiB of r_m buffers"):
                rm_sequence(WeightFamily("power", alpha=2.0), 5, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestClassify:
    def test_spec_examples(self):
        r = classify(WeightFamily("power", alpha=0.25))
        assert (r.c4_halfplane, r.easy_c3_bounded_rm, r.strip) == (0.75, False, "Right")
        r = classify(WeightFamily("geometric", eps=0.5))
        assert (r.c4_halfplane, r.easy_c3_bounded_rm, r.strip) == (None, True, "Left")
        r = classify(WeightFamily("stretchedexp", alpha=0.5))
        assert (r.c4_halfplane, r.easy_c3_bounded_rm, r.strip) == (None, False, "None")

    def test_full_parameter_sweep(self):
        expected = {
            "identity": "Right",
            "power": "Right",
            "powerlog": "Right",
            "quasiexp": "None",
            "stretchedexp": "None",
            "geometric": "Left",
            "superexp": "Left",
        }
        for fam in ACCEPTANCE_FAMILIES:
            assert classify(fam).strip == expected[fam.kind], fam.label

    def test_pure_function(self):
        fam = WeightFamily("power", alpha=1.0)
        assert classify(fam) == classify(fam)

    def test_table_families_cover_all_kinds(self):
        assert len(TABLE_FAMILIES) == 7
        assert [classify(f).strip for f in TABLE_FAMILIES] == [
            "Right",
            "Right",
            "Right",
            "None",
            "None",
            "Left",
            "Left",
        ]

    def test_mutual_exclusion_across_strip_levels(self):
        # no classified family supports both diagnostics at any level r
        for fam in ACCEPTANCE_FAMILIES:
            result = classify(fam)
            for r in np.linspace(0.51, 0.99, 25):
                has_halfplane_at_r = (
                    result.c4_halfplane is not None and result.c4_halfplane <= r
                )
                assert not (has_halfplane_at_r and result.easy_c3_bounded_rm), fam.label


class TestExtremalProbe:
    def test_power_ratio_identically_one(self):
        result = extremal_probe(WeightFamily("power", alpha=0.25), 0.75, all_integers(), 1000)
        assert result.running_min == 1.0
        assert result.running_max == 1.0
        assert np.all(result.ratios == 1.0)

    def test_identity_ratio_decays(self):
        result = extremal_probe(WeightFamily("identity"), 0.75, all_integers(), 10**4)
        assert result.running_max == 1.0
        assert result.running_min < 0.1
        assert result.running_min == pytest.approx((10**4) ** -0.25, rel=1e-12)

    def test_geometric_explodes_quickly(self):
        result = extremal_probe(WeightFamily("geometric", eps=0.5), 0.75, all_integers(), 30)
        assert result.running_max > 1e6

    def test_prime_subsequence(self):
        result = extremal_probe(WeightFamily("identity"), 0.75, prime_indices(), 100)
        assert result.indices[0] == 2
        assert result.indices[-1] == 541  # the 100th prime

    def test_validation(self):
        fam = WeightFamily("identity")
        with pytest.raises(ValueError):
            extremal_probe(fam, 0.4, all_integers(), 10)
        with pytest.raises(ValueError):
            extremal_probe(fam, 0.75, iter([3, 2, 1]), 3)
        with pytest.raises(ValueError):
            extremal_probe(fam, 0.75, iter([1, 2]), 5)  # generator too short

    @pytest.mark.parametrize(
        "subsequence, count, sieve",
        [(all_integers, 2**16, lambda count: 0), (prime_indices, 2**17, _prime_sieve_bytes)],
        ids=["all", "primes"],
    )
    def test_peak_within_the_guard_estimate(self, subsequence, count, sieve):
        family = WeightFamily("powerlog", alpha=1.0, beta=2.0)  # the most log_w temporaries
        tracemalloc.start()
        try:
            extremal_probe(family, 0.75, subsequence(), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * count + sieve(count)

    @pytest.mark.parametrize("count", [1, 5, 6, 100, 2**14])
    def test_sieve_peak_within_its_estimate(self, count):
        tracemalloc.start()
        try:
            primes = list(itertools.islice(prime_indices(), count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the yielded list itself is the caller's: 8 bytes a slot and 28 an int
        assert peak <= _prime_sieve_bytes(count) + 36 * count
        assert len(primes) == count

    def test_cumulative_traces(self):
        result = extremal_probe(WeightFamily("identity"), 0.75, all_integers(), 10)
        assert np.all(np.diff(result.cumulative_min()) <= 0)
        assert np.all(result.cumulative_max() == 1.0)


def test_parse_subsequence():
    for text, first in (("all", [1, 2, 3]), ("Primes", [2, 3, 5]), ("arith:3,4", [3, 7, 11])):
        assert list(itertools.islice(parse_subsequence(text), 3)) == first
    for text in ("bogus", "arith:0,2", "arith:3"):
        with pytest.raises(ValueError):
            parse_subsequence(text)


def test_subsequence_generators():
    it = arithmetic_progression(3, 4)
    assert [next(it) for _ in range(4)] == [3, 7, 11, 15]
    primes = prime_indices()
    assert [next(primes) for _ in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        arithmetic_progression(0, 2)


def test_segmented_primes_match_incremental_sieve():
    # across the doubling segments and many segments of the largest size
    count = 10**5
    got = list(itertools.islice(prime_indices(), count))
    assert got == list(itertools.islice(prime_indices_incremental(), count))
    assert all(type(p) is int for p in got[:10])


def test_rm_bounded_flags():
    assert rm_is_bounded(WeightFamily("geometric", eps=0.5))
    assert rm_is_bounded(WeightFamily("superexp", alpha=2.0))
    assert not rm_is_bounded(WeightFamily("identity"))
    assert not rm_is_bounded(WeightFamily("stretchedexp", alpha=0.5))


def test_power_weight_window_spot_check():
    # numeric spot check of the worked note in the module docstring: for
    # delta inside (alpha - 3/2, alpha - 1/2) the membership sum for
    # f_delta converges while the one for its cumulative-sum image diverges
    alpha = 1.0
    for delta in (-0.25, 0.0, 0.25):
        assert alpha - 1.5 < delta < alpha - 0.5
        k = np.arange(1, 10**6 + 1, dtype=np.float64)
        member = np.cumsum(k ** (2.0 * delta - 2.0 * alpha))
        image = np.cumsum(k ** (2.0 * (delta + 1.0) - 2.0 * alpha))
        assert member[-1] / member[10**5 - 1] < 1.05  # flattens: f_delta in the space
        assert image[-1] / image[10**5 - 1] > 1.2  # keeps growing: image escapes
