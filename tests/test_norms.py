import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from zfhp import (
    QuadratureWarning,
    TruncatedSeries,
    duren_coefficient_check,
    hardy_from_lq_check,
    hp_norm_estimate,
    lq_norm,
    reverse_holder_check,
)
from zfhp.norms import (
    boundary_values,
    circle_abs_power_integral,
    circle_mean,
    default_node_count,
    half_offset_points,
    reverse_holder_constant,
    sup_norm_estimate,
    two_level_means,
)


def random_polynomials(count: int, max_degree: int = 64, seed: int = 20260809):
    """Seeded complex polynomials with coefficients in [-1, 1]^2."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        degree = int(rng.integers(1, max_degree + 1))
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        out.append(TruncatedSeries(coeffs))
    return out


class TestLqNorm:
    def test_examples(self):
        assert lq_norm(TruncatedSeries([1.0, -1.0]), 1.5) == pytest.approx(2 ** (2 / 3), abs=1e-15)
        assert lq_norm(TruncatedSeries([0, 0, 0, -2.5]), 0.7) == pytest.approx(2.5, abs=1e-15)
        assert lq_norm(TruncatedSeries([1, 1, 1, 1]), 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            lq_norm(TruncatedSeries([1.0]), 0.0)

    def test_quasi_triangle_below_one(self):
        rng = np.random.default_rng(5)
        q = 0.5
        for _ in range(20):
            f = TruncatedSeries(rng.normal(size=30))
            g = TruncatedSeries(rng.normal(size=30))
            lhs = lq_norm(TruncatedSeries(f.coeffs + g.coeffs), q) ** q
            rhs = lq_norm(f, q) ** q + lq_norm(g, q) ** q
            assert lhs <= rhs * (1 + 1e-12)


class TestBoundaryValues:
    def test_matches_polyval_oracle(self):
        rng = np.random.default_rng(2)
        f = TruncatedSeries(rng.normal(size=40) + 1j * rng.normal(size=40))
        nodes = 64
        got = boundary_values(f, nodes)
        want = np.polyval(f.coeffs[::-1], half_offset_points(nodes))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_z_equal_one_never_sampled(self):
        pts = half_offset_points(32)
        assert np.min(np.abs(pts - 1.0)) > 1e-3

    def test_folding_handles_degree_above_nodes(self):
        rng = np.random.default_rng(3)
        f = TruncatedSeries(rng.normal(size=200))
        nodes = 16
        got = boundary_values(f, nodes)
        want = np.polyval(f.coeffs[::-1], half_offset_points(nodes))
        assert np.max(np.abs(got - want)) < 1e-11


class TestHpNorm:
    def test_constant(self):
        for p in (0.3, 1.0, 2.0, 4.0):
            assert hp_norm_estimate(TruncatedSeries([-3.0]), p, 16) == pytest.approx(3.0)

    def test_monomial_is_unimodular(self):
        f = TruncatedSeries([0, 0, 0, 1.0])
        for p in (0.5, 1.0, 2.0):
            assert hp_norm_estimate(f, p, 32) == pytest.approx(1.0, abs=1e-14)

    def test_one_plus_z_parseval(self):
        f = TruncatedSeries([1.0, 1.0])
        assert hp_norm_estimate(f, 2.0, 16) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_parseval_random(self):
        for f in random_polynomials(10, seed=1):
            nodes = default_node_count(f.degree)
            assert hp_norm_estimate(f, 2.0, nodes) == pytest.approx(
                lq_norm(f, 2.0), abs=1e-12, rel=1e-12
            )

    def test_node_validation(self):
        f = TruncatedSeries([1.0])
        with pytest.raises(ValueError):
            hp_norm_estimate(f, 2.0, 8)
        with pytest.raises(ValueError):
            hp_norm_estimate(f, 2.0, 17)
        with pytest.raises(ValueError):
            hp_norm_estimate(f, 0.0, 16)

    def test_undersampling_warns(self):
        f = TruncatedSeries(np.ones(100))
        with pytest.warns(QuadratureWarning):
            hp_norm_estimate(f, 2.0, 16)

    def test_nesting_in_p(self):
        for f in random_polynomials(10, seed=4):
            nodes = default_node_count(f.degree)
            v_half = hp_norm_estimate(f, 0.5, nodes)
            v_one = hp_norm_estimate(f, 1.0, nodes)
            v_two = hp_norm_estimate(f, 2.0, nodes)
            assert v_half <= v_one + 1e-12
            assert v_one <= v_two + 1e-12

    def test_circle_means_nondecreasing_in_radius(self):
        for f in random_polynomials(5, seed=6):
            nodes = default_node_count(f.degree)
            for p in (0.5, 1.0, 2.0):
                means = [circle_mean(f, p, nodes, radius=r) for r in (0.3, 0.7, 1.0)]
                assert means[0] <= means[1] + 1e-12
                assert means[1] <= means[2] + 1e-12


U = 2.0**-53


def gamma(n: float) -> float:
    return n * U / (1.0 - n * U)


def fold(x: np.ndarray, size: int) -> np.ndarray:
    """x summed modulo size, zero-padded to size (exact model, no rounding claim)."""
    out = np.zeros(-(-x.size // size) * size)
    out[: x.size] = x
    return out.reshape(-1, size).sum(axis=0)


def fft_error_bound(size: int, input_norm: float, input_err: float) -> float:
    """2-norm bound on the output error of a computed power-of-two FFT.

    Higham ("Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    Thm 24.2): a radix-2 FFT of size 2^t with twiddle factors accurate to
    mu has relative 2-norm error at most t eta/(1 - t eta), eta = mu +
    gamma_4 (sqrt 2 + mu); here mu = 2u.  The real FFT is taken under the
    same model.  An input error d adds its exact transform, of 2-norm
    sqrt(size) |d|, and the exact output has norm sqrt(size) |x|.
    """
    t = math.log2(size)
    assert t == int(t)
    eta = 2.0 * U + gamma(4) * (math.sqrt(2.0) + 2.0 * U)
    kappa = t * eta / (1.0 - t * eta)
    return math.sqrt(size) * (input_err + kappa * (input_norm + input_err))


def per_level_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on ``boundary_values`` of real ``a`` at ``nodes`` (a power of two).

    The phase exp(i pi m/nodes) is formed from an angle with relative error
    at most 5u and cos/sin within 2u each, and one rounding multiplies it
    by a_m: an error of |a_m| (5 pi m/nodes + 4) u.  Folding r blocks adds
    gamma_(r-1) times the folded |a| (Higham, sec. 4.2).  The inverse FFT
    scales each output by 1/nodes, one more rounding; the scaling back by
    a power of two is exact.
    """
    r = -(-a.size // nodes)
    m = np.arange(a.size, dtype=np.float64)
    phase = np.abs(a) * (5.0 * math.pi * m / nodes + 4.0) * U
    err = (1.0 + gamma(r - 1)) * fold(phase, nodes) + gamma(r - 1) * fold(np.abs(a), nodes)
    norm, err_norm = float(np.linalg.norm(fold(np.abs(a), nodes))), float(np.linalg.norm(err))
    return fft_error_bound(nodes, norm, err_norm) + 2.0 * U * math.sqrt(nodes) * (norm + err_norm)


def one_fft_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on the real FFT of ``two_level_means``: a real fold, then one FFT."""
    size = 4 * nodes
    r = -(-a.size // size)
    folded = fold(np.abs(a), size)
    return fft_error_bound(size, float(np.linalg.norm(folded)), gamma(r - 1) * float(np.linalg.norm(folded)))


def p_mean_deviation(value: float, count: int, p: float, lower: np.ndarray, err: float) -> float:
    """Bound on |value - exact p-mean| for a p-mean of ``count`` computed node values.

    ``lower`` bounds both the computed and the exact |f| at each node from
    below, and ``err`` the 2-norm of their differences.  For 0 < p <= 1,
    | |x|^p - |y|^p | <= p |x - y| min(|x|, |y|)^(p-1) and <= |x - y|^p;
    the first, summed by Cauchy-Schwarz, serves nodes with lower >= err,
    the second, summed by Hölder, the others.  The mean of |x|^p carries
    the rounding of abs, pow and a pairwise sum, gamma_(count + 6) in
    all; the final pow(., 1/p) adds 4u, and (A + D)^(1/p) - A^(1/p) bounds
    the effect of a shift |D| in A, since t^(1/p) is convex.
    """
    large = lower >= err
    small = count - int(np.count_nonzero(large))
    shift = p * err * math.sqrt(float(np.sum(lower[large] ** (2.0 * p - 2.0))))
    shift += small ** (1.0 - p / 2.0) * err**p
    mean = value**p * (1.0 + 8.0 * U)
    d = shift / count + 2.0 * gamma(count + 6) * mean
    return (mean + d) ** (1.0 / p) - mean ** (1.0 / p) + 4.0 * U * value


class TestTwoLevelMeans:
    @pytest.mark.parametrize("nodes", [16, 1024])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("length", ["below", "equal", "above"])
    def test_matches_per_level_oracle(self, nodes, p, length):
        # oracle: hp_norm_estimate at nodes and 2 nodes, each by its own
        # phase multiply, fold and complex FFT; degree 4M - 1 is "equal"
        size = 4 * nodes
        count = {"below": size - nodes // 2, "equal": size, "above": 3 * size + nodes // 2 + 7}[length]
        rng = np.random.default_rng(nodes + count + int(100 * p))
        a = rng.normal(size=count)
        got = two_level_means(a, p, nodes)
        new_err = one_fft_error(a, nodes)
        for level, value in zip((nodes, 2 * nodes), got):
            f = TruncatedSeries(a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuadratureWarning)
                want = hp_norm_estimate(f, p, level)
            old_mags = np.abs(boundary_values(f, level))
            old_err = per_level_error(a, level)
            # abs carries 2u; the real FFT reads the first half of the nodes
            # of each level, where the old and exact |f| are within old_err
            lower = old_mags * (1.0 - 2.0 * U) - old_err
            tol = p_mean_deviation(want, level, p, lower, old_err) + p_mean_deviation(
                value, level // 2, p, lower[: level // 2] - new_err, new_err
            )
            assert abs(value - want) <= tol, (level, value, want, tol)
            assert tol <= 1e-11 * want  # the derived bound still tells the paths apart

    def test_parseval_at_p2(self):
        a = np.random.default_rng(7).normal(size=100)
        coarse, fine = two_level_means(a, 2.0, 128)
        assert coarse == pytest.approx(float(np.linalg.norm(a)), rel=1e-13)
        assert fine == pytest.approx(float(np.linalg.norm(a)), rel=1e-13)

    def test_validation(self):
        a = np.ones(4)
        for nodes in (8, 15, 17):
            with pytest.raises(ValueError, match="even integer >= 16"):
                two_level_means(a, 0.5, nodes)
        with pytest.raises(ValueError, match="positive"):
            two_level_means(a, 0.0, 16)

    def test_refuses_nodes_beyond_memory_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB of transform buffers"):
                two_level_means(np.ones(4), 0.5, 2**40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDuren:
    def test_constant(self):
        lhs, rhs = duren_coefficient_check(TruncatedSeries([1.0]), 64)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(math.pi)

    def test_single_z(self):
        lhs, rhs = duren_coefficient_check(TruncatedSeries([0.0, 1.0]), 64)
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(math.pi)

    def test_random_battery(self):
        for f in random_polynomials(100):
            lhs, rhs = duren_coefficient_check(f)
            assert lhs <= rhs + 1e-9


class TestHardyFromLq:
    def test_parseval_equality_at_q2(self):
        for f in random_polynomials(10, seed=8):
            lhs, rhs = hardy_from_lq_check(f, 2.0)
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_extremal_case_q1(self):
        lhs, rhs = hardy_from_lq_check(TruncatedSeries([1.0, 1.0]), 1.0, 4096)
        assert rhs == 2.0
        assert lhs <= rhs
        assert lhs == pytest.approx(2.0, abs=1e-5)

    def test_random_battery_q15(self):
        for f in random_polynomials(100):
            lhs, rhs = hardy_from_lq_check(f, 1.5)
            assert lhs <= rhs + 1e-9

    def test_rejects_q_outside_range(self):
        f = TruncatedSeries([1.0])
        with pytest.raises(ValueError):
            hardy_from_lq_check(f, 0.9)
        with pytest.raises(ValueError):
            hardy_from_lq_check(f, 2.1)


class TestReverseHolder:
    def test_admissibility(self):
        f = TruncatedSeries([1.0])
        with pytest.raises(ValueError):
            reverse_holder_check(f, 1.0, 0.5, 64)  # q = p/(1+p) exactly: excluded
        with pytest.raises(ValueError):
            reverse_holder_check(f, 1.0, 0.9, 64)

    def test_zero_series(self):
        lhs, rhs = reverse_holder_check(TruncatedSeries([0.0, 0.0]), 1.0, 0.4, 64)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_exact_division_one_minus_z(self):
        lhs, rhs = reverse_holder_check(TruncatedSeries([1.0, -1.0]), 1.0, 0.4, 1024)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs > 0.0
        assert lhs <= rhs

    def test_constant_integral_closed_form(self):
        # oracle: direct quadrature of |1 - e^(i theta)|^beta against the
        # Gamma-function closed form
        for beta in (2.0, -0.4, -2.0 / 3.0):
            oracle = quad(lambda t: (2.0 * math.sin(t / 2.0)) ** beta, 0.0, math.pi, limit=200)[0]
            assert circle_abs_power_integral(beta) == pytest.approx(oracle / math.pi, rel=1e-9)
        with pytest.raises(ValueError):
            circle_abs_power_integral(-1.0)

    def test_constant_value_p1_q04(self):
        # C = I^(3/2) with I = int |1-z|^(-2/3) dm
        want = circle_abs_power_integral(-2.0 / 3.0) ** 1.5
        assert reverse_holder_constant(1.0, 0.4) == pytest.approx(want, rel=1e-12)

    def test_random_battery_with_refinement(self):
        for f in random_polynomials(100):
            lhs, rhs = reverse_holder_check(f, 1.0, 0.4, 4096)
            assert lhs <= rhs + 1e-9
        # refinement control on a subsample
        for f in random_polynomials(10, seed=13):
            v1, _ = reverse_holder_check(f, 1.0, 0.4, 4096)
            v2, _ = reverse_holder_check(f, 1.0, 0.4, 8192)
            assert abs(v1 - v2) <= 1e-4 * max(v1, 1e-12)


def test_sup_norm_is_max_over_nodes():
    f = TruncatedSeries([1.0, 1.0])
    assert sup_norm_estimate(f, 4096) == pytest.approx(2.0, abs=1e-6)


def test_default_node_count_policy():
    assert default_node_count(0) == 16
    assert default_node_count(3) == 16
    assert default_node_count(64) == 512  # 4 * 65 = 260 -> next power of two
    assert default_node_count(1000) == 4096
