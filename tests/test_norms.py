import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import zfhp.norms
from zfhp import (
    ConditioningError,
    QuadratureWarning,
    TruncatedSeries,
    duren_coefficient_check,
    hardy_from_lq_check,
    hp_norm_estimate,
    lq_norm,
    reverse_holder_check,
)
from zfhp.norms import (
    _quarter_turn,
    boundary_values,
    circle_abs_power_integral,
    default_node_count,
    half_offset_points,
    reverse_holder_constant,
    sup_norm_estimate,
    two_level_means,
)

from oracles import two_level_means_rfft


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

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_nonfinite_q(self, q):
        with pytest.raises(ValueError, match="finite"):
            lq_norm(TruncatedSeries([1.0]), q)

    @pytest.mark.parametrize(
        "coeffs, q",
        [([0.5, 0.25], 1100.0), ([0.0, 1e-300], 4.0), ([2.0] * 4, 1023.0), ([1e300], 4.0)],
        ids=["subnormal", "underflow-to-zero", "sum-overflows", "term-overflows"],
    )
    def test_refuses_terms_outside_the_normal_range(self, coeffs, q):
        with pytest.raises(ConditioningError):
            lq_norm(TruncatedSeries(coeffs), q)

    def test_edges_of_the_normal_range(self):
        # the largest term exactly 2^-1022, and a sum of 2^1023 that fits
        assert lq_norm(TruncatedSeries([0.5, 0.0]), 1022.0) == 0.5
        assert lq_norm(TruncatedSeries([2.0]), 1023.0) == 2.0
        assert lq_norm(TruncatedSeries([0.0, 0.0]), 1e6) == 0.0

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
        # backs the module's "radius 1 only": the p-means of f at r z, taken
        # by np.polyval at the half-offset nodes, grow with r up to 1
        for f in random_polynomials(5, seed=6):
            nodes = default_node_count(f.degree)
            z = np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes)
            for p in (0.5, 1.0, 2.0):
                means = [
                    np.mean(np.abs(np.polyval(f.coeffs[::-1], r * z)) ** p) ** (1.0 / p)
                    for r in (0.3, 0.7, 1.0)
                ]
                assert means[0] <= means[1] + 1e-12
                assert means[1] <= means[2] + 1e-12
                assert means[2] == pytest.approx(hp_norm_estimate(f, p, nodes), rel=1e-12)


U = 2.0**-53


def gamma(n: float) -> float:
    return n * U / (1.0 - n * U)


def fold(x: np.ndarray, size: int) -> np.ndarray:
    """x summed modulo size, zero-padded to size (exact model, no rounding claim)."""
    out = np.zeros(-(-x.size // size) * size)
    out[: x.size] = x
    return out.reshape(-1, size).sum(axis=0)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] * (n > 1)


def fft_error_bound(size: int, input_norm: float, input_err: float) -> float:
    """2-norm bound on the output error of a computed FFT of any length.

    Model: a mixed-radix FFT makes one pass per prime factor r of the size
    (a pass of radix 4 counts as two of radix 2); the pass multiplies by a
    matrix of 2-norm sqrt(r) and is computed with normwise relative error
    eta_r.  Higham ("Accuracy and Stability of Numerical Algorithms", 2nd
    ed., Thm 24.2, whose proof goes pass by pass) then bounds the relative
    2-norm error of the output by prod (1 + eta_r) - 1 <= H/(1 - H), with
    H = sum eta_r.  For r = 2, eta = mu + gamma_4 (sqrt 2 + mu) with
    twiddle factors accurate to mu = 2u (Higham).  For an odd prime r,
    each output of a pass is a sum of r products x_m c_m with |c_m| = 1,
    c_m a twiddle times a root of unity, each accurate to mu: two complex
    products (sqrt 2 gamma_2 each, Higham Lemma 3.5) and a sum of r terms
    give a relative error e_r = (1 + mu)^2 (1 + sqrt 2 gamma_2)^2
    (1 + gamma_(r-1)) - 1 of sum |x_m| <= sqrt(r) |x|, so
    eta_r = sqrt(r) e_r.  For a power of two this is Higham's
    t eta/(1 - t eta).  The real FFT is taken under the same model.  An
    input error d adds its exact transform, of 2-norm sqrt(size) |d|, and
    the exact output has norm sqrt(size) |x|.
    """
    mu = 2.0 * U
    eta = {2: mu + gamma(4) * (math.sqrt(2.0) + mu)}
    total = 0.0
    for r in prime_factors(size):
        if r not in eta:
            e_r = (1.0 + mu) ** 2 * (1.0 + math.sqrt(2.0) * gamma(2)) ** 2 * (1.0 + gamma(r - 1)) - 1.0
            eta[r] = math.sqrt(r) * e_r
        total += eta[r]
    kappa = total / (1.0 - total)
    return math.sqrt(size) * (input_err + kappa * (input_norm + input_err))


def per_level_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on ``boundary_values`` of real ``a`` at ``nodes`` points.

    The phase exp(i pi m/nodes) is formed from an angle with relative error
    at most 5u and cos/sin within 2u each, and one rounding multiplies it
    by a_m: an error of |a_m| (5 pi m/nodes + 4) u.  Folding r blocks adds
    gamma_(r-1) times the folded |a| (Higham, sec. 4.2).  The inverse FFT
    scales each output by 1/nodes, one more rounding (2u for a complex
    value); for a power of two the scaling back by nodes is exact,
    otherwise 1/nodes and the product with nodes add two roundings, gamma_3
    in all.
    """
    r = -(-a.size // nodes)
    m = np.arange(a.size, dtype=np.float64)
    phase = np.abs(a) * (5.0 * math.pi * m / nodes + 4.0) * U
    err = (1.0 + gamma(r - 1)) * fold(phase, nodes) + gamma(r - 1) * fold(np.abs(a), nodes)
    norm, err_norm = float(np.linalg.norm(fold(np.abs(a), nodes))), float(np.linalg.norm(err))
    out = fft_error_bound(nodes, norm, err_norm)
    scale = 2.0 * U if nodes & (nodes - 1) == 0 else gamma(3)
    return out + scale * (math.sqrt(nodes) * norm + out)


def rfft_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on the real FFT of ``two_level_means_rfft``: a real fold, then one FFT."""
    size = 4 * nodes
    r = -(-a.size // size)
    folded = fold(np.abs(a), size)
    return fft_error_bound(size, float(np.linalg.norm(folded)), gamma(r - 1) * float(np.linalg.norm(folded)))


# |h~_m - h_m| for the table h_m = exp(-i pi m/(2M)) of two_level_means: the
# angle m fl(pi/(2M)) carries three roundings, at most gamma_3 pi/2 at angles
# up to pi/2; cos is within 2u of the cosine of its argument, and the sine
# is the cosine at the reflected angle, so each part is within
# gamma_3 pi/2 + 2u.  The scalings by -i and 1/2 are exact.
TWIDDLE_ERR = math.sqrt(2.0) * (gamma(3) * math.pi / 2.0 + 2.0 * U)


def pruned_error(a: np.ndarray, nodes: int) -> tuple[float, float]:
    """2-norm error bounds (coarse, fine) on the values ``two_level_means`` reads.

    Fine: Y_j = X_(4j+1), j < M; coarse: A_j = X_(4j+2), j < K = M/2.
    F is |a| folded modulo M, so |u_m - i v_m| <= F_m and |x_m| <= F_m.

    Inputs.  The fold modulo 4M sums at most r = ceil(size/4M) terms per
    entry (gamma_(r-1)); u, v and x add at most two more levels of sums,
    so each entry of u - iv and of x is within gamma_(r+1) F_m (exact when
    size <= M).  One complex product with h~ (sqrt 2 gamma_2, Higham
    Lemma 3.5) makes c~_m within rho F_m of c_m = h_m (u_m - i v_m), with
    rho = (1 + tau)(1 + gamma_(r+1))(1 + sqrt 2 gamma_2) - 1 and
    tau = ``TWIDDLE_ERR``; the same holds for the packed
    z_t = (x_(2t) + i x_(2t+1)) g_t / 2, with the exact halving.

    Fine level: one FFT of length M of c, |c| <= |F|.  Coarse level: one
    FFT of length K of z, |z| <= |F|/2, whose output Z~ is within dz of
    Z.  The butterfly A = S + w D, S = Z + conj(Z_rev), D = Z - conj(Z_rev),
    |w| = 1, maps an error d of Z to (1 + w) d + (1 - w) conj(d_rev), of
    2-norm at most 2 sqrt 2 |d|, since |1 + w|^2 + |1 - w|^2 = 4.  Its own
    roundings (S and D one each, w~ D with |w~ - w| <= tau and
    sqrt 2 gamma_2, the final sum one) are at most
    sigma (|S_j| + |D_j|) per entry, sigma = (1 + tau)(1 + u)^2
    (1 + sqrt 2 gamma_2) - 1, and |S| + |D| has 2-norm at most
    2 sqrt 2 |Z~| by the parallelogram law.
    """
    size = 4 * nodes
    r = -(-a.size // size)
    norm = float(np.linalg.norm(fold(np.abs(a), nodes)))
    tau, product = TWIDDLE_ERR, math.sqrt(2.0) * gamma(2)
    rho = (1.0 + tau) * (1.0 + gamma(r + 1)) * (1.0 + product) - 1.0
    fine = fft_error_bound(nodes, norm, rho * norm)
    half = nodes // 2
    dz = fft_error_bound(half, norm / 2.0, rho * norm / 2.0)
    sigma = (1.0 + tau) * (1.0 + U) ** 2 * (1.0 + product) - 1.0
    z_norm = math.sqrt(half) * norm / 2.0 + dz
    coarse = 2.0 * math.sqrt(2.0) * (dz + sigma * z_norm)
    return coarse, fine


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
    LENGTHS = {
        "below": lambda m: m - 5,
        "equal": lambda m: m,
        "between": lambda m: 2 * m + m // 2 + 3,
        "above": lambda m: 12 * m + m // 2 + 7,
        "fold_once": lambda m: 4 * m,
        "fold_twice": lambda m: 8 * m,
    }

    @pytest.mark.parametrize("nodes", [16, 18, 1024, 1030])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("length", list(LENGTHS))
    def test_matches_per_level_oracle(self, nodes, p, length):
        # oracles: hp_norm_estimate at nodes and 2 nodes, each by its own
        # phase multiply, fold and complex FFT; and the 4M-point real FFT
        # that two_level_means replaced, which reads the first half of the
        # nodes of each level
        count = self.LENGTHS[length](nodes)
        rng = np.random.default_rng(nodes + count + int(100 * p))
        a = rng.normal(size=count)
        got = two_level_means(a, p, nodes)
        old = two_level_means_rfft(a, p, nodes)
        new_errs = pruned_error(a, nodes)
        old_err = rfft_error(a, nodes)
        f = TruncatedSeries(a)
        # coarse: A_j is node j of the M level, j < M/2; fine: Y_j = X_(4j+1)
        # is node 2j of the 2M level, j < M
        for level, value, ref, new_err, read in zip(
            (nodes, 2 * nodes), got, old, new_errs, (slice(0, nodes // 2), slice(0, None, 2))
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuadratureWarning)
                want = hp_norm_estimate(f, p, level)
            level_err = per_level_error(a, level)
            # abs carries 2u; the exact |f| is within level_err of the
            # per-level path at each node
            lower = np.abs(boundary_values(f, level)) * (1.0 - 2.0 * U) - level_err
            mine = lower[read]
            new_dev = p_mean_deviation(value, mine.size, p, mine - new_err, new_err)
            tol = p_mean_deviation(want, level, p, lower, level_err) + new_dev
            assert abs(value - want) <= tol, (level, value, want, tol)
            assert tol <= 1e-11 * want  # the derived bound still tells the paths apart
            half = lower[: level // 2]
            tol = p_mean_deviation(ref, level // 2, p, half - old_err, old_err) + new_dev
            assert abs(value - ref) <= tol, (level, value, ref, tol)

    def test_cold_and_warm_table_agree_bit_for_bit(self):
        a = np.random.default_rng(11).normal(size=3 * 1030 + 17)
        _quarter_turn.cache_clear()
        cold = two_level_means(a, 0.5, 1030)
        warm = two_level_means(a, 0.5, 1030)
        assert _quarter_turn.cache_info().hits == 1
        two_level_means(a, 0.5, 16)  # evicts the 1030-node table
        again = two_level_means(a, 0.5, 1030)
        assert cold == warm == again

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

        monkeypatch.setattr(np.fft, "fft", refuse)
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

    def test_one_transform_serves_both_sides(self, monkeypatch):
        # h is transformed once; the right side is C times the p-mean of
        # that same transform, and undersampling still warns
        calls = []
        transform = zfhp.norms.boundary_values
        monkeypatch.setattr(zfhp.norms, "boundary_values", lambda f, n: calls.append(n) or transform(f, n))
        f = random_polynomials(1, seed=3)[0]
        lhs, rhs = reverse_holder_check(f, 1.0, 0.4, 64)
        assert calls == [64]
        assert rhs == reverse_holder_constant(1.0, 0.4) * hp_norm_estimate(f, 1.0, 64)
        long = TruncatedSeries(np.ones(100))
        with pytest.warns(QuadratureWarning, match="nodes = 16 undersamples degree 99"):
            reverse_holder_check(long, 1.0, 0.4, 16)

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
