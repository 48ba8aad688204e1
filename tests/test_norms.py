import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import zfhp.arith
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
    _EIGHTH_ROOT_SIGNS,
    _SLICES,
    _TRANSFORM_BYTES_PER_NODE,
    _TWIDDLE_ROWS,
    _fold,
    _level,
    _product_tables,
    _slice,
    _split,
    _sum_of_powers,
    _table_bytes,
    _two_level_bytes,
    boundary_values,
    circle_abs_power_integral,
    default_node_count,
    reverse_holder_constant,
    sup_norm_estimate,
    two_level_means,
)

from zfhp.series import _DIVIDE_BLOCK, CoefficientBlocks

from oracles import (
    boundary_values_ifft,
    fold_periods,
    fold_pieces,
    fold_stacked,
    half_offset_points,
    p_mean,
    pieces_stacked,
    two_level_means_four_step,
    two_level_means_one_buffer,
    two_level_means_pruned,
    two_level_means_rfft,
    two_level_means_whole_tables,
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

    @pytest.mark.parametrize(
        "coeffs, q, raises",
        [([1.0] * 5 + [1e300], 4.0, True), ([1e-300] * 6, 4.0, True), ([0.5, 0.25] * 3, 1100.0, True),
         ([2.0**-300] * 5 + [1.0], 4.0, False), ([1.0] * 5 + [math.inf], 2.0, False),
         ([1.0, math.nan] + [1.0] * 4, 2.0, False)],
        ids=["overflow-in-the-last-block", "subnormal-in-every-block", "subnormal-and-normal",
             "normal-after-subnormal", "infinite", "nan-in-the-first-block"],
    )
    def test_blocks_conditioned_as_the_whole_array(self, coeffs, q, raises):
        # the running max tests overflow before each block's power, and
        # the subnormal test waits for the last block: blocks of 2 raise
        # exactly where the whole array does, with no power taken that
        # would overflow (a RuntimeWarning fails tier-1)
        def blocks():
            mags = np.array(coeffs)
            return (mags[i : i + 2] for i in range(0, mags.size, 2))

        if raises:
            with pytest.raises(ConditioningError):
                _sum_of_powers(blocks(), len(coeffs), q)
            with pytest.raises(ConditioningError):
                lq_norm(TruncatedSeries(coeffs), q)
        else:
            got = float(np.float64(_sum_of_powers(blocks(), len(coeffs), q)) ** (1.0 / q))
            if all(map(math.isfinite, coeffs)):
                assert got == lq_norm(TruncatedSeries(coeffs), q)
            else:  # non-finite magnitudes pass through
                assert not math.isfinite(got)

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


# Coefficient counts against the node count M: below, equal to and above
# it, and folds of several segments of M/2 (the slices) or of M
LENGTHS = {
    "below": lambda m: m - 5,
    "equal": lambda m: m,
    "between": lambda m: 2 * m + m // 2 + 3,
    "above": lambda m: 12 * m + m // 2 + 7,
    "fold_once": lambda m: 4 * m,
    "fold_twice": lambda m: 8 * m,
}


class TestBoundaryValues:
    # 1030 splits L = M/2 = 515 as 5 x 103; 2062 is twice a prime, so its
    # slice is one transform of L = 1031 points, which pocketfft may run as
    # Bluestein; 18 has L = 9 = 3 x 3
    @pytest.mark.parametrize("nodes", [16, 18, 1030, 2062, 24576])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("length", list(LENGTHS))
    def test_matches_the_ifft_oracle(self, nodes, kind, length):
        # the slice s = 2 and the phase multiply, fold and 1-D ifft it
        # replaced are each within their derived 2-norm bound of the exact
        # values, so within the sum of the bounds of each other
        count = LENGTHS[length](nodes)
        rng = np.random.default_rng(nodes + count + (kind == "complex"))
        a = rng.normal(size=count)
        if kind == "complex":
            a = a + 1j * rng.normal(size=count)
        f = TruncatedSeries(a)
        got, want = boundary_values(f, nodes), boundary_values_ifft(f, nodes)
        tol = boundary_error(a, nodes) + per_level_error(a, nodes)
        assert float(np.linalg.norm(got - want)) <= tol
        # the bound still tells the paths apart; where L is prime the
        # Bluestein bound is ~100 times looser
        assert _split(nodes // 2)[0] == 1 or tol <= 1e-11 * float(np.linalg.norm(want))

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

    def test_peak_rss_within_the_charge(self, vmhwm_growth):
        # hp_norm_estimate of 2^21 real coefficients at 2^21 nodes: the
        # slice buffer and the output, 8 + 16 bytes per node, then the
        # output and its magnitudes, 16 + 8; the phase table and 1-D ifft
        # measured 95 bytes per node
        nodes = 2**21
        setup = (
            "import numpy as np\n"
            "from zfhp import TruncatedSeries, hp_norm_estimate\n"
            f"a = np.random.default_rng(3).normal(size={nodes})\n"
            "f = TruncatedSeries(a)\n"
            "hp_norm_estimate(TruncatedSeries(a[:16]), 0.5, 16)"  # loads the FFT module
        )
        growth = vmhwm_growth(setup, f"hp_norm_estimate(f, 0.5, {nodes})")
        assert 0 < growth <= _two_level_bytes(nodes) + 16 * nodes
        assert growth < 40 * nodes

    def test_refuses_nodes_beyond_memory_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("FFT called")

        monkeypatch.setattr(zfhp.arith, "_physical_bytes", lambda: 2**20)
        monkeypatch.setattr(np.fft, "fft", refuse)
        f = TruncatedSeries(np.ones(4))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="nodes = 16777216 needs an estimated .* of transform buffers"):
                hp_norm_estimate(f, 1.0, 2**24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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

    # Every p-mean is the l^q sum of |x|^p and refuses as it does: max |f|
    # is 150 for fifty 3s, so 150^p overflows at p = 200 and beyond (401
    # is the conjugate of q = 1.0025), and (50e-5)^100 = 2^-1099 is below
    # the normal range.  Without the refusal these print inf, or 0.
    @pytest.mark.parametrize(
        "value, call",
        [
            (3.0, lambda f: hp_norm_estimate(f, 200.0, 256)),
            (1e-5, lambda f: hp_norm_estimate(f, 100.0, 256)),
            (3.0, lambda f: hardy_from_lq_check(f, 1.0025, 256)),
            (3.0, lambda f: reverse_holder_check(f, 300.0, 0.5, 256)),
            (3.0, lambda f: two_level_means(f.coeffs, 200.0, 256)),
        ],
        ids=["hp-overflow", "hp-subnormal", "hardy", "reverse-holder", "two-level-means"],
    )
    def test_p_means_refuse_terms_outside_the_normal_range(self, value, call):
        with pytest.raises(ConditioningError, match="outside the normal range of a sum of powers"):
            call(TruncatedSeries(np.full(50, value)))

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


def mixed_radix_error(size: int, input_norm: float, input_err: float) -> float:
    """2-norm bound on the output error of a computed mixed-radix FFT of any length.

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


# |h~ - h| for a twiddle h = exp(-i theta), theta in [0, pi/2], as
# norms._roots and the oracle's quarter-turn table form it: the angle
# n fl(pi/(2M)), n an exact integer, carries three roundings, at most
# gamma_3 pi/2; cos is within 2u of the cosine of its argument, and the
# sine is the cosine at the reflected angle, so each part is within
# gamma_3 pi/2 + 2u.  The products with powers of -i and the scalings by
# -i and 1/2 are exact.
TWIDDLE_ERR = math.sqrt(2.0) * (gamma(3) * math.pi / 2.0 + 2.0 * U)
PRODUCT_ERR = math.sqrt(2.0) * gamma(2)  # a complex product (Higham Lemma 3.5)


def good_size(n: int) -> int:
    """The least 2^a 3^b 5^c 7^d 11^e >= n, pocketfft's padded length for Bluestein."""
    while max(prime_factors(n), default=1) > 11:
        n += 1
    return n


def cost_guess(n: int) -> float:
    """pocketfft's operation-count estimate of a mixed-radix FFT of length n."""
    cost = 0.0
    for r in prime_factors(n):
        cost += r if r <= 5 else 1.1 * r
    return cost * n


def bluestein_error(size: int, input_norm: float, input_err: float) -> float:
    """2-norm bound on the output error of pocketfft's Bluestein FFT of length n = ``size``.

    With n2 = ``good_size(2n - 1)`` and the chirp b_m = exp(i pi m^2/n),
    the DFT is b (.) (the first n entries of F^-1 [(F a) (.) B]) with
    a = conj(b) (.) x zero-padded to n2, F the unnormalised DFT of length
    n2 and B = F t, t the chirp extended symmetrically and divided by n2.
    Each step in 2-norms, |x| = X:
      a: |a| = X, error e_in + rho (X + e_in), rho = (1 + tau)(1 + sqrt 2 gamma_2) - 1;
      F a: norm sqrt(n2) X, error ``mixed_radix_error`` (n2 has small factors);
      P = (F a) (.) B~: B~ is within eps_B of B entrywise, eps_B the
        mixed-radix bound on F t, |t| = sqrt(2n - 1)/n2, with t within
        (tau + u) of itself; beta = max |B~| + eps_B bounds max |B|, so the
        exact P has norm <= beta sqrt(n2) X, and the product adds
        (|F a| + e)(eps_B + sqrt 2 gamma_2 (beta + eps_B));
      F^-1 P: ``mixed_radix_error`` again;
      b (.): the exact output has norm sqrt(n) X, one more rho.
    B~ is computed here with numpy, whose max modulus only enters beta.
    """
    n, n2 = size, good_size(2 * size - 1)
    rho = (1.0 + TWIDDLE_ERR) * (1.0 + PRODUCT_ERR) - 1.0
    m = np.arange(n, dtype=np.float64)
    chirp = np.exp(1j * math.pi * (m * m % (2 * n)) / n)
    t = np.zeros(n2, dtype=np.complex128)
    t[:n] = chirp / n2
    t[n2 - n + 1 :] = chirp[:0:-1] / n2
    t_norm = math.sqrt(2 * n - 1) / n2
    eps_b = mixed_radix_error(n2, t_norm, (TWIDDLE_ERR + U) * t_norm)
    beta = float(np.max(np.abs(np.fft.fft(t)))) + eps_b
    e = input_err + rho * (input_norm + input_err)
    e = mixed_radix_error(n2, input_norm, e)
    fa = math.sqrt(n2) * input_norm
    e = beta * e + (fa + e) * (eps_b + PRODUCT_ERR * (beta + eps_b))
    e = mixed_radix_error(n2, beta * fa, e)
    return e + rho * (math.sqrt(n) * input_norm + e)


def fft_error_bound(size: int, input_norm: float, input_err: float) -> float:
    """2-norm bound on the output error of numpy's complex FFT of length ``size``.

    pocketfft runs a mixed-radix FFT when the largest prime factor p of
    the length has p^2 <= n (or n < 50); otherwise it compares its cost
    estimates, 3 ``cost_guess(good_size(2n - 1))`` for Bluestein against
    ``cost_guess(n)``.  Where the two estimates are within 25% of each
    other either may run, and the bound is the larger of the two.
    """
    p = max(prime_factors(size), default=1)
    if size < 50 or p * p <= size:
        return mixed_radix_error(size, input_norm, input_err)
    ratio = 3.0 * cost_guess(good_size(2 * size - 1)) / cost_guess(size)
    bounds = []
    if ratio > 0.8:
        bounds.append(mixed_radix_error(size, input_norm, input_err))
    if ratio < 1.25:
        bounds.append(bluestein_error(size, input_norm, input_err))
    return max(bounds)


def per_level_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on ``boundary_values_ifft`` of ``a`` at ``nodes`` points.

    The phase exp(i pi m/nodes) is formed from an angle with relative error
    at most 5u and cos/sin within 2u each, and one rounding multiplies it
    by a real a_m: an error of |a_m| (5 pi m/nodes + 4) u.  For complex
    a_m the product is a complex one, within sqrt 2 gamma_2 < 3u (Higham
    Lemma 3.5), so (5 pi m/nodes + 6) u.  Folding r blocks adds gamma_(r-1)
    times the folded magnitudes of the terms to each part, c = sqrt 2
    times that in modulus for complex a, c = 1 for real (Higham, sec.
    4.2).  The inverse FFT
    scales each output by 1/nodes, one more rounding (2u for a complex
    value); for a power of two the scaling back by nodes is exact,
    otherwise 1/nodes and the product with nodes add two roundings, gamma_3
    in all.
    """
    r = -(-a.size // nodes)
    m = np.arange(a.size, dtype=np.float64)
    cplx = np.iscomplexobj(a)
    phase = np.abs(a) * (5.0 * math.pi * m / nodes + (6.0 if cplx else 4.0)) * U
    c = math.sqrt(2.0) if cplx else 1.0
    err = (1.0 + c * gamma(r - 1)) * fold(phase, nodes) + c * gamma(r - 1) * fold(np.abs(a), nodes)
    norm, err_norm = float(np.linalg.norm(fold(np.abs(a), nodes))), float(np.linalg.norm(err))
    out = fft_error_bound(nodes, norm, err_norm)
    scale = 2.0 * U if nodes & (nodes - 1) == 0 else gamma(3)
    return out + scale * (math.sqrt(nodes) * norm + out)


def rfft_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on the real FFT of ``two_level_means_rfft``: a real fold, then one FFT."""
    size = 4 * nodes
    r = -(-a.size // size)
    folded = fold(np.abs(a), size)
    norm = float(np.linalg.norm(folded))
    bounds = [mixed_radix_error(size, norm, gamma(r - 1) * norm)]
    if max(prime_factors(size)) ** 2 > size:  # its real transform may run Bluestein
        bounds.append(bluestein_error(size, norm, gamma(r - 1) * norm))
    return max(bounds)


def input_error(a: np.ndarray, nodes: int) -> tuple[float, float]:
    """(|F|, rho): F is |a| folded modulo M; rho F_m bounds each pre-twiddled input's error.

    The fold modulo 4M sums at most r = ceil(size/4M) terms per entry
    (gamma_(r-1)); u, v and x add at most two more levels of sums, so each
    entry of u - iv and of x is within gamma_(r+1) F_m (exact when
    size <= M).  One complex product with a twiddle within tau
    (``TWIDDLE_ERR``) gives rho = (1 + tau)(1 + gamma_(r+1))(1 + sqrt 2 gamma_2) - 1.
    """
    r = -(-a.size // (4 * nodes))
    norm = float(np.linalg.norm(fold(np.abs(a), nodes)))
    return norm, (1.0 + TWIDDLE_ERR) * (1.0 + gamma(r + 1)) * (1.0 + PRODUCT_ERR) - 1.0


def butterfly_error(half: int, norm: float, dz: float, sigma: float) -> float:
    """2-norm error bound on the coarse butterfly A = S + w D from Z~, within dz of Z.

    |z| <= |F|/2 = ``norm``/2.  S = Z + conj(Z_rev), D = Z - conj(Z_rev),
    |w| = 1, so an error d of Z becomes (1 + w) d + (1 - w) conj(d_rev), of
    2-norm at most 2 sqrt 2 |d|, since |1 + w|^2 + |1 - w|^2 = 4.  The
    butterfly's own roundings are at most sigma (|S_j| + |D_j|) per entry,
    and |S| + |D| has 2-norm at most 2 sqrt 2 |Z~| by the parallelogram law.
    """
    z_norm = math.sqrt(half) * norm / 2.0 + dz
    return 2.0 * math.sqrt(2.0) * (dz + sigma * z_norm)


def four_step_error(rows: int, cols: int, norm: float, err: float) -> float:
    """2-norm error bound on ``norms._four_step`` of a pre-twiddled input y~ with |y~ - y| <= err.

    ``norm`` is |y|.  Stage 1: DFTs of length L1 = ``rows`` down the
    columns.  ``fft_error_bound`` is linear in the norms of the input and
    its error, so summed over columns in quadrature (Minkowski) it bounds
    the batch as one: D~ is within e1 = fft_error_bound(L1, |y|, err) of
    D, and |D| = sqrt(L1) |y|.  Middle twiddle: each entry of D~ is
    multiplied by two tables, each entry within tau of its exact root,
    with two complex products, a relative error of at most
    theta = (1 + tau)^2 (1 + sqrt 2 gamma_2)^2 - 1; the exact twiddle is
    unimodular, so G~ is within e2 = e1 + theta (|D| + e1) of G, |G| = |D|.
    Stage 2: DFTs of length L2 = ``cols`` along the rows, bounded the same
    way.  Every bound is a 2-norm, so the output layout does not matter.
    """
    e1 = fft_error_bound(rows, norm, err)
    theta = (1.0 + TWIDDLE_ERR) ** 2 * (1.0 + PRODUCT_ERR) ** 2 - 1.0
    d_norm = math.sqrt(rows) * norm
    return fft_error_bound(cols, d_norm, e1 + theta * (d_norm + e1))


def slices_error(a: np.ndarray, nodes: int) -> tuple[float, float]:
    """2-norm error bounds (coarse, fine) on the values ``two_level_means`` reads.

    Slice s holds X_(8k+s) for k < L = M/2: the four-step DFT of length L
    of omega^(sr) w_r, with w_r = sum_q zeta^(sq) a_(r+qL), so
    |w_r| <= F_r for F the fold of |a| modulo L.  ``norms._fold`` adds
    each of the n = ceil(size/L) segments of a once, through sums of at
    most n terms; for odd s each odd segment is first scaled by
    fl(sqrt(1/2)), within u of sqrt(1/2), one rounding more.  Every weight
    has parts of magnitude at most 1, so each part of w~_r is within
    gamma_(n+2) F_r of the exact one, and |w~_r - w_r| <= sqrt 2
    gamma_(n+2) F_r.  One complex product with the pre-twiddle column,
    within tau (``TWIDDLE_ERR``), gives the input error rho |F| with
    rho = (1 + tau)(1 + sqrt 2 gamma_(n+2))(1 + sqrt 2 gamma_2) - 1, and
    ``four_step_error`` of the split of L bounds each slice.  The coarse
    level is the slice s = 2; the fine level is s = 1 and s = 5, whose
    errors add in quadrature.
    """
    half = nodes // 2
    blocks = -(-a.size // half)
    norm = float(np.linalg.norm(fold(np.abs(a), half)))
    rho = (1.0 + TWIDDLE_ERR) * (1.0 + math.sqrt(2.0) * gamma(blocks + 2)) * (1.0 + PRODUCT_ERR) - 1.0
    err = four_step_error(*_split(half), norm, rho * norm)
    return err, math.sqrt(2.0) * err


def boundary_error(a: np.ndarray, nodes: int) -> float:
    """2-norm error bound on ``boundary_values`` of ``a`` at ``nodes`` points.

    Each real part c of a (a itself when real, b and c of a = b + i c
    otherwise) runs through the slice s = 2 of ``two_level_means``, whose
    values S_c at the M/2 odd nodes are within e_c in 2-norm, the coarse
    bound of ``slices_error`` for c; |S_c| <= sqrt(M/2) |F_c| for F_c
    the fold of |c| modulo M/2.  The even nodes are their conjugates,
    copied exactly, so real a comes out within sqrt 2 e_a.  For complex
    a each node adds the two computed values, one rounding per part,
    within u of the computed sum, and over either half of the nodes that
    sum has 2-norm at most sqrt(M/2) (|F_b| + |F_c|) + e_b + e_c.
    """
    half = nodes // 2
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    err = sum(slices_error(part, nodes)[0] for part in parts)
    if len(parts) == 2:
        norm = sum(float(np.linalg.norm(fold(np.abs(part), half))) for part in parts)
        err += U * (math.sqrt(half) * norm + err)
    return math.sqrt(2.0) * err


def slice_sum_depth(nodes: int) -> int:
    """``sum_depth`` of the p-means of ``two_level_means``.

    numpy sums each block of b = min(16, L1) rows of L2 values, for the
    split L1 L2 of L = M/2; ``exact_sum`` adds the block sums exactly rounded,
    one rounding, and the division by the count is one more.
    """
    rows, cols = _split(nodes // 2)
    block = min(16, rows)
    return sum_depth(block * cols, block) + 2


def two_dft_error(a: np.ndarray, nodes: int) -> tuple[float, float]:
    """2-norm error bounds (coarse, fine) on ``two_level_means_four_step`` and ``two_level_means_one_buffer``.

    Fine: Y_j = X_(4j+1), j < M; coarse: A_j = X_(4j+2), j < K = M/2.
    |u_m - i v_m| <= F_m and |x_m| <= F_m (``input_error``).  The
    pre-twiddle is one product with one root per row (with the exact
    halving at the coarse level), so the inputs are within rho |F| and
    rho |F|/2.  Fine level: ``four_step_error`` of the split of M.  Coarse
    level: ``four_step_error`` of the split of K gives dz, then
    ``butterfly_error``.  There -i omega^(4j+2) is three roots (a column
    and a one-row pair of tables), each within tau, applied by three
    complex products; with one rounding each for S, D and the final sum,
    sigma = (1 + tau)^3 (1 + u)^2 (1 + sqrt 2 gamma_2)^3 - 1.
    """
    norm, rho = input_error(a, nodes)
    fine = four_step_error(*_split(nodes), norm, rho * norm)
    half = nodes // 2
    dz = four_step_error(*_split(half), norm / 2.0, rho * norm / 2.0)
    sigma = (1.0 + TWIDDLE_ERR) ** 3 * (1.0 + U) ** 2 * (1.0 + PRODUCT_ERR) ** 3 - 1.0
    return butterfly_error(half, norm, dz, sigma), fine


def pruned_oracle_error(a: np.ndarray, nodes: int) -> tuple[float, float]:
    """2-norm error bounds (coarse, fine) on ``two_level_means_pruned``.

    As ``two_dft_error``, with one FFT of length M and one of length K on
    1-D arrays, twiddles h read from the quarter-turn table (each within
    tau), and -i omega^(4j+2) one table entry applied by one product:
    sigma = (1 + tau)(1 + u)^2 (1 + sqrt 2 gamma_2) - 1.
    """
    norm, rho = input_error(a, nodes)
    fine = fft_error_bound(nodes, norm, rho * norm)
    half = nodes // 2
    dz = fft_error_bound(half, norm / 2.0, rho * norm / 2.0)
    sigma = (1.0 + TWIDDLE_ERR) * (1.0 + U) ** 2 * (1.0 + PRODUCT_ERR) - 1.0
    return butterfly_error(half, norm, dz, sigma), fine


def sum_depth(count: int, rows: int = 1) -> int:
    """Additions a term passes through in numpy's sum of ``count`` values in ``rows`` rows.

    numpy's pairwise sum of n contiguous float64 values: below 8, one loop
    (n - 1 additions); up to 128, eight running sums of at most 16 terms,
    joined in three levels, then at most 7 leftovers added in turn, 25 in
    all; above 128, the sums of two parts, the first n/2 rounded down to a
    multiple of 8, one more level.  numpy merges the rows of a contiguous
    array into one run; if it did not, each row would be summed so and the
    row sums added in turn, and the larger depth covers both.  A sum of
    terms that each pass through at most k additions is within gamma_k of
    the sum of their magnitudes (Higham, sec. 4.2).
    """
    def depth(n: int) -> int:
        if n < 8:
            return max(n - 1, 0)
        levels = 0
        while n > 128:
            n -= n // 2 - n // 2 % 8
            levels += 1
        return 25 + levels

    return max(depth(count), depth(count // rows) + rows - 1)


def p_mean_deviation(
    value: float, count: int, p: float, lower: np.ndarray, err: float, depth: int | None = None
) -> float:
    """Bound on |value - exact p-mean| for a p-mean of ``count`` computed node values.

    ``lower`` bounds both the computed and the exact |f| at each node from
    below, and ``err`` the 2-norm of their differences.  For 0 < p <= 1,
    | |x|^p - |y|^p | <= p |x - y| min(|x|, |y|)^(p-1) and <= |x - y|^p;
    the first, summed by Cauchy-Schwarz, serves nodes with lower >= err,
    the second, summed by Hölder, the others.  The mean of |x|^p carries
    the rounding of abs and pow (6 in all) and of its sum, ``depth``
    additions per term (by default numpy's pairwise sum of ``count``
    contiguous values, ``sum_depth``); the final pow(., 1/p)
    adds 4u, and (A + D)^(1/p) - A^(1/p) bounds the effect of a shift |D|
    in A, since t^(1/p) is convex.
    """
    large = lower >= err
    small = count - int(np.count_nonzero(large))
    shift = p * err * math.sqrt(float(np.sum(lower[large] ** (2.0 * p - 2.0))))
    shift += small ** (1.0 - p / 2.0) * err**p
    mean = value**p * (1.0 + 8.0 * U)
    if depth is None:
        depth = sum_depth(count)
    d = shift / count + 2.0 * gamma(depth + 6) * mean
    return (mean + d) ** (1.0 / p) - mean ** (1.0 / p) + 4.0 * U * value


class TestStreamedFold:
    """``norms._fold`` of blocks against the period fold it replaced, ``fold_periods``."""

    @staticmethod
    def streamed(source: CoefficientBlocks, shift: int, half: int) -> np.ndarray:
        out = np.empty(half, dtype=np.complex128)
        _fold(source, shift, out, np.empty(min(_DIVIDE_BLOCK, source.size)))
        return out

    @staticmethod
    def periods(a: np.ndarray, shift: int, half: int) -> np.ndarray:
        out = np.empty(half, dtype=np.complex128)
        fold_periods(a, shift, out)
        return out

    # segments of 1000 points, several per block; of 32771 (prime)
    # points, straddling the block ends
    @pytest.mark.parametrize("half", [1000, 32771])
    @pytest.mark.parametrize("shift", _SLICES)
    def test_bit_equal_to_the_period_fold_up_to_three_segments(self, half, shift):
        # with at most one odd segment, scaling it alone or the sum of the
        # odd segments is one rounding of the same number, and the even
        # segments add in the same order
        rng = np.random.default_rng(half + shift)
        for size in (half // 2, half, 2 * half, 3 * half - 7, 3 * half):
            a = rng.normal(size=size)
            got = self.streamed(CoefficientBlocks.of_array(a), shift, half)
            assert np.array_equal(got.view(np.int64), self.periods(a, shift, half).view(np.int64)), size

    @pytest.mark.parametrize("shift", _SLICES)
    def test_within_the_fold_error_of_the_period_fold(self, shift):
        # two whole periods of 8L and an incomplete third: each fold adds
        # n = 20 segments per entry, each part within gamma_(n+2) F_r of
        # the exact w_r (see ``slices_error``), so they differ by at most
        # twice that
        half = 1000
        a = np.random.default_rng(shift).normal(size=16 * half + 3 * half + 17)
        got = self.streamed(CoefficientBlocks.of_array(a), shift, half)
        want = self.periods(a, shift, half)
        tol = 2.0 * gamma(-(-a.size // half) + 2) * fold(np.abs(a), half)
        assert np.all(np.abs(got.real - want.real) <= tol)
        assert np.all(np.abs(got.imag - want.imag) <= tol)
        assert not np.array_equal(got, want)  # the summation order did change

    # L = 8 (16 nodes) and 777: many whole segments per block
    @pytest.mark.parametrize("half", [8, 777])
    @pytest.mark.parametrize("shift", _SLICES)
    def test_independent_of_the_block_cuts(self, shift, half):
        # each w_r adds its terms in the order of q whatever the blocks, so
        # blocks of random sizes, holding a part of one segment or several
        # whole ones, each added piece by piece, fold to the bits of the
        # array's own views and to those of blocks of one segment each
        a = np.random.default_rng(7 + shift).normal(size=40 * half + 5)
        cuts = np.cumsum(np.random.default_rng(shift).integers(1, 4 * half, size=40))
        cuts = [0, *cuts[cuts < a.size].tolist(), a.size]
        source = CoefficientBlocks(a.size, lambda: (a[lo:hi] for lo, hi in zip(cuts, cuts[1:])))
        segments = CoefficientBlocks(a.size, lambda: (a[lo : lo + half] for lo in range(0, a.size, half)))
        want = self.streamed(CoefficientBlocks.of_array(a), shift, half).view(np.int64)
        assert np.array_equal(self.streamed(source, shift, half).view(np.int64), want)
        assert np.array_equal(self.streamed(segments, shift, half).view(np.int64), want)

    @staticmethod
    def aligned_cuts(size: int, half: int, seed: int) -> list[int]:
        """Block bounds from 0 to ``size``: each block random, of at most ``_DIVIDE_BLOCK`` entries, or,
        as often, one up to the next segment start or a full ``_DIVIDE_BLOCK`` from it."""
        rng = np.random.default_rng(seed)
        cuts = [0]
        while cuts[-1] < size:
            lo = cuts[-1]
            if rng.random() < 0.5:
                step = int(rng.integers(1, _DIVIDE_BLOCK + 1))
            else:
                step = -lo % half or _DIVIDE_BLOCK
            cuts.append(min(size, lo + step))
        return cuts

    # L = 8 (16 nodes), 777 and 1024: a block of _DIVIDE_BLOCK entries holds
    # 4096, 42 and 32 whole segments, enough for the stacked fold
    @pytest.mark.parametrize("half", [8, 777, 1024])
    @pytest.mark.parametrize("shift", _SLICES)
    def test_bit_equal_to_the_stacked_fold(self, shift, half):
        # the stacked fold adds a run of whole segments per part as one
        # stack, np.add.reduce over its rows; _fold adds the same products
        # piece by piece, so the two agree bit for bit as long as numpy
        # adds the rows of an axis-0 reduce one after another
        a = np.random.default_rng(half + shift).normal(size=3 * _DIVIDE_BLOCK + 5)
        cuts = self.aligned_cuts(a.size, half, half * shift)
        array = CoefficientBlocks.of_array(a)
        source = CoefficientBlocks(a.size, lambda: (a[lo:hi] for lo, hi in zip(cuts, cuts[1:])))
        for blocks in (array, source):
            stacks = [rows.shape[0] for _, _, rows in pieces_stacked(blocks, half)]
            assert max(stacks) >= 32  # the oracle does take its stacked path
            want = np.empty(half, dtype=np.complex128)
            fold_stacked(blocks, shift, want, np.empty(_DIVIDE_BLOCK + min(_DIVIDE_BLOCK, half)))
            assert np.array_equal(self.streamed(blocks, shift, half).view(np.int64), want.view(np.int64))

    # L = 8 (16 nodes), 777 and 1024: many whole segments per block;
    # _DIVIDE_BLOCK - 1 and _DIVIDE_BLOCK: one per block; _DIVIDE_BLOCK + 3:
    # none, every piece at a block edge
    @pytest.mark.parametrize("half", [8, 777, 1024, _DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, _DIVIDE_BLOCK + 3])
    @pytest.mark.parametrize("shift", _SLICES)
    def test_bit_equal_to_the_per_piece_fold(self, shift, half):
        # the whole segments of a block are added as one stack, each part's
        # rows of nonzero weight after the part itself, by np.add.accumulate:
        # the same terms in the same order as the per-piece fold, so the two
        # agree bit for bit on both sides of every segment and block edge.
        # An infinite entry in segment 2, whose weight has a zero part for
        # each shift, leaves that part finite: its row is left out
        rng = np.random.default_rng(half + shift)
        a = rng.normal(size=2 * _DIVIDE_BLOCK + 2 * half + 5)
        a[2 * half + 1] = np.inf
        edges = (half, 2 * half, 3 * half, _DIVIDE_BLOCK, 2 * _DIVIDE_BLOCK, a.size)
        sizes = sorted({n for edge in edges for n in (edge - 1, edge, edge + 1) if 0 < n <= a.size})
        cuts = self.aligned_cuts(a.size, half, half + shift)
        sources = [CoefficientBlocks.of_array(a[:size]) for size in sizes]
        sources.append(CoefficientBlocks(a.size, lambda: (a[lo:hi] for lo, hi in zip(cuts, cuts[1:]))))
        for source in sources:
            want = np.empty(half, dtype=np.complex128)
            fold_pieces(source, shift, want, np.empty(min(_DIVIDE_BLOCK, half)))
            got = self.streamed(source, shift, half)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), source.size
            if source.size > 2 * half + 1:
                zero = _EIGHTH_ROOT_SIGNS[shift * 2 % 8].index(0)
                assert np.isfinite((got.real, got.imag)[zero][1])

    def test_means_of_a_source_equal_those_of_its_array(self):
        # one fold path: a block source and its concatenation give the same
        # bits, here with a source whose blocks are a reused buffer
        a = np.random.default_rng(5).normal(size=5 * _DIVIDE_BLOCK + 11)
        buf = np.empty(_DIVIDE_BLOCK)

        def passes():
            for lo in range(0, a.size, _DIVIDE_BLOCK):
                block = buf[: min(_DIVIDE_BLOCK, a.size - lo)]
                block[...] = a[lo : lo + block.size]
                yield block

        for nodes in (2000, 65542):
            got = two_level_means(CoefficientBlocks(a.size, passes), 0.5, nodes)
            assert got == two_level_means(a, 0.5, nodes)


class TestTwoLevelMeans:
    # 2062 and 16382 are twice a prime: L = M/2 is prime, and its split is 1 x L
    @pytest.mark.parametrize("nodes", [16, 18, 1024, 1030, 2062, 16382, 24576])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("length", list(LENGTHS))
    def test_matches_per_level_oracle(self, nodes, p, length):
        # oracles: boundary_values_ifft at nodes and 2 nodes, each by its
        # own phase multiply, fold and complex FFT; the 4M-point real FFT, which
        # reads the first half of the nodes of each level; the pruned path
        # on 1-D arrays that the four-step transform replaced; and the
        # four-step transforms of M and M/2 points that the slices
        # replaced, in whole-array passes and in one buffer, which must
        # agree bit for bit
        count = LENGTHS[length](nodes)
        a = np.random.default_rng(nodes + count + int(100 * p)).normal(size=count)
        got = two_level_means(a, p, nodes)
        prev = two_level_means_four_step(a, p, nodes)
        assert two_level_means_one_buffer(a, p, nodes) == prev
        self.assert_within_the_models(a, p, nodes, got, prev)

    def assert_within_the_models(self, a, p, nodes, got, prev):
        """Each level of ``got`` within the derived bounds of every oracle, ``prev`` the four-step one."""
        f = TruncatedSeries(a)
        depth, old_err = slice_sum_depth(nodes), rfft_error(a, nodes)
        # the slices read X_(8k+s): at the M level s = 2 is node 2k; at
        # the 2M level s = 1 and 5 are nodes 4k and 4k + 2.  The two-DFT
        # transforms read A_j = X_(4j+2), node j < M/2 of the M level,
        # and Y_j = X_(4j+1), node 2j of the 2M level, the four-step
        # ones' means over 2-D arrays of L1 rows
        for level, value, ref, old, pruned, new_err, ref_err, pruned_err, read, (rows, _) in zip(
            (nodes, 2 * nodes), got, prev, two_level_means_rfft(a, p, nodes),
            two_level_means_pruned(a, p, nodes), slices_error(a, nodes), two_dft_error(a, nodes),
            pruned_oracle_error(a, nodes), (slice(0, nodes // 2), slice(0, None, 2)),
            (_split(nodes // 2), _split(nodes)),
        ):
            values = boundary_values_ifft(f, level)
            want = p_mean(values, p)
            level_err = per_level_error(a, level)
            # abs carries 2u; the exact |f| is within level_err of the
            # per-level path at each node
            lower = np.abs(values) * (1.0 - 2.0 * U) - level_err
            mine, theirs, half = lower[::2], lower[read], lower[: level // 2]
            new_dev = p_mean_deviation(value, mine.size, p, mine - new_err, new_err, depth)
            tol = p_mean_deviation(want, level, p, lower, level_err) + new_dev
            assert abs(value - want) <= tol, (level, value, want, tol)
            # the derived bound still tells the paths apart; where L is prime
            # pocketfft runs Bluestein, whose bound above is ~100 times looser
            assert _split(nodes // 2)[0] == 1 or tol <= 1e-11 * want
            tol = new_dev + p_mean_deviation(ref, theirs.size, p, theirs - ref_err, ref_err,
                                             sum_depth(theirs.size, rows))
            assert abs(value - ref) <= tol, (level, value, ref, tol)
            tol = p_mean_deviation(old, level // 2, p, half - old_err, old_err) + new_dev
            assert abs(value - old) <= tol, (level, value, old, tol)
            tol = p_mean_deviation(pruned, theirs.size, p, theirs - pruned_err, pruned_err) + new_dev
            assert abs(value - pruned) <= tol, (level, value, pruned, tol)

    @pytest.mark.parametrize("count", [40000 - 7, 9 * 40000 + 12345])
    def test_equals_whole_array_passes_across_blocks_and_chunks(self, count):
        # M = 40000 = 200 x 200 and K = M/2 = 125 x 160: the two-DFT
        # transform in one buffer ends both levels on a partial block of
        # rows, its coarse mirror blocks straddle block boundaries, and its
        # fold's last step runs in two chunks, yet it equals the
        # whole-array passes bit for bit.  The slices, of 20000 = 125 x 160
        # points, end on a partial block too, and the longer input spans
        # two whole periods of 8L, read in blocks that straddle segments
        a = np.random.default_rng(count).normal(size=count)
        for p in (0.3, 0.5, 1.0):
            prev = two_level_means_four_step(a, p, 40000)
            assert two_level_means_one_buffer(a, p, 40000) == prev
            self.assert_within_the_models(a, p, 40000, two_level_means(a, p, 40000), prev)

    def test_cold_and_warm_table_agree_bit_for_bit(self):
        # no twiddle is cached: repeated calls, with other node counts
        # between them, form the same twiddles, and nothing a call
        # allocates outlives it.  The untraced first round lets numpy make
        # its own one-time allocations; the slack of 1 KiB is far below the
        # 331 KB of whole-run tables a cache would keep at 24576 nodes
        a = np.random.default_rng(11).normal(size=3 * 1030 + 17)
        sequence = (1030, 16, 24576, 1030)
        first = [two_level_means(a, 0.5, nodes) for nodes in sequence]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            again = [two_level_means(a, 0.5, nodes) for nodes in sequence]
            del again[:]
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert first[0] == first[-1]
        assert [two_level_means(a, 0.5, nodes) for nodes in sequence] == first
        assert left < 2**10

    @pytest.mark.parametrize("nodes", [16, 2062, 24576, 2**21])
    def test_tables_are_small_and_read_only(self, nodes):
        # a slice keeps its column and row multipliers, L1 entries each, and
        # one group of rows' twiddles at a time, O(256 sqrt(L2)) entries,
        # even where the split of L = M/2 degenerates to 1 x L; no table of
        # every row exists that a caller could write to or keep
        rows, cols = _split(nodes // 2)
        for shift in _SLICES:
            shape, column, k = _level(nodes, shift)
            assert shape == (rows, cols) and column.size == k.size == rows
            low, high = _product_tables(k[:_TWIDDLE_ROWS], cols, nodes)
            assert low.shape[0] == high.shape[0] == min(_TWIDDLE_ROWS, rows)
            assert low.size + high.size <= 2 * _TWIDDLE_ROWS * (math.sqrt(cols) + 1)
        assert not hasattr(zfhp.norms, "_tables")

    @pytest.mark.parametrize("nodes", [2**19, 2**21, 65542])
    def test_table_charge_covers_a_fresh_build(self, nodes, monkeypatch):
        # the peak of a fresh build of a slice's column, row multipliers and
        # one group's tables includes what it returns, sum(nbytes), and the
        # build's temporaries; 65542 has M/2 prime.  A whole slice forms
        # its groups one after another (four at 2^21 nodes), each after the
        # previous one's tables are dropped
        rows, cols = _split(nodes // 2)
        buf = np.empty(nodes // 2, dtype=np.complex128)
        source = CoefficientBlocks.of_array(np.random.default_rng(nodes).normal(size=nodes // 2 + 3))
        scratch = np.empty(_DIVIDE_BLOCK)
        live = []

        def recorded(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return product_tables(*args)

        product_tables = zfhp.norms._product_tables
        tracemalloc.start()
        try:
            _, column, k = _level(nodes, 5)
            low, high = _product_tables(k[:_TWIDDLE_ROWS], cols, nodes)
            peak = tracemalloc.get_traced_memory()[1]
            kept = column.nbytes + k.nbytes + low.nbytes + high.nbytes
            group = low.nbytes + high.nbytes
            del column, k, low, high
            monkeypatch.setattr(zfhp.norms, "_product_tables", recorded)
            for _ in _slice(source, 5, nodes, buf, scratch):
                pass
        finally:
            tracemalloc.stop()
        assert kept <= peak <= _table_bytes(nodes)
        if nodes != 65542:  # where the 2^17 of ufunc buffers does not dominate
            # the bound's only terms beyond a derived count of bytes
            assert _table_bytes(nodes) - peak <= 2**17 + 2**12
        # what is live as each group's tables are formed does not grow by
        # the previous group's tables
        assert len(live) == -(-rows // _TWIDDLE_ROWS)
        assert max(live) - min(live) < min(group, 2**12)

    # M/2 = 8 = 2 x 4, 515 = 5 x 103, 1031 (prime, 1 x 1031),
    # 12288 = 96 x 128, 20000 = 125 x 160, 2^18 = 512 x 512 and
    # 105000 = 300 x 350: fewer rows than a group, two whole groups, and a
    # whole group and a partial one of 44 rows, ending on a partial block
    @pytest.mark.parametrize("nodes", [16, 1030, 2062, 24576, 40000, 2**19, 210000])
    def test_bit_equal_to_the_whole_table_oracle(self, nodes):
        # every twiddle comes from the same exponent through the same
        # _roots, whichever group of rows forms it
        rng = np.random.default_rng(nodes)
        for count in (nodes // 2 - 3, 3 * nodes + 17):
            a = rng.normal(size=count)
            for p in (0.5, 1.0):
                assert two_level_means(a, p, nodes) == two_level_means_whole_tables(a, p, nodes), (count, p)

    @staticmethod
    def transform_peak_growth(vmhwm_growth, length: int, nodes: int) -> int:
        """VmHWM growth of a fresh interpreter over one ``two_level_means`` of ``length`` points."""
        setup = (
            "import numpy as np\n"
            "from zfhp.norms import two_level_means\n"
            f"a = np.random.default_rng(3).normal(size={length})\n"
            "two_level_means(a[:100], 0.5, 16)"  # loads the FFT module
        )
        return vmhwm_growth(setup, f"two_level_means(a, 0.5, {nodes})")

    @staticmethod
    def beyond_the_arrays(nodes: int) -> int:
        """One slice's twiddles at their actual size and the rest of ``_two_level_bytes``: the scratch, row block,
        FFT work."""
        (_, cols), column, k = _level(nodes, 1)
        tables = column.nbytes + k.nbytes + sum(t.nbytes for t in _product_tables(k[:_TWIDDLE_ROWS], cols, nodes))
        return (tables + _two_level_bytes(nodes) - _TRANSFORM_BYTES_PER_NODE * nodes
                - _table_bytes(nodes))

    @pytest.mark.parametrize("length", [2**19, 100001])
    def test_peak_rss_within_the_transform_figure(self, length, vmhwm_growth):
        # an input of at most M points is read in place, so the arrays are
        # the buffer, 8 bytes per node (_two_level_bytes); one float64 copy
        # of M points, 8 bytes per node more, breaks the bound.  100001 is
        # the default cutoff's degree + 1, and 2^19 its default node count
        nodes = default_node_count(100000)
        assert nodes == 2**19
        growth = self.transform_peak_growth(vmhwm_growth, length, nodes)
        assert 0 < growth < 8 * nodes + self.beyond_the_arrays(nodes)
        assert growth <= _two_level_bytes(nodes)

    def test_peak_rss_of_a_folded_input_within_the_transform_figure(self, vmhwm_growth):
        # an input of a whole period of 4M points or more is read in place
        # too, so the arrays stay the buffer, 8 bytes per node
        # (_TRANSFORM_BYTES_PER_NODE); the float64 temporary of M/2 points
        # in which the fold once summed whole periods, 4 more, breaks it
        nodes = 2**19
        assert _TRANSFORM_BYTES_PER_NODE == 8
        growth = self.transform_peak_growth(vmhwm_growth, 4 * nodes + nodes // 2 + 3, nodes)
        assert 0 < growth < _TRANSFORM_BYTES_PER_NODE * nodes + self.beyond_the_arrays(nodes)
        assert growth <= _two_level_bytes(nodes)

    def test_refuses_complex_coefficients(self):
        # a float64 cast would drop the imaginary parts with only a warning
        with pytest.raises(ValueError, match="real"):
            two_level_means(np.array([1.0, 0.5j, 2.0]), 0.5, 16)
        with pytest.raises(ValueError, match="real"):
            two_level_means(np.ones(4, dtype=np.complex128), 0.5, 16)

    @pytest.mark.parametrize("count", [16, 5, 100])
    def test_leaves_its_argument_unchanged(self, count):
        a = np.random.default_rng(count).normal(size=count)
        before = a.tobytes()
        two_level_means(a, 0.5, 16)
        assert a.tobytes() == before

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

    def test_peak_rss_within_the_charge(self, vmhwm_growth):
        # 2^21 real coefficients at 2^21 nodes: the transform's buffer and
        # values, 8 + 16 bytes per node, then the values and their
        # magnitudes, 16 + 8; complex nodes, |1 - z|^(-q), |h|^q and their
        # product as full-length temporaries measured 57-65 bytes per node
        nodes = 2**21
        setup = (
            "import numpy as np\n"
            "from zfhp import TruncatedSeries, reverse_holder_check\n"
            f"f = TruncatedSeries(np.random.default_rng(3).normal(size={nodes}))\n"
            "reverse_holder_check(TruncatedSeries(f.coeffs[:16]), 1.0, 0.4, 16)"  # loads the FFT module
        )
        growth = vmhwm_growth(setup, f"reverse_holder_check(f, 1.0, 0.4, {nodes})")
        assert 0 < growth <= _two_level_bytes(nodes) + 32 * nodes
        assert growth < 40 * nodes

    def test_refuses_nodes_beyond_memory_before_allocating(self, monkeypatch):
        # room for the transform's own charge, not for the arrays after it
        nodes = 2**20
        monkeypatch.setattr(zfhp.arith, "_physical_bytes", lambda: _two_level_bytes(nodes) + 24 * nodes)
        monkeypatch.setattr(zfhp.norms, "boundary_values", pytest.fail)
        message = f"nodes = {nodes} needs an estimated .* of transform buffers and node arrays"
        with pytest.raises(ValueError, match=message):
            reverse_holder_check(TruncatedSeries(np.ones(4)), 1.0, 0.4, nodes)

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


def test_sup_norm_warns_on_undersampling():
    # the q = 1 end of the Hardy check samples the boundary as q = 1.5 does
    with pytest.warns(QuadratureWarning, match="nodes = 16 undersamples degree 99"):
        hardy_from_lq_check(TruncatedSeries(np.ones(100)), 1.0, 16)


def test_default_node_count_policy():
    assert default_node_count(0) == 16
    assert default_node_count(3) == 16
    assert default_node_count(64) == 512  # 4 * 65 = 260 -> next power of two
    assert default_node_count(1000) == 4096
