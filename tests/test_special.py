import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import zfhp.special
from zfhp import (
    DomainError,
    PoleError,
    f_k,
    fk_upper_bound,
    fk_values,
    g_k,
    lambda_on_constant,
    mellin_rho_alpha,
    mellin_step_pk,
    rho_alpha_tail_bound,
    zeta,
)

from zfhp.arith import _DIVIDE_BLOCK
from zfhp.special import _EM_COEFFS, _U, _mellin_step_pk_bound, _zeta_tail, g_k_error_bound

from oracles import ETA_TARGET, f_k_scalar, mellin_step_pk_quadrature, zeta_accelerated_eta, zeta_whole

GRID = [complex(re, im) for re in (0.6, 0.75, 1.5, 2.0) for im in (0.0, 1.0, 5.0)]


def zeta_direct_sum_oracle(s: float, terms: int = 10**6) -> float:
    """Direct Dirichlet summation with an Euler-Maclaurin tail (real s > 1)."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(n ** (-s)))
    m = float(terms)
    tail = m ** (1.0 - s) / (s - 1.0) - m ** (-s) / 2.0 + s * m ** (-s - 1.0) / 12.0
    return head + tail


class TestFk:
    def test_direct_substitution_values(self):
        assert f_k(1, 2.0) == pytest.approx(0.25, abs=1e-15)
        assert f_k(2, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 100])
    def test_vanishes_at_s_equal_one(self, k):
        assert f_k(k, 1.0) == 0.0

    def test_rejects_left_half_plane(self):
        with pytest.raises(DomainError):
            f_k(1, -0.5)
        with pytest.raises(DomainError):
            f_k(1, 1j)
        with pytest.raises(ValueError):
            f_k(0, 2.0)

    @pytest.mark.parametrize("s", GRID)
    def test_cancellation_safe_path_matches_naive(self, s):
        for k in (1, 2, 3, 10, 100, 1000):
            naive = -(1.0 / s) * ((k + 1) ** (1.0 - s) - k ** (1.0 - s))
            safe = f_k(k, s)
            assert abs(safe - naive) <= 1e-12 * abs(naive) + 1e-300

    @pytest.mark.parametrize("s", GRID)
    def test_vector_matches_scalar(self, s):
        vec = fk_values(50, s)
        for k in (1, 7, 50):
            assert vec[k - 1] == pytest.approx(f_k_scalar(k, s), abs=1e-15)

    @pytest.mark.parametrize("s", [*GRID, 0.9 + 250.0j])
    def test_one_k_is_the_vector_entry(self, s):
        # one code path: the Mellin bound's proof of f_k covers fk_values too
        vec = fk_values(1000, s)
        for k in (1, 2, 7, 50, 999, 1000):
            assert f_k(k, s) == vec[k - 1]

    @pytest.mark.parametrize("s", GRID)
    def test_explicit_upper_bound_never_violated(self, s):
        k = np.arange(1, 10**4 + 1)
        mags = np.abs(fk_values(10**4, s))
        assert np.all(mags <= fk_upper_bound(k, s) * (1.0 + 1e-12))

    @pytest.mark.parametrize("s", [s for s in GRID if s != 1.0])
    def test_asymptotic_bracket(self, s):
        # fit the bracket on a coarse subsample, then check every k <= 1e4
        k = np.arange(1, 10**4 + 1, dtype=np.float64)
        ratios = np.abs(fk_values(10**4, s)) * k ** s.real
        sample = ratios[np.r_[0:100, 99:10**4:100]]
        c1, c2 = float(np.min(sample)), float(np.max(sample))
        assert c1 > 0.0
        assert np.all(ratios >= c1 * (1.0 - 1e-9))
        assert np.all(ratios <= c2 * (1.0 + 1e-9))

    def test_conjugate_symmetry(self):
        for s in (0.75 + 1.0j, 1.5 + 5.0j):
            for k in (1, 5, 123):
                assert f_k(k, s.conjugate()) == f_k(k, s).conjugate()


class TestLambdaOnConstant:
    def test_values(self):
        assert lambda_on_constant(2.0) == -0.5
        assert lambda_on_constant(1.0) == -1.0

    def test_rejects_imaginary_axis(self):
        with pytest.raises(DomainError):
            lambda_on_constant(1j)


# The acceptance grid, the first five zeros of zeta moved from the critical
# line to Re s = 0.51 with neighbours at +-1e-3, and two large imaginary parts.
FIRST_ZEROS = [14.134725141734693, 21.022039638771555, 25.010857580145688, 30.424876125859513,
               32.93506158773919]
BOUND_S = [*GRID, *(complex(0.51, t + d) for t in FIRST_ZEROS for d in (-1e-3, 0.0, 1e-3)),
           0.51 + 250j, 0.51 + 1000j]


def mpmath_zeta_error(s: complex, value: complex) -> float:
    """|value - zeta(s)|, zeta(s) at 50 digits."""
    with mpmath.workdps(50):
        return float(abs(mpmath.mpc(value.real, value.imag) - mpmath.zeta(mpmath.mpc(s.real, s.imag))))


class TestZeta:
    def test_zeta2_against_direct_sum_oracle(self):
        oracle = zeta_direct_sum_oracle(2.0)
        got = zeta(2.0).value
        assert abs(got - oracle) < 1e-10
        assert got.real == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert got.imag == 0.0

    def test_zeta4_against_direct_sum_oracle(self):
        oracle = zeta_direct_sum_oracle(4.0, terms=10**5)
        got = zeta(4.0).value
        assert abs(got - oracle) < 1e-10
        assert got.real == pytest.approx(math.pi**4 / 90.0, abs=1e-12)

    @pytest.mark.parametrize("s", [s for s in GRID if s != 1.0])
    def test_grid_accuracy_against_mpmath(self, s):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        got = zeta(s).value
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_first_zero_probe(self):
        # locate the minimum of |zeta| on the critical line near t = 14.13
        # with this same evaluator, then check the quoted point
        result = minimize_scalar(
            lambda t: abs(zeta(complex(0.5, t)).value),
            bounds=(14.0, 14.3),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert result.fun < 1e-6
        assert abs(result.x - 14.134725) < 1e-4
        assert abs(zeta(0.5 + 14.134725j).value) < 1e-5

    def test_pole_and_domain_errors(self):
        with pytest.raises(PoleError):
            zeta(1.0)
        with pytest.raises(DomainError):
            zeta(-2.0)

    def test_within_bound_on_eta_zero_line(self):
        # 1 - 2^(1-s) vanishes at s = 1 + 2 pi i m / log 2; no evaluator step divides by it
        for m in (1, 2, 3):
            for re in (1.0, 1.0001):
                s = complex(re, 2.0 * math.pi * m / math.log(2.0))
                result = zeta(s)
                assert mpmath_zeta_error(s, result.value) <= result.error_bound, s

    def test_conjugate_symmetry(self):
        for s in (0.75 + 1.0j, 2.0 + 5.0j):
            assert zeta(s.conjugate()).value == zeta(s).value.conjugate()

    def test_metadata(self):
        result = zeta(2.0)
        assert result.terms_used == 12  # N = ceil(|s|) + 10
        assert 0.0 < result.error_bound <= 1e-14
        assert abs(result.value - math.pi**2 / 6.0) <= result.error_bound

    @pytest.mark.parametrize("s", BOUND_S)
    def test_within_bound_against_mpmath(self, s):
        result = zeta(s)
        assert mpmath_zeta_error(s, result.value) <= result.error_bound
        if s in GRID:  # the seed-0 lambda-grid points
            assert result.error_bound <= 1e-12

    @pytest.mark.parametrize("s", GRID)
    def test_agrees_with_eta_oracle(self, s):
        result = zeta(s)
        oracle = zeta_accelerated_eta(s)
        assert abs(result.value - oracle) <= result.error_bound + ETA_TARGET * abs(oracle)

    # N - 1 = ceil(|s|) + 9 terms in the head: 32767, 32768 (one block),
    # 32769 (a block and one term), 100010 and 300010
    @pytest.mark.parametrize("s", [0.6 + 32757j, 0.6 + 32758j, 0.6 + 32759j, 0.6 + 1e5j, 1.5 + 3e5j])
    def test_blocked_head_equals_the_whole_array_oracle(self, s):
        got, want = zeta(s), zeta_whole(s)
        assert got.terms_used == want.terms_used
        assert (got.value.real.hex(), got.value.imag.hex()) == (want.value.real.hex(), want.value.imag.hex())
        if got.terms_used <= _DIVIDE_BLOCK + 1:
            # the bound's step 1 is one np.sum over one block, as over the whole array
            assert got.error_bound.hex() == want.error_bound.hex()
        else:
            # its block sums are added in turn, which may move the last bits
            assert got.error_bound == pytest.approx(want.error_bound, rel=2**-48)

    def test_peak_holds_one_block(self):
        # whole arrays of the N = 10^6 + 11 terms take about 48 MB; one
        # block of the walk takes under 2 MB
        tracemalloc.start()
        try:
            zeta(0.6 + 1e6j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    def test_range(self):
        # |s| <= 2^20 is the range of the tail's rounding proof
        result = zeta(complex(0.6, 2**20 - 1))
        assert result.terms_used == 2**20 + 10 and result.error_bound < 1e-4
        with pytest.raises(ValueError, match="exceeds 2\\^20"):
            zeta(complex(0.6, 2**20))


class TestGk:
    def test_g2_and_g3_at_two(self):
        zeta2 = math.pi**2 / 6.0
        assert g_k(2, 2.0) == pytest.approx(zeta2 / 8.0, abs=1e-12)
        assert g_k(3, 2.0) == pytest.approx(zeta2 / 9.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_k(1, 2.0)
        with pytest.raises(PoleError):
            g_k(2, 1.0)

    @pytest.mark.parametrize("s", [*GRID, 0.51 + 14.134725141734693j, 1.0 + 2.0 * math.pi / math.log(2.0) * 1j])
    def test_within_error_bound_against_mpmath(self, s):
        # the bound takes zeta's proved error_bound, no assumed relative target
        z = zeta(s)
        with mpmath.workdps(50):
            ms = mpmath.mpc(s.real, s.imag)
            for k in (2, 3, 10, 1000):
                value = g_k(k, s)
                exact = -(mpmath.zeta(ms) / ms) * (mpmath.mpf(k) ** -ms - mpmath.mpf(1) / k)
                assert float(abs(mpmath.mpc(value.real, value.imag) - exact)) <= g_k_error_bound(
                    k, s, value, z.error_bound), k


class TestMellinStep:
    def test_k1_s2_quarter(self):
        assert abs(mellin_step_pk(1, 2.0) - 0.25) < 1e-10

    def test_k1_s1_vanishes(self):
        assert abs(mellin_step_pk(1, 1.0)) < 1e-10

    @pytest.mark.parametrize("s", GRID)
    def test_matches_fk_up_to_k10(self, s):
        for k in range(1, 11):
            assert abs(mellin_step_pk(k, s) - f_k(k, s)) < 1e-8

    def test_k5_complex_point(self):
        s = 2.0 + 1.0j
        assert abs(mellin_step_pk(5, s) - f_k(5, s)) < 1e-8

    @pytest.mark.parametrize("s", GRID)
    def test_matches_quadrature_oracle(self, s):
        for k in range(1, 11):
            assert abs(mellin_step_pk(k, s) - mellin_step_pk_quadrature(k, s)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin_step_pk(3, -1.0)


# The acceptance grid, a point near the critical line, and two with large
# imaginary parts, at k from 1 to 10^6.
BOUND_POINTS = [*GRID, 0.51 + 0j, 3.0 + 40.0j, 0.9 + 250.0j]
BOUND_KS = [1, 2, 10, 10**3, 10**6]


class TestMellinBound:
    @pytest.mark.parametrize("s", BOUND_POINTS)
    def test_rounding_errors_within_bound(self, s):
        # against f_k(s) at 50 digits, the two rounding errors together
        # stay within B, so the computed difference does too
        with mpmath.workdps(50):
            ms = mpmath.mpc(s.real, s.imag)
            for k in BOUND_KS:
                exact = -((k + 1) ** (1 - ms) - mpmath.mpf(k) ** (1 - ms)) / ms
                errors = abs(mellin_step_pk(k, s) - exact) + abs(f_k(k, s) - exact)
                assert errors <= _mellin_step_pk_bound(k, s), k

    @pytest.mark.parametrize("s", BOUND_POINTS)
    def test_bound_is_useful(self, s):
        # never looser than the retired default tolerance 1e-8, and far
        # below the value it checks
        for k in BOUND_KS:
            bound = _mellin_step_pk_bound(k, s)
            assert bound <= 1e-8
            assert bound <= 1e-3 * abs(f_k(k, s))

    def test_range(self):
        s = 2.0 + 1.0j
        assert _mellin_step_pk_bound(2**53 - 1, s) > 0.0
        for k in (0, 2**53):
            with pytest.raises(ValueError, match=f"k = {k} is outside"):
                _mellin_step_pk_bound(k, s)
        # Re(s) log(k+1) <= 600 and |s| log(k+1) <= 2^33
        assert _mellin_step_pk_bound(400, 100.0) > 0.0
        with pytest.raises(ValueError):
            _mellin_step_pk_bound(500, 100.0)
        with pytest.raises(ValueError):
            _mellin_step_pk_bound(1, 1.0 + 2.0**34 * 1j)
        with pytest.raises(DomainError):
            _mellin_step_pk_bound(1, -1.0)


def zeta_tail_oracle(s, n: int, terms: int = 30):
    """sum_{j>=N} j^(-s) (gamma - H_(N-1) at s = 1) at 50 digits, by Euler-Maclaurin with 30 corrections."""
    with mpmath.workdps(50):
        n = mpmath.mpf(n)
        if s == 1:
            total = -mpmath.log(n) + 1 / (2 * n)
        else:
            s = mpmath.mpc(s)
            total = n ** (1 - s) / (s - 1) + n ** (-s) / 2
        for j in range(1, terms + 1):
            rising = mpmath.rf(s, 2 * j - 1)
            total += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * n ** (-s - 2 * j + 1)
        return complex(total)


TAIL_S = [2.0, 1.5 + 1j, 0.75 + 5j, 0.51 + 14.13j, 1.0]


class TestZetaTail:
    @pytest.mark.parametrize("s", [2.0, 0.75 + 5j, 1.0])
    def test_oracle_is_the_hurwitz_zeta(self, s):
        # the 30-term oracle against mpmath's own zeta(s, N) = sum_{j>=0} (N + j)^(-s)
        with mpmath.workdps(50):
            want = mpmath.euler - mpmath.harmonic(999) if s == 1 else mpmath.zeta(s, 1000)
            assert abs(zeta_tail_oracle(s, 1000) - complex(want)) < 1e-30

    @pytest.mark.parametrize("s", TAIL_S)
    @pytest.mark.parametrize("n", [46417, 10**6, 10**10])  # L + 1 at n = 10^7, and beyond
    def test_within_remainder_and_rounding(self, s, n):
        value, remainder, rounding = _zeta_tail(np.array([float(n)]), s)
        true = zeta_tail_oracle(s, n)
        assert abs(complex(value[0]) - true) <= remainder[0] + rounding[0]
        assert remainder[0] + rounding[0] <= 1e-12 * abs(true)  # a useful bound

    @pytest.mark.parametrize("s", TAIL_S)
    def test_group_difference_at_the_worst_cancellation(self, s):
        # at n = 10^7 the groups above L = 46416 end at q = 215: a = floor(n/216),
        # b = floor(n/215), b/a close to 1 + 1/215
        a, b = 10**7 // 216, 10**7 // 215
        value, remainder, rounding = _zeta_tail(np.array([a + 1.0, b + 1.0]), s)
        diff = complex(value[0] - value[1])
        with mpmath.workdps(50):
            true = complex(mpmath.fsum(mpmath.mpf(j) ** -mpmath.mpmathify(s) for j in range(a + 1, b + 1)))
        bound = float(np.sum(remainder + rounding)) + _U * abs(diff)
        assert abs(diff - true) <= bound
        assert bound <= 1e-10 * abs(true)

    def test_remainder_falls_with_the_terms(self, monkeypatch):
        # the tail takes as many terms as the coefficients allow, at most
        # len(_EM_COEFFS) - 1: fewer coefficients cap it at 2 and 4 terms
        n = np.array([15.0, 101.0])
        remainders = []
        for terms in (2, 4, 8):
            monkeypatch.setattr(zfhp.special, "_EM_COEFFS", _EM_COEFFS[: terms + 1])
            remainders.append(_zeta_tail(n, 0.75 + 5j)[1])
        assert np.all(remainders[0] > remainders[1]) and np.all(remainders[1] > remainders[2])


class TestMellinRho:
    def reference(self, alpha, s):
        return (zeta(s).value / s) * (alpha - alpha**complex(s))

    def test_alpha_half_s2(self):
        got = mellin_rho_alpha(0.5, 2.0)
        assert abs(got - (math.pi**2 / 6.0) / 8.0) < 1e-8

    def test_alpha_half_s3(self):
        got = mellin_rho_alpha(0.5, 3.0)
        ref = self.reference(0.5, 3.0)  # zeta(3)/8 ~ 0.1502571
        assert abs(got - ref) < 1e-8
        assert ref.real == pytest.approx(0.1502571, abs=1e-7)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("s", [2.0, 3.0, 2.0 + 1.0j])
    def test_identity_on_grid(self, alpha, s):
        got = mellin_rho_alpha(alpha, s)
        tol = rho_alpha_tail_bound(s, 1e-5) + 1e-9
        assert abs(got - self.reference(alpha, s)) < tol

    def test_identity_near_one(self):
        # the identity persists next to the pole: the vanishing factor
        # alpha - alpha^s cancels the zeta blow-up, leaving ~ -alpha log(alpha)
        s = 1.0 + 1e-3
        got = mellin_rho_alpha(0.5, s)
        ref = self.reference(0.5, s)
        assert abs(got - ref) < rho_alpha_tail_bound(s, 1e-5) + 1e-6
        assert abs(ref - 0.5 * math.log(2.0)) < 0.01

    def test_truncation_controls_error(self):
        coarse = mellin_rho_alpha(0.5, 0.8, truncation=1e-3)
        ref = self.reference(0.5, 0.8)
        assert abs(coarse - ref) <= rho_alpha_tail_bound(0.8, 1e-3)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            mellin_rho_alpha(0.0, 2.0)
        with pytest.raises(ValueError):
            mellin_rho_alpha(1.0, 2.0)
        with pytest.raises(DomainError):
            mellin_rho_alpha(0.5, -1.0)
