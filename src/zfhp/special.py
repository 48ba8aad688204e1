"""Complex special functions on the right half-plane.

Implements the evaluation data behind the functionals:

    f_k(s) = -(1/s) * ((k+1)^(1-s) - k^(1-s))          (Re(s) > 0, k >= 1)
    G_k(s) = -(zeta(s)/s) * (k^(-s) - 1/k)             (k >= 2, s != 1)

plus zeta(s) on Re(s) > 0 away from the pole, as an exactly rounded head
and the Euler-Maclaurin tail ``_zeta_tail``, with an absolute error bound
proved in ``zeta``, and the Mellin transforms of the step functions p_k
and of the fractional-part combinations rho_alpha(x) = rho(alpha/x) -
alpha * rho(1/x), each integrated exactly over the pieces where the
function is constant.
``f_k`` is the one-k case of ``fk_values``, so one rounding proof
(``_mellin_step_pk_bound``) covers both; it bounds the computed
difference between the transform of p_k and f_k(s) from k and s alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import _walk_parts, exact_sum
from .errors import DomainError, PoleError

__all__ = [
    "ZetaValue",
    "f_k",
    "fk_values",
    "fk_upper_bound",
    "lambda_on_constant",
    "zeta",
    "g_k",
    "g_k_error_bound",
    "mellin_step_pk",
    "mellin_rho_alpha",
    "rho_alpha_tail_bound",
    "require_right_half_plane",
]

_U = 2.0**-53  # unit roundoff of float64
# Relative slack for the rounding of a bound's own evaluation and for the
# second-order terms its first-order proof leaves out.
_SLACK = 1.0 + 2.0**-20
# B_2j / (2j)! for j = 1..9, with B_2j = p/q the Bernoulli numbers, each
# correctly rounded (int / int): the Euler-Maclaurin coefficients of ``_zeta_tail``.
_EM_COEFFS = [p / (q * math.factorial(2 * j)) for j, (p, q) in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510), (43867, 798)), 1)]


def require_right_half_plane(s) -> complex:
    """Validate Re(s) > 0 and return s as a complex number."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if not s.real > 0.0:
        raise DomainError(f"Re(s) must be positive, got s = {s}")
    return s


def _power_error(a: float, log_c):
    """e(a, log c) = u (12 a log c + 24): exp(-w log j) is within e(|w|, log j) |j^(-w)|.

    Step 1 of the rounding proof of ``zfhp.functionals.lambda_hk_truncated``;
    ``log_c`` may be an array.
    """
    return _U * (12.0 * a * log_c + 24.0)


def _zeta_tail(n, s):
    """Euler-Maclaurin tails sum_{j>=N} j^(-s) at the integers N >= 1 of ``n``: value, remainder, rounding.

    Value.  Let K = 8, one less than the number of coefficients B_2j/(2j)! in
    ``_EM_COEFFS``, since the remainder after T_M reads T_(M+1).  With
    1 <= M <= K, (s)_m = s (s+1) ... (s+m-1) the rising factorial and
    T_j(N) = B_2j/(2j)! (s)_(2j-1) N^(-s-2j+1),

        F(N) = N^(1-s)/(s-1) + N^(-s)/2 + sum_{j=1..M} T_j(N) + R,
        |R| <= |s + 2M + 1| / (sigma + 2M + 1) |T_(M+1)(N)|,

    for sigma = Re s > -(2M + 1) and s != 1, where F(N) = zeta(s) -
    sum_{j<N} j^(-s), the tail itself when sigma > 1 (Backlund's bound:
    Edwards, *Riemann's Zeta Function*, 1974, section 6.4).  At s = 1 the
    first term is -log N and F(N) = gamma - H_(N-1): subtract 1/(s-1) from
    both sides and let s -> 1; R is continuous in s, and the factor of its
    bound is 1.  Either way, for integers 0 <= a < b,

        F(a+1) - F(b+1) = sum_{a<j<=b} j^(-s),

    in which zeta(s), or gamma, cancels.  M is the first j at which the
    bound on |R| falls below 2^-60 H (H below), far under the rounding, or
    K.  This is the one tail of the package: the approx recursion
    takes its differences, and ``zeta`` takes it whole at N = ceil(|s|) + 10.
    The recursion's tails start at that N or later too: for N far below
    |s| the terms T_j(N) grow with j, so the value loses its digits while
    the bound on R, still proved, grows with them.
    The remainder returned is the bound on |R|.

    Rounding.  u = 2^-53, with the arithmetic assumed in
    ``zfhp.functionals.lambda_hk_truncated`` (Python's complex product is
    within 3u as well), and e = ``_power_error(|s|, log N)``, or e = u at
    s = 1, where N^-1 = 1/N is correctly rounded: so N^-s is within
    e |N^-s|.  Assume e <= 2^-22, which holds for |s| <= 2^20.
      1. The first term, N^-s N / (s - 1), is within (e + 11u) of itself:
         the product, s - 1 and the division add u, u and 8u.  At s = 1,
         -log N is within 8u.
      2. t_1 = s N^-s / N is within e + 4u of (s)_1 N^(-s-1), and each
         t_(j+1) = t_j ((s + 2j - 1)(s + 2j)) / N^2, with 1/N^2 from
         N N and a division, adds at most 11u, so t_j carries e + 11j u.
         The coefficient and its product add 2u, and the M additions to
         N^-s/2 at most u each of a running sum below
         H = |N^-s|/2 + sum_j |c_j t_j|.
      3. The last addition adds u |value|.
    To first order the value is within

        r = (e + 11u) |first term| + (e + (12M + 2)u) H + u |value|

    of the formula above (the code takes K >= M in place of M), and
    the remainder's formula, evaluated at t_(M+1), is within
    e + 11(M + 1)u relative.  Both are returned times
    ``_SLACK``, which covers the second-order terms and the rounding of
    their own evaluation.  []
    """
    n = np.asarray(n, dtype=np.float64)
    if s == 1:
        p, first, e = 1.0 / n, -np.log(n), _U
    else:
        p = np.exp(-s * np.log(n))
        first, e = p * n / (s - 1.0), _power_error(abs(s), np.log(n))
    terms = len(_EM_COEFFS) - 1
    inv_n2 = 1.0 / (n * n)
    t = s * p / n
    h, size = 0.5 * p, 0.5 * np.abs(p)
    for j in range(1, terms + 1):
        term = _EM_COEFFS[j - 1] * t
        h = h + term
        size = size + np.abs(term)
        t = t * ((s + 2 * j - 1) * (s + 2 * j)) * inv_n2
        remainder = abs(s + 2 * j + 1) / (s.real + 2 * j + 1) * abs(_EM_COEFFS[j]) * np.abs(t) * _SLACK
        if np.all(remainder <= 2.0**-60 * size):  # far below the rounding: stop at M = j
            break
    value = first + h
    rounding = (e + 11 * _U) * np.abs(first) + (e + (12 * terms + 2) * _U) * size + _U * np.abs(value)
    return value, remainder, rounding * _SLACK


def _cexpm1(w):
    """exp(w) - 1 for complex w without cancellation near w = 0 (vectorized)."""
    x = np.real(w)
    y = np.imag(w)
    re = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
    im = np.exp(x) * np.sin(y)
    return re + 1j * im


def f_k(k: int, s) -> complex:
    """f_k(s) for one k: the k-th entry of ``fk_values``, by the same code."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return complex(_fk(np.array([k], dtype=np.float64), require_right_half_plane(s))[0])


def fk_values(n_max: int, s) -> np.ndarray:
    """Vector [f_1(s), ..., f_{n_max}(s)]."""
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    return _fk(np.arange(1, n_max + 1, dtype=np.float64), require_right_half_plane(s))


def _fk(k: np.ndarray, s: complex) -> np.ndarray:
    """Cancellation-safe f_k(s) = -(1/s) ((k+1)^(1-s) - k^(1-s)) at a float64 array of k.

    Uses (k+1)^(1-s) - k^(1-s) = k^(1-s) * expm1((1-s) log1p(1/k)); the
    naive difference loses most significant digits once k is large.
    """
    w = (1.0 - s) * np.log1p(1.0 / k)
    power = np.exp((1.0 - s) * np.log(k))
    return (-1.0 / s) * power * _cexpm1(w)


def fk_upper_bound(k, s) -> float | np.ndarray:
    """Explicit bound |f_k(s)| <= (|1-s|/|s|) k^(-Re(s)), valid for all k >= 1.

    Follows from writing the difference of powers as (1-s) times the
    integral of y^(-s) over [k, k+1] and bounding the integrand at y = k.
    """
    s = require_right_half_plane(s)
    k = np.asarray(k, dtype=np.float64)
    out = (abs(1.0 - s) / abs(s)) * k ** (-s.real)
    return float(out) if out.ndim == 0 else out


def lambda_on_constant(s) -> complex:
    """Value of the evaluation functional on the constant function 1: -1/s."""
    s = require_right_half_plane(s)
    return -1.0 / s


@dataclass(frozen=True)
class ZetaValue:
    """zeta(s) as computed, a proved bound on |value - zeta(s)|, and the cut N of ``zeta``."""

    value: complex
    error_bound: float
    terms_used: int


def zeta(s) -> ZetaValue:
    """zeta(s) for Re(s) > 0, s != 1, |s| <= 2^20: an exactly rounded head plus the Euler-Maclaurin tail.

    Value.  With N = ceil(|s|) + 10 (``terms_used``) and F(N) = zeta(s) -
    sum_{j<N} j^(-s) the tail of ``_zeta_tail``,

        zeta(s) = sum_{j<N} j^(-s) + F(N),

    with the head the exactly rounded sum of exp(-s log j), j < N, per
    component, walked in blocks of ``_DIVIDE_BLOCK`` terms
    (``arith._walk_parts``), the same powers as the prefix sums of
    ``zfhp.functionals.lambda_hk_truncated``.  The head holds one block,
    about 2 MB, whatever N is.
    No division by 1 - 2^(1-s) occurs, so no line of Re(s) = 1 is special.

    Bound.  u = 2^-53, sigma = Re(s), with the arithmetic assumed in
    ``lambda_hk_truncated``.
      1. Each computed power is within e_j j^(-sigma) of j^(-s), with
         e_j = ``_power_error(|s|, log j)`` (step 1 of its rounding proof),
         so their exact sum is within sum_{j<N} e_j j^(-sigma) of the head.
      2. The walk rounds that exact sum once per component: u |head~|.
      3. ``_zeta_tail`` at N returns F~ with |F~ - F(N)| <= remainder +
         rounding, both proved there for |s| <= 2^20.
      4. The sum head~ + F~ adds u |value| per component.
    So |value - zeta(s)| is at most

        (sum_{j<N} e_j j^(-sigma) + u |head~| + remainder + rounding + u |value|),

    returned times ``_SLACK`` as ``error_bound``.  The slack covers the
    second-order terms and the rounding of the bound's own evaluation:
    step 1's sum is evaluated within 2^-25 of itself, as its powers
    j^(-sigma) come within e(sigma, log j) <= 2^-25 and its N <= 2^20 + 11
    nonnegative terms, summed per block and the block sums added in turn,
    add under 2^-32.  An underflowed power, possible only where
    sigma log N > 700 and so |zeta(s)| > 1/2, is off by at most 2^-1074,
    far inside u |value|.

    With N >= |s| + 10 the ratio of consecutive Euler-Maclaurin terms is
    at most about 1/(4 pi^2), so the remainder stays below the tail's own
    rounding (under 3% of it from |s| = 0.6 to 2^20), and step 1 dominates
    the bound.  The bound is absolute, not relative: near a zero of zeta no
    float64 sum of O(1) terms reaches a fixed relative error.

    Raises ``PoleError`` at s = 1, ``DomainError`` for Re(s) <= 0, and
    ``ValueError`` for |s| > 2^20, the range of the tail's rounding proof,
    before anything is allocated.
    """
    s = require_right_half_plane(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has a pole at s = 1")
    _check_zeta_range(s)
    n = math.ceil(abs(s)) + 10
    powers = []  # step 1 of the bound, one np.sum per block

    def head_terms(lo: int, log_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        np.log(log_j, out=log_j)
        powers.append(np.sum(_power_error(abs(s), log_j) * np.exp(-s.real * log_j)))
        w = np.exp(-s * log_j)
        return w.real, w.imag

    ((re, im),) = _walk_parts(head_terms, 2, [n - 1])
    head = complex(exact_sum(re), exact_sum(im))
    tail, remainder, rounding = _zeta_tail(np.array([float(n)]), s)
    value = head + complex(tail[0])
    bound = float(sum(powers) + remainder[0] + rounding[0]) + _U * (abs(head) + abs(value))
    return ZetaValue(value=value, error_bound=bound * _SLACK, terms_used=n)


def _check_zeta_range(s: complex) -> None:
    """Refuse |s| > 2^20, the range of the rounding proofs of ``_zeta_tail`` and ``zeta``, with ``ValueError``."""
    if abs(s) > 2**20:
        raise ValueError(f"|s| = {abs(s):g} exceeds 2^20, the range of the zeta error bound")


def g_k(k: int, s) -> complex:
    """G_k(s) = -(zeta(s)/s) (k^(-s) - 1/k) for k >= 2."""
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    z = zeta(s).value
    return _g_k_given_zeta(k, complex(s), z)


def _g_k_given_zeta(k: int, s: complex, z: complex) -> complex:
    """``g_k`` with z = zeta(s).value already computed, for sweeps over k."""
    return -(z / s) * (cmath.exp(-s * math.log(k)) - 1.0 / k)


def g_k_error_bound(k: int, s, value: complex, zeta_error: float) -> float:
    """Bound on |value - G_k(s)| for value = ``g_k(k, s)``, given ``zeta_error`` = ``zeta(s).error_bound``.

    ``g_k`` forms value = -w q with w = fl(z/s), |z - zeta(s)| <= E =
    ``zeta_error``, and q = fl(p - 1/k), p = exp(-s log k).  With
    u = 2^-53 and the accuracy assumed in ``lambda_hk_truncated`` (log,
    exp, cos, sin within 4 ulp), p is within u (12 |s| log k + 24) k^(-Re s)
    and 1/k within u/k, so |q - (k^(-s) - 1/k)| <= d + u |q| with
    d = u (12 |s| log k + 24) k^(-Re s) + 2u/k.  The quotient is within
    8u, so |w - zeta(s)/s| <= 8u |w| + E/|s| to first order, and the
    product within 3u, so |w| <= (|value|/|q|)(1 + 4u).  Adding the parts,

        |value - G_k| <= |value| (16u + 2 d/|q|) + 2 E (|q| + d)/|s|,

    the factors 2 and the spare 3u covering the second-order terms and
    the rounding of the bound itself.  The bound needs no lower bound on
    |k^(-s) - 1/k|, which vanishes on the points s = 1 + 2 pi i m/log k.
    It is infinite only if q is exactly 0.
    """
    s = complex(s)
    log_k = math.log(k)
    q = abs(cmath.exp(-s * log_k) - 1.0 / k)
    if q == 0.0:
        return math.inf
    d = _U * (12.0 * abs(s) * log_k + 24.0) * k ** (-s.real) + 2.0 * _U / k
    return abs(value) * (16.0 * _U + 2.0 * d / q) + 2.0 * zeta_error * (q + d) / abs(s)


def mellin_step_pk(k: int, s) -> complex:
    """Mellin transform of the step function p_k, integrated piece by piece.

    p_k equals k on [1/(k+1), 1/k), equals -1 on (0, 1/(k+1)) and vanishes
    elsewhere.  On each piece x^(s-1) has the exact antiderivative x^s / s,
    and x^s -> 0 as x -> 0 since Re(s) > 0, so with lo = 1/(k+1), hi = 1/k

        int_0^1 p_k(x) x^(s-1) dx = (k (hi^s - lo^s) - lo^s) / s,

    which equals f_k(s).  The powers are exp(-s log k) and
    exp(-s log(k+1)), whose rounding ``_mellin_step_pk_bound`` bounds.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = require_right_half_plane(s)
    hi_s = cmath.exp(-s * math.log(k))
    lo_s = cmath.exp(-s * math.log(k + 1))
    return (k * (hi_s - lo_s) - lo_s) / s


def _mellin_step_pk_bound(k: int, s) -> float:
    """B(k, s) >= |mellin_step_pk(k, s) - f_k(k, s)| as computed.

    Statement.  Let u = 2^-53, sigma = Re(s) > 0, P = k^(-sigma) and
    L = log(k+1).  The proof covers 1 <= k <= 2^53 - 1 with
    |s| L <= 2^33, sigma L <= 600 and |s| >= 2^-900; any other k raises
    ``ValueError``.  There ``mellin_step_pk`` is within

        R_m = u (12 |s| L + 36) (2k + 1) P / |s|

    of f_k(s), ``f_k`` is within

        R_f = 2u (12 |1 - s| log k + 160) |1 - s| P / |s|,

    and the computed |mellin_step_pk - f_k| is at most the returned
    B = fl(R_m + R_f).  So while both values are within their rounding
    bounds, a difference above B contradicts the identity.

    Proof.  Rounding is as assumed in ``lambda_hk_truncated``: log, log1p,
    exp, expm1, cos and sin within 4 ulp, complex * within 3u and / within
    8u, +, - and real products correctly rounded per component.  Its step
    1 gives: exp(-w log j) is within e(|w|, log j) |j^(-w)|, with
    e(a, L) = u (12 a L + 24), for w = s and for w = s - 1.
      Mellin.  a = k^(-s) and b = (k+1)^(-s) come within e(|s|, L) P.
      The difference adds u of 2P, then scaled by k; the scaling by k,
      the second difference and the division by s add u of 2kP, u of
      (2k + 1) P and 8u of (2k + 1) P / |s|.  So the value is within
      (e(|s|, L) + 11u) (2k + 1) P / |s|: R_m with 35 in place of 36.
      f_k.  ``_fk`` forms -(1/s) k^(1-s) E~ for E = e^w - 1, where
      w = (1 - s) l and l = log1p(1/k) <= 1/k.  Let x = Re w < log 2 and
      m = max(1, e^x) <= 2.  Then |E| <= |w| m, since
      E = w int_0^1 e^(tw) dt.
      1. fl(1/k) moves log1p by at most u l, as t/(1 + t) <= log1p t.  So
         the computed w~ has |w~ - w| <= 11u |w|, and e^(w~) - 1 is
         within 12u |w| m of E.
      2. At w~ = x + iy, ``_cexpm1`` takes the real part as
         expm1(x) cos y - 2 sin(y/2)^2.  Its two terms sum in modulus to
         at most 4 |e^(w~) - 1|.  The first is at most |e^x - 1|.  Since
         |e^(w~) - 1|^2 = (e^x - 1)^2 + 4 e^x sin(y/2)^2, the second is at
         most 2 |e^(w~) - 1| if e^x >= 1/4, and (8/3) |e^(w~) - 1| if not.
         So the real part is within 72u |e^(w~) - 1|, the imaginary part
         e^x sin y within 17u |e^(w~) - 1|, and E~ within
         89u (|E| + 12u |w| m).  Hence |E~ - E| <= 102u |w| m.
      3. fl(-1/s) adds 8u.  k^(1-s) comes within
         e(|1 - s|, log k) k^(1-sigma).  The two products add 3u each.
         With k^(1-sigma) |w| <= |1 - s| P, the value is within
         (e(|1 - s|, log k) + 116u) m |1 - s| P / |s|: R_f with 140 in
         place of 160.
      Range.  k + 1 <= 2^53 keeps k and k + 1 exact.  |s| L <= 2^33 keeps
      12u |s| L and 11u |w| below 2^-15, which the first-order terms
      above need.  sigma L <= 600 keeps every power above
      e^-600 > 2^-866, and |s| >= 2^-900 keeps (2k + 1) P / |s| finite.
      An underflow is off by at most 2^-1072.  Inside a power that is
      under 2^-200 of the power.  Anywhere else it is scaled by at most
      (2k + 1)/|s|, which leaves it under 2^-150 R_m.
      Rounding.  Four more errors remain: the second-order terms, these
      underflows, the rounding of B (under 40u of B), and that of the
      difference and its modulus (3u).  They fit in the spare
      u (2k + 1) P / |s| of R_m and 40u |1 - s| P / |s| of R_f, because
      50u (12 |s| L + 36) and 50u (12 |1 - s| log k + 160) are below
      2^-10.  []
    """
    s = require_right_half_plane(s)
    log_k1 = math.log(k + 1) if 1 <= k < 2**53 else math.inf
    if not (abs(s) >= 2.0**-900 and abs(s) * log_k1 <= 2.0**33 and s.real * log_k1 <= 600.0):
        raise ValueError(f"k = {k} is outside the range of the Mellin rounding bound at s = {s}: it "
                         "needs 1 <= k < 2^53, |s| log(k+1) <= 2^33, Re(s) log(k+1) <= 600, |s| >= 2^-900")
    a, d = abs(s), abs(1.0 - s)
    r_m = (12.0 * a * log_k1 + 36.0) * (2 * k + 1)
    r_f = 2.0 * (12.0 * d * math.log(k) + 160.0) * d
    return _U * (r_m + r_f) * float(k) ** -s.real / a


def mellin_rho_alpha(alpha: float, s, truncation: float = 1e-5) -> complex:
    """Mellin transform of rho_alpha over (truncation, 1), piecewise exactly.

    rho_alpha(x) = rho(alpha/x) - alpha rho(1/x) is constant between
    consecutive breakpoints 1/n and alpha/m, where it equals
    alpha*floor(1/x) - floor(alpha/x); on each such interval the integral
    of x^(s-1) has the exact antiderivative x^s / s.  The omitted piece
    over (0, truncation] is bounded by ``rho_alpha_tail_bound``.  The total
    matches (zeta(s)/s) (alpha - alpha^s).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < truncation < 1.0:
        raise ValueError("truncation must lie in (0, 1)")
    s = require_right_half_plane(s)
    n_hi = int(math.floor(1.0 / truncation)) + 1
    m_hi = int(math.floor(alpha / truncation)) + 1
    cuts = np.concatenate(
        [
            np.array([truncation, 1.0]),
            1.0 / np.arange(1, n_hi + 1, dtype=np.float64),
            alpha / np.arange(1, m_hi + 1, dtype=np.float64),
        ]
    )
    cuts = np.unique(cuts[(cuts >= truncation) & (cuts <= 1.0)])
    a = cuts[:-1]
    b = cuts[1:]
    mid = 0.5 * (a + b)
    levels = alpha * np.floor(1.0 / mid) - np.floor(alpha / mid)
    pow_b = np.exp(s * np.log(b))
    pow_a = np.exp(s * np.log(a))
    return complex(np.sum(levels * (pow_b - pow_a)) / s)


def rho_alpha_tail_bound(s, truncation: float) -> float:
    """Upper bound for the omitted integral over (0, truncation]: T^sigma / sigma.

    Uses |rho_alpha(x)| < 1, which holds since both fractional parts lie
    in [0, 1) and 0 < alpha < 1.
    """
    s = require_right_half_plane(s)
    return truncation**s.real / s.real
