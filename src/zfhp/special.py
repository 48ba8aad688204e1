"""Complex special functions on the right half-plane.

Implements the evaluation data behind the functionals:

    f_k(s) = -(1/s) * ((k+1)^(1-s) - k^(1-s))          (Re(s) > 0, k >= 1)
    G_k(s) = -(zeta(s)/s) * (k^(-s) - 1/k)             (k >= 2, s != 1)

plus a zeta evaluator valid on Re(s) > 0 away from the pole, and the
Mellin transforms of the step functions p_k and of the fractional-part
combinations rho_alpha(x) = rho(alpha/x) - alpha * rho(1/x), each
integrated exactly over the pieces where the function is constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, PoleError

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

_LN2 = math.log(2.0)
_ACCEL = 3.0 + math.sqrt(8.0)
# d_n in the accelerated eta series grows like (3 + sqrt 8)^n; keep it well
# inside float range.
_MAX_ETA_TERMS = 280
# Relative error that ``zeta`` aims for.
ZETA_TARGET = 1e-13
_U = 2.0**-53  # unit roundoff of float64


def require_right_half_plane(s) -> complex:
    """Validate Re(s) > 0 and return s as a complex number."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if not s.real > 0.0:
        raise DomainError(f"Re(s) must be positive, got s = {s}")
    return s


def _cexpm1(w):
    """exp(w) - 1 for complex w without cancellation near w = 0 (vectorized)."""
    x = np.real(w)
    y = np.imag(w)
    re = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
    im = np.exp(x) * np.sin(y)
    return re + 1j * im


def f_k(k: int, s) -> complex:
    """Cancellation-safe f_k(s) = -(1/s) ((k+1)^(1-s) - k^(1-s)).

    Uses (k+1)^(1-s) - k^(1-s) = k^(1-s) * expm1((1-s) log1p(1/k)); the
    naive difference loses most significant digits once k is large.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = require_right_half_plane(s)
    w = (1.0 - s) * math.log1p(1.0 / k)
    power = cmath.exp((1.0 - s) * math.log(k))
    return -(1.0 / s) * power * complex(_cexpm1(w))


def fk_values(n_max: int, s) -> np.ndarray:
    """Vector [f_1(s), ..., f_{n_max}(s)]."""
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    s = require_right_half_plane(s)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    w = (1.0 - s) * np.log1p(1.0 / n)
    power = np.exp((1.0 - s) * np.log(n))
    return np.asarray((-1.0 / s) * power * _cexpm1(w), dtype=np.complex128)


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
    value: complex
    method: str
    terms_used: int


def zeta(s) -> ZetaValue:
    """zeta(s) for Re(s) > 0, s != 1, via the accelerated alternating series.

    Computes eta(s) = sum (-1)^(k-1) k^(-s) with Chebyshev-weighted series
    acceleration and divides by 1 - 2^(1-s).  The term count is chosen from
    the proven error envelope (1 + 2|t|) e^(pi |t| / 2) / (3 + sqrt 8)^n
    to reach the relative error ``ZETA_TARGET``, which ``g_k_error_bound``
    and the ``lambda`` sweep's budget assume.

    Raises ``PoleError`` at s = 1, ``ConditioningError`` on the line of
    spurious zeros of 1 - 2^(1-s) (s = 1 + 2 pi i m / log 2, m != 0).
    """
    s = require_right_half_plane(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has a pole at s = 1")
    denom = -complex(_cexpm1((1.0 - s) * _LN2))  # 1 - 2^(1-s), cancellation-safe
    if abs(denom) < 1e-8:
        raise ConditioningError(
            f"1 - 2^(1-s) vanishes near s = {s}; the eta-ratio evaluator is unusable there"
        )
    n = _eta_terms(s)
    eta = _eta_accelerated(s, n)
    return ZetaValue(value=eta / denom, method="accelerated-eta", terms_used=n)


def _eta_terms(s: complex) -> int:
    t = abs(s.imag)
    need = (math.log(3.0 / ZETA_TARGET) + math.log1p(2.0 * t) + 0.5 * math.pi * t) / math.log(_ACCEL)
    n = int(math.ceil(need)) + 4
    if s.real < 0.5:
        n += 10
    n = max(n, 24)
    if n > _MAX_ETA_TERMS:
        raise DomainError(
            f"|Im(s)| = {t:g} is outside the working range of the eta evaluator"
        )
    return n


def _eta_accelerated(s: complex, n: int) -> complex:
    d = np.empty(n + 1, dtype=np.float64)
    term = 1.0
    d[0] = 1.0
    for i in range(1, n + 1):
        term *= 4.0 * (n + i - 1) * (n - i + 1) / (2.0 * i * (2.0 * i - 1.0))
        d[i] = d[i - 1] + term
    k = np.arange(n, dtype=np.float64)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    powers = np.exp(-s * np.log(k + 1.0))
    return -complex(np.sum(signs * (d[:n] - d[n]) * powers)) / d[n]


def g_k(k: int, s) -> complex:
    """G_k(s) = -(zeta(s)/s) (k^(-s) - 1/k) for k >= 2."""
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    z = zeta(s).value
    return _g_k_given_zeta(k, complex(s), z)


def _g_k_given_zeta(k: int, s: complex, z: complex) -> complex:
    """``g_k`` with z = zeta(s).value already computed, for sweeps over k."""
    return -(z / s) * (cmath.exp(-s * math.log(k)) - 1.0 / k)


def g_k_error_bound(k: int, s, value: complex) -> float:
    """Bound on |value - G_k(s)| for value = ``g_k(k, s)``.

    ``g_k`` forms value = -w q with w = fl(z/s), z = zeta(s) within
    ZETA_TARGET relative, and q = fl(p - 1/k), p = exp(-s log k).  With
    u = 2^-53 and the accuracy assumed in ``lambda_hk_truncated`` (log,
    exp, cos, sin within 4 ulp), p is within u (12 |s| log k + 24) k^(-Re s)
    and 1/k within u/k, so |q - (k^(-s) - 1/k)| <= d + u |q| with
    d = u (12 |s| log k + 24) k^(-Re s) + 2u/k.  The quotient is within
    8u and the product within 3u, so |w| <= (|value|/|q|)(1 + 4u) and

        |value - G_k| <= |value| (ZETA_TARGET + 16u) + 2 d |value|/|q|,

    the factor 2 covering |zeta/s| <= |w| (1 + ZETA_TARGET + 9u).  The
    bound needs no lower bound on |k^(-s) - 1/k|, which vanishes on the
    points s = 1 + 2 pi i m/log k.  It is infinite only if q is exactly 0.
    """
    s = complex(s)
    log_k = math.log(k)
    q = abs(cmath.exp(-s * log_k) - 1.0 / k)
    if q == 0.0:
        return math.inf
    d = _U * (12.0 * abs(s) * log_k + 24.0) * k ** (-s.real) + 2.0 * _U / k
    return abs(value) * (ZETA_TARGET + 16.0 * _U + 2.0 * d / q)


def mellin_step_pk(k: int, s) -> complex:
    """Mellin transform of the step function p_k, integrated piece by piece.

    p_k equals k on [1/(k+1), 1/k), equals -1 on (0, 1/(k+1)) and vanishes
    elsewhere.  On each piece x^(s-1) has the exact antiderivative x^s / s,
    and x^s -> 0 as x -> 0 since Re(s) > 0, so with lo = 1/(k+1), hi = 1/k

        int_0^1 p_k(x) x^(s-1) dx = (k (hi^s - lo^s) - lo^s) / s,

    which equals f_k(s).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = require_right_half_plane(s)
    lo_s = (1.0 / (k + 1)) ** s
    return (k * ((1.0 / k) ** s - lo_s) - lo_s) / s


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
