"""Norm and quasi-norm estimators for truncated series.

Boundary quasi-norms use the circle mean at radius 1 only: for a
polynomial the circle means are nondecreasing in the radius and continuous
up to the boundary, so the supremum over radii is the boundary mean.
Quadrature nodes sit at half-step offsets 2 pi (j + 1/2)/nodes, so z = 1 is
never sampled; evaluation at all nodes is exact (coefficient folding plus
one FFT), and the only quadrature error is in the mean itself.

``boundary_values`` takes complex coefficients, for the inequality
battery.  ``two_level_means`` serves the H^p convergence runner:
for real coefficients it returns the p-means at M and 2M nodes from two
complex FFTs, of M and M/2 points, that compute only the spectrum the
means read.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .arith import _check_memory, exact_sum
from .errors import ConditioningError
from .series import TruncatedSeries

__all__ = [
    "QuadratureWarning",
    "default_node_count",
    "boundary_values",
    "two_level_means",
    "lq_norm",
    "hp_norm_estimate",
    "sup_norm_estimate",
    "duren_coefficient_check",
    "hardy_from_lq_check",
    "reverse_holder_check",
    "reverse_holder_constant",
    "circle_abs_power_integral",
]


class QuadratureWarning(UserWarning):
    """The node count undersamples the series degree."""


def default_node_count(degree: int) -> int:
    """4 (degree + 1), rounded up to a power of two, never below 16."""
    want = 4 * (degree + 1)
    nodes = 16
    while nodes < want:
        nodes *= 2
    return nodes


def _validate_nodes(nodes: int) -> None:
    if nodes < 16 or nodes % 2:
        raise ValueError("nodes must be an even integer >= 16")


def half_offset_points(nodes: int) -> np.ndarray:
    """The nodes exp(2 pi i (j + 1/2)/nodes), j = 0..nodes-1."""
    theta = 2.0 * math.pi * (np.arange(nodes) + 0.5) / nodes
    return np.exp(1j * theta)


def boundary_values(f: TruncatedSeries, nodes: int) -> np.ndarray:
    """Exact values of f at exp(2 pi i (j + 1/2)/nodes).

    Coefficients are phase-shifted by exp(i pi m / nodes), folded modulo
    the node count, and transformed; this is an exact polynomial
    evaluation, not an approximation.
    """
    _validate_nodes(nodes)
    a = np.asarray(f.coeffs, dtype=np.complex128)
    m = np.arange(a.size, dtype=np.float64)
    phased = a * np.exp(1j * math.pi * m / nodes)
    pad = (-phased.size) % nodes
    if pad:
        phased = np.concatenate([phased, np.zeros(pad, dtype=np.complex128)])
    folded = phased.reshape(-1, nodes).sum(axis=0)
    return np.fft.ifft(folded) * nodes


def _p_mean(values: np.ndarray, p: float) -> float:
    """(mean |values|^p)^(1/p)."""
    mags = np.abs(values)
    mags **= p
    return float(np.mean(mags) ** (1.0 / p))


def _check_two_level_nodes(nodes: int) -> None:
    """Refuse node counts that are odd, below 16 or beyond physical memory.

    The estimate bounds the peak of ``two_level_means`` at M = ``nodes``,
    in bytes per node.  Kept between phases: the cached table h (M
    complex128, 16) and numpy's FFT plans for M and M/2 points, which it
    may keep between calls (at most one complex copy of their points each,
    24).  Then the largest phase: for an input longer than M, the fold
    modulo 4M (32), the residue-1 input c (16), the signed fold x (8) and
    one quarter sum (8), 64 in all.  The 2M-node level holds c, the FFT's
    work buffer, x and M float64 magnitudes (16 + 16 + 8 + 8 = 48).  The
    M-node level never holds more than three arrays of 8 bytes per node
    at once (x with the packed input and its twiddles; later the
    transform, its mirror and the difference).  So 16 + 24 + 64 = 104
    bytes per node bound the peak.
    """
    _validate_nodes(nodes)
    _check_memory(104 * nodes, f"nodes = {nodes}", "transform buffers")


@functools.lru_cache(maxsize=1)
def _quarter_turn(nodes: int) -> np.ndarray:
    """h_m = exp(-i pi m/(2M)), m = 0..M-1, for M = ``nodes``: a quarter turn.

    One ``np.cos`` pass gives c_m = cos(pi m/(2M)) for m = 0..M, and
    sin(pi m/(2M)) = c_(M-m) is the same table reflected, so
    h_m = c_m - i c_(M-m).  Cached for the checkpoints of a run; the
    table is read-only.
    """
    c = np.cos(np.arange(nodes + 1) * (math.pi / (2 * nodes)))
    h = np.empty(nodes, dtype=np.complex128)
    h.real = c[:nodes]
    h.imag = c[nodes:0:-1]
    np.negative(h.imag, out=h.imag)
    h.setflags(write=False)
    return h


def _half_turn(h: np.ndarray, start: int, scale: complex) -> np.ndarray:
    """scale h_(4j+start) for j = 0..M/2-1, reading h_(m+M) = -i h_m past the table."""
    first = h[start::4]
    out = np.empty(h.size // 2, dtype=np.complex128)
    np.multiply(first, scale, out=out[: first.size])
    np.multiply(h[(start - h.size) % 4 :: 4], -1j * scale, out=out[first.size :])
    return out


def two_level_means(coeffs: np.ndarray, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and at 2M half-offset nodes, for real coefficients.

    Both levels are nodes exp(2 pi i l/4M): l = 4j + 2 for the M nodes,
    l odd for the 2M.  With b the coefficients folded modulo 4M
    (z^(4M) = 1 at every such node) and omega = exp(-2 pi i/4M), |f| at the
    node of index l is |X_l| for X_l = sum_(m<4M) b_m omega^(lm), and for
    l = 4j + r

        X_(4j+r) = sum_(m<M) [sum_(q<4) b_(m+qM) omega^(r(m+qM))] e^(-2 pi i jm/M),

    a DFT of length M of the fold modulo M of b_m omega^(rm).
    omega^M = -i, so only the residues r = 1 and r = 2 need work.

    The 2M-node level.  For r = 1 the inner sum is h_m (u_m - i v_m) with
    h_m = omega^m, u = b_[0,M) - b_[2M,3M) and v = b_[M,2M) - b_[3M,4M):
    one complex FFT of length M gives X_l for every l = 1 (mod 4).  For
    real b, X_(4M-l) = conj(X_l), and 4M - (4j + 1) = 4(M - 1 - j) + 3, so
    the residue-3 values are the residue-1 values conjugated, and the mean
    over the M residue-1 values is the mean over all 2M odd l.

    The M-node level.  For r = 2 the inner sum is omega^(2m) x_m with the
    real signed fold x_m = sum_q (-1)^q b_(m+qM), so X_(4j+2) = A_j with
    A_j = sum_m x_m e^(-2 pi i (j + 1/2) m/M), and A_(M-1-j) = conj(A_j):
    the values j < K = M/2 are the whole level.  Pack
    z_t = (x_(2t) + i x_(2t+1)) e^(-i pi t/K) / 2 for t < K and take one
    complex FFT Z of length K.  Let E and O be the DFTs of length K of
    e_t = x_(2t) e^(-i pi t/K) and o_t = x_(2t+1) e^(-i pi t/K), so that
    2 Z = E + i O and A_j = E_j + e^(-2 pi i (j + 1/2)/M) O_j.  Because x
    is real, conj(E_(K-1-j)) = E_j and likewise for O, so
    2 conj(Z_(K-1-j)) = E_j - i O_j, and the butterfly

        E_j = Z_j + conj(Z_(K-1-j)),   O_j = -i (Z_j - conj(Z_(K-1-j)))

    splits them; the 1/2 in z spares a halving here.  M even makes K
    whole; M need not be a power of two.

    Twiddles.  Every factor is h_n for some n < 2M: omega^m = h_m,
    e^(-i pi t/K) = h_(4t) and e^(-2 pi i (j + 1/2)/M) = h_(4j+2), with
    h_(n+M) = -i h_n past the quarter-turn table ``_quarter_turn``.  The
    scalings by -i and 1/2 are exact.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    _check_two_level_nodes(nodes)
    h = _quarter_turn(nodes)
    a = np.ascontiguousarray(coeffs, dtype=np.float64)
    if a.size > nodes:
        size = 4 * nodes
        b = np.zeros(size)
        whole = a.size - a.size % size
        if whole:
            a[:whole].reshape(-1, size).sum(axis=0, out=b)
        b[: a.size - whole] += a[whole:]
        b = b.reshape(4, nodes)
        c = np.empty(nodes, dtype=np.complex128)
        np.subtract(b[0], b[2], out=c.real)
        np.subtract(b[3], b[1], out=c.imag)
        c *= h
        x = b[0] + b[2]
        x -= b[1] + b[3]
        del b
    else:
        x = a if a.size == nodes else np.concatenate((a, np.zeros(nodes - a.size)))
        c = np.multiply(x, h)
    fine = _p_mean(np.fft.fft(c, out=c), p)
    del c

    z = x.view(np.complex128) * _half_turn(h, 0, 0.5)
    del x
    np.fft.fft(z, out=z)
    mirror = np.conj(z[::-1])
    odd = z - mirror
    z += mirror
    del mirror
    odd *= _half_turn(h, 2, -1j)
    odd += z
    return _p_mean(odd, p), fine


def lq_norm(f: TruncatedSeries, q: float) -> float:
    """(sum |a_n|^q)^(1/q); a quasi-norm when q < 1 (triangle fails)."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    return _lq_of_magnitudes(np.abs(f.coeffs), q)


def _lq_of_magnitudes(mags: np.ndarray, q: float) -> float:
    """(sum mags^q)^(1/q) for a float64 array of magnitudes, raised to q in place.

    With b = max mags and L = mags.size, the sum S lies in [b^q, L b^q].
    A term is computed within a few u = 2^-53 of itself, or within a few
    2^-1074 below 2^-1022.  So if b^q >= 2^-1022 = 2^52 2^-1074, then
    S >= 2^-1022 and the terms' errors add up to a few L u S, the order
    of the sum's own rounding.  If 0 < b^q < 2^-1022, the largest term is
    subnormal or 0 and S has lost its digits; if L b^q >= 2^1024, S can
    overflow.  Both raise ``ConditioningError``, tested as q log2 b < -1022
    and q log2 b + log2 L >= 1024.  Non-finite magnitudes pass through.
    """
    big = float(np.max(mags, initial=0.0))
    if 0.0 < big < math.inf:
        e = q * math.log2(big)
        if e < -1022.0 or e + math.log2(mags.size) >= 1024.0:
            raise ConditioningError(
                f"the largest |r|^q = 2^{e:.6g} is outside the normal range of the l^q sum"
            )
    mags **= q
    return float(np.sum(mags) ** (1.0 / q))


def hp_norm_estimate(f: TruncatedSeries, p: float, nodes: int | None = None) -> float:
    """Boundary estimate of the H^p (quasi-)norm of a truncated series.

    Warns (``QuadratureWarning``) when the node count is below degree + 1,
    where the discrete mean of |f|^p can be visibly aliased.  With
    nodes > degree and p = 2 the estimate is exact (Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    return _p_mean(_sampled_boundary(f, nodes), p)


def _node_count(f: TruncatedSeries, nodes: int | None) -> int:
    """``nodes``, or ``default_node_count`` of the degree if None, validated."""
    if nodes is None:
        nodes = default_node_count(f.degree)
    _validate_nodes(nodes)
    return nodes


def _sampled_boundary(f: TruncatedSeries, nodes: int | None) -> np.ndarray:
    """``boundary_values`` at ``_node_count`` nodes, warning once when they undersample f."""
    nodes = _node_count(f, nodes)
    warning = _undersampling(nodes, f.degree)
    if warning:
        warnings.warn(warning, QuadratureWarning, stacklevel=3)
    return boundary_values(f, nodes)


def _undersampling(nodes: int, degree: int) -> str | None:
    """The ``QuadratureWarning`` text when ``nodes`` < degree + 1, else None."""
    if nodes < degree + 1:
        return f"nodes = {nodes} undersamples degree {degree}; the circle mean may alias"
    return None


def sup_norm_estimate(f: TruncatedSeries, nodes: int | None = None) -> float:
    """max_j |f| over the half-offset nodes (the p -> infinity limit)."""
    return float(np.max(np.abs(boundary_values(f, _node_count(f, nodes)))))


def duren_coefficient_check(
    f: TruncatedSeries, nodes: int | None = None
) -> tuple[float, float]:
    """(lhs, rhs) for sum |a_n|/(n+1) <= pi ||f||_1; caller asserts lhs <= rhs."""
    n = np.arange(f.coeffs.size, dtype=np.float64)
    lhs = float(np.sum(np.abs(f.coeffs) / (n + 1.0)))
    rhs = math.pi * hp_norm_estimate(f, 1.0, nodes)
    return lhs, rhs


def hardy_from_lq_check(
    f: TruncatedSeries, q: float, nodes: int | None = None
) -> tuple[float, float]:
    """(lhs, rhs) for ||f||_p <= ||(a_n)||_q with 1/p + 1/q = 1, 1 <= q <= 2.

    At q = 1 the conjugate exponent degenerates to p = infinity and the
    left side is the max modulus over the nodes; at q = 2 both sides agree
    (Parseval).
    """
    if not 1.0 <= q <= 2.0:
        raise ValueError("q must lie in [1, 2]")
    if q == 1.0:
        lhs = sup_norm_estimate(f, nodes)
    else:
        p = q / (q - 1.0)
        lhs = hp_norm_estimate(f, p, nodes)
    return lhs, lq_norm(f, q)


def circle_abs_power_integral(beta: float) -> float:
    """Exact value of int_T |1 - z|^beta dm(z) for beta > -1.

    Equals (2^beta / sqrt(pi)) Gamma((beta+1)/2) / Gamma(beta/2 + 1), via
    |1 - e^(i theta)| = 2 |sin(theta/2)|.
    """
    if beta <= -1.0:
        raise ValueError("beta must be > -1 for integrability")
    return (
        (2.0**beta / math.pi)
        * math.sqrt(math.pi)
        * math.gamma((beta + 1.0) / 2.0)
        / math.gamma(beta / 2.0 + 1.0)
    )


def reverse_holder_constant(p: float, q: float) -> float:
    """C with ||h/(1-z)||_q <= C ||h||_p, admissible when 0 < q < p/(1+p).

    Reverse Hölder with exponents r = q/p < 1 and its negative conjugate s
    gives C = I^((p-q)/(pq)) where I = int_T |1 - z|^(pq/(q-p)) dm; the
    admissibility condition is exactly integrability of that power.
    """
    _check_reverse_holder(p, q)
    beta = p * q / (q - p)
    return circle_abs_power_integral(beta) ** ((p - q) / (p * q))


def _check_reverse_holder(p: float, q: float) -> None:
    if p <= 0 or q <= 0 or not q < p / (1.0 + p):
        raise ValueError("inadmissible exponents: need 0 < q < p/(1+p)")


def reverse_holder_check(
    h: TruncatedSeries, p: float, q: float, nodes: int | None = None
) -> tuple[float, float]:
    """(lhs, rhs) for ||h/(1-z)||_q <= C_{p,q} ||h||_p.

    The integrand |h(z)/(1-z)|^q has an integrable singularity at z = 1
    (q < 1).  The quadrature splits off the singular part exactly:
    |h(1)|^q int |1-z|^(-q) dm is evaluated in closed form and the
    remainder, which vanishes at z = 1, by the half-offset node mean.
    Both sides read one transform of h, which warns as
    ``hp_norm_estimate`` does when the nodes undersample h.
    """
    _check_reverse_holder(p, q)
    hv = _sampled_boundary(h, nodes)
    z = half_offset_points(hv.size)
    base = abs(exact_sum(h.coeffs)) ** q
    sing = np.abs(1.0 - z) ** (-q)
    integral = base * circle_abs_power_integral(-q) + float(
        np.mean((np.abs(hv) ** q - base) * sing)
    )
    lhs = max(integral, 0.0) ** (1.0 / q)
    rhs = reverse_holder_constant(p, q) * _p_mean(hv, p)
    return lhs, rhs
