"""Norm and quasi-norm estimators for truncated series.

Boundary quasi-norms use the circle mean at radius 1 only: for a
polynomial the circle means are nondecreasing in the radius and continuous
up to the boundary, so the supremum over radii is the boundary mean.
Quadrature nodes sit at half-step offsets 2 pi (j + 1/2)/nodes, so z = 1 is
never sampled; evaluation at all nodes is exact (coefficient folding plus
one FFT), and the only quadrature error is in the mean itself.

``boundary_values`` takes complex coefficients and radii below 1, for the
inequality battery.  ``two_level_means`` serves the H^p convergence runner:
for real coefficients it returns the p-means at M and 2M nodes from one
real FFT of length 4M, without phase factors.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .arith import _check_memory, exact_sum
from .series import TruncatedSeries

__all__ = [
    "QuadratureWarning",
    "default_node_count",
    "boundary_values",
    "circle_mean",
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


def boundary_values(f: TruncatedSeries, nodes: int, radius: float = 1.0) -> np.ndarray:
    """Exact values of f at radius * exp(2 pi i (j + 1/2)/nodes).

    Coefficients are phase-shifted by exp(i pi m / nodes), folded modulo
    the node count, and transformed; this is an exact polynomial
    evaluation, not an approximation.
    """
    _validate_nodes(nodes)
    a = np.asarray(f.coeffs, dtype=np.complex128)
    m = np.arange(a.size, dtype=np.float64)
    if radius != 1.0:
        if not 0.0 < radius <= 1.0:
            raise ValueError("radius must lie in (0, 1]")
        a = a * radius**m
    phased = a * np.exp(1j * math.pi * m / nodes)
    pad = (-phased.size) % nodes
    if pad:
        phased = np.concatenate([phased, np.zeros(pad, dtype=np.complex128)])
    folded = phased.reshape(-1, nodes).sum(axis=0)
    return np.fft.ifft(folded) * nodes


def circle_mean(f: TruncatedSeries, p: float, nodes: int, radius: float = 1.0) -> float:
    """((1/nodes) sum_j |f(radius e^(i theta_j))|^p)^(1/p) at half-offset nodes."""
    if p <= 0:
        raise ValueError("p must be positive")
    vals = np.abs(boundary_values(f, nodes, radius=radius))
    return float(np.mean(vals**p) ** (1.0 / p))


def _check_two_level_nodes(nodes: int) -> None:
    """Refuse node counts that are odd, below 16 or beyond physical memory.

    The estimate covers the buffers of ``two_level_means``: 4M float64 in,
    2M + 1 complex128 out and M float64 magnitudes.
    """
    _validate_nodes(nodes)
    need = 8 * 4 * nodes + 16 * (2 * nodes + 1) + 8 * nodes
    _check_memory(need, f"nodes = {nodes}", "transform buffers")


def two_level_means(coeffs: np.ndarray, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and at 2M half-offset nodes, for real coefficients.

    The M nodes exp(2 pi i (j + 1/2)/M) are exp(2 pi i l/4M) with l = 4j + 2,
    the 2M nodes those with l = 2j + 1 odd.  So one real FFT X of the
    coefficients, folded modulo 4M (z^(4M) = 1 at every such node) and
    zero-padded to 4M, holds both levels: |f| at the node of index l is
    |X_l|.  For real coefficients X_(4M-l) = conj(X_l), and l -> 4M - l maps
    each index set (l = 2 mod 4, l odd) onto itself.  Its fixed points are
    0 and 2M, both even and, because M is even, both 0 (mod 4), so it fixes
    no index of either set: the half spectrum l <= 2M holds exactly one
    index of each mirror pair, and its plain mean over a set is the mean
    over all of that set's nodes.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    _check_two_level_nodes(nodes)
    a = np.asarray(coeffs, dtype=np.float64)
    size = 4 * nodes
    if a.size > size:
        whole = a.size - a.size % size
        folded = a[:whole].reshape(-1, size).sum(axis=0)
        folded[: a.size - whole] += a[whole:]
        a = folded
    spectrum = np.fft.rfft(a, n=size)
    means = []
    for level in (spectrum[2::4], spectrum[1::2]):
        mags = np.abs(level)
        mags **= p
        means.append(float(np.mean(mags) ** (1.0 / p)))
    return means[0], means[1]


def lq_norm(f: TruncatedSeries, q: float) -> float:
    """(sum |a_n|^q)^(1/q); a quasi-norm when q < 1 (triangle fails)."""
    if q <= 0:
        raise ValueError("q must be positive")
    mags = np.abs(f.coeffs)
    return float(np.sum(mags**q) ** (1.0 / q))


def hp_norm_estimate(f: TruncatedSeries, p: float, nodes: int | None = None) -> float:
    """Boundary estimate of the H^p (quasi-)norm of a truncated series.

    Warns (``QuadratureWarning``) when the node count is below degree + 1,
    where the discrete mean of |f|^p can be visibly aliased.  With
    nodes > degree and p = 2 the estimate is exact (Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if nodes is None:
        nodes = default_node_count(f.degree)
    _validate_nodes(nodes)
    if nodes < f.degree + 1:
        warnings.warn(
            f"nodes = {nodes} undersamples degree {f.degree}; the circle mean may alias",
            QuadratureWarning,
            stacklevel=2,
        )
    return circle_mean(f, p, nodes)


def sup_norm_estimate(f: TruncatedSeries, nodes: int | None = None) -> float:
    """max_j |f| over the half-offset nodes (the p -> infinity limit)."""
    if nodes is None:
        nodes = default_node_count(f.degree)
    _validate_nodes(nodes)
    return float(np.max(np.abs(boundary_values(f, nodes))))


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
    """
    _check_reverse_holder(p, q)
    if nodes is None:
        nodes = default_node_count(h.degree)
    _validate_nodes(nodes)
    z = half_offset_points(nodes)
    hv = boundary_values(h, nodes)
    base = abs(exact_sum(h.coeffs)) ** q
    sing = np.abs(1.0 - z) ** (-q)
    integral = base * circle_abs_power_integral(-q) + float(
        np.mean((np.abs(hv) ** q - base) * sing)
    )
    lhs = max(integral, 0.0) ** (1.0 / q)
    rhs = reverse_holder_constant(p, q) * hp_norm_estimate(h, p, nodes)
    return lhs, rhs
