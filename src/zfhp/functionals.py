"""Evaluation functionals applied to truncated series, with proved tail bounds.

The functional sends 1 to -1/s and z^n to f_n(s); on a truncated series it
is the finite sum a_0 (-1/s) + sum_{n=1..N} a_n f_n(s).  Given a proved
envelope |a_m| <= C/m beyond the degree N, the discarded tail admits the
bound C (|1-s|/|s|) N^(-sigma) / sigma with sigma = Re(s); without one no
tail bound is reported.

``lambda_apply`` sums any truncated series term by term.  On the generators
h_k, ``lambda_hk_truncated`` evaluates the same finite sum in closed form,
with a proved coefficient envelope and a proved rounding bound.

``approx_reciprocal_s_partial_sums`` forms the Möbius combinations
sum_{k<=n} mu(k) G_k(s) at many n and many s in one pass over the
squarefree k, fed by the Möbius sieve one segment at a time up to the
largest n: no table of mu is held, so memory is O(sqrt(n) + block) and n
may pass 2^31.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import (
    _SIEVE_BLOCK,
    _check_memory,
    _mobius_segments,
    _sieve_bytes,
    exact_parts,
    exact_sum,
)
from .series import TruncatedSeries, hk_coefficient_envelope
from .special import _U, fk_values, require_right_half_plane, zeta

__all__ = [
    "FunctionalEvaluation",
    "GeneratorEvaluation",
    "lambda_apply",
    "lambda_hk_truncated",
    "approx_reciprocal_s_partial_sums",
]


@dataclass(frozen=True)
class FunctionalEvaluation:
    s: complex
    value: complex
    tail_bound: float | None


def lambda_apply(f: TruncatedSeries, s, coeff_bound: float | None = None) -> FunctionalEvaluation:
    """Apply the evaluation functional to a truncated series.

    The terms are added by ``exact_sum``, exactly rounded per component.
    ``coeff_bound`` is a caller-proved C with |a_m| <= C/m for every
    discarded m > N; the reported ``tail_bound`` is then
    C (|1-s|/|s|) N^(-Re s)/Re(s), monotone nonincreasing in the degree for
    fixed C.  Without it ``tail_bound`` is None.
    """
    s = require_right_half_plane(s)
    a = f.coeffs
    n = f.degree
    terms = np.empty(n + 1, dtype=np.complex128)
    terms[0] = complex(a[0]) * (-1.0 / s)
    if n >= 1:
        terms[1:] = a[1:] * fk_values(n, s)
    value = exact_sum(terms)
    if coeff_bound is None:
        return FunctionalEvaluation(s=s, value=value, tail_bound=None)
    c = float(coeff_bound)
    if c < 0.0:
        raise ValueError("coeff_bound must be nonnegative")
    tail = 0.0 if c == 0.0 or n == 0 else _tail_bound(c, s, n)
    return FunctionalEvaluation(s=s, value=value, tail_bound=tail)


def _tail_bound(c: float, s: complex, n: int) -> float:
    """C (|1-s|/|s|) n^(-sigma) / sigma, sigma = Re(s).

    Bounds sum_{m>n} |a_m f_m(s)| when |a_m| <= C/m for m > n >= 1, by
    |f_m(s)| <= (|1-s|/|s|) m^(-sigma) (``fk_upper_bound``) and
    sum_{m>n} m^(-1-sigma) <= int_n^inf x^(-1-sigma) dx.
    """
    sigma = s.real
    return c * (abs(1.0 - s) / abs(s)) * float(n) ** (-sigma) / sigma


@dataclass(frozen=True)
class GeneratorEvaluation:
    """Lambda^(s) of h_k truncated at degree N, with its two error bounds.

    ``tail_bound`` bounds |Lambda^(s)(h_k) - exact truncated value| and
    ``rounding_bound`` bounds |value - exact truncated value|.
    """

    k: int
    s: complex
    value: complex
    tail_bound: float
    rounding_bound: float


def lambda_hk_truncated(
    k_list: Iterable[int], s_grid: Iterable[complex], degree: int
) -> list[GeneratorEvaluation]:
    """Lambda^(s)(h_k truncated at N = degree), in closed form, k-major order.

    Value.  With M = floor(N/k), E = (N+1)^(1-s), P_c = sum_{j<=c} j^(-s)
    and D_k = H_N - H_M - log k (H_c the harmonic numbers),

        Lambda^(s)(h_k truncated at N) = [(P_N - k^(1-s) P_M) - E D_k] / (k s).

    This is the same finite sum that ``lambda_apply(hk_coeffs(k, N), s)``
    adds term by term.  Write the coefficients as a = cumsum(b), with b the
    closed form of (I - S) h_k (``ims_hk_coeffs``): b_0 = -log(k)/k and
    b_j = (1/j)(1/k - [k | j]).  With g = (-1/s, f_1(s), ..., f_N(s)),
    summation by parts gives sum_m a_m g_m = sum_j b_j G_j, where the
    suffix sums G_j = sum_{j<=m<=N} g_m telescope: G_j = (j^(1-s) - E)/s
    for j >= 1 and G_0 = -1/s + G_1 = -E/s.  Then

        sum_{j>=1} b_j j^(1-s) = P_N/k - k^(-s) P_M,
        sum_{j>=1} b_j = (H_N - H_M)/k,

    and collecting terms gives the formula.

    Cost.  One pass over 1/j, j <= N, and one over j^(-s) per s keep the
    ``exact_parts`` of the prefix sums at the cut points {floor(N/k)} and N.
    P_c is the ``exact_sum`` of its parts, per component, and D_k that of
    the parts of H_N and of -H_M, and -log k; each (k, s) pair costs O(1).
    The cancellations, in P_N - k^(1-s) P_M and in the small D_k, fall only
    on these exactly rounded sums, so no value depends on the rest of
    ``k_list``.

    Tail.  ``tail_bound`` is ``_tail_bound`` with the proved envelope
    C = ``hk_coefficient_envelope(k, N)``, so it bounds the discarded
    sum_{m>N} a_m f_m(s).

    Rounding.  u = 2^-53.  Assumed: log, exp, cos and sin are within
    4 ulp (a relative 8u), complex exp is e^x (cos y + i sin y) from these,
    float +, -, *, / are correctly rounded per component, complex * is
    within 3u and complex / within 8u (normwise), and ``exact_sum`` is
    exactly rounded (its lemma).  Let e(a, L) = u (12 a L + 24),
    sigma = Re(s) and S_c = sum_{j<=c} j^(-sigma) <= 1 + int_1^c x^(-sigma) dx.
      1. exp(-w log j), for w = s or w = 1 - s, is within
         e(|w|, log j) |j^(-w)|: the rounded argument is off by at most
         10u |w| log j, which perturbs the power by a factor e^d with
         e^|d| - 1 <= 11u |w| log j, and exp, cos, sin and two products
         add at most 18u.
      2. P~_c is the exactly rounded sum of the computed powers, per
         component, so |P~_c - P_c| <= (e(|s|, log c) + 3u) S_c;
         |P_c| <= S_c.
      3. The 1/j are within u/j, log k within 8u log k, so
         |D~ - D| <= u (2 |D| + 10 log k).
      4. k^(1-s) P_M is within k^(1-sigma) S_M (e(|s|, log M) +
         e(|1-s|, log k) + 7u); E D within (N+1)^(1-sigma)
         ((e(|1-s|, log(N+1)) + 5u) |D| + 10u log k).
      5. The two subtractions add at most 2u, the product k s and the
         division at most 10u, times the sum of the operand bounds.
    Hence |value - exact| is at most

        R = [(e_N + 24u) S_N + k^(1-sigma) (e_M + e_k + 24u) S_M
             + (N+1)^(1-sigma) ((e_E + 24u) |D| + 10u log k)] / (k |s|)

    with e_N = e(|s|, log N), e_M = e(|s|, log M), e_k = e(|1-s|, log k)
    and e_E = e(|1-s|, log(N+1)).  The constant 24u exceeds the 19u of
    steps 2 to 5 by more than the second-order terms and the rounding of R
    itself.  R is ``rounding_bound``.
    """
    ks = [int(k) for k in k_list]
    grid = [require_right_half_plane(s) for s in s_grid]
    n = int(degree)
    if not ks:
        raise ValueError("k_list must not be empty")
    if any(k < 2 for k in ks):
        raise ValueError("k values must be >= 2")
    if n < 1:
        raise ValueError("degree must be >= 1")
    cuts = sorted({n // k for k in ks} | {n})
    j = np.arange(1, n + 1, dtype=np.float64)
    harmonic = _prefix_parts(1.0 / j, cuts)
    log_j = np.log(j)
    prefix = []
    for s in grid:
        powers = np.exp(-s * log_j)
        re, im = _prefix_parts(powers.real, cuts), _prefix_parts(powers.imag, cuts)
        prefix.append({c: complex(exact_sum(re[c]), exact_sum(im[c])) for c in cuts})
    log_n1 = math.log(n + 1)
    out: list[GeneratorEvaluation] = []
    for k in ks:
        m = n // k
        log_k = math.log(k)
        gap = exact_sum(harmonic[n] + [-h for h in harmonic[m]] + [-log_k])
        envelope = hk_coefficient_envelope(k, n)
        for s, p in zip(grid, prefix):
            e = cmath.exp((1.0 - s) * log_n1)
            kappa = cmath.exp((1.0 - s) * log_k)
            value = ((p[n] - kappa * p[m]) - e * gap) / (k * s)
            out.append(
                GeneratorEvaluation(
                    k=k,
                    s=s,
                    value=value,
                    tail_bound=_tail_bound(envelope, s, n),
                    rounding_bound=_closed_form_rounding(k, s, n, gap),
                )
            )
    return out


def _prefix_parts(terms: np.ndarray, cuts: Sequence[int]) -> dict[int, list[float]]:
    """Exact parts of sum_{j<=c} terms[j-1] at each of the sorted cut points c."""
    parts: list[float] = []
    prefix: dict[int, list[float]] = {}
    lo = 0
    for c in cuts:
        parts += exact_parts(terms[lo:c])
        prefix[c] = list(parts)
        lo = c
    return prefix


def _closed_form_rounding(k: int, s: complex, n: int, gap: float) -> float:
    """R of ``lambda_hk_truncated``, derived in its docstring."""
    sigma = s.real
    abs_s = abs(s)
    abs_1s = abs(1.0 - s)
    m = n // k
    log_k = math.log(k)

    def e(a: float, log_c: float) -> float:
        return _U * (12.0 * a * log_c + 24.0)

    def power_sum(c: int) -> float:  # upper bound on S_c
        if c == 0:
            return 0.0
        log_c = math.log(c)
        x = (1.0 - sigma) * log_c
        return 1.0 + log_c * (math.expm1(x) / x if x else 1.0)

    head = (e(abs_s, math.log(n)) + 24.0 * _U) * power_sum(n)
    cut = 0.0
    if m:
        cut_rel = e(abs_s, math.log(m)) + e(abs_1s, log_k) + 24.0 * _U
        cut = k ** (1.0 - sigma) * cut_rel * power_sum(m)
    gap_term = (n + 1.0) ** (1.0 - sigma) * (
        (e(abs_1s, math.log(n + 1)) + 24.0 * _U) * abs(gap) + 10.0 * _U * log_k
    )
    return (head + cut + gap_term) / (k * abs_s)


# k per block of the approx kernel: the block's terms are a few numpy
# temporaries of this length, and each block adds only a few parts.
_APPROX_BLOCK = 1 << 16


def approx_reciprocal_s_partial_sums(
    n_list: Iterable[int], s_grid: Iterable[complex]
) -> list[list[complex]]:
    """sum_{k=2..n} mu(k) G_k(s) for every s in ``s_grid`` and n in ``n_list``, in their order.

    With G_k(s) = -(zeta(s)/s) (k^(-s) - 1/k), each value is
    -(zeta(s)/s) times sum_k mu(k) (k^(-s) - 1/k), the sum exactly rounded
    per component.  Every n must be at least 2 and below 2^53, so that
    each k is exact in float64.

    One increasing pass over k <= max(n_list) serves the whole grid.  It
    reads mu from the sieve segments of ``arith._mobius_segments`` as they
    come, never from a full table, in blocks of at most ``_APPROX_BLOCK``
    split at the segment ends and the checkpoints.  Each block forms the
    terms of the squarefree k only (mu(k) = 0 terms are exact zeros) with
    the same elementwise numpy expression as a single full-range pass; k,
    log k and 1/k are formed once per block and shared by every s.

    Exactness.  Each block adds its ``exact_parts`` to the parts so far, and
    a checkpoint takes their ``exact_sum``: by the lemma of ``exact_sum``
    the same float as one exactly rounded sum of every term up to it,
    however the blocks are split.  Once the parts of one component exceed
    ``_APPROX_BLOCK`` floats they are replaced by their own ``exact_parts``,
    which have the same exact sum, so they stay O(block) at any n.

    Memory.  One sieve segment, the primes up to sqrt(max n), a block's
    temporaries and the parts (``_approx_bytes``); a run whose estimate
    exceeds physical memory is refused before anything is allocated.
    """
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    for n in ns:
        if n < 2:
            raise ValueError("n must be >= 2")
        if n >= 2**53:
            raise ValueError(f"n = {n} too large: k must be exact in float64, so n < 2^53")
    grid = [complex(s) for s in s_grid]
    if not grid:
        raise ValueError("s_grid must not be empty")
    checkpoints = sorted(set(ns))
    top = checkpoints[-1]
    need = _approx_bytes(top, len(grid))
    _check_memory(need, f"n = {top}", "Möbius sieve segments and approx blocks")
    scales = [-(zeta(s).value / s) for s in grid]
    parts = [([], []) for _ in grid]
    sums: list[dict[int, complex]] = [{} for _ in grid]
    cut = iter(checkpoints)
    n = next(cut)
    for lo, mu in _mobius_segments(top):
        start, end = max(lo, 2), lo + mu.size
        while start < end:
            hi = min(start + _APPROX_BLOCK, end, n + 1)
            _add_block_parts(mu[start - lo : hi - lo], start, grid, parts)
            start = hi
            if hi == n + 1:
                for scale, (re, im), at in zip(scales, parts, sums):
                    at[n] = scale * complex(exact_sum(re), exact_sum(im))
                n = next(cut, top)
    return [[at[n] for n in ns] for at in sums]


def _add_block_parts(
    mu: np.ndarray, lo: int, grid: list[complex], parts: list[tuple[list[float], list[float]]]
) -> None:
    """Append, per s, the exact parts of mu(k) (k^(-s) - 1/k), lo <= k < lo + mu.size.

    k, log k and 1/k are formed once for every s; the parts of a component
    that exceed ``_APPROX_BLOCK`` floats are compacted to their own
    ``exact_parts``.  The block's arrays die on return, before the next
    segment is sieved.
    """
    nz = np.flatnonzero(mu)
    k = (nz + lo).astype(np.float64)
    log_k, inv_k, mu_k = np.log(k), 1.0 / k, mu[nz].astype(np.float64)
    for s, components in zip(grid, parts):
        terms = mu_k * (np.exp(-s * log_k) - inv_k)
        for part, x in zip(components, (terms.real, terms.imag)):
            part += exact_parts(x)
            if len(part) > _APPROX_BLOCK:
                part[:] = exact_parts(part)


def _approx_bytes(top: int, grid_size: int) -> int:
    """Peak bytes of ``approx_reciprocal_s_partial_sums`` up to n = ``top``, over ``grid_size`` s.

    The sieve (``arith._sieve_bytes``) and the previous int8 segment, held
    while the next one is sieved.  Per block entry, the int64 index and k,
    log k, 1/k and mu(k) as float64 (40 bytes), and for one s at a time at
    most two complex128 temporaries and the float64 copy and temporaries
    of ``exact_parts`` (56 bytes).  Per s and component, at most
    ``_APPROX_BLOCK`` parts plus one block's, fewer than 64: by the lemma
    of ``exact_sum`` each pass drops at least 52 - 17 of the 2100 binary
    exponents.  They are floats in a list (32 bytes each), with their
    float64 copy while they are compacted.
    """
    parts = grid_size * 2 * 40 * (_APPROX_BLOCK + 64)
    return _sieve_bytes(top) + _SIEVE_BLOCK + 96 * _APPROX_BLOCK + parts
