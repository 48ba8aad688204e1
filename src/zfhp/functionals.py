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
sum_{k<=n} mu(k) G_k(s) at many n and many s, each with a proved error
bound, in O(n^(2/3)) operations and memory: the Möbius table and the
weighted prefix sums reach only about (max n)^(2/3).  Each n up to there
is a table entry, and each larger n comes from the weighted Mertens
recursion, with the Euler-Maclaurin tail ``special._zeta_tail`` above the
tables, so n may reach 2^53 - 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import _check_memory, _physical_bytes, _sieve_bytes, build_mobius, exact_parts, exact_sum
from .series import TruncatedSeries, hk_coefficient_envelope
from .special import (_SLACK, _U, _check_zeta_range, _power_error, _zeta_tail, fk_values,
                      require_right_half_plane, zeta)

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
    ``k_list``.  Beyond physical memory, N is refused before anything is
    allocated (72 bytes per coefficient).

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
    # Per coefficient: j, log j and one s's powers (8 + 8 + 16), and while a
    # prefix takes its exact parts, their float64 copy and temporaries (24):
    # under 72 bytes (tracemalloc: 64).
    _check_memory(72 * (n + 1), f"degree = {n}", "lambda coefficient buffers")
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
    e = _power_error
    head = (e(abs_s, math.log(n)) + 24.0 * _U) * _power_sum(sigma, n)
    cut = 0.0
    if m:
        cut_rel = e(abs_s, math.log(m)) + e(abs_1s, log_k) + 24.0 * _U
        cut = k ** (1.0 - sigma) * cut_rel * _power_sum(sigma, m)
    gap_term = (n + 1.0) ** (1.0 - sigma) * (
        (e(abs_1s, math.log(n + 1)) + 24.0 * _U) * abs(gap) + 10.0 * _U * log_k
    )
    return (head + cut + gap_term) / (k * abs_s)


def _power_sum(sigma: float, c, xp=math):
    """S(c) = 1 + int_1^c x^(-sigma) dx >= sum_{j<=c} j^(-sigma), at an integer c >= 1, or an array with xp = numpy."""
    log_c = xp.log(c)
    return 1.0 + (xp.expm1((1.0 - sigma) * log_c) / (1.0 - sigma) if sigma != 1 else log_c)


# Table entries per chunk of the approx tables: a chunk's temporaries take
# under 256 bytes per entry (``_approx_bytes``).
_APPROX_CHUNK = 1 << 13


def approx_reciprocal_s_partial_sums(
    n_list: Iterable[int], s_grid: Iterable[complex]
) -> list[list[tuple[complex, float]]]:
    """(value, bound) of sum_{k=2..n} mu(k) G_k(s) for every s in ``s_grid`` and n in ``n_list``, in their order.

    Method.  G_k(s) = -(zeta(s)/s) (k^(-s) - 1/k), so the value is
    -(zeta(s)/s) (M_s(n) - M_1(n)) with M_s(x) = sum_{k<=x} mu(k) k^(-s).
    Every n must lie in 2..2^53 - 1, and |s| may not exceed 2^20.  mu is
    sieved once, to L = ``_approx_limit(max n)``, about (max n)^(2/3), and
    ``_weighted_mertens`` gives M_s(n) and M_1(n) with their bounds: a
    table entry for n <= L, and the recursion for n > L, in
    O(L + n / sqrt(L)) = O(n^(2/3)) operations and O(L) memory.

    Bound.  u = 2^-53, c = -zeta(s)/s, D = M_s(n) - M_1(n) and c~, D~
    their computed values, and Z = ``zeta(s).error_bound``, the proved
    bound on |zeta~(s) - zeta(s)|.  D~ is within E = E_s + E_1 + u |D~|
    of D, with the bounds E_s and E_1 of M_s(n) and M_1(n) from
    ``_weighted_mertens`` and u |D~| for the subtraction.
    c~ = fl(-zeta~/s) is within 8u |c~| + Z/|s| of c to first order, and
    the product adds 3u, so the value is within

        bound = |c~| (12u |D~| + E) + (Z/|s|) (|D~| + E)

    of the sum, returned times ``_SLACK``, which also covers the factor
    1 + 8u on |c~| E.  []
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
    for s in grid:
        _check_zeta_range(s)
    limit = _approx_limit(max(ns))
    zetas = [zeta(s) for s in grid]
    mu = build_mobius(limit).values
    ones = _weighted_mertens(mu, 1.0, ns)
    out = []
    for s, z in zip(grid, zetas):
        scale, z_err = -(z.value / s), z.error_bound / abs(s)  # c~ and Z/|s|
        weighted = _weighted_mertens(mu, s, ns)
        row = []
        for n in ns:
            (m_s, e_s), (m_1, e_1) = weighted[n], ones[n]
            d = complex(m_s) - float(m_1)
            err = float(e_s + e_1 + _U * abs(d))  # E
            row.append((scale * d, _SLACK * (abs(scale) * (12 * _U * abs(d) + err) + z_err * (abs(d) + err))))
        out.append(row)
    return out


def _weighted_mertens(mu: np.ndarray, s, n_list: list[int]):
    """M_s(n) with a proved bound, for each n in ``n_list``.

    Returns {n: (M~_s(n), E_s(n))} with |M~_s(n) - M_s(n)| <= E_s(n): an
    n <= L is the table entry M~(n) with E(n) of (T1), and a larger n
    comes from the recursion below.

    Tables.  With L = mu.size - 1, sigma = Re s and w_j = fl(j^(-s)) (= fl(1/j)
    at s = 1), the tables hold P~(y) and M~(y), y <= L: running sums of w_j
    and of mu(j) w_j, built in chunks of ``_APPROX_CHUNK`` entries.  Each is
    Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26, 2005,
    Algorithm 4.4 and Proposition 4.5), per component: the recursive sum,
    plus the recursive sum of the exact errors of its additions (TwoSum),
    added once.  So each entry is within u |exact| + gamma_L^2 sum |terms|
    of the exact sum of the computed terms, per component, with
    gamma_L = L u / (1 - L u).  Let e(y) =
    ``_power_error(|s|, log y)`` (u at s = 1), so w_j is within e(j) j^-sigma
    of j^(-s), S(y) = ``_power_sum(sigma, y)`` >= sum_{j<=y} j^-sigma and
    G = 4 (L u)^2 S(L) > sqrt(2) gamma_L^2 (1 + e(L)) S(L), as L < 2^31.
    For y <= L and a <= b <= L:
      (T1) |M~(y) - M_s(y)| <= E(y) = (e(y) + 3u) S(y) + G, as the terms
           are within e(y) S(y) in all and |M~(y)| <= S(y) (1 + 2e(y)).
           E_M = E(L) bounds them all.
      (T2) fl(P~(b) - P~(a)) is within 2u (|P~(a)| + |P~(b)| + |difference|)
           + 2G + e(b) (b - a) (a + 1)^-sigma of P_s(b) - P_s(a): the
           terms a < j <= b are within e(b) j^-sigma <= e(b) (a + 1)^-sigma.
      (T3) Above L, P_s(b) - P_s(a) = F(a + 1) - F(b + 1), with the tails F
           of ``special._zeta_tail``: within their remainders and rounding
           bounds, plus u of the difference and u of the sum it is added to.

    Recursion.  The Dirichlet convolution mu * 1 = epsilon, weighted by
    j^(-s), gives sum_{j<=x} j^(-s) M_s(floor(x/j)) = 1 for x >= 1
    (Deleglise and Rivat, Experiment. Math. 5, 1996).  For x = floor(n/d) > L
    and r = isqrt(x), group the j > r by q = floor(x/j) <= r <= L:

        M_s(x) = 1 - sum_{2<=j<=r} j^(-s) M_s(floor(x/j))
                   - sum_{1<=q<=x/(r+1)} M_s(q) (P_s(b_q) - P_s(a_q)),

    b_q = floor(x/q), a_q = max(floor(x/(q+1)), r).  floor(x/j) =
    floor(n/(dj)) is a table entry or, above L, the memo entry at dj, which
    is done before d since d runs down from floor(n/(L+1)).  Each x costs
    O(sqrt(x)) numpy work, so n costs O(n / sqrt(L)); the P differences
    take (T2) up to L and (T3) above.

    Bound.  The two sums are added in one exactly rounded sum T~
    (``exact_sum``), and M~(x) = fl(1 - T~).  Let v~_j be the value taken for
    M_s(floor(x/j)), E_j its bound (E_M or a memo bound), g~_q the computed
    group difference, D_q its bound from (T2) and (T3), m~_q = M~(q) and
    E_q = E(q).
    Products are within 3u, and w~_j within e(r), so M~(x) is within

        E(x) = sum_j |w~_j| (E_j + (e(r) + 4u) |v~_j|)
               + sum_q ((|m~_q| + E_q) D_q + (E_q + 4u |m~_q|) |g~_q|)
               + 2u (|T~| + |M~(x)|)

    of M_s(x), to first order.  Every bound is stored times ``_SLACK``,
    which covers the second-order terms (e <= 2^-22 for |s| <= 2^20) and
    the rounding of the bound's own evaluation, sums of fewer than 2^31
    nonnegative terms.  An underflowing power is off by at most 2^-1074, far
    below the u |c~| / |s| that ``run_pointwise_approx`` adds.  []
    """
    limit, sigma, real = mu.size - 1, s.real, s == 1
    kind = np.float64 if real else np.complex128
    table_p, table_m = tables = np.zeros((2, limit + 1), kind)  # P~ and M~
    powers = np.zeros(math.isqrt(max(n_list)) + 1, kind)  # w_j, j <= sqrt(max n)
    carries = [[0.0, 0.0], [0.0, 0.0]]
    for lo in range(1, limit + 1, _APPROX_CHUNK):
        hi = min(lo + _APPROX_CHUNK, limit + 1)
        j = np.arange(lo, hi, dtype=np.float64)
        w = 1.0 / j if real else np.exp(-s * np.log(j))
        powers[lo : min(hi, powers.size)] = w[: max(powers.size - lo, 0)]
        for out, x, carry in zip(tables[:, lo:hi], (w, mu[lo:hi] * w), carries):
            _running_sum(x, out, carry)
    e = (lambda y: _U) if real else (lambda y: _power_error(abs(s), np.log(y)))
    g_table = 4 * (limit * _U) ** 2 * _power_sum(sigma, limit)

    def table_bound(y):
        """E(y) of (T1), at an integer or an array y <= L."""
        return (e(y) + 3 * _U) * _power_sum(sigma, y, np) + g_table

    e_table, e_small = table_bound(limit), table_bound(np.arange(1, powers.size + 1))  # E(L); E(q) at q - 1
    abs_powers = np.abs(powers)

    def groups(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_s(b) - P_s(a) per group, with its bound D, by (T2) and (T3)."""
        lo, hi = np.minimum(a, limit), np.minimum(b, limit)
        p_lo, p_hi = table_p[lo], table_p[hi]
        g = p_hi - p_lo
        bound = 2 * _U * (np.abs(p_lo) + np.abs(p_hi) + np.abs(g)) + 2 * g_table
        bound += e(hi[0]) * (hi - lo) * (lo + 1.0) ** -sigma
        tail = np.flatnonzero(b > limit)
        if tail.size:  # F(max(a, L) + 1) and F(b + 1) from one call
            f, rem, rnd = _zeta_tail(np.concatenate((np.maximum(a[tail], limit), b[tail])) + 1.0, s)
            diff = f[: tail.size] - f[tail.size :]
            g[tail] += diff
            bound[tail] += (rem + rnd).reshape(2, -1).sum(axis=0) + 2 * _U * (np.abs(diff) + np.abs(g[tail]))
        return g, bound

    results = {}
    for n in set(n_list):
        if n <= limit:
            results[n] = table_m[n], table_bound(n)
            continue
        top = n // (limit + 1)
        memo, memo_err = np.zeros(top + 1, kind), np.zeros(top + 1)
        for d in range(top, 0, -1):
            x, r = n // d, math.isqrt(n // d)
            j = np.arange(2, r + 1)
            y = x // j
            v, ev = table_m[np.minimum(y, limit)], np.full(y.size, e_table)
            big = d * j[y > limit]
            v[: big.size], ev[: big.size] = memo[big], memo_err[big]
            q = np.arange(1, x // (r + 1) + 1)
            g, eg = groups(np.maximum(x // (q + 1), r), x // q)
            m = table_m[q]
            total = exact_sum(np.concatenate((powers[2 : r + 1] * v, m * g)))
            value = 1.0 - total
            am, em = np.abs(m), e_small[: q.size]
            err = (abs_powers[2 : r + 1] @ (ev + (e(r) + 4 * _U) * np.abs(v))
                   + (am + em) @ eg + (em + 4 * _U * am) @ np.abs(g)
                   + 2 * _U * (abs(total) + abs(value)))
            memo[d], memo_err[d] = value, err * _SLACK
        results[n] = memo[1], memo_err[1]
    return results


def _running_sum(t: np.ndarray, out: np.ndarray, carry: list[float]) -> None:
    """Sum2 running sums of ``t`` into ``out``, continuing from ``carry``.

    carry = [recursive sum, recursive sum of its addition errors] of the
    terms before ``t``, updated in place.  Each addition c = fl(a + b) has
    the exact error (a - (c - (c - a))) + (b - (c - a)) (TwoSum, Knuth);
    ``out`` is fl(c + correction).  Complex +, - and ``np.cumsum`` act per
    component, so a complex ``t`` is two real running sums.
    """
    c = np.cumsum(np.concatenate(([carry[0]], t)))
    bb = c[1:] - c[:-1]
    err = (c[:-1] - (c[1:] - bb)) + (t - bb)
    corr = np.cumsum(np.concatenate(([carry[1]], err)))
    np.add(c[1:], corr[1:], out=out)
    carry[:] = c[-1], corr[-1]


# Bytes of the approx tables per entry: the int8 mu, and P~ and M~ of one s.
_TABLE_BYTES = 33


def _approx_limit(top: int) -> int:
    """L for ``approx_reciprocal_s_partial_sums`` up to n = ``top``, refused if it cannot fit.

    L = min(ceil(top^(2/3)), 2^31 - 1, the largest L whose ``_approx_bytes``
    fit in physical memory), and at least isqrt(top), which the recursion
    needs.  Beyond physical memory, ``_check_memory`` refuses before
    anything is allocated.
    """
    limit = int(top ** (2 / 3)) + 2
    while (limit - 1) ** 3 >= top * top:
        limit -= 1
    rest = _approx_bytes(top, limit) - _TABLE_BYTES * (limit + 1)  # also bounds it at any smaller L
    limit = max(min(limit, 2**31 - 1, (_physical_bytes() - rest) // _TABLE_BYTES - 1), math.isqrt(top))
    _check_memory(_approx_bytes(top, limit), f"n = {top}", "approx tables and temporaries")
    return limit


def _approx_bytes(top: int, limit: int) -> int:
    """Peak bytes of ``approx_reciprocal_s_partial_sums`` up to n = ``top`` with tables to ``limit``.

    Per table entry, the int8 mu and the complex128 P~ and M~ of one s at a
    time (the float64 tables at s = 1 come first, and are freed), 33 bytes,
    and the sieve's segment buffers and base primes
    (``arith._sieve_bytes``).  Per chunk entry, the chunk's arrays: j,
    log j, -s log j, w and mu w, and the temporaries of their running
    sums (the cumulative sums, the TwoSum errors and their
    concatenations), under 256 bytes.  Per entry of the recursion's arrays, of at most
    isqrt(top) + 1 entries each: the powers and their moduli (24), the
    memo's complex128 value and float64 bound (24; top / (limit + 1) <=
    isqrt(top) entries, as limit >= isqrt(top)), and the j, q, index,
    value, bound and group arrays of one x, under 512 bytes.
    """
    return (_TABLE_BYTES * (limit + 1) + _sieve_bytes(limit) + 256 * _APPROX_CHUNK
            + 560 * (math.isqrt(top) + 1))
