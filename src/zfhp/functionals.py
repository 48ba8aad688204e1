"""Evaluation functionals applied to truncated series, with proved tail bounds.

The functional sends 1 to -1/s and z^n to f_n(s); on a truncated series it
is the finite sum a_0 (-1/s) + sum_{n=1..N} a_n f_n(s).  Given a proved
envelope |a_m| <= C/m beyond the degree N, the discarded tail admits the
bound C (|1-s|/|s|) N^(-sigma) / sigma with sigma = Re(s); without one no
tail bound is reported.

``lambda_apply`` sums any truncated series term by term.  On the generators
h_k, ``lambda_hk_truncated`` evaluates the same finite sum in closed form,
with a proved coefficient envelope and a proved rounding bound, from
prefix sums of j^-s that one blocked walk over j <= N adds exactly
(``arith._walk_parts``): its memory does not grow with the degree N.

``approx_reciprocal_s_partial_sums`` forms the Möbius combinations
sum_{k<=n} mu(k) G_k(s) at many n and many s, each with a proved error
bound, in O(n^(2/3)) operations and O(sqrt(n)) memory: one pass over the
Möbius sieve segments forms the weighted prefix sums to about
(max n)^(2/3) and keeps only the entries that the weighted Mertens
recursion reads: a dense row to sqrt(max n) and, per larger n, a column
per k at floor(n/k), where the recursion also writes its own values.
Each n up to that limit is a table entry, and each larger n comes from the
recursion, with the Euler-Maclaurin tail ``special._zeta_tail`` above
the tables, so n may reach 2^53 - 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import _SIEVE_BLOCK, _check_memory, _mobius_segments, _sieve_bytes, _walk_parts, exact_sum
from .series import TruncatedSeries, hk_coefficient_envelope
from .special import (_SLACK, _U, _power_error, _zeta_tail, fk_values,
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

    Cost.  One blocked walk over j <= N (``arith._walk_parts``) forms
    1/j, log j and j^(-s) for every s a block of ``_DIVIDE_BLOCK`` at a
    time and keeps the ``exact_parts`` of the prefix sums of 1/j and of
    the real and imaginary parts of j^(-s) at the cut points
    {floor(N/k)} and N.  P_c is the ``exact_sum`` of its parts, per
    component, and D_k that of the parts of H_N and of -H_M, and -log k;
    each (k, s) pair costs O(1).  The cancellations, in P_N - k^(1-s) P_M
    and in the small D_k, fall only on these exactly rounded sums, so no
    value depends on the rest of ``k_list`` or on the blocks.  Memory is
    one block's arrays (``arith._WALK_BYTES``) and O(1) floats per cut
    point and s, whatever N; N must be below 2^53, so that every j is an
    exact float64.

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
    if not 1 <= n < 2**53:
        raise ValueError(f"degree = {n} outside 1..2^53 - 1, where every j is an exact float64")
    cuts = sorted({n // k for k in ks} | {n})

    def terms(lo: int, j: np.ndarray) -> Iterator[np.ndarray]:
        yield 1.0 / j
        log_j = np.log(j, out=j)
        for s in grid:
            powers = np.exp(-s * log_j)
            yield from (powers.real, powers.imag)

    harmonic, prefix = {}, {}
    for c, (h, *powers) in zip(cuts, _walk_parts(terms, 1 + 2 * len(grid), cuts)):
        harmonic[c] = h
        prefix[c] = [complex(exact_sum(re), exact_sum(im)) for re, im in zip(powers[::2], powers[1::2])]
    log_n1 = math.log(n + 1)
    out: list[GeneratorEvaluation] = []
    for k in ks:
        m = n // k
        log_k = math.log(k)
        gap = exact_sum(harmonic[n] + [-h for h in harmonic[m]] + [-log_k])
        envelope = hk_coefficient_envelope(k, n)
        for s, p_n, p_m in zip(grid, prefix[n], prefix[m]):
            e = cmath.exp((1.0 - s) * log_n1)
            kappa = cmath.exp((1.0 - s) * log_k)
            value = ((p_n - kappa * p_m) - e * gap) / (k * s)
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
    Every n must lie in 2..2^53 - 1, and |s| may not exceed 2^20.  One
    pass over the Möbius sieve segments, to L = ``_approx_limit(max n)``,
    about (max n)^(2/3), or to N - 1 if larger, with N = ceil(|s|) + 10
    the largest cut ``terms_used`` of ``zeta`` over the grid, builds the
    table entries that the recursion reads for s = 1 and every s of the
    grid (``_mertens_tables``), and
    ``_weighted_mertens`` gives M_s(n) and M_1(n) with their bounds: a
    table entry for n <= L, and the recursion for n > L, in
    O(L + n / sqrt(L)) = O(n^(2/3)) operations and O(sqrt(n)) memory per s.
    The recursion's Euler-Maclaurin tails (``special._zeta_tail``) start
    above L, so at N or later, where zeta's own tail starts: far below
    |s| the Euler-Maclaurin terms grow, so the value loses its digits
    while its bound, still proved, grows with them.
    A run whose ``_approx_bytes`` exceed physical memory is refused before
    anything is allocated.

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
    zetas = [zeta(s) for s in grid]  # refuses an s outside its domain or range first
    limit = max(_approx_limit(max(ns)), *(z.terms_used - 1 for z in zetas))
    _check_memory(_approx_bytes(ns, grid, limit), f"n = {max(ns)}", "approx tables and temporaries")
    tables = _mertens_tables(limit, [1.0, *grid], ns)
    ones = _weighted_mertens(tables[0], ns)
    out = []
    for s, z, table in zip(grid, zetas, tables[1:]):
        scale, z_err = -(z.value / s), z.error_bound / abs(s)  # c~ and Z/|s|
        weighted = _weighted_mertens(table, ns)
        row = []
        for n in ns:
            (m_s, e_s), (m_1, e_1) = weighted[n], ones[n]
            d = complex(m_s) - float(m_1)
            err = float(e_s + e_1 + _U * abs(d))  # E
            row.append((scale * d, _SLACK * (abs(scale) * (12 * _U * abs(d) + err) + z_err * (abs(d) + err))))
        out.append(row)
    return out


class _KeptTables:
    """The entries of the tables P~ and M~ of one s that ``_weighted_mertens`` reads, to L = ``limit``.

    With S = ``root``: ``dense`` holds P~(y) and M~(y) for y <= S (index 0
    holds 0), and ``by_k[n]``, for each n > S of ``n_list``, P~ and M~ at
    min(floor(n/k), L) in column k, for k = 1..floor(n/(S+1)) (column 0
    holds 0).  ``_weighted_mertens`` writes M~(floor(n/k)) over the M~(L)
    of the columns with floor(n/k) > L.  float64 at real s, complex128
    otherwise.
    """

    def __init__(self, s, limit: int, root: int, n_list: list[int]):
        kind = np.float64 if s.imag == 0 else np.complex128
        self.s, self.limit = s, limit
        self.dense = np.zeros((2, root + 1), kind)
        self.by_k = {n: np.zeros((2, n // (root + 1) + 1), kind) for n in n_list if n > root}


def _mertens_tables(limit: int, grid: list, n_list: list[int]) -> list[_KeptTables]:
    """The ``_KeptTables`` of each s in ``grid``, from one pass over the Möbius sieve segments to ``limit``.

    The segments of ``arith._mobius_segments`` come one at a time, so no
    array of L entries is made.  Each is cut into chunks of at most
    ``_APPROX_CHUNK`` entries, and per chunk j, log j and, per n > S, the
    columns k it fills and their indices min(floor(n/k), L) - lo are
    formed once for every s.  The chunk that ends at L fills its columns
    from k = 1, so those with floor(n/k) > L get P~(L) and M~(L).  Per
    s, w_j is 1/j at s = 1 and np.exp(-s log j) otherwise, its real part
    at real s, and the running sums of w_j and mu(j) w_j continue the
    Sum2 carries of the chunk before (``_running_sum``).  Every operation
    is elementwise or a running sum in increasing j, so each entry is the
    float that a table of all L + 1 entries holds, whatever the chunks.
    """
    root = math.isqrt(max(n_list))
    tables = [_KeptTables(s, limit, root, n_list) for s in grid]
    carries = [[[0.0, 0.0], [0.0, 0.0]] for _ in grid]
    for base, segment in _mobius_segments(limit):
        end = base + segment.size
        for lo in range(max(base, 1), end, _APPROX_CHUNK):
            hi = min(lo + _APPROX_CHUNK, end)
            j = np.arange(lo, hi, dtype=np.float64)
            log_j, mu = np.log(j), segment[lo - base : hi - base]
            picks = []  # per n > S: the k <= floor(n/(S+1)) with lo <= min(floor(n/k), L) < hi, and that index - lo
            for n in tables[0].by_k:
                k = np.arange(1 if hi == limit + 1 else n // hi + 1, min(n // lo, n // (root + 1)) + 1)
                if k.size:
                    picks.append((n, k, np.minimum(n // k, limit) - lo))
            dense = min(hi, root + 1) - lo  # entries of the chunk at j <= S
            for table, carry in zip(tables, carries):
                w = _powers(table.s, j, log_j, table.dense.dtype)
                sums = np.empty((2, hi - lo), table.dense.dtype)  # P~ and M~ on [lo, hi)
                for out, x, c in zip(sums, (w, mu * w), carry):
                    _running_sum(x, out, c)
                if dense > 0:
                    table.dense[:, lo : lo + dense] = sums[:, :dense]
                for n, k, y in picks:
                    table.by_k[n][:, k] = sums[:, y]
    return tables


def _weighted_mertens(table: _KeptTables, n_list: list[int]):
    """M_s(n) with a proved bound, for each n in ``n_list``, from the kept entries of ``table``.

    Returns {n: (M~_s(n), E_s(n))} with |M~_s(n) - M_s(n)| <= E_s(n): an
    n <= L is the table entry M~(n) with E(n) of (T1), and a larger n
    comes from the recursion below.

    Tables.  With L = ``table.limit``, sigma = Re s and w_j = fl(j^(-s))
    (= fl(1/j) at s = 1), the tables are P~(y) and M~(y), y <= L: running
    sums of w_j and of mu(j) w_j, built in chunks of ``_APPROX_CHUNK``
    entries, of which only the entries the recursion reads are kept
    (``_KeptTables``, built by ``_mertens_tables``).  Each is
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
    At real s the imaginary parts of w_j and of F are zeros, so float64
    tables and sums, of the real parts of the same complex values, give
    the values and bounds that complex128 ones would.

    Recursion.  The Dirichlet convolution mu * 1 = epsilon, weighted by
    j^(-s), gives sum_{j<=x} j^(-s) M_s(floor(x/j)) = 1 for x >= 1
    (Deleglise and Rivat, Experiment. Math. 5, 1996).  For x = floor(n/d) > L
    and r = isqrt(x), group the j > r by q = floor(x/j) <= r <= L:

        M_s(x) = 1 - sum_{2<=j<=r} j^(-s) M_s(floor(x/j))
                   - sum_{1<=q<=x/(r+1)} M_s(q) (P_s(b_q) - P_s(a_q)),

    b_q = floor(x/q), a_q = max(floor(x/(q+1)), r) = b_(q+1): with
    Q = floor(x/(r+1)), floor(x/(q+1)) > r for q < Q, and floor(x/(Q+1))
    = r, since Q = r for x >= r (r+1) and Q = r - 1 below.  floor(x/j) =
    floor(n/(dj)) is a table entry or, above L, the M~ that the recursion
    wrote to column dj of ``by_k[n]``, which is done before d since d runs
    down from floor(n/(L+1)).  Each x costs O(sqrt(x)) numpy work, so n
    costs O(n / sqrt(L)); the P differences take (T2) up to L and (T3)
    above.  Every index the recursion reads, clipped to L, is at most
    S = isqrt(max n) (r, q, and floor(x/i) with i > floor(x/(S+1))), or
    floor(n/k) with k = d i <= floor(n/(S+1)): a dense entry or column k
    of ``by_k[n]``, read by ``_gather``.

    Bound.  The two sums are added in one exactly rounded sum T~
    (``exact_sum``), and M~(x) = fl(1 - T~).  Let v~_j be the value taken for
    M_s(floor(x/j)), E_j its bound (E_M, or E(floor(n/(dj))) above L),
    g~_q the computed group difference, D_q its bound from (T2) and (T3),
    m~_q = M~(q) and E_q = E(q).
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
    s, limit, (table_p, table_m) = table.s, table.limit, table.dense
    root, sigma, kind = table_p.size - 1, s.real, table_p.dtype
    j = np.arange(1, root + 1, dtype=np.float64)
    powers = np.concatenate(([0], _powers(s, j, np.log(j), kind)))  # w_j, j <= S
    e = (lambda y: _U) if s == 1 else (lambda y: _power_error(abs(s), np.log(y)))
    g_table = 4 * (limit * _U) ** 2 * _power_sum(sigma, limit)

    def table_bound(y):
        """E(y) of (T1), at an integer or an array y <= L."""
        return (e(y) + 3 * _U) * _power_sum(sigma, y, np) + g_table

    e_table, e_small = table_bound(limit), table_bound(np.arange(1, root + 2))  # E(L); E(q) at q - 1
    abs_powers = np.abs(powers)

    def groups(a: np.ndarray, b: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray, tail: int):
        """P_s(b) - P_s(a) per group, with its bound D, by (T2) and (T3); the first ``tail`` have b > L."""
        lo, hi = np.minimum(a, limit), np.minimum(b, limit)
        g = p_hi - p_lo
        bound = 2 * _U * (np.abs(p_lo) + np.abs(p_hi) + np.abs(g)) + 2 * g_table
        bound += e(hi[0]) * (hi - lo) * (lo + 1.0) ** -sigma
        if tail:  # F(max(a, L) + 1) and F(b + 1) from one call
            f, rem, rnd = _zeta_tail(np.concatenate((np.maximum(a[:tail], limit), b[:tail])) + 1.0, s)
            diff = (f[:tail] - f[tail:]).real if kind == np.float64 else f[:tail] - f[tail:]
            g[:tail] += diff
            bound[:tail] += (rem + rnd).reshape(2, -1).sum(axis=0) + 2 * _U * (np.abs(diff) + np.abs(g[:tail]))
        return g, bound

    results = {}
    for n in set(n_list):
        if n <= limit:  # a table entry: dense to S, column 1 of by_k[n] above
            results[n] = (table_m[n] if n <= root else table.by_k[n][1, 1]), table_bound(n)
            continue
        p_k, m_k = table.by_k[n]
        top = n // (limit + 1)
        memo_err = np.zeros(top + 1)  # E(floor(n/d)), as m_k[d] gets M~(floor(n/d))
        for d in range(top, 0, -1):
            x, r = n // d, math.isqrt(n // d)
            over, cut = x // (limit + 1), x // (root + 1)  # floor(x/i) > L for i <= over, > S for i <= cut
            j = np.arange(2, r + 1)
            v = _gather(table_m, m_k, d, 2, j, x // j, cut)
            ev = np.full(j.size, e_table)
            big = d * j[: max(over - 1, 0)]
            ev[: big.size] = memo_err[big]
            i = np.arange(1, x // (r + 1) + 2)  # q = 1..x // (r + 1), and one more
            y = x // i  # y[:-1] is b_q, and y[1:] is a_q
            p = _gather(table_p, p_k, d, 1, i, y, cut)
            q = i[:-1]
            g, eg = groups(y[1:], y[:-1], p[1:], p[:-1], min(over, q.size))
            m = table_m[q]
            total = exact_sum(np.concatenate((powers[2 : r + 1] * v, m * g)))
            value = 1.0 - total
            am, em = np.abs(m), e_small[: q.size]
            err = (abs_powers[2 : r + 1] @ (ev + (e(r) + 4 * _U) * np.abs(v))
                   + (am + em) @ eg + (em + 4 * _U * am) @ np.abs(g)
                   + 2 * _U * (abs(total) + abs(value)))
            m_k[d], memo_err[d] = value, err * _SLACK
        results[n] = m_k[1], memo_err[1]
    return results


def _powers(s, j: np.ndarray, log_j: np.ndarray, kind) -> np.ndarray:
    """w_j = fl(j^(-s)) of the tables: 1/j at s = 1, else np.exp(-s log j), its real part for float64 ``kind``."""
    w = 1.0 / j if s == 1 else np.exp(-s * log_j)
    return w.real if kind == np.float64 else w


def _gather(dense: np.ndarray, by_k: np.ndarray, d: int, first: int, i: np.ndarray, y: np.ndarray,
            cut: int) -> np.ndarray:
    """A row of the tables at y = floor(x/i), i = first, first + 1, ...: P~(min(y, L)), or M~(y) (above L, as written by the recursion).

    y does not increase with i, so with cut = floor(x/(S+1)) the i up to
    the cut have y > S and read ``by_k`` at k = d i (floor(x/i) =
    floor(n/(d i))), and the rest read ``dense`` at y <= S.
    """
    at = min(max(cut - first + 1, 0), i.size)
    out = np.empty(i.size, dense.dtype)
    out[:at] = by_k[d * i[:at]]
    out[at:] = dense[y[at:]]
    return out


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


def _approx_limit(top: int) -> int:
    """L for ``approx_reciprocal_s_partial_sums`` up to n = ``top``.

    L = min(ceil(top^(2/3)), 2^31 - 1).  The recursion needs L >= isqrt(top),
    and both terms are: ceil(top^(2/3)) >= top^(1/2) for top >= 1, and
    2^31 - 1 > isqrt(2^53 - 1) = 94,906,265.  Memory does not grow with L
    beyond one sieve segment, so no smaller L is taken to fit it.
    """
    limit = int(top ** (2 / 3)) + 2
    while (limit - 1) ** 3 >= top * top:
        limit -= 1
    return min(limit, 2**31 - 1)


def _approx_bytes(n_list: list[int], grid: list, limit: int) -> int:
    """Peak bytes of ``approx_reciprocal_s_partial_sums`` at the n of ``n_list`` and s of ``grid``, with tables to ``limit``.

    With S = isqrt(max n): the ``_KeptTables`` of s = 1 and of every s,
    8 bytes per entry at real s and 16 otherwise, two dense rows of S + 1
    entries and, per n > S, two rows of floor(n/(S+1)) + 1 columns, with
    256 bytes per s and n for its arrays' headers and its result.  A
    chunk fills each column once, from its int64 k and index (16 bytes
    per column, held for one chunk; one n's temporaries, 16 bytes for
    each of at most S + 1 columns, are freed before the recursion's
    arrays below exist).  One sieve segment and the base primes (``arith._sieve_bytes``)
    and the segment before it, held while the next one is sieved.  Per
    chunk entry, the chunk's arrays: j, log j, -s log j, w, mu w and the
    running sums, and the temporaries of ``_running_sum`` (the cumulative
    sums, the TwoSum errors and their concatenations), under 256 bytes.
    Per entry of the recursion's arrays, of at most S + 1 entries each:
    the powers w_j, their moduli and E(q) (32), the float64 bounds of the
    M~ it writes to ``by_k`` (8; floor(n/(L+1)) <= S entries, as L >= S),
    and the j, q, index, value, bound and group arrays of one x, under
    512 bytes.
    """
    root = math.isqrt(max(n_list))
    ns = set(n_list)
    columns = sum(n // (root + 1) + 1 for n in ns if n > root)
    kept = sum((8 if s.imag == 0 else 16) * 2 * (root + 1 + columns) + 256 * len(ns) for s in [1.0, *grid])
    return (kept + 16 * columns + _sieve_bytes(limit) + min(_SIEVE_BLOCK, limit + 1) + 256 * _APPROX_CHUNK
            + 552 * (root + 1))
