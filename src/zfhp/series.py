"""Truncated Taylor series on the unit disk and the h_k generators.

The central family is

    h_k(z) = (1/k) * (1 - z)^(-1) * log((1 + z + ... + z^(k-1)) / k),  k >= 2,

together with (I - S) h_k = (1 - z) h_k, where S is the shift operator
(multiplication by z).  Working with (1 - z) h_k first is convenient
because its Taylor coefficients have the closed form

    [(I - S) h_k]_0 = -log(k)/k,
    [(I - S) h_k]_m = (1/m) * (1/k - [k | m])       (m >= 1),

obtained from log(1 - z^k) = -sum_j z^(jk)/j and log(1 - z) = -sum_j z^j/j.
h_k itself is their running sum (formal multiplication by 1/(1 - z)).

Summing the closed form against mu(k) gives the Möbius partial sums of
the paper's convergence statement in closed form as well: coefficient m of
sum_{k=2..n} mu(k) (I - S) h_k is an exact integer divisor sum combined
with one scalar.  ``mobius_ims_partial_sums`` is the single kernel that
evaluates it, for both the l^q and the H^p convergence runners.  It
serves each checkpoint a block at a time (``CoefficientBlocks``), so only
its divisor sums grow with the degree: int8, 1 byte per coefficient, below
degree 9,699,690, and int16, 2 bytes, from there on.

A ``TruncatedSeries`` stores its coefficients read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import _DIVIDE_BLOCK, MobiusTable, _check_memory, mobius_logsum_over_k, mobius_sum_over_k

__all__ = [
    "TruncatedSeries",
    "CoefficientBlocks",
    "ims_hk_coeffs",
    "hk_coeffs",
    "hk_coefficient_envelope",
    "mobius_ims_partial_sums",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_N of an analytic function, truncated at degree N.

    Trailing zeros are never trimmed: ``degree`` is the storage degree.
    Coefficients are float64, or complex128 when any input is complex, and
    must all be finite.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a one-dimensional, nonempty array")
        if np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(np.complex128, copy=True)
        else:
            arr = arr.astype(np.float64, copy=True)
        if not np.all(np.isfinite(arr)):
            raise ValueError("all coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def ims_hk_coeffs(k: int, degree: int) -> TruncatedSeries:
    """Taylor coefficients of (I - S) h_k up to ``degree`` (closed form)."""
    _check_k(k)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = np.empty(degree + 1, dtype=np.float64)
    out[0] = -math.log(k) / k
    if degree >= 1:
        m = np.arange(1, degree + 1, dtype=np.float64)
        a = (1.0 / k) / m
        a[k - 1 :: k] -= 1.0 / m[k - 1 :: k]
        out[1:] = a
    return TruncatedSeries(out)


def hk_coeffs(k: int, degree: int) -> TruncatedSeries:
    """Taylor coefficients of h_k up to ``degree``, the running sums of ``ims_hk_coeffs``."""
    return TruncatedSeries(np.cumsum(ims_hk_coeffs(k, degree).coeffs))


# 1 + 2^-40 = 1 + 8192 u, u = 2^-53, covers with a wide margin the relative
# rounding of the three bounds multiplied by it: the h_k envelope of
# hk_coefficient_envelope and the tail formula C |1-s|/|s| N^-sigma / sigma
# it feeds (under 40 u), experiments.lq_tail_bound (at most 220 u, derived
# in its docstring) and the pass budget of a residual in
# experiments.run_lambda_sweep (under 8 u).
_ROUNDING_FACTOR = 1.0 + 2.0**-40


def hk_coefficient_envelope(k: int, degree: int) -> float:
    """Proved C with |a_m| <= C/m for every coefficient a_m of h_k, m > degree.

    Statement.  With N = degree >= 0 and M0 = floor((N + 1)/k), the value

        c(M) = (k-1)/(2k) + (k-1)(k-2)/(2 k^2 M) + (M+1)/(12 M^2)

    at M = M0 bounds m |a_m| for every m > N when M0 >= 1, and
    max(1, c(1)) does so when M0 = 0.  As N grows, c(M0) decreases to the
    sharp constant (k-1)/(2k).

    Proof.  The coefficients are a_m = (1/k)(H_m - H_M - log k) with
    M = floor(m/k), the running sums of ``ims_hk_coeffs``.  Use
    H_n = log n + gamma + 1/(2n) - e_n with 0 < e_n < 1/(12 n^2), n >= 1.
    Let m >= k, so M >= 1, and write m = kM + r with 0 <= r <= k-1 and
    x = r/(kM) in [0, 1), so that m = kM (1 + x).  Then

        m k a_m = m log(1 + x) + 1/2 - k(1 + x)/2 - m e_m + m e_M.

    Upper side: log(1 + x) <= x gives m log(1 + x) <= r (1 + x), and
    m e_M < k(M+1)/(12 M^2) since m < k(M+1).  So

        m k a_m < r - (k-1)/2 + x (r - k/2) + k(M+1)/(12 M^2),

    where r - (k-1)/2 <= (k-1)/2 and x (r - k/2) <= (k-1)(k-2)/(2kM)
    (it is <= 0 for r <= k/2, and x <= (k-1)/(kM) otherwise).  This is
    k c(M).  Lower side: log(1 + x) >= x - x^2/2 gives
    m log(1 + x) >= r (1 + x/2 - x^2/2) >= r, and m e_M > 0, so

        m k a_m > r - (k-1)/2 - r/(2M) - 1/(12m) >= -(k-1)/2 - 1/(12m),

    and (k-1)/2 + 1/(12m) <= k c(M) because m >= M gives
    1/(12m) <= 1/(12M) < k(M+1)/(12 M^2).  Hence m |a_m| <= c(M), and c
    decreases in M.  If M0 >= 1, every m > N has m >= N + 1 >= k and
    M >= M0, so c(M0) is a bound.  If M0 = 0, the m >= k are covered by
    c(1), and for 1 <= m < k, with t = m/k in (0, 1): H_m - log k <=
    1 + log t (since H_m <= 1 + log m) and log k - H_m < -log t (since
    H_m > log(m+1)), so m |a_m| < t max(1 + log t, -log t) < 1.

    Rounding.  c is evaluated in fewer than ten correctly rounded
    operations, a relative error below 10 u (u = 2^-53); the factor
    1 + 2^-40 = 1 + 8192 u makes the returned value exceed the exact
    bound, with room for the rounding of the tail formula it is used in.
    """
    _check_k(k)
    if degree < 0:
        raise ValueError("degree must be >= 0")

    def c(m0: int) -> float:
        return (k - 1) / (2 * k) + (k - 1) * (k - 2) / (2 * k * k * m0) + (m0 + 1) / (12 * m0 * m0)

    m0 = (degree + 1) // k
    bound = c(m0) if m0 >= 1 else max(1.0, c(1))
    return bound * _ROUNDING_FACTOR


@dataclass(frozen=True)
class CoefficientBlocks:
    """Coefficients 0..size-1 of a real series, served one block at a time.

    Iterating is one pass over the coefficients: ``passes()`` returns an
    iterator of consecutive float64 blocks of at most ``_DIVIDE_BLOCK``
    entries, coefficient 0 first.  A block may be a buffer that the next
    block overwrites, so a caller reads or modifies it in place before it
    asks for the next one; every pass yields the same values.
    ``of_array`` serves an array as views of itself.
    """

    size: int
    passes: Callable[[], Iterator[np.ndarray]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.passes()

    @classmethod
    def of_array(cls, a: np.ndarray) -> CoefficientBlocks:
        return cls(a.size, lambda: (a[lo : lo + _DIVIDE_BLOCK] for lo in range(0, a.size, _DIVIDE_BLOCK)))


def mobius_ims_partial_sums(
    n_list: Sequence[int], degree: int, table: MobiusTable
) -> Iterator[CoefficientBlocks]:
    """Coefficients of sum_{k=2..n} mu(k) (I - S) h_k for each n in ``n_list``.

    This is the one Möbius partial-sum kernel.  It uses the closed form

        [.]_0 = -sum_{k=2..n} mu(k) log(k)/k,
        [.]_m = (c_n - D_m(n)) / m                       (m >= 1),

    with c_n = sum_{k=2..n} mu(k)/k and D_m(n) = sum_{d | m, 2 <= d <= n}
    mu(d).  The log sum is ``mobius_logsum_over_k`` (exactly rounded; its
    k = 1 term is 0) and c_n is ``mobius_sum_over_k(table, n) - 1``.
    D_m(n) is an exact integer divisor sieve, ``d[k::k] += mu(k)``,
    advanced from one checkpoint n to the next, so a sweep costs
    O(degree log n) and each coefficient m >= 1 is one subtraction and one
    division of exact integers.

    D is int8 for degree < 9,699,690 and int16 from it (``_divisor_dtype``),
    which holds every D_m(n) exactly.  Only squarefree d contribute, and a
    squarefree divisor of m is a product of distinct primes dividing m.
    The sieve adds mu(k) into D_m once for each k | m, so every partial sum
    it passes through on its way to D_m(n), D_m(n) included, is a sum over
    a subset of the squarefree divisors d >= 2 of m: at most 2^omega(m) - 1
    units (d = 1 is left out), where omega(m) is the number of distinct
    primes of m.  The least m with omega(m) = 8 is 2 3 5 7 11 13 17 19 =
    9,699,690, so below that degree omega(m) <= 7 and |D| <= 2^7 - 1 = 127,
    the largest int8.  Every m is an array index, below 2^63, and the
    product of the first 16 primes, 3.3 10^19, exceeds 2^63, so
    omega(m) <= 15 and |D| <= 2^15 - 1 = 32767, the largest int16.  (For
    m < 2^53, omega(m) <= 13, as the first 14 primes multiply to 1.3 10^16.)

    ``n_list`` must be strictly increasing with 2 <= n <= table.limit;
    the arguments are checked at the call (``_check_checkpoints``), before
    any array is allocated or yielded.  Each checkpoint yields a
    ``CoefficientBlocks`` that forms the coefficients from ``d`` a block
    at a time, in one block buffer of ``_DIVIDE_BLOCK`` floats shared by
    every block, pass and checkpoint: no array of degree + 1 floats
    exists.  It is valid until the next checkpoint is asked for, which
    advances ``d``.
    """
    ns = _check_checkpoints(n_list, degree)
    if ns[-1] > table.limit:
        raise ValueError(f"n = {ns[-1]} exceeds table limit {table.limit}")
    d = np.zeros(degree + 1, dtype=_divisor_dtype(degree))
    buf = np.empty(min(degree + 1, _DIVIDE_BLOCK), dtype=np.float64)
    return (_advance_ims(d, buf, prev, n, table) for prev, n in zip([1, *ns], ns))


def _check_checkpoints(n_list: Sequence[int], degree: int) -> list[int]:
    """``n_list`` as ints, refused unless nonempty, strictly increasing and >= 2.

    A negative degree is refused, and so is one whose kernel buffers
    (``_kernel_bytes``) exceed physical memory.
    """
    ns = [int(n) for n in n_list]
    if not ns or ns[0] < 2:
        raise ValueError("n_list must be nonempty, with every n >= 2")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    _check_memory(_kernel_bytes(degree), f"degree = {degree}", "partial-sum buffers")
    return ns


def _divisor_dtype(degree: int) -> type:
    """The dtype of the kernel's divisor sums up to ``degree``: int8 below 9,699,690, int16 from it.

    9,699,690 = 2 3 5 7 11 13 17 19 is the least m with 8 distinct primes
    (the proof is in ``mobius_ims_partial_sums``).
    """
    return np.int8 if degree < 9_699_690 else np.int16


def _kernel_bytes(degree: int) -> int:
    """The peak bytes of ``mobius_ims_partial_sums``: b (degree + 1) + 16 ``_DIVIDE_BLOCK``.

    The divisor sums ``d`` hold b bytes per coefficient, 1 below degree
    9,699,690 (int8) and 2 from it (int16).  Forming a block takes the
    block buffer and the block's float64 range of m, at most
    ``_DIVIDE_BLOCK`` entries of 8 bytes each; nothing else the kernel
    allocates grows with the degree.
    """
    return np.dtype(_divisor_dtype(degree)).itemsize * (degree + 1) + 16 * _DIVIDE_BLOCK


def _advance_ims(d: np.ndarray, buf: np.ndarray, prev: int, n: int, table: MobiusTable) -> CoefficientBlocks:
    """Sieve mu(k), prev < k <= n, into ``d``; return the blocks of the closed form at n.

    A module-level function rather than a generator body, so that the work
    is attributed to this module by tracers that wrap its functions.
    """
    for k in range(prev + 1, min(n, d.size - 1) + 1):
        mu = int(table.values[k])
        if mu:
            d[k::k] += mu
    c_n = mobius_sum_over_k(table, n) - 1.0
    head = -mobius_logsum_over_k(table, n)
    return CoefficientBlocks(d.size, functools.partial(_ims_blocks, d, buf, c_n, head))


def _ims_blocks(d: np.ndarray, buf: np.ndarray, c_n: float, head: float) -> Iterator[np.ndarray]:
    """One pass of ``_ims_block`` over the coefficients, in blocks of ``_DIVIDE_BLOCK``."""
    for lo in range(0, d.size, _DIVIDE_BLOCK):
        yield _ims_block(d, buf, c_n, head, lo)


def _ims_block(d: np.ndarray, buf: np.ndarray, c_n: float, head: float, lo: int) -> np.ndarray:
    """The block of coefficients from lo on into ``buf``: ``head`` at m = 0, (c_n - D_m)/m after.

    The block ends before lo + ``_DIVIDE_BLOCK`` and the degree.  Each
    m is divided over the block's own float64 range of m; the m are
    exact integers, so every quotient is the one a full-length range gives.
    """
    hi = min(lo + _DIVIDE_BLOCK, d.size)
    block = buf[: hi - lo]
    first = max(lo, 1)
    tail = block[first - lo :]
    np.subtract(c_n, d[first:hi], out=tail)
    tail /= np.arange(first, hi, dtype=np.float64)
    if lo == 0:
        block[0] = head
    return block


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("k must be an integer >= 2")
