"""Number-theoretic kernel: Möbius function, divisor counts, exact sums.

Tables are built once by a sieve and are immutable afterwards, so they can
be shared freely between threads.  The Möbius table comes from a numpy
sieve over the primes up to sqrt(limit) only, run in cache-sized segments
that each carry their own int32 radical, so the int8 table is the only
full-length array (``build_mobius``).  ``_check_memory`` is the package's
one physical-memory guard: sizes whose buffers cannot fit are refused
before anything is allocated.
``exact_sum`` is the package's one exactly rounded sum of a float array:
it does not depend on the order or grouping of the terms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MobiusTable",
    "DivisorCountTable",
    "build_mobius",
    "build_divisor_counts",
    "mobius_sum_over_k",
    "mobius_logsum_over_k",
    "exact_parts",
    "exact_sum",
]

# Entries per segment of build_mobius: its int32 radical, int32 index range
# and bool compare take 9 bytes per entry, 4.5 MB at 2^19, the fastest of
# 2^16..2^20 at limit 10^7 (CHANGES.md).
_SIEVE_BLOCK = 1 << 19


@dataclass(frozen=True)
class MobiusTable:
    """Values mu(1), ..., mu(limit) of the Möbius function.

    ``values`` has length ``limit + 1``; index 0 is unused and holds 0.
    """

    limit: int
    values: np.ndarray

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside table range 1..{self.limit}")
        return int(self.values[n])


@dataclass(frozen=True)
class DivisorCountTable:
    """Divisor counts tau(1), ..., tau(limit); index 0 unused."""

    limit: int
    counts: np.ndarray

    def tau(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside table range 1..{self.limit}")
        return int(self.counts[n])


def build_mobius(limit: int) -> MobiusTable:
    """Sieve mu(n) for all n <= limit over the primes p <= r = isqrt(limit).

    The table is filled in segments [lo, hi) of ``_SIEVE_BLOCK`` entries,
    each with its own int32 radical rad[lo:hi].  For each prime p <= r,
    the multiples n >= p of p in the segment have mu[n] negated and
    rad[n] multiplied by p, and the multiples n >= p^2 of p^2 have mu[n]
    zeroed.  So afterwards, in every segment, mu[n] is (-1)^w 0^e and
    rad[n] = prod p, over the primes p <= r dividing n (w of them, e of
    them with p^2 | n).

    Large prime factors.  Let n <= limit, and let m = n / rad[n] when no
    p^2 with p <= r divides n (e = 0), so that every prime factor of m
    exceeds r.  Two of them, equal or not, would make n >= (r + 1)^2 >
    limit.  So m is 1 or one prime q > r, n is squarefree, and
    mu(n) = -mu[n] exactly when rad[n] != n.  When e > 0, mu[n] is already
    mu(n) = 0 and negating it changes nothing, so the segment ends with one
    pass that negates every mu[n] with rad[n] != n.  r is the same for
    every segment, so this holds segment by segment.

    rad[n] divides n, so rad fits int32 for limit < 2^31; larger limits,
    and tables that with the segment buffers exceed physical memory, are
    refused before anything is allocated.  Peak memory is the int8 table,
    limit + 1 bytes, plus about 9 bytes per segment entry.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if limit >= 2**31:
        raise ValueError(f"limit = {limit} too large: the Möbius sieve needs limit < 2^31")
    need = limit + 1 + 9 * min(_SIEVE_BLOCK, limit + 1)
    _check_memory(need, f"limit = {limit}", "Möbius table and sieve segments")
    r = math.isqrt(limit)
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).tolist()
    mu = np.ones(limit + 1, dtype=np.int8)
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        segment = mu[lo:hi]
        rad = np.ones(hi - lo, dtype=np.int32)
        for p in primes:
            # offsets of the first multiples of p and p^2 at or past max(lo, p), max(lo, p^2)
            i = max(p - lo, -lo % p)
            segment[i::p] *= -1
            rad[i::p] *= p
            pp = p * p
            segment[max(pp - lo, -lo % pp) :: pp] = 0
        np.negative(segment, out=segment, where=rad != np.arange(lo, hi, dtype=np.int32))
    mu[0] = 0
    mu.setflags(write=False)
    return MobiusTable(limit=limit, values=mu)


def build_divisor_counts(limit: int) -> DivisorCountTable:
    """Exact tau(n) for all n <= limit by sieving multiples of every d."""
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    counts = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, limit + 1):
        counts[d::d] += 1
    counts.setflags(write=False)
    return DivisorCountTable(limit=limit, counts=counts)


def mobius_sum_over_k(table: MobiusTable, cutoff: int) -> float:
    """Partial sum of mu(k)/k for k = 1..cutoff (limit 0 as cutoff grows)."""
    _check_cutoff(table, cutoff)
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    return exact_sum(table.values[1 : cutoff + 1] / k)


def mobius_logsum_over_k(table: MobiusTable, cutoff: int) -> float:
    """Partial sum of mu(k) log(k)/k for k = 1..cutoff (limit -1)."""
    _check_cutoff(table, cutoff)
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    return exact_sum(table.values[1 : cutoff + 1] * np.log(k) / k)


def _check_memory(need: int, subject: str, buffers: str) -> None:
    """Refuse, before it is allocated, a ``need`` of bytes beyond physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{subject} needs an estimated {need / 2**30:,.1f} GiB of {buffers}, "
            f"more than the {have / 2**30:,.1f} GiB of physical memory"
        )


def _check_cutoff(table: MobiusTable, cutoff: int) -> None:
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if cutoff > table.limit:
        raise ValueError(f"cutoff {cutoff} exceeds table limit {table.limit}")


def exact_parts(x) -> list[float]:
    """Floats whose exact sum is the exact sum of the real array ``x``.

    Error-free extraction, proved in ``exact_sum``.  Non-finite input, and
    input where sigma + x could overflow, comes back as ``x.tolist()``, so
    ``math.fsum`` keeps its value or error on it.
    """
    x = np.array(x, dtype=np.float64)  # a copy: the passes subtract in place
    big = float(np.max(np.abs(x), initial=0.0))
    scale = (x.size + 1).bit_length()  # ceil(log2(L + 2))
    if not math.isfinite(big) or math.frexp(big)[1] + scale > 1022:
        return x.tolist()
    parts: list[float] = []
    while big:
        sigma = math.ldexp(1.0, math.frexp(big)[1] + scale)
        q = (x + sigma) - sigma
        x -= q
        parts.append(float(np.sum(q)))
        big = float(np.max(np.abs(x)))
    return parts


def exact_sum(x) -> float | complex:
    """The exact sum of the array ``x`` rounded once to nearest, per component.

    Lemma (binary64, round to nearest).  Let L = len(x), max|x| < 2^e and
    sigma = 2^(e + ceil(log2(L + 2))).  Then q = (sigma + x) - sigma and
    x - q are computed exactly, |x_i - q_i| <= 2^-53 sigma, and each q_i is
    a multiple of 2^-53 sigma with |q_i| <= 2^e (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008, Lemma 3.2).  Every partial sum of q, in any order, is a multiple
    of max(2^-53 sigma, 2^-1074) below L 2^e < sigma in magnitude, hence a
    float, so sum(q) is exact.  ``exact_parts`` appends sum(q) and repeats
    on x - q; e falls by at least 52 - ceil(log2(L + 2)) per pass, and once
    sigma <= 2^-1022 a pass takes all of x.  So the parts add up exactly to
    sum(x), and ``math.fsum`` rounds that once: the result depends only on
    the exact sum, not on the order, grouping or blocks of the terms.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return complex(math.fsum(exact_parts(x.real)), math.fsum(exact_parts(x.imag)))
    return math.fsum(exact_parts(x))
