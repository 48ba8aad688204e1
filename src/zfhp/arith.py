"""Number-theoretic kernel: Möbius function, divisor counts, partial sums.

Tables are built once by a sieve and are immutable afterwards, so they can
be shared freely between threads.  The Möbius table comes from a numpy
sieve over the primes up to sqrt(limit) only (``build_mobius``).  All
partial sums run over increasing index and use exactly rounded compensated
accumulation (``math.fsum``), so repeated runs on one platform reproduce
results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MobiusTable",
    "DivisorCountTable",
    "build_mobius",
    "build_divisor_counts",
    "mobius_sum_over_k",
    "mobius_logsum_over_k",
]

# entries per block of build_mobius's final compare (4 MB int32 temporaries)
_SIEVE_BLOCK = 1 << 20


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

    For each such p, ``mu[p::p]`` is negated, ``mu[p*p::p*p]`` zeroed and
    the radical ``rad[p::p]`` multiplied by p, so afterwards mu[n] is
    (-1)^w 0^e and rad[n] = prod p, over the primes p <= r dividing n (w
    of them, e of them with p^2 | n).

    Large prime factors.  Let n <= limit, and let m = n / rad[n] when no
    p^2 with p <= r divides n (e = 0), so that every prime factor of m
    exceeds r.  Two of them, equal or not, would make n >= (r + 1)^2 >
    limit.  So m is 1 or one prime q > r, n is squarefree, and
    mu(n) = -mu[n] exactly when rad[n] != n.  When e > 0, mu[n] is already
    mu(n) = 0 and negating it changes nothing, so one final pass negates
    every mu[n] with rad[n] != n.

    rad[n] divides n, so rad fits int32 for limit < 2^31; larger limits are
    refused before anything is allocated.  The final compare runs in
    blocks, so no full-length temporary is wider than int32.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if limit >= 2**31:
        raise ValueError(f"limit = {limit} too large: the Möbius sieve needs limit < 2^31")
    r = math.isqrt(limit)
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mu = np.ones(limit + 1, dtype=np.int8)
    rad = np.ones(limit + 1, dtype=np.int32)
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rad[p::p] *= p
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        block = mu[lo:hi]
        np.negative(block, out=block, where=rad[lo:hi] != np.arange(lo, hi, dtype=np.int32))
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
    terms = table.values[1 : cutoff + 1] / k
    return math.fsum(terms.tolist())


def mobius_logsum_over_k(table: MobiusTable, cutoff: int) -> float:
    """Partial sum of mu(k) log(k)/k for k = 1..cutoff (limit -1)."""
    _check_cutoff(table, cutoff)
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    terms = table.values[1 : cutoff + 1] * np.log(k) / k
    return math.fsum(terms.tolist())


def _check_cutoff(table: MobiusTable, cutoff: int) -> None:
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    if cutoff > table.limit:
        raise ValueError(f"cutoff {cutoff} exceeds table limit {table.limit}")
