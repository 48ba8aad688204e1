"""Number-theoretic kernel: Möbius function, exact sums.

A Möbius table is built once by a sieve and is immutable afterwards, so it
can be shared freely between threads.  The Möbius function comes from a
numpy sieve over the primes up to sqrt(limit) only, run in cache-sized
segments that each carry their own radical (``_sieve_segment``).
``build_mobius`` copies the segments that ``_mobius_segments`` yields one
at a time into the int8 table, its only full-length array, for limits
below 2^31; the l^q and H^p runners build it to their largest n.  The
approx kernel of ``zfhp.functionals`` reads the segments themselves, to
about the 2/3 power of its largest n, and keeps none.  ``_check_memory``
is the package's one physical-memory guard: sizes whose buffers cannot
fit are refused before anything is allocated.
``exact_sum`` is the package's one exactly rounded sum of a float array:
it does not depend on the order or grouping of the terms.  Long sums over
an index range, the Möbius sums here among them, walk it in blocks of
``_DIVIDE_BLOCK`` entries (``_walk_parts``), so they hold no array as
long as the range.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MobiusTable",
    "build_mobius",
    "mobius_sum_over_k",
    "mobius_logsum_over_k",
    "exact_parts",
    "exact_sum",
]

# Entries per block of every walk over an index range: the blocked exact
# sums (``_walk_parts``) and the partial-sum kernel's output blocks
# (``series.CoefficientBlocks``).  A float64 block is 256 KiB at 2^15;
# 2^13..2^19 time alike in the kernel at degree 10^6 (CHANGES.md).
_DIVIDE_BLOCK = 1 << 15

# Peak bytes of one step of ``_walk_parts`` on the package's sums, per block
# entry: while the terms are formed, at most 40 (the l^q tail's int64 d and
# floor(N/d) and two float64 temporaries); while they are read, what their
# source keeps, at most 24 (log j and one s's complex powers, in lambda and
# zeta), plus inside ``exact_parts`` the piece joined to the running parts,
# its copy, a pass's temporary and the |x| of its maximum, 32.  Under 64
# bytes in all (tracemalloc: 56 for lambda and zeta, 32 for the Möbius sums
# and the l^q tail).
_WALK_BYTES = 64 * _DIVIDE_BLOCK

# Entries per segment of the Möbius sieve: with its int32 radical, int32
# index range, bool compare and int8 result it takes 10 bytes per entry,
# 5 MB at 2^19; 2^19 was the fastest of 2^16..2^20 at limit 10^7 (CHANGES.md).
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


def build_mobius(limit: int) -> MobiusTable:
    """mu(n) for all n <= limit, filled from the segments of ``_mobius_segments``.

    Limits of 2^31 and more, and tables that with the segment buffers
    exceed physical memory, are refused before anything is allocated.  Peak
    memory is the int8 table, limit + 1 bytes, plus one segment's buffers
    (``_sieve_bytes``).
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    if limit >= 2**31:
        raise ValueError(f"limit = {limit} too large: the Möbius sieve needs limit < 2^31")
    need = limit + 1 + _sieve_bytes(limit)
    _check_memory(need, f"limit = {limit}", "Möbius table and sieve segments")
    mu = np.empty(limit + 1, dtype=np.int8)
    for lo, segment in _mobius_segments(limit):
        mu[lo : lo + segment.size] = segment
    mu.setflags(write=False)
    return MobiusTable(limit=limit, values=mu)


def _mobius_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, mu on [lo, hi)) for the segments of ``_SIEVE_BLOCK`` entries covering 0..limit.

    Only the current segment and the primes up to isqrt(limit) are held.
    The sieving runs in ``_sieve_segment``, not here, so that time spent
    iterating this generator is charged to the sieve, not to its consumer.
    """
    primes = _primes_up_to(math.isqrt(limit))
    for lo in range(0, limit + 1, _SIEVE_BLOCK):
        yield lo, _sieve_segment(lo, min(lo + _SIEVE_BLOCK, limit + 1), primes)


def _sieve_segment(lo: int, hi: int, primes: list[int]) -> np.ndarray:
    """mu(n) for lo <= n < hi as int8 (mu(0) = 0), given every prime p <= r, r >= isqrt(hi - 1).

    The segment keeps its own radical rad[lo:hi].  For each prime p <= r,
    the multiples n >= p of p in the segment have mu[n] negated and rad[n]
    multiplied by p, and the multiples n >= p^2 of p^2 have mu[n] zeroed.
    So afterwards mu[n] is (-1)^w 0^e and rad[n] = prod p, over the primes
    p <= r dividing n (w of them, e of them with p^2 | n).

    Large prime factors.  Let n < hi, and let m = n / rad[n] when no p^2
    with p <= r divides n (e = 0), so that every prime factor of m exceeds
    r.  Two of them, equal or not, would make n >= (r + 1)^2 > hi - 1.  So
    m is 1 or one prime q > r, n is squarefree, and mu(n) = -mu[n] exactly
    when rad[n] != n.  When e > 0, mu[n] is already mu(n) = 0 and negating
    it changes nothing, so the segment ends with one pass that negates
    every mu[n] with rad[n] != n.

    rad[n] divides n < hi, so the radical and the index range are int32
    for hi <= 2^31 and int64 beyond: 1 + 1 + 2 * 4 or 2 * 8 bytes per
    entry with the int8 result and the bool compare (``_sieve_bytes``).
    The result is allocated after the radical and the index range, so
    that the space they release lies below it and the next segment reuses
    it.  Allocated first, it let glibc's allocator return that space to
    the system after every segment: at n = 10^7 the approx stream took
    about 20,000 more page faults and 10% more CPU time.
    """
    index = np.int32 if hi <= 2**31 else np.int64
    rad = np.ones(hi - lo, dtype=index)
    n = np.arange(lo, hi, dtype=index)
    segment = np.ones(hi - lo, dtype=np.int8)
    for p in primes:
        # offsets of the first multiples of p and p^2 at or past max(lo, p), max(lo, p^2)
        i = max(p - lo, -lo % p)
        segment[i::p] *= -1
        rad[i::p] *= p
        pp = p * p
        segment[max(pp - lo, -lo % pp) :: pp] = 0
    np.negative(segment, out=segment, where=rad != n)
    if lo == 0:
        segment[0] = 0
    return segment


def _primes_up_to(r: int) -> list[int]:
    """The primes p <= r, by a sieve of Eratosthenes over a bool array of r + 1 entries."""
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def _prime_bytes(r: int) -> int:
    """Peak bytes of ``_primes_up_to(r)``.

    The bool array (r + 1) and, per prime, the int64 index (8), the list
    slot (8) and the int (at most 28 below 2^30, 32 beyond): 48 bytes for
    each of at most 1.25506 r / log r primes (Rosser and Schoenfeld, Illinois
    J. Math. 6, 1962, Corollary 1, for r > 1); 1 KiB covers the array and
    list headers.
    """
    return 2**10 + r + 1 + (48 * math.ceil(1.25506 * r / math.log(r)) if r > 1 else 0)


def _sieve_bytes(limit: int) -> int:
    """Peak bytes of ``_mobius_segments(limit)``: one segment's buffers and the base primes.

    Per entry as in ``_sieve_segment``, plus 4 KiB for the array headers
    and the views of its prime loop.
    """
    per_entry = 10 if limit < 2**31 else 18
    segment = 2**12 + per_entry * min(_SIEVE_BLOCK, limit + 1)
    return segment + _prime_bytes(math.isqrt(limit))


def mobius_sum_over_k(table: MobiusTable, cutoff: int) -> float:
    """Partial sum of mu(k)/k for k = 1..cutoff (limit 0 as cutoff grows), a blocked exact sum."""
    _check_cutoff(table, cutoff)
    return _walk_sum(lambda lo, k: table.values[lo : lo + k.size] / k, cutoff)


def mobius_logsum_over_k(table: MobiusTable, cutoff: int) -> float:
    """Partial sum of mu(k) log(k)/k for k = 1..cutoff (limit -1), a blocked exact sum."""
    _check_cutoff(table, cutoff)
    return _walk_sum(lambda lo, k: table.values[lo : lo + k.size] * np.log(k) / k, cutoff)


def _physical_bytes() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, subject: str, buffers: str) -> None:
    """Refuse, before it is allocated, a ``need`` of bytes beyond physical memory."""
    have = _physical_bytes()
    if need > have:
        raise ValueError(
            f"{subject} needs an estimated {need / 2**30:,.1f} GiB of {buffers}, "
            f"more than the {have / 2**30:,.1f} GiB of physical memory"
        )


def _check_cutoff(table: MobiusTable, cutoff: int) -> None:
    if not 1 <= cutoff <= table.limit:
        raise ValueError(f"cutoff {cutoff} outside table range 1..{table.limit}")


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
        q = x + sigma
        q -= sigma  # in place, so the pass holds one temporary at any length
        x -= q
        parts.append(float(np.sum(q)))
        big = float(np.max(np.abs(x)))
    return parts


def _walk_parts(terms: Callable[[int, np.ndarray], Iterable[np.ndarray]], count: int, cuts: Sequence[int],
                start: int = 1) -> Iterator[list[list[float]]]:
    """At each of the sorted ``cuts`` c, the exact parts of each of ``count`` sums of ``terms`` over j = start..c.

    ``terms(lo, j)`` yields, for the float64 range j of lo, lo + 1, ...,
    the float64 terms of each sum in turn, and each array is read before
    the next is asked for; it may overwrite j.  The walk calls it on
    consecutive pieces of j from ``start`` on, each of at most
    ``_DIVIDE_BLOCK`` indices and ending at a block's end or at a cut, so
    it holds no array as long as the range.  Each piece is added to its
    sum's running parts by ``exact_parts`` of the parts and the piece
    together, so the parts always sum exactly to the terms so far, and a
    sum rounded from them (``exact_sum``) does not depend on the pieces,
    as long as numpy forms each term the same in any piece.  A cut below
    ``start`` gives the parts of the empty sums, [].

    Length.  Let the terms be at most 1 in modulus, fewer than 2^53 of
    them.  A piece and the running parts are L <= 2^15 + 32 floats, so a
    pass of ``exact_parts`` on them with the largest below 2^E leaves every
    entry below 2^(E - 36).  Its first part is within L 2^(E - 37) <=
    2^(E - 21) of the exact sum, below 2^53, and the later parts are below
    L 2^(E - 36) <= 2^(E - 20), so by induction every part stays below
    2^54 and E <= 55.  Every float is a multiple of 2^-1074, so the passes
    end before E falls below -1074: at most 32 of them, and a running list
    holds at most 32 parts however many pieces there are (two to four on
    the package's sums).
    """
    parts, lo = [[]] * count, start
    for c in cuts:
        for a in range(lo, c + 1, _DIVIDE_BLOCK):
            piece = terms(a, np.arange(a, min(a + _DIVIDE_BLOCK, c + 1), dtype=np.float64))
            parts = [exact_parts(np.concatenate((p, t))) for p, t in zip(parts, piece)]
        lo = max(lo, c + 1)
        yield parts


def _walk_sum(term: Callable[[int, np.ndarray], np.ndarray], stop: int, start: int = 1) -> float:
    """The exactly rounded sum of ``term(lo, j)`` over the pieces of j = start..stop (``_walk_parts``)."""
    ((parts,),) = _walk_parts(lambda lo, j: [term(lo, j)], 1, [stop], start)
    return exact_sum(parts)


def exact_sum(x) -> float | complex:
    """The exact sum of the array ``x``, or of a list of floats, rounded once to nearest, per component.

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

    A list, such as the parts of a blocked sum (``_walk_parts``), must hold
    real floats.  It goes to ``math.fsum`` as it is: its ``exact_parts``
    have the same exact sum, so the float is the same, without a numpy
    array per list.
    """
    if isinstance(x, list):
        return math.fsum(x)
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return complex(math.fsum(exact_parts(x.real)), math.fsum(exact_parts(x.imag)))
    return math.fsum(exact_parts(x))
