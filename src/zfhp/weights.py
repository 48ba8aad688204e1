"""Weight families for weighted l2 coefficient spaces and their classification.

A family w_n >= 1 defines the Hilbert space of analytic functions whose
Taylor coefficients satisfy (a_n / w_n) in l2.  Two diagnostics decide the
strip label:

* a half-plane of bounded evaluation functionals exists iff
  (w_k / k^r) is square-summable for some r (detected per kind by
  comparison tests; the infimum r* is reported), and
* invertibility of I - S forces the sequence r_m = w_m^2 * sum_{n>=m} w_n^(-2)
  to stay bounded (a necessary condition only).

Classification is analytic-first: the per-kind decisions below are proved
by comparison tests, and the numerical routines exist to falsify, not to
prove.  All evaluators work in log space so that fast-growing families
degrade to +inf instead of raising overflow errors, and every tail of r_m
has a closed-form bound: for stretchedexp, one on the incomplete gamma
function.

Worked note (power weights, why bounded r_m fails there): in the space
with w_n = n^alpha, the function f_delta(z) = sum m^delta z^m belongs to
the space iff delta < alpha - 1/2, while its cumulative-sum image has
coefficients c_k = sum_{l<=k} l^delta >= k^(delta+1)/(delta+1), which
belongs only if delta < alpha - 3/2.  Any delta in the open window
(alpha - 3/2, alpha - 1/2) therefore gives a member whose image under the
formal inverse of I - S escapes the space; numerically, the partial sums
of k^(2(delta+1) - 2 alpha) keep growing for such delta.  This is a
documentation example with a test-level spot check, not an operation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .arith import _check_memory, _prime_bytes, _primes_up_to

__all__ = [
    "WeightFamily",
    "ClassificationResult",
    "ProbeResult",
    "parse_weight_family",
    "parse_subsequence",
    "c4_halfplane",
    "rm_is_bounded",
    "rm_sequence",
    "classify",
    "extremal_probe",
    "all_integers",
    "prime_indices",
    "arithmetic_progression",
    "TABLE1_STRIPS",
]


class _Kind(NamedTuple):
    """The facts of one kind of ``WeightFamily`` that the code reads, one row of ``_KINDS``."""

    params: dict[str, tuple[float, float]]  # each parameter, in order, and the open interval it lies in
    polynomial: bool  # w_n grows like n^alpha (alpha = 0 for identity), so c4_halfplane is 1/2 + alpha
    rm_bounded: bool  # rm_is_bounded


# One row per kind: a name selects its parameters and their ranges
# (WeightFamily.__post_init__, parse_weight_family), its half-plane
# (c4_halfplane) and whether r_m stays bounded (rm_is_bounded), and the
# r_m code reads which kinds grow polynomially.  The formulas of log w and
# of the r_m tails stay code.
_KINDS = {
    "identity": _Kind({}, True, False),
    "power": _Kind({"alpha": (0, math.inf)}, True, False),
    "powerlog": _Kind({"alpha": (0, math.inf), "beta": (0, math.inf)}, True, False),
    "quasiexp": _Kind({"alpha": (0, math.inf)}, False, False),
    "stretchedexp": _Kind({"alpha": (0, 1)}, False, False),
    "geometric": _Kind({"eps": (0, 1)}, False, True),
    "superexp": _Kind({"alpha": (1, math.inf)}, False, True),
}


@dataclass(frozen=True)
class WeightFamily:
    """A named, parameterized weight sequence w_n >= 1 (with w_0 = 1).

    kinds and formulas for n >= 1:
        identity          w_n = 1
        power             w_n = n^alpha                    (alpha > 0)
        powerlog          w_n = n^alpha + (log n)^beta     (alpha, beta > 0)
        quasiexp          w_n = exp((log n)^(1+alpha))     (alpha > 0)
        stretchedexp      w_n = exp(n^alpha)               (0 < alpha < 1)
        geometric         w_n = (1/eps)^n                  (0 < eps < 1)
        superexp          w_n = exp(n^alpha)               (alpha > 1)

    The parameter ranges are the rows of ``_KINDS``, and one rule checks
    them all: a parameter outside its open interval, or missing, raises
    ``ValueError`` naming the kind's range, such as "stretchedexp requires
    0 < alpha < 1".  A parameter the kind does not take is ignored.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    eps: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight family kind {self.kind!r}")
        if any(x is not None and not math.isfinite(x) for x in (self.alpha, self.beta, self.eps)):
            raise ValueError("weight family parameters must be finite")
        params = _KINDS[self.kind].params
        if not all(getattr(self, x) is not None and lo < getattr(self, x) < hi for x, (lo, hi) in params.items()):
            rule = " and ".join(f"{x} > {lo}" if hi == math.inf else f"{lo} < {x} < {hi}"
                                for x, (lo, hi) in params.items())
            raise ValueError(f"{self.kind} requires {rule}")

    def log_w(self, n) -> np.ndarray:
        """log w(n), vectorized over integer n >= 0 (w(0) = 1)."""
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < 0):
            raise ValueError("weights are defined for n >= 0")
        safe = np.maximum(n, 1.0)
        ln = np.log(safe)
        if self.kind == "identity":
            out = np.zeros_like(safe)
        elif self.kind == "power":
            out = self.alpha * ln
        elif self.kind == "powerlog":
            out = np.log(safe**self.alpha + ln**self.beta)
        elif self.kind == "quasiexp":
            out = ln ** (1.0 + self.alpha)
        elif self.kind in ("stretchedexp", "superexp"):
            out = safe**self.alpha
        else:  # geometric
            out = n * math.log(1.0 / self.eps)
        return np.where(n >= 1.0, out, 0.0)

    def w(self, n) -> np.ndarray:
        """w(n) >= 1; overflows to +inf for fast-growing kinds."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_w(n))

    @property
    def params(self) -> str:
        names = _KINDS[self.kind].params
        return ",".join(repr(float(getattr(self, name))) for name in names)

    @property
    def label(self) -> str:
        return self.kind if not self.params else f"{self.kind}:{self.params}"


def parse_weight_family(text: str) -> WeightFamily:
    """Parse ``identity | power:ALPHA | powerlog:ALPHA,BETA | quasiexp:ALPHA |
    stretchedexp:ALPHA | geometric:EPS | superexp:ALPHA``."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise ValueError(f"unknown weight family kind {kind!r}")
    names = _KINDS[kind].params
    parts = [p for p in rest.split(",") if p.strip()] if rest else []
    if len(parts) != len(names):
        want = ",".join(name.upper() for name in names)
        raise ValueError(f"family {kind!r} expects parameters {want or '(none)'}, got {rest!r}")
    values = {name: float(part) for name, part in zip(names, parts)}
    return WeightFamily(kind=kind, **values)


def parse_subsequence(text: str) -> Iterator[int]:
    """Parse ``all | primes | arith:START,STEP`` into its index generator."""
    text = text.strip().lower()
    if text == "all":
        return all_integers()
    if text == "primes":
        return prime_indices()
    if text.startswith("arith:"):
        rest = text[len("arith:") :]
        try:
            start, step = (int(part) for part in rest.split(","))
        except ValueError:
            raise ValueError(f"arith expects START,STEP, got {rest!r}") from None
        return arithmetic_progression(start, step)
    raise ValueError(f"unknown subsequence {text!r} (want all | primes | arith:START,STEP)")


@dataclass(frozen=True)
class ClassificationResult:
    family: WeightFamily
    c4_halfplane: float | None
    easy_c3_bounded_rm: bool
    strip: str  # "Left" | "Central" | "Right" | "None"


def c4_halfplane(family: WeightFamily) -> float | None:
    """Infimum r* of r with sum (w_k / k^r)^2 < infinity, or None.

    Per kind: identity gives 1/2; power and powerlog give 1/2 + alpha (the
    log term is asymptotically negligible); the super-polynomial kinds
    (quasiexp, stretchedexp, geometric, superexp) admit no r at all.
    """
    row = _KINDS[family.kind]
    if not row.polynomial:
        return None
    return 0.5 + (float(family.alpha) if "alpha" in row.params else 0.0)


def rm_is_bounded(family: WeightFamily) -> bool:
    """Whether r_m = w_m^2 sum_{n>=m} w_n^(-2) stays bounded (per kind).

    Bounded exactly for geometric (r_m is constant) and superexp with
    alpha > 1 (successive exponent gaps diverge, so r_m -> 1).  For the
    polynomial kinds the inner sum diverges or r_m grows like m; for
    quasiexp and stretchedexp the exponent gaps vanish and r_m grows
    without bound.
    """
    return _KINDS[family.kind].rm_bounded


def rm_sequence(
    family: WeightFamily, m_max: int, tail_cutoff: int | None = None
) -> np.ndarray:
    """r_m for m = 0..m_max, as head sums to ``tail_cutoff`` plus a tail bound.

    Families whose sum of w_n^(-2) diverges (identity; power and powerlog
    with alpha <= 1/2) report +inf for every m.  Tail treatment per kind:
    geometric uses the exact closed form; power and powerlog use the
    integral comparison T^(1-2 alpha)/(2 alpha - 1); quasiexp and
    stretchedexp use integral comparisons of their exponential integrands;
    superexp uses a first-omitted-term bracket.  Doubling ``tail_cutoff``
    therefore moves finite values by less than the tail bound in use.  A
    ``tail_cutoff`` whose buffers would exceed physical memory is refused
    before anything is allocated.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    polynomial = _KINDS[family.kind].polynomial
    if tail_cutoff is None:
        tail_cutoff = 10**7 if polynomial else 10**3
    if m_max > tail_cutoff:
        raise ValueError("m_max must not exceed tail_cutoff")
    # Peak bytes per entry of 0..tail_cutoff: at most seven float64 arrays
    # of at most tail_cutoff + 1 entries are live at once, 56.  The power
    # kinds hold the indices, log w, the reciprocal squares and their suffix
    # sums, then w_m^2, the shifted suffix sums and their product for m <=
    # m_max; log_w holds the indices and at most five more (powerlog's
    # clamped n, its log and the two powers before their sum); the per-m
    # loop of the exponential kinds, the indices, log w, the output and
    # two temporaries.  tracemalloc peaks at 48 per entry for power and
    # powerlog at m_max = tail_cutoff and 41 otherwise (numpy elides a
    # temporary); 4 KiB covers the array headers.
    _check_memory(56 * (tail_cutoff + 1) + 2**12, f"tail_cutoff = {tail_cutoff}", "r_m buffers")
    if family.kind == "identity" or (polynomial and family.alpha <= 0.5):
        return np.full(m_max + 1, np.inf)
    n = np.arange(0, tail_cutoff + 1, dtype=np.float64)
    log_w = family.log_w(n)
    tail = _rm_tail(family, tail_cutoff)
    if polynomial:
        # weights stay in float range here; plain suffix sums suffice
        inv_sq = np.exp(-2.0 * log_w)
        suffix = np.cumsum(inv_sq[::-1])[::-1]
        w_sq = np.exp(2.0 * log_w[: m_max + 1])
        return w_sq * (suffix[: m_max + 1] + tail)
    # exponential kinds: w_m^2 overflows while the inner sum underflows, so
    # shift into log space per m (tail_cutoff is small for these kinds)
    out = np.empty(m_max + 1, dtype=np.float64)
    for m in range(m_max + 1):
        shifted = np.exp(2.0 * (log_w[m] - log_w[m:]))
        tail_part = 0.0
        if tail > 0.0:
            with np.errstate(over="ignore"):
                tail_part = float(np.exp(2.0 * log_w[m] + math.log(tail)))
        out[m] = float(np.sum(shifted)) + tail_part
    return out


def _rm_tail(family: WeightFamily, t: int) -> float:
    """Upper bound (exact for geometric) on sum_{n > t} w_n^(-2).

    stretchedexp: the terms decrease, so the tail is at most
    int_t^inf exp(-2 y^alpha) dy = Gamma(a, x) / (alpha 2^a), a = 1/alpha > 1,
    x = 2 t^alpha.  log is concave, so for y >= x and c = (a - 1)/x,
    y^(a-1) <= x^(a-1) e^(c (y - x)); for x > a - 1, c < 1 and

        Gamma(a, x) <= x^(a-1) e^(-x) int_x^inf e^((c - 1)(y - x)) dy
                     = x^(a-1) e^(-x) / (1 - c),

    while always Gamma(a, x) <= Gamma(a).  The smaller is taken in log
    space, so neither overflows; where it is the first, 1/(1 - c) is below
    3 a^(1/2) (Stirling), so 1 - c keeps its digits.  Rounding moves each
    log term by a few u (1 + |term|), u = 2^-53; the 2^-44 = 512 u margin
    covers that and the exp.
    """
    if family.kind == "geometric":
        e2 = family.eps * family.eps
        return e2 ** (t + 1) / (1.0 - e2)
    if _KINDS[family.kind].polynomial:  # power or powerlog: rm_sequence returns before identity
        a = family.alpha
        return float(t) ** (1.0 - 2.0 * a) / (2.0 * a - 1.0)
    if family.kind == "quasiexp":
        # integral comparison after u = log x: exponent u - 2u^(1+alpha)
        # is <= -(2 L^alpha - 1) u for u >= L = log t (valid once t >= 3)
        if t < 3:
            raise ValueError("tail_cutoff must be >= 3 for quasiexp")
        big_l = math.log(t)
        c = 2.0 * big_l**family.alpha - 1.0
        return math.exp(-c * big_l) / c
    if family.kind == "stretchedexp":
        a = 1.0 / family.alpha
        x = 2.0 * float(t) ** family.alpha
        log_gamma = math.lgamma(a)
        if x > a - 1.0:
            log_gamma = min(log_gamma, (a - 1.0) * math.log(x) - x - math.log1p((1.0 - a) / x))
        terms = (log_gamma, -math.log(family.alpha), -a * math.log(2.0))
        log_tail = sum(terms) + 2.0**-44 * (1.0 + sum(map(abs, terms)))
        with np.errstate(over="ignore"):
            return float(np.exp(log_tail))
    # superexp: terms decay faster than geometrically; bracket by the first
    # omitted term over one minus the (shrinking) ratio
    a = family.alpha
    l1 = -2.0 * float(t + 1) ** a
    l2 = -2.0 * float(t + 2) ** a
    first = math.exp(l1) if l1 > -745.0 else 0.0
    ratio = math.exp(l2 - l1)
    return first / (1.0 - ratio)


def classify(family: WeightFamily) -> ClassificationResult:
    """Combine the half-plane and bounded-r_m diagnostics into a strip label.

    Central means both hold, Left means bounded r_m without a half-plane,
    Right means a half-plane without bounded r_m, None means neither.
    """
    c4 = c4_halfplane(family)
    bounded = rm_is_bounded(family)
    if c4 is not None and bounded:
        strip = "Central"
    elif bounded:
        strip = "Left"
    elif c4 is not None:
        strip = "Right"
    else:
        strip = "None"
    return ClassificationResult(
        family=family, c4_halfplane=c4, easy_c3_bounded_rm=bounded, strip=strip
    )


# One representative family of every kind, by label, and the strip it
# classifies into (``weights table1 --check``); the strips do not depend
# on the parameter within each allowed range.
TABLE1_STRIPS: dict[str, str] = {
    "identity": "Right", "power:1.0": "Right", "powerlog:1.0,1.0": "Right", "quasiexp:1.0": "None",
    "stretchedexp:0.5": "None", "geometric:0.5": "Left", "superexp:2.0": "Left",
}


@dataclass(frozen=True)
class ProbeResult:
    family: WeightFamily
    indices: np.ndarray
    ratios: np.ndarray

    @property
    def running_min(self) -> float:
        return float(np.min(self.ratios))

    @property
    def running_max(self) -> float:
        return float(np.max(self.ratios))

    def cumulative_min(self) -> np.ndarray:
        return np.minimum.accumulate(self.ratios)

    def cumulative_max(self) -> np.ndarray:
        return np.maximum.accumulate(self.ratios)


def extremal_probe(
    family: WeightFamily, r: float, subsequence: Iterable[int], count: int
) -> ProbeResult:
    """Trace of w_{n_i} / n_i^(r - 1/2) over the first ``count`` indices.

    Meant for index generators with divergent reciprocal sums (all
    integers, primes, arithmetic progressions).  If a space with weights
    w_n supported both diagnostics at level r, this ratio would have to
    oscillate between 0 and infinity along every such subsequence; for
    any single classified family at most one diagnostic holds, so a tame
    trace here contradicts nothing.  A ``count`` whose buffers would
    exceed physical memory is refused before anything is allocated.
    """
    if not 0.5 < r < 1.0:
        raise ValueError("r must lie in (1/2, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    # Peak bytes per index: the int64 indices, their float64 copy and at
    # most five float64 arrays in log_w (powerlog's), 56; tracemalloc peaks
    # at 49 per index (numpy elides a temporary in log_w).  prime_indices()
    # adds one sieve segment and its base primes, counted for every
    # subsequence: at most 1.9 MB up to count = 10^9.
    need = 56 * count + _prime_sieve_bytes(count)
    _check_memory(need, f"count = {count}", "probe buffers")
    idx = np.fromiter(itertools.islice(subsequence, count), dtype=np.int64, count=count)
    if idx[0] < 1:
        raise ValueError("subsequence indices must be >= 1")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("subsequence indices must be strictly increasing")
    nf = idx.astype(np.float64)
    with np.errstate(over="ignore"):
        ratios = np.exp(family.log_w(nf) - (r - 0.5) * np.log(nf))
    return ProbeResult(family, idx, ratios)


# Largest segment of prime_indices: 32 KiB of bool, at most about 1 MB with
# the primes it yields.
_PRIME_SEGMENT = 1 << 15


def all_integers() -> Iterator[int]:
    return itertools.count(1)


def prime_indices() -> Iterator[int]:
    """Primes in increasing order, from a segmented numpy sieve.

    Segment [lo, hi) starts as all ones, and each prime p <= isqrt(hi - 1)
    crosses off its multiples from max(p^2, lo) on.  A composite n < hi has
    a prime factor p with p^2 <= n, so it is crossed off; a prime n is a
    multiple of no smaller prime, and its own crossing starts at n^2.  The
    segments double from 2^8 entries to ``_PRIME_SEGMENT``, so a short
    probe sieves little; memory is one segment plus the primes up to
    sqrt(hi) (``_prime_sieve_bytes``), not a record per prime yielded.
    """
    lo, size = 2, 1 << 8
    while True:
        hi = lo + size
        is_prime = np.ones(size, dtype=bool)
        for p in _primes_up_to(math.isqrt(hi - 1)):
            is_prime[max(p * p, -(-lo // p) * p) - lo :: p] = False
        yield from (np.flatnonzero(is_prime) + lo).tolist()
        lo, size = hi, min(2 * size, _PRIME_SEGMENT)


def _prime_sieve_bytes(count: int) -> int:
    """Peak bytes of ``prime_indices`` while it yields its first ``count`` primes.

    The count-th prime is below q = count (log count + log log count) for
    count >= 6 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962, (3.13)),
    and 13 below that, so the last segment ends before
    q + ``_PRIME_SEGMENT``.  A segment of L entries holds its bool array
    (L) and, for each of its at most L/2 + 1 primes, the int64 index and
    its shifted copy (16) and the list slot and int (40): 29 L + 56 bytes,
    beside the base primes (``arith._prime_bytes``).
    """
    q = 13 if count < 6 else math.ceil(count * (math.log(count) + math.log(math.log(count))))
    return 29 * _PRIME_SEGMENT + 56 + _prime_bytes(math.isqrt(q + _PRIME_SEGMENT))


def arithmetic_progression(start: int, step: int) -> Iterator[int]:
    if start < 1 or step < 1:
        raise ValueError("start and step must be positive")
    return itertools.count(start, step)
