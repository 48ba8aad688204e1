"""Independent oracles shared by the test modules.

``accumulated_ims`` is the per-k accumulation that production code replaced
with the closed-form kernel ``zfhp.series.mobius_ims_partial_sums``: it adds
mu(k) (I - S) h_k one k at a time over the full coefficient range, in
O(n * degree), from the generator's own coefficient formula rather than
from divisor sums.

``advance_ims_allocating`` is the kernel step that
``zfhp.series._advance_ims`` replaced: it returns a new output array at
every checkpoint and divides by one full-length float64 range of m.

``mobius_linear_sieve`` is the pure-Python linear sieve that
``zfhp.arith.build_mobius`` replaced, ``mobius_whole_table_sieve`` the
whole-table numpy sieve with a full-length int32 radical that its
segmented form replaced, and ``approx_reciprocal_s_oracle`` the per-n
full-range sum that the approx kernel replaced.
``approx_reciprocal_s_stream`` is the O(n) exactly rounded kernel that the
weighted Mertens recursion of
``zfhp.functionals.approx_reciprocal_s_partial_sums`` replaced, moved here
verbatim with its block helper and memory estimate: it streams the Möbius
sieve segments through blocks of the squarefree k, for a whole s-grid in
one pass.  ``approx_reciprocal_s_table_kernel`` is that block kernel as it
was before it streamed the segments: it reads a full ``MobiusTable``, one
s per pass.
``prime_indices_incremental`` is the dictionary sieve that the segmented
sieve of ``zfhp.weights.prime_indices`` replaced.

``two_level_means_rfft`` is the first H^p two-level transform: one real
FFT of all 4M points of the fold modulo 4M, read at the indices of both
levels.  ``two_level_means_pruned`` is the transform that replaced it and
that the four-step transform replaced in turn: one complex FFT of M
points and one of M/2, each on a 1-D array, with the twiddles read from
the M-entry quarter-turn table ``quarter_turn``.
``two_level_means_four_step`` is that first four-step transform, moved
here verbatim with its fold and twiddle helpers: it folds the quarters
into fresh arrays, twiddles and transforms each level as a whole, and
takes the magnitudes and the coarse butterfly's difference into
full-length temporaries.  ``two_level_means_one_buffer`` is the
transform that replaced it and that the three half-length slices of
``zfhp.norms.two_level_means`` replaced in turn, moved here verbatim with
its fold helper: both levels in one buffer of M complex numbers, one
block of rows at a time through ``zfhp.norms._four_step``.  Both read the
tables ``four_step_tables`` builds from ``zfhp.norms._level``, ``_roots``
and ``_product_tables``, and they must agree bit for bit.

``zeta_accelerated_eta`` is the zeta evaluator that ``zfhp.special.zeta``
replaced with an exactly rounded head plus the Euler-Maclaurin tail: the
Chebyshev-accelerated alternating series for eta(s), divided by
1 - 2^(1-s), with its term rule for a 1e-13 relative target (not proved),
its 1e-8 cut-off near the zeros of 1 - 2^(1-s) and its |Im s| cap.

``mellin_step_pk_quadrature`` is the adaptive quadrature that
``zfhp.special.mellin_step_pk`` replaced with the exact integral of each
constant piece of p_k.  ``f_k_scalar`` is the math/cmath f_k(s) that
``zfhp.special.f_k`` replaced with the one-k case of ``fk_values``.  And ``stretchedexp_tail_gammaincc`` the
regularized incomplete gamma function that ``zfhp.weights._rm_tail``
replaced with a closed-form upper bound on Gamma(a, x).

``bounded_divisor_sum`` sums mu(d) over the divisors of j by trial
division, the cross-check for the divisor sieve in
``mobius_ims_partial_sums``; ``c4_partial_sums`` sums (w_k / k^r)^2 to
falsify ``zfhp.weights.c4_halfplane`` numerically.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc

from typing import Iterable

from zfhp import ConditioningError, DomainError, PoleError, zeta
from zfhp.special import _cexpm1, require_right_half_plane
from zfhp.norms import _ROW_BLOCK, _four_step, _level, _product_tables, _roots, _twiddle
from zfhp.arith import (
    _SIEVE_BLOCK,
    _check_memory,
    _mobius_segments,
    _sieve_bytes,
    exact_parts,
    exact_sum,
    mobius_logsum_over_k,
    mobius_sum_over_k,
)


def accumulated_ims(n: int, degree: int, table) -> np.ndarray:
    """Coefficients of sum_{k=2..n} mu(k) (I - S) h_k, accumulated in increasing k."""
    acc = np.zeros(degree + 1, dtype=np.float64)
    inv = np.zeros(degree + 1, dtype=np.float64)
    inv[1:] = 1.0 / np.arange(1, degree + 1, dtype=np.float64)
    for k in range(2, n + 1):
        mu = float(table.values[k])
        if mu:
            acc[0] += mu * (-math.log(k) / k)
            acc[1:] += (mu / k) * inv[1:]
            acc[k::k] -= mu * inv[k::k]
    return acc


def advance_ims_allocating(d: np.ndarray, prev: int, n: int, table) -> np.ndarray:
    """Sieve mu(k), prev < k <= n, into the int32 ``d``; return the closed form at n, newly allocated."""
    for k in range(prev + 1, min(n, d.size - 1) + 1):
        mu = int(table.values[k])
        if mu:
            d[k::k] += mu
    c_n = mobius_sum_over_k(table, n) - 1.0
    out = np.empty(d.size, dtype=np.float64)
    out[0] = -mobius_logsum_over_k(table, n)
    np.subtract(c_n, d[1:], out=out[1:])
    out[1:] /= np.arange(1, d.size, dtype=np.float64)
    return out


def lq_residual_oracle(q: float, n: int, degree: int, table) -> float:
    """l^q distance of the accumulated partial sum from 1 - z, truncated at ``degree``."""
    res = accumulated_ims(n, degree, table)
    res[0] -= 1.0
    res[1] += 1.0
    return math.fsum((np.abs(res) ** q).tolist()) ** (1.0 / q)


def mobius_linear_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) = 0); each composite is crossed off once by its least prime."""
    mu = [0] * (limit + 1)
    mu[1] = 1
    is_comp = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return np.array(mu, dtype=np.int8)


def mobius_whole_table_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 from one sieve over the whole table and a full int32 radical.

    For each prime p <= r = isqrt(limit), mu[p::p] is negated,
    mu[p*p::p*p] zeroed and rad[p::p] multiplied by p; a final pass
    negates every mu[n] with rad[n] != n, the one prime factor above r.
    """
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
    np.negative(mu, out=mu, where=rad != np.arange(limit + 1, dtype=np.int32))
    mu[0] = 0
    return mu


def approx_reciprocal_s_oracle(n: int, s, table) -> complex:
    """sum_{k=2..n} mu(k) G_k(s) from every term k = 2..n, mu(k) = 0 included, in one fsum."""
    z = zeta(s).value
    s = complex(s)
    k = np.arange(2, n + 1, dtype=np.float64)
    mu = table.values[2 : n + 1].astype(np.float64)
    terms = mu * (np.exp(-s * np.log(k)) - 1.0 / k)
    return -(z / s) * complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def approx_reciprocal_s_table_kernel(n_list, s, table) -> list[complex]:
    """sum_{k=2..n} mu(k) G_k(s) for every n in ``n_list``, read from a full Möbius table.

    One increasing pass over k <= max(n_list), in blocks of 2^16 split at
    the checkpoints; each block forms the terms of the squarefree k and adds
    their exact parts, and each checkpoint rounds the parts so far once.
    """
    ns = [int(n) for n in n_list]
    z = zeta(s).value
    s = complex(s)
    parts_re: list[float] = []
    parts_im: list[float] = []
    sums: dict[int, complex] = {}
    lo = 2
    for n in sorted(set(ns)):
        while lo <= n:
            hi = min(lo + (1 << 16), n + 1)
            mu = table.values[lo:hi]
            nz = np.flatnonzero(mu)
            k = (nz + lo).astype(np.float64)
            terms = mu[nz].astype(np.float64) * (np.exp(-s * np.log(k)) - 1.0 / k)
            parts_re += exact_parts(terms.real)
            parts_im += exact_parts(terms.imag)
            lo = hi
        sums[n] = -(z / s) * complex(exact_sum(parts_re), exact_sum(parts_im))
    return [sums[n] for n in ns]


# k per block of the stream: the block's terms are a few numpy
# temporaries of this length, and each block adds only a few parts.
APPROX_BLOCK = 1 << 16


def approx_reciprocal_s_stream(
    n_list: Iterable[int], s_grid: Iterable[complex]
) -> list[list[complex]]:
    """sum_{k=2..n} mu(k) G_k(s) for every s in ``s_grid`` and n in ``n_list``, in their order.

    With G_k(s) = -(zeta(s)/s) (k^(-s) - 1/k), each value is
    -(zeta(s)/s) times sum_k mu(k) (k^(-s) - 1/k), the sum exactly rounded
    per component.  Every n must be at least 2 and below 2^53, so that
    each k is exact in float64.

    One increasing pass over k <= max(n_list) serves the whole grid.  It
    reads mu from the sieve segments of ``zfhp.arith._mobius_segments`` as they
    come, never from a full table, in blocks of at most ``APPROX_BLOCK``
    split at the segment ends and the checkpoints.  Each block forms the
    terms of the squarefree k only (mu(k) = 0 terms are exact zeros) with
    the same elementwise numpy expression as a single full-range pass; k,
    log k and 1/k are formed once per block and shared by every s.

    Exactness.  Each block adds its ``exact_parts`` to the parts so far, and
    a checkpoint takes their ``exact_sum``: by the lemma of ``exact_sum``
    the same float as one exactly rounded sum of every term up to it,
    however the blocks are split.  Once the parts of one component exceed
    ``APPROX_BLOCK`` floats they are replaced by their own ``exact_parts``,
    which have the same exact sum, so they stay O(block) at any n.

    Memory.  One sieve segment, the primes up to sqrt(max n), a block's
    temporaries and the parts (``approx_stream_bytes``); a run whose estimate
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
    need = approx_stream_bytes(top, len(grid))
    _check_memory(need, f"n = {top}", "Möbius sieve segments and approx blocks")
    scales = [-(zeta(s).value / s) for s in grid]
    parts = [([], []) for _ in grid]
    sums: list[dict[int, complex]] = [{} for _ in grid]
    cut = iter(checkpoints)
    n = next(cut)
    for lo, mu in _mobius_segments(top):
        start, end = max(lo, 2), lo + mu.size
        while start < end:
            hi = min(start + APPROX_BLOCK, end, n + 1)
            approx_add_block_parts(mu[start - lo : hi - lo], start, grid, parts)
            start = hi
            if hi == n + 1:
                for scale, (re, im), at in zip(scales, parts, sums):
                    at[n] = scale * complex(exact_sum(re), exact_sum(im))
                n = next(cut, top)
    return [[at[n] for n in ns] for at in sums]


def approx_add_block_parts(
    mu: np.ndarray, lo: int, grid: list[complex], parts: list[tuple[list[float], list[float]]]
) -> None:
    """Append, per s, the exact parts of mu(k) (k^(-s) - 1/k), lo <= k < lo + mu.size.

    k, log k and 1/k are formed once for every s; the parts of a component
    that exceed ``APPROX_BLOCK`` floats are compacted to their own
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
            if len(part) > APPROX_BLOCK:
                part[:] = exact_parts(part)


def approx_stream_bytes(top: int, grid_size: int) -> int:
    """Peak bytes of ``approx_reciprocal_s_partial_sums`` up to n = ``top``, over ``grid_size`` s.

    The sieve (``zfhp.arith._sieve_bytes``) and the previous int8 segment, held
    while the next one is sieved.  Per block entry, the int64 index and k,
    log k, 1/k and mu(k) as float64 (40 bytes), and for one s at a time at
    most two complex128 temporaries and the float64 copy and temporaries
    of ``exact_parts`` (56 bytes).  Per s and component, at most
    ``APPROX_BLOCK`` parts plus one block's, fewer than 64: by the lemma
    of ``exact_sum`` each pass drops at least 52 - 17 of the 2100 binary
    exponents.  They are floats in a list (32 bytes each), with their
    float64 copy while they are compacted.
    """
    parts = grid_size * 2 * 40 * (APPROX_BLOCK + 64)
    return _sieve_bytes(top) + _SIEVE_BLOCK + 96 * APPROX_BLOCK + parts


def prime_indices_incremental():
    """Primes in increasing order from an incremental sieve: a dictionary of the next multiples."""
    witnesses: dict[int, list[int]] = {}
    q = 2
    while True:
        if q not in witnesses:
            yield q
            witnesses[q * q] = [q]
        else:
            for p in witnesses.pop(q):
                witnesses.setdefault(p + q, []).append(p)
        q += 1


def two_level_means_rfft(coeffs, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and 2M half-offset nodes from one real FFT of length 4M.

    The M nodes exp(2 pi i (j + 1/2)/M) are exp(2 pi i l/4M) with l = 4j + 2,
    the 2M nodes those with l odd, so the real FFT X of the coefficients
    folded modulo 4M gives |f| = |X_l| at both.  For real coefficients
    X_(4M-l) = conj(X_l), and l -> 4M - l maps each index set onto itself
    without fixed points (M is even), so the half spectrum l <= 2M holds one
    index of each mirror pair and its plain mean over a set is the level's.
    """
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


def p_mean(values: np.ndarray, p: float) -> float:
    """(mean |values|^p)^(1/p)."""
    mags = np.abs(values)
    mags **= p
    return float(np.mean(mags) ** (1.0 / p))


def quarter_turn(nodes: int) -> np.ndarray:
    """h_m = exp(-i pi m/(2M)), m = 0..M-1, for M = ``nodes``: a quarter turn.

    One ``np.cos`` pass gives c_m = cos(pi m/(2M)) for m = 0..M, and
    sin(pi m/(2M)) = c_(M-m) is the same table reflected, so
    h_m = c_m - i c_(M-m).
    """
    c = np.cos(np.arange(nodes + 1) * (math.pi / (2 * nodes)))
    h = np.empty(nodes, dtype=np.complex128)
    h.real = c[:nodes]
    h.imag = c[nodes:0:-1]
    np.negative(h.imag, out=h.imag)
    h.setflags(write=False)
    return h


def half_turn(h: np.ndarray, start: int, scale: complex) -> np.ndarray:
    """scale h_(4j+start) for j = 0..M/2-1, reading h_(m+M) = -i h_m past the table."""
    first = h[start::4]
    out = np.empty(h.size // 2, dtype=np.complex128)
    np.multiply(first, scale, out=out[: first.size])
    np.multiply(h[(start - h.size) % 4 :: 4], -1j * scale, out=out[first.size :])
    return out


def two_level_means_pruned(coeffs, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and 2M half-offset nodes from 1-D complex FFTs of M and M/2 points.

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
    h_(n+M) = -i h_n past the quarter-turn table ``quarter_turn``.  The
    scalings by -i and 1/2 are exact.
    """
    h = quarter_turn(nodes)
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
    fine = p_mean(np.fft.fft(c, out=c), p)
    del c

    z = x.view(np.complex128) * half_turn(h, 0, 0.5)
    del x
    np.fft.fft(z, out=z)
    mirror = np.conj(z[::-1])
    odd = z - mirror
    z += mirror
    del mirror
    odd *= half_turn(h, 2, -1j)
    odd += z
    return p_mean(odd, p), fine


def twiddle_by_columns(buf: np.ndarray, low: np.ndarray, high: np.ndarray) -> None:
    """buf[i, a + A b] *= low[i, a] high[i, b] in place, A = low.shape[1]; rows broadcast."""
    width = low.shape[1]
    for b in range(high.shape[1]):
        block = buf[:, b * width : (b + 1) * width]
        block *= low[:, : block.shape[1]]
        block *= high[:, b, None]


def four_step_whole(buf: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The DFT of the pre-twiddled (L1, L2) ``buf``, in place, each pass over the whole array."""
    np.fft.fft(buf, axis=0, out=buf)
    twiddle_by_columns(buf, low, high)
    return np.fft.fft(buf, axis=1, out=buf)


def fold_quarter(a: np.ndarray, nodes: int, q: int) -> np.ndarray:
    """b_q: the entries a_m with floor(m/M) = q (mod 4), summed modulo M."""
    size = 4 * nodes
    whole = a.size - a.size % size
    if whole:
        out = a[:whole].reshape(-1, 4, nodes)[:, q].sum(axis=0)
    else:
        out = np.zeros(nodes)
    tail = a[whole + q * nodes : whole + (q + 1) * nodes]
    out[: tail.size] += tail
    return out


def four_step_tables(nodes: int) -> tuple:
    """The twiddle tables of the two-DFT four-step transforms at M = ``nodes``.

    The 2M-node level (length M, shift 1), the M-node level (length
    K = M/2, shift 4, with the 1/2 of the packing) and the coarse
    post-twiddle -i omega^(4j+2) = omega^(4 k1 + 2 + M) omega^(4 K1 k2),
    a column and a one-row ``_product_tables``.
    """
    fine = _level(nodes, nodes, 1)
    (rows, cols), column, *middle = _level(nodes, nodes // 2, 4)
    column *= 0.5  # exact
    coarse = (rows, cols), column, *middle
    post = (_roots(4 * np.arange(rows) + 2 + nodes, nodes)[:, None],
            *_product_tables(np.array([4 * rows]), cols, nodes))
    return fine, coarse, post


def two_level_means_four_step(coeffs, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and 2M half-offset nodes from four-step DFTs of M and M/2 points.

    The residue-1 and residue-2 inputs, the packing and the butterfly are
    those of ``two_level_means_pruned``; each DFT, of length L = M or
    K = M/2, is a four-step FFT with the twiddles of ``zfhp.norms._level``
    (derived in ``zfhp.norms.two_level_means`` for L = M/2; the steps hold
    with omega^g, g = 4M/L, for omega^8).  The mirror index K - 1 - j is
    (K1 - 1 - k1) + K1 (K2 - 1 - k2), so the mirror of the coarse array
    is the array reversed along both axes, and the butterfly's
    -i omega^(4j+2) is omega^(4 k1 + 2 + M) omega^(4 K1 k2), a column
    times a row.  The fold takes all four quarters into fresh arrays,
    each level's twiddle and DFTs run over the whole (L1, L2) array, the
    fine level's magnitudes go to a new array, and the coarse butterfly
    takes its difference into a new array of M/2 points.
    """
    (shape, column, *middle), coarse, (post_column, *post) = four_step_tables(nodes)
    a = np.ascontiguousarray(coeffs, dtype=np.float64)
    if a.size > nodes:
        b0, b2 = fold_quarter(a, nodes, 0), fold_quarter(a, nodes, 2)
        y = np.empty(nodes, dtype=np.complex128)
        np.subtract(b0, b2, out=y.real)
        x = np.add(b0, b2, out=b0)
        del b2
        b1, b3 = fold_quarter(a, nodes, 1), fold_quarter(a, nodes, 3)
        np.subtract(b3, b1, out=y.imag)
        b1 += b3
        x -= b1
        del b1, b3
        y = y.reshape(shape)
        y *= column
    else:
        x = a if a.size == nodes else np.concatenate((a, np.zeros(nodes - a.size)))
        y = np.multiply(x.reshape(shape), column)
    fine = p_mean(four_step_whole(y, *middle), p)

    (shape, column, *middle), buf, half = coarse, y.reshape(-1), nodes // 2
    z = buf[:half].reshape(shape)
    np.multiply(x.view(np.complex128).reshape(shape), column, out=z)
    del x
    four_step_whole(z, *middle)
    mirror = buf[half:].reshape(shape)
    np.conjugate(z[::-1, ::-1], out=mirror)
    odd = z - mirror
    z += mirror
    twiddle_by_columns(odd, *post)
    odd *= post_column
    odd += z
    return p_mean(odd, p), fine


# Entries per chunk of the last step of the fold in
# ``two_level_means_one_buffer``, whose float64 temporary is 256 KiB.
FOLD_CHUNK = 1 << 15


def fold_quarter_into(a: np.ndarray, nodes: int, q: int, out: np.ndarray) -> np.ndarray:
    """b_q into ``out``: the entries a_m with floor(m/M) = q (mod 4), summed modulo M."""
    size = 4 * nodes
    whole = a.size - a.size % size
    if whole:
        a[:whole].reshape(-1, 4, nodes)[:, q].sum(axis=0, out=out)
    else:
        out[...] = 0.0
    tail = a[whole + q * nodes : whole + (q + 1) * nodes]
    out[: tail.size] += tail
    return out


def two_level_means_one_buffer(coeffs, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and 2M half-offset nodes, both levels in one buffer of M complex numbers.

    The DFTs and tables of ``two_level_means_four_step``.  The fold takes
    the quarters b_0 and b_2 into x and a temporary t, then b_3 and b_1
    into y's imaginary part and t, and x -= (t + y.imag) runs in chunks
    of ``FOLD_CHUNK`` entries.  The 2M-node level's row pass works one
    block of ``_ROW_BLOCK`` rows at a time (``zfhp.norms._four_step``);
    each block's |Y|^p goes through a one-block staging array to the
    first M float64 slots of y's buffer, in row order.  Those of rows
    [a, b) land in the slots of complex rows [a/2, b/2), which lie below
    a, in rows already read, once a >= b - a; the first block is staged
    whole before it is written.  The M-node level then packs x into the
    first half of the buffer as z and transforms it.  Its butterfly reads
    z and the mirror block conj(Z_(K-1-j)) into two block-sized
    temporaries and writes |A_j|^p into the second half.  Each entry is
    rounded as it is in ``two_level_means_four_step``.
    """
    (shape, column, *middle), coarse, (post_column, *post) = four_step_tables(nodes)
    a = np.ascontiguousarray(coeffs, dtype=np.float64)
    if a.size > nodes:
        x = fold_quarter_into(a, nodes, 0, np.empty(nodes))
        t = fold_quarter_into(a, nodes, 2, np.empty(nodes))
        y = np.empty(nodes, dtype=np.complex128)
        np.subtract(x, t, out=y.real)
        x += t
        fold_quarter_into(a, nodes, 3, y.imag)
        fold_quarter_into(a, nodes, 1, t)
        for lo in range(0, nodes, FOLD_CHUNK):
            chunk = slice(lo, lo + FOLD_CHUNK)
            x[chunk] -= t[chunk] + y.imag[chunk]
        y.imag -= t
        del t
        y = y.reshape(shape)
        y *= column
    else:
        x = a if a.size == nodes else np.concatenate((a, np.zeros(nodes - a.size)))
        y = np.multiply(x.reshape(shape), column)
    rows, cols = shape
    buf = y.reshape(-1)
    flat = buf.view(np.float64)
    stage = np.empty((min(_ROW_BLOCK, rows), cols))
    for lo, hi in _four_step(y, *middle):
        mags = np.abs(y[lo:hi], out=stage[: hi - lo])
        mags **= p
        flat[lo * cols : hi * cols] = mags.reshape(-1)
    del stage
    fine = float(np.mean(flat[:nodes].reshape(shape)) ** (1.0 / p))

    (shape, column, *middle), half = coarse, nodes // 2
    rows, cols = shape
    z = buf[:half].reshape(shape)
    np.multiply(x.view(np.complex128).reshape(shape), column, out=z)
    del x
    for _ in _four_step(z, *middle):
        pass
    coarse_mags = flat[nodes : nodes + half].reshape(shape)
    sums = np.empty((min(_ROW_BLOCK, rows), cols), dtype=np.complex128)
    diffs = np.empty_like(sums)
    for lo in range(0, rows, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, rows)
        even, odd = sums[: hi - lo], diffs[: hi - lo]
        np.conjugate(z[rows - hi : rows - lo][::-1, ::-1], out=even)  # the mirror block
        np.subtract(z[lo:hi], even, out=odd)
        even += z[lo:hi]
        _twiddle(odd, *post)
        odd *= post_column[lo:hi]
        odd += even
        mags = np.abs(odd, out=coarse_mags[lo:hi])
        mags **= p
    return float(np.mean(coarse_mags) ** (1.0 / p)), fine


def bounded_divisor_sum(j: int, n: int, table) -> int:
    """Sum of mu(d) over the divisors d of j with d <= n.

    The result is an exact integer and satisfies |result| <= tau(j).  Every
    divisor of j that is <= n must be covered by the table.
    """
    if j < 1 or n < 1:
        raise ValueError("j and n must be positive integers")
    total = 0
    for a in range(1, math.isqrt(j) + 1):
        if j % a:
            continue
        b = j // a
        for d in (a, b) if a != b else (a,):
            if d <= n:
                if d > table.limit:
                    raise ValueError(
                        f"divisor {d} of {j} is <= n but beyond the table limit {table.limit}"
                    )
                total += int(table.values[d])
    return total


def c4_partial_sums(family, r: float, checkpoints) -> list[float]:
    """Partial sums of (w_k / k^r)^2 at the given checkpoints.

    Below the threshold r* of ``c4_halfplane`` the sums keep growing between
    checkpoints, above r* they flatten.  Divergent families may saturate to
    +inf, which counts as growth.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    k = np.arange(1, checkpoints[-1] + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        terms = np.exp(2.0 * (family.log_w(k) - r * np.log(k)))
    csum = np.cumsum(terms)
    return [float(csum[c - 1]) for c in checkpoints]


def _quad_complex(f, a: float, b: float) -> complex:
    re = quad(lambda x: f(x).real, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    im = quad(lambda x: f(x).imag, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return complex(re, im)


def mellin_step_pk_quadrature(k: int, s) -> complex:
    """int_{1/(k+1)}^{1/k} k x^(s-1) dx - int_0^{1/(k+1)} x^(s-1) dx by adaptive quadrature.

    The second integral is taken after x = exp(-v), which maps the singular
    oscillatory endpoint at x = 0 to the damped integrand exp(-s v) on
    [-log(1/(k+1)), infinity); truncating 40/Re(s) past the left edge
    leaves a remainder below exp(-40) of the head scale.
    """
    s = complex(s)
    lo = 1.0 / (k + 1)
    v0 = -math.log(lo)
    head = _quad_complex(lambda x: k * x ** (s - 1.0), lo, 1.0 / k)
    return head - _quad_complex(lambda v: cmath.exp(-s * v), v0, v0 + 40.0 / s.real)


def f_k_scalar(k: int, s) -> complex:
    """-(1/s) ((k+1)^(1-s) - k^(1-s)) as k^(1-s) expm1((1-s) log1p(1/k)), in math and cmath."""
    s = complex(s)
    w = (1.0 - s) * math.log1p(1.0 / k)
    expm1 = complex(math.expm1(w.real) * math.cos(w.imag) - 2.0 * math.sin(0.5 * w.imag) ** 2,
                    math.exp(w.real) * math.sin(w.imag))
    return -(1.0 / s) * cmath.exp((1.0 - s) * math.log(k)) * expm1


def stretchedexp_tail_gammaincc(alpha: float, t: int) -> float:
    """int_t^inf exp(-2 x^alpha) dx = Gamma(1/alpha, 2 t^alpha) / (alpha 2^(1/alpha))."""
    inv = 1.0 / alpha
    return float(math.gamma(inv) * gammaincc(inv, 2.0 * t**alpha) / (alpha * 2.0**inv))


ETA_TARGET = 1e-13  # the relative error the term rule of ``zeta_accelerated_eta`` aims for
_ACCEL = 3.0 + math.sqrt(8.0)
# d_n in the accelerated eta series grows like (3 + sqrt 8)^n; keep it well
# inside float range.
_MAX_ETA_TERMS = 280


def zeta_accelerated_eta(s) -> complex:
    """zeta(s) for Re(s) > 0, s != 1, via the accelerated alternating series.

    Computes eta(s) = sum (-1)^(k-1) k^(-s) with Chebyshev-weighted series
    acceleration and divides by 1 - 2^(1-s).  The term count is chosen from
    the proven error envelope (1 + 2|t|) e^(pi |t| / 2) / (3 + sqrt 8)^n
    to reach the relative error ``ETA_TARGET``.

    Raises ``PoleError`` at s = 1, ``ConditioningError`` on the line of
    spurious zeros of 1 - 2^(1-s) (s = 1 + 2 pi i m / log 2, m != 0).
    """
    s = require_right_half_plane(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has a pole at s = 1")
    denom = -complex(_cexpm1((1.0 - s) * math.log(2.0)))  # 1 - 2^(1-s), cancellation-safe
    if abs(denom) < 1e-8:
        raise ConditioningError(
            f"1 - 2^(1-s) vanishes near s = {s}; the eta-ratio evaluator is unusable there"
        )
    n = _eta_terms(s)
    return _eta_accelerated(s, n) / denom


def _eta_terms(s: complex) -> int:
    t = abs(s.imag)
    need = (math.log(3.0 / ETA_TARGET) + math.log1p(2.0 * t) + 0.5 * math.pi * t) / math.log(_ACCEL)
    n = int(math.ceil(need)) + 4
    if s.real < 0.5:
        n += 10
    n = max(n, 24)
    if n > _MAX_ETA_TERMS:
        raise DomainError(
            f"|Im(s)| = {t:g} is outside the working range of the eta evaluator"
        )
    return n


def _eta_accelerated(s: complex, n: int) -> complex:
    d = np.empty(n + 1, dtype=np.float64)
    term = 1.0
    d[0] = 1.0
    for i in range(1, n + 1):
        term *= 4.0 * (n + i - 1) * (n - i + 1) / (2.0 * i * (2.0 * i - 1.0))
        d[i] = d[i - 1] + term
    k = np.arange(n, dtype=np.float64)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    powers = np.exp(-s * np.log(k + 1.0))
    return -complex(np.sum(signs * (d[:n] - d[n]) * powers)) / d[n]
