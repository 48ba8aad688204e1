"""Norm and quasi-norm estimators for truncated series.

Boundary quasi-norms use the circle mean at radius 1 only: for a
polynomial the circle means are nondecreasing in the radius and continuous
up to the boundary, so the supremum over radii is the boundary mean.
Quadrature nodes sit at half-step offsets 2 pi (j + 1/2)/nodes, so z = 1 is
never sampled; evaluation at all nodes is exact (coefficient folding plus
one FFT), and the only quadrature error is in the mean itself.

``boundary_values`` takes complex coefficients, for the inequality
battery.  ``two_level_means`` serves the H^p convergence runner:
for real coefficients it returns the p-means at M and 2M nodes from two
DFTs, of M and M/2 points, that compute only the spectrum the means read.
Each is a four-step FFT on a 2-D view of its buffer (batched short
transforms down the columns, a separable twiddle, batched short
transforms along the rows), so no transform runs on a 1-D array of M or
M/2 points and no twiddle table has M entries.  Both levels and their
magnitudes live in one buffer of M complex numbers.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Iterator

import numpy as np

from .arith import _check_memory, exact_sum
from .errors import ConditioningError
from .series import TruncatedSeries

__all__ = [
    "QuadratureWarning",
    "default_node_count",
    "boundary_values",
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


def boundary_values(f: TruncatedSeries, nodes: int) -> np.ndarray:
    """Exact values of f at exp(2 pi i (j + 1/2)/nodes).

    Coefficients are phase-shifted by exp(i pi m / nodes), folded modulo
    the node count, and transformed; this is an exact polynomial
    evaluation, not an approximation.
    """
    _validate_nodes(nodes)
    a = np.asarray(f.coeffs, dtype=np.complex128)
    m = np.arange(a.size, dtype=np.float64)
    phased = a * np.exp(1j * math.pi * m / nodes)
    pad = (-phased.size) % nodes
    if pad:
        phased = np.concatenate([phased, np.zeros(pad, dtype=np.complex128)])
    folded = phased.reshape(-1, nodes).sum(axis=0)
    return np.fft.ifft(folded) * nodes


def _p_mean(values: np.ndarray, p: float) -> float:
    """(mean |values|^p)^(1/p)."""
    mags = np.abs(values)
    mags **= p
    return float(np.mean(mags) ** (1.0 / p))


def _check_two_level_nodes(nodes: int) -> None:
    """Refuse node counts that are odd, below 16 or beyond physical memory."""
    _validate_nodes(nodes)
    _check_memory(_two_level_bytes(nodes), f"nodes = {nodes}", "transform buffers")


# Bytes per node of the arrays of two_level_means, derived in _two_level_bytes.
_TRANSFORM_BYTES_PER_NODE = 32

# Rows per block of the row pass of two_level_means: each block is
# twiddled, transformed along its rows and reduced while it is in cache.
_ROW_BLOCK = 16

# Entries per chunk of the last step of the fold in two_level_means, whose
# float64 temporary is 256 KiB at 2^15.
_FOLD_CHUNK = 1 << 15


def _two_level_bytes(nodes: int) -> int:
    """A bound on the peak bytes ``two_level_means`` allocates at M = ``nodes``.

    Arrays, in bytes per node.  An input longer than M is folded modulo 4M
    one quarter at a time: b_0 into x (8) and b_2 into a temporary t (8);
    y (16) is allocated, its real part b_0 - b_2 and x then b_0 + b_2.
    b_3 goes into the imaginary part of y and b_1 into t, and
    x -= (t + y.imag) runs in chunks of ``_FOLD_CHUNK`` entries, one
    float64 temporary of 8 ``_FOLD_CHUNK`` bytes, before y.imag -= t.
    That is 8 + 8 + 16 = 32 at the fold's peak, and 24 once t goes.
    Otherwise x is the input itself, or its zero-padded copy (8), and y
    is allocated (16): at most 24.  Both levels then live in y's buffer.
    The 2M-node level writes its magnitudes over the first half of it,
    through one staging block of at most ``_ROW_BLOCK`` rows of length
    L2, 8 min(16, L1) L2 bytes.  The M-node level packs x into the
    first half, so x goes (16), and writes its magnitudes into the second
    half; its butterfly holds a mirror and a difference block,
    32 min(16, K1) K2 bytes for the split K1 K2 of K = M/2.  So 32 bytes
    per node (``_TRANSFORM_BYTES_PER_NODE``) and the larger block bound
    the arrays, besides a float64 copy of an input that is not a
    contiguous float64 array.

    Tables.  A level of length L = L1 L2 keeps L1 (1 + A + B) twiddles
    with A = ceil(sqrt(L2)) and B = ceil(L2/A), so A, B <= sqrt(L2) + 1
    and, as L1 <= sqrt(L), at most
    2 sqrt(L1 L) + 3 L1 <= 2 L^(3/4) + 3 L^(1/2).  The coarse
    post-twiddle keeps K1 + A + B <= 3 K^(1/2) + 2 more, with K = M/2.
    In all, 2 (1 + 2^(-3/4)) M^(3/4) + 3 (1 + 2^(1/2)) M^(1/2) + 2, which
    for M >= 16 (M^(1/2) <= M^(3/4)/2, 2 <= M^(3/4)/4) is at most
    8 M^(3/4) complex numbers, 128 M^(3/4) bytes, kept between calls.
    ``_roots`` builds a table with 32 bytes per entry of temporaries (the
    exponents, q, r and the angles; then the exponents, q and the powers
    of -i), before any array above exists, so 384 M^(3/4) bytes cover the
    tables at every moment.

    FFT work.  numpy's pocketfft keeps a plan per transform length and a
    scratch per call, O(n) for a line of n points.  Measured with numpy
    2.4 as ``ru_maxrss`` growth in a fresh interpreter: 32 to 80 bytes per
    point for lengths with small factors, 224 for large primes (Bluestein),
    and under 1 MiB in all for short lines.  256 n + 2^20 bytes, n the
    longest line L2 of either level, bound it.  Lines are short: L2 is
    about sqrt(2M) for a power of two M, and reaches M/2 only when M or
    M/2 is twice a prime.
    """
    (rows, cols), (half_rows, half_cols) = _split(nodes), _split(nodes // 2)
    blocks = max(8 * min(_ROW_BLOCK, rows) * cols, 32 * min(_ROW_BLOCK, half_rows) * half_cols)
    return (
        _TRANSFORM_BYTES_PER_NODE * nodes
        + blocks
        + 8 * _FOLD_CHUNK
        + 384 * math.ceil(nodes**0.75)
        + 256 * max(cols, half_cols)
        + 2**20
    )


def _split(length: int) -> tuple[int, int]:
    """(L1, L2): L1 the largest divisor of ``length`` not above its square root, L2 = length/L1."""
    rows = next(d for d in range(math.isqrt(length), 0, -1) if length % d == 0)
    return rows, length // rows


def _roots(exponents: np.ndarray, nodes: int) -> np.ndarray:
    """omega^e = exp(-2 pi i e/(4M)) for integers e >= 0 and M = ``nodes``.

    e = q M + r with r < M gives omega^e = (-i)^q omega^r, and
    omega^r = cos(pi r/(2M)) - i cos(pi (M - r)/(2M)), both angles in
    [0, pi/2].  Each angle is an exact integer times fl(pi/(2M)), and the
    products with (-i)^q, whose parts are 0 and +-1, are exact.
    """
    q, r = np.divmod(exponents, nodes)
    q &= 3
    step = math.pi / (2 * nodes)
    out = np.empty(r.shape, dtype=np.complex128)
    angle = np.multiply(r, step)
    np.cos(angle, out=out.real)
    np.subtract(nodes, r, out=r)
    np.multiply(r, step, out=angle)
    np.cos(angle, out=out.imag)
    del r, angle
    np.negative(out.imag, out=out.imag)
    out *= np.array((1.0, -1j, -1.0, 1j))[q]
    return out


def _product_tables(k: np.ndarray, cols: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """omega^(k_i a) and omega^(k_i A b) for t = a + A b < ``cols``, A = ceil(sqrt(cols)).

    Their product is omega^(k_i t), the factor ``_twiddle`` applies to
    column t of row i, from ceil(sqrt(cols)) + ceil(cols/A) entries per row.
    """
    width = math.isqrt(cols - 1) + 1
    k = k[:, None]
    low = _roots(k * np.arange(width), nodes)
    high = _roots(k * (width * np.arange(-(-cols // width))), nodes)
    return low, high


def _twiddle(buf: np.ndarray, low: np.ndarray, high: np.ndarray) -> None:
    """buf[i, a + A b] *= low[i, a] high[i, b] in place, A = low.shape[1]; rows broadcast.

    The whole columns are viewed as (rows, B, A), the remaining L2 mod A
    columns as one more strip; each entry is (buf low) high, in that order.
    """
    rows, cols = buf.shape
    width = low.shape[1]
    whole = cols // width
    head = buf[:, : whole * width].reshape(rows, whole, width)
    head *= low[:, None, :]
    head *= high[:, :whole, None]
    if whole < high.shape[1]:
        tail = buf[:, whole * width :]
        tail *= low[:, : tail.shape[1]]
        tail *= high[:, whole, None]


def _level(nodes: int, length: int, shift: int, scale: float) -> tuple:
    """The twiddles of a four-step DFT of length L = ``length`` of omega^(shift t) y_t.

    With g = 4M/L: the pre-twiddle ``scale`` omega^(shift L2 t1) as an
    (L1, 1) column, and the middle twiddle omega^(t2 (g k1 + shift)) as
    ``_product_tables``; see ``two_level_means``.
    """
    rows, cols = _split(length)
    k1 = np.arange(rows)
    column = _roots(shift * cols * k1, nodes)[:, None]
    column *= scale
    return (rows, cols), column, *_product_tables(4 * nodes // length * k1 + shift, cols, nodes)


@functools.lru_cache(maxsize=1)
def _tables(nodes: int) -> tuple:
    """The twiddle tables of ``two_level_means`` at M = ``nodes``, read-only.

    The 2M-node level (length M, shift 1), the M-node level (length
    K = M/2, shift 4, with the 1/2 of the packing) and the coarse
    post-twiddle -i omega^(4j+2) = omega^(4 k1 + 2 + M) omega^(4 K1 k2),
    a column and a one-row ``_product_tables``.  Cached for the
    checkpoints of a run.
    """
    fine = _level(nodes, nodes, 1, 1.0)
    coarse = _level(nodes, nodes // 2, 4, 0.5)
    (rows, cols), *_ = coarse
    post = (_roots(4 * np.arange(rows) + 2 + nodes, nodes)[:, None],
            *_product_tables(np.array([4 * rows]), cols, nodes))
    for table in (*fine[1:], *coarse[1:], *post):
        table.setflags(write=False)
    return fine, coarse, post


def _four_step(buf: np.ndarray, low: np.ndarray, high: np.ndarray) -> Iterator[tuple[int, int]]:
    """The DFT of the pre-twiddled (L1, L2) ``buf``, in place; see ``two_level_means``.

    The DFTs down the columns run first; then each block of
    ``_ROW_BLOCK`` rows is twiddled and transformed along its rows, and
    its row range (a, b) is yielded once rows a to b - 1 hold their output.
    """
    np.fft.fft(buf, axis=0, out=buf)
    rows = buf.shape[0]
    for a in range(0, rows, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, rows)
        block = buf[a:b]
        _twiddle(block, low[a:b], high[a:b])
        np.fft.fft(block, axis=1, out=block)
        yield a, b


def _fold_quarter(a: np.ndarray, nodes: int, q: int, out: np.ndarray) -> np.ndarray:
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


def two_level_means(coeffs: np.ndarray, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and at 2M half-offset nodes, for real coefficients.

    Both levels are nodes exp(2 pi i l/4M): l = 4j + 2 for the M nodes,
    l odd for the 2M.  With b the coefficients folded modulo 4M
    (z^(4M) = 1 at every such node) and omega = exp(-2 pi i/4M), |f| at the
    node of index l is |X_l| for X_l = sum_(m<4M) b_m omega^(lm), and for
    l = 4j + r

        X_(4j+r) = sum_(m<M) [sum_(q<4) b_(m+qM) omega^(r(m+qM))] e^(-2 pi i jm/M),

    a DFT of length M of the fold modulo M of b_m omega^(rm).
    omega^M = -i, so only the residues r = 1 and r = 2 need work.

    The 2M-node level.  For r = 1 the inner sum is omega^m y_m with
    y = u - i v, u = b_[0,M) - b_[2M,3M) and v = b_[M,2M) - b_[3M,4M): one
    DFT of length M gives X_l for every l = 1 (mod 4).  For real b,
    X_(4M-l) = conj(X_l), and 4M - (4j + 1) = 4(M - 1 - j) + 3, so the
    residue-3 values are the residue-1 values conjugated, and the mean
    over the M residue-1 values is the mean over all 2M odd l.

    The M-node level.  For r = 2 the inner sum is omega^(2m) x_m with the
    real signed fold x_m = sum_q (-1)^q b_(m+qM), so X_(4j+2) = A_j with
    A_j = sum_m x_m e^(-2 pi i (j + 1/2) m/M), and A_(M-1-j) = conj(A_j):
    the values j < K = M/2 are the whole level.  Pack
    z_t = (x_(2t) + i x_(2t+1)) omega^(4t) / 2 for t < K and take one DFT Z
    of length K.  Let E and O be the DFTs of length K of
    e_t = x_(2t) omega^(4t) and o_t = x_(2t+1) omega^(4t), so that
    2 Z = E + i O and A_j = E_j + omega^(4j+2) O_j.  Because x is real,
    conj(E_(K-1-j)) = E_j and likewise for O, so
    2 conj(Z_(K-1-j)) = E_j - i O_j, and the butterfly

        E_j = Z_j + conj(Z_(K-1-j)),   O_j = -i (Z_j - conj(Z_(K-1-j)))

    splits them; the 1/2 in z spares a halving here.  M even makes K
    whole; M need not be a power of two.

    Four steps (Bailey, J. Supercomputing 4, 1990).  Each level is a DFT
    of length L = M or K of omega^(s t) w_t, with s = 1, w = y at the
    2M-node level and s = 4, w = (x_(2t) + i x_(2t+1))/2 at the M-node
    level.  Let L = L1 L2 (``_split``), g = 4M/L, t = L2 t1 + t2 and
    j = k1 + L1 k2 with t1, k1 < L1 and t2, k2 < L2.  Then
    e^(-2 pi i/L) = omega^g, and jt is k1 t1 L2 + k1 t2 + k2 t2 L1 plus a
    multiple of L, so

        sum_t omega^(s t) w_t e^(-2 pi i jt/L)
          = sum_(t2) e^(-2 pi i k2 t2/L2) omega^(t2 (g k1 + s))
                sum_(t1) e^(-2 pi i k1 t1/L1) omega^(s L2 t1) w_(L2 t1 + t2).

    Entry [t1, t2] of the C-ordered view w.reshape(L1, L2) is
    w_(L2 t1 + t2).  So: scale row t1 by omega^(s L2 t1); take DFTs of
    length L1 down the columns (axis 0), giving entry [k1, t2]; scale
    entry [k1, t2] by omega^(t2 (g k1 + s)); take DFTs of length L2 along
    the rows (axis 1), giving entry [k1, k2] = output j = k1 + L1 k2.  The
    pre-twiddle's factor omega^(s t2) is merged into the middle twiddle,
    which with t2 = a + A b is omega^(a (g k1 + s)) omega^(A b (g k1 + s)),
    two tables of L1 A and L1 B entries (``_product_tables``).  Every
    output appears once in the array, so a mean over it needs no
    permutation.  The mirror index K - 1 - j is
    (K1 - 1 - k1) + K1 (K2 - 1 - k2), so the mirror of the coarse array
    is the array reversed along both axes, and the butterfly's
    -i omega^(4j+2) is omega^(4 k1 + 2 + M) omega^(4 K1 k2), a column
    times a row.  No table has M entries: see ``_two_level_bytes``.

    Twiddles.  ``_roots`` gives omega^e at angles in [0, pi/2] times an
    exact power of -i; the scalings by 1/2 are exact.

    Where the magnitudes live.  Both levels run in y's buffer of M
    complex numbers.  The 2M-node level's row pass works one block of
    ``_ROW_BLOCK`` rows at a time (``_four_step``); each block's |Y|^p
    goes through a one-block staging array to the first M float64 slots
    of the buffer, in row order.  Those of rows [a, b) land in the slots
    of complex rows [a/2, b/2), which lie below a, in rows already read,
    once a >= 16 >= b - a; the first block is staged whole before it is
    written.  So the M values form one contiguous (L1, L2) array, and its
    mean is the one numpy takes of such an array.  The M-node level then
    packs x into the first half of the buffer as z and transforms it.
    Its butterfly reads z and the mirror block conj(Z_(K-1-j)) into two
    block-sized temporaries and writes |A_j|^p into the second half, so z
    is only read and the blocks may go in any order.  Each entry is
    rounded as it would be in whole-array passes: the twiddles are
    (w low) high and then the column, in that order.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    a = np.asarray(coeffs)
    if np.iscomplexobj(a):
        raise ValueError("coeffs must be real")
    _check_two_level_nodes(nodes)
    (shape, column, *middle), coarse, (post_column, *post) = _tables(nodes)
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.size > nodes:
        x = _fold_quarter(a, nodes, 0, np.empty(nodes))
        t = _fold_quarter(a, nodes, 2, np.empty(nodes))
        y = np.empty(nodes, dtype=np.complex128)
        np.subtract(x, t, out=y.real)
        x += t
        _fold_quarter(a, nodes, 3, y.imag)
        _fold_quarter(a, nodes, 1, t)
        for lo in range(0, nodes, _FOLD_CHUNK):
            chunk = slice(lo, lo + _FOLD_CHUNK)
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


def lq_norm(f: TruncatedSeries, q: float) -> float:
    """(sum |a_n|^q)^(1/q); a quasi-norm when q < 1 (triangle fails)."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    return _lq_of_magnitudes(np.abs(f.coeffs), q)


def _lq_of_magnitudes(mags: np.ndarray, q: float) -> float:
    """(sum mags^q)^(1/q) for a float64 array of magnitudes, raised to q in place.

    With b = max mags and L = mags.size, the sum S lies in [b^q, L b^q].
    A term is computed within a few u = 2^-53 of itself, or within a few
    2^-1074 below 2^-1022.  So if b^q >= 2^-1022 = 2^52 2^-1074, then
    S >= 2^-1022 and the terms' errors add up to a few L u S, the order
    of the sum's own rounding.  If 0 < b^q < 2^-1022, the largest term is
    subnormal or 0 and S has lost its digits; if L b^q >= 2^1024, S can
    overflow.  Both raise ``ConditioningError``, tested as q log2 b < -1022
    and q log2 b + log2 L >= 1024.  Non-finite magnitudes pass through.
    """
    big = float(np.max(mags, initial=0.0))
    if 0.0 < big < math.inf:
        e = q * math.log2(big)
        if e < -1022.0 or e + math.log2(mags.size) >= 1024.0:
            raise ConditioningError(
                f"the largest |r|^q = 2^{e:.6g} is outside the normal range of the l^q sum"
            )
    mags **= q
    return float(np.sum(mags) ** (1.0 / q))


def hp_norm_estimate(f: TruncatedSeries, p: float, nodes: int | None = None) -> float:
    """Boundary estimate of the H^p (quasi-)norm of a truncated series.

    Warns (``QuadratureWarning``) when the node count is below degree + 1,
    where the discrete mean of |f|^p can be visibly aliased.  With
    nodes > degree and p = 2 the estimate is exact (Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    return _p_mean(_sampled_boundary(f, nodes), p)


def _node_count(f: TruncatedSeries, nodes: int | None) -> int:
    """``nodes``, or ``default_node_count`` of the degree if None, validated."""
    if nodes is None:
        nodes = default_node_count(f.degree)
    _validate_nodes(nodes)
    return nodes


def _sampled_boundary(f: TruncatedSeries, nodes: int | None) -> np.ndarray:
    """``boundary_values`` at ``_node_count`` nodes, warning once when they undersample f."""
    nodes = _node_count(f, nodes)
    warning = _undersampling(nodes, f.degree)
    if warning:
        warnings.warn(warning, QuadratureWarning, stacklevel=3)
    return boundary_values(f, nodes)


def _undersampling(nodes: int, degree: int) -> str | None:
    """The ``QuadratureWarning`` text when ``nodes`` < degree + 1, else None."""
    if nodes < degree + 1:
        return f"nodes = {nodes} undersamples degree {degree}; the circle mean may alias"
    return None


def sup_norm_estimate(f: TruncatedSeries, nodes: int | None = None) -> float:
    """max_j |f| over the half-offset nodes (the p -> infinity limit)."""
    return float(np.max(np.abs(boundary_values(f, _node_count(f, nodes)))))


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
    Both sides read one transform of h, which warns as
    ``hp_norm_estimate`` does when the nodes undersample h.
    """
    _check_reverse_holder(p, q)
    hv = _sampled_boundary(h, nodes)
    z = half_offset_points(hv.size)
    base = abs(exact_sum(h.coeffs)) ** q
    sing = np.abs(1.0 - z) ** (-q)
    integral = base * circle_abs_power_integral(-q) + float(
        np.mean((np.abs(hv) ** q - base) * sing)
    )
    lhs = max(integral, 0.0) ** (1.0 / q)
    rhs = reverse_holder_constant(p, q) * _p_mean(hv, p)
    return lhs, rhs
