"""Norm and quasi-norm estimators for truncated series.

Boundary quasi-norms use the circle mean at radius 1 only: for a
polynomial the circle means are nondecreasing in the radius and continuous
up to the boundary, so the supremum over radii is the boundary mean.
Quadrature nodes sit at half-step offsets 2 pi (j + 1/2)/nodes, so z = 1 is
never sampled; evaluation at all nodes is exact (coefficient folding plus
one FFT), and the only quadrature error is in the mean itself.

There is one transform.  ``two_level_means`` serves the H^p convergence
runner: for real coefficients it returns the p-means at M and 2M nodes
from three DFTs of M/2 points, slices, one per residue mod 8 of the node
indices the means read (the other residues are their conjugates).
``boundary_values``, behind the inequality battery, returns the M node
values themselves from the slice of the M-node level: once for real
coefficients, once for each of their real and imaginary parts for complex
ones.  Each slice is a four-step FFT
on a 2-D view of its buffer (batched short transforms down the columns, a
separable twiddle, batched short transforms along the rows), so no
transform runs on a 1-D array of M/2 points.  The twiddles are formed for
one group of rows at a time, and nothing outlives a call.  The three run
one after another in one buffer of M/2 complex numbers, 8 bytes per node,
which a weighted fold fills from the input a block at a time, and each
block of rows is reduced to its sum of |.|^p as soon as it is
transformed.  The input is an array, read as views of
itself, or a ``CoefficientBlocks`` such as the Möbius kernel's, whose
blocks are formed again for each of the three DFTs; neither is ever held
as a full-length float64 array.

There is one sum of |x|^p, ``_sum_of_powers``.  Every l^q norm and every
p-mean is that sum followed by the caller's own root: ``lq_norm`` and the
l^q convergence row, both levels of ``two_level_means``, and the p-means
behind ``hp_norm_estimate`` and the inequality battery.  So each of them
refuses with ``ConditioningError`` (exit code 3 on the command line) a
largest term |x|^p below the normal range and a sum that could overflow,
instead of printing 0 or inf.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Iterator

import numpy as np

from .arith import _DIVIDE_BLOCK, _check_memory, exact_sum
from .errors import ConditioningError
from .series import CoefficientBlocks, TruncatedSeries

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


def boundary_values(f: TruncatedSeries, nodes: int) -> np.ndarray:
    """Exact values of f at exp(2 pi i (j + 1/2)/M), j < M = ``nodes``.

    This is an exact polynomial evaluation, not an approximation: its only
    error is rounding.  In the notation of ``two_level_means``, node j is
    exp(2 pi i (4j + 2)/4M) = omega^(-(4j + 2)), so f there is
    X_(4M - 4j - 2) = X_(4j' + 2) with j' = M - 1 - j.  The slice s = 2
    holds X_(8k + 2), k < M/2: the value at node M - 1 - 2k, the odd
    nodes.  For real a, X_(4M - l) = conj(X_l), and
    4M - (8k + 2) = 4 (M - 1 - 2k) + 2 is node 2k: the even nodes are the
    conjugates of the same slice.  Complex a = b + i c runs b and c
    through the slice one after the other, in one buffer, and
    f = f_b + i f_c: S_b + i S_c at the odd nodes and
    conj(S_b) + i conj(S_c) at the even ones, each part of the sum one
    rounding.  The slice's entry [k1, k2] is X_(8k + 2) for
    k = k1 + L1 k2, so its transpose is entry k2 L1 + k1 of a C-ordered
    (L2, L1) view of either half of the output.

    Memory: ``_two_level_bytes`` bounds the buffer, fold scratch,
    twiddles and FFT work of the slice (and a magnitude block that this
    function does not take), and the output is 16 bytes per node.  The
    node mapping writes the slice's transpose through views of the output
    strided by 2, with no copy, so ``_two_level_bytes(M) + 16 M`` bytes
    bound the peak, and a node count whose charge exceeds physical memory
    is refused before anything is allocated.
    """
    _validate_nodes(nodes)
    _check_memory(_two_level_bytes(nodes) + 16 * nodes, f"nodes = {nodes}", "transform buffers")
    rows, cols = _split(nodes // 2)
    buf = np.empty(nodes // 2, dtype=np.complex128)
    a = f.coeffs
    scratch = np.empty(min(_DIVIDE_BLOCK, a.size))
    out = np.empty(nodes, dtype=np.complex128)
    odd, even = out[::-2].reshape(cols, rows), out[::2].reshape(cols, rows)
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    for i, part in enumerate(parts):
        for _ in _slice(CoefficientBlocks.of_array(part), 2, nodes, buf, scratch):
            pass
        y = buf.reshape(rows, cols).T
        if i == 0:
            odd[...] = y
            np.conjugate(y, out=even)
        else:
            odd.real -= y.imag
            odd.imag += y.real
            even.real += y.imag
            even.imag += y.real
    return out


def _p_mean(values: np.ndarray, p: float) -> float:
    """(mean |values|^p)^(1/p), from one ``_sum_of_powers`` over a single block."""
    return (_sum_of_powers([np.abs(values)], values.size, p) / values.size) ** (1.0 / p)


def _check_two_level_nodes(nodes: int) -> None:
    """Refuse node counts that are odd, below 16 or beyond physical memory."""
    _validate_nodes(nodes)
    _check_memory(_two_level_bytes(nodes), f"nodes = {nodes}", "transform buffers")


# Bytes per node of the arrays of two_level_means, derived in _two_level_bytes.
_TRANSFORM_BYTES_PER_NODE = 8

# Rows per block of the row pass of two_level_means: each block is
# twiddled, transformed along its rows and reduced while it is in cache.
_ROW_BLOCK = 16

# Rows per group of the row pass whose twiddles _four_step forms at once
# and drops before the next group: 16 row blocks.
_TWIDDLE_ROWS = 16 * _ROW_BLOCK

# The residues s = l mod 8 of the node indices two_level_means transforms:
# 1 and 5 give the 2M-node level, 2 the M-node level.
_SLICES = (1, 5, 2)

# Signs of the real and imaginary parts of zeta^k = exp(-i pi k/4), k < 8;
# the parts are 0 or 1 in magnitude for even k and sqrt(1/2) for odd k.
_EIGHTH_ROOT_SIGNS = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))

# The parts themselves, (real, imaginary) per row k, with fl(sqrt(1/2)).
_EIGHTH_ROOTS = np.array(_EIGHTH_ROOT_SIGNS) * np.where(np.arange(8) % 2, math.sqrt(0.5), 1.0)[:, None]


def _two_level_bytes(nodes: int) -> int:
    """A bound on the peak bytes ``two_level_means`` allocates at M = ``nodes``.

    Arrays, in bytes per node.  The three slices run one after another in
    one buffer of L = M/2 complex numbers: 8 (``_TRANSFORM_BYTES_PER_NODE``).
    ``_fold`` reads the input a block at a time, in place, and scales
    pieces or stacks whole segments in a float64 scratch of at most
    ``_DIVIDE_BLOCK`` entries.  The row pass takes the magnitudes of one
    block of at most ``_ROW_BLOCK`` rows of length L2 into a float64
    temporary, 8 min(16, L1) L2 bytes.

    Twiddles: ``_table_bytes``, at every moment of a slice.

    FFT work.  numpy's pocketfft keeps a plan per transform length and a
    scratch per call, O(n) for a line of n points.  Measured with numpy
    2.4 as ``ru_maxrss`` growth in a fresh interpreter: 32 to 80 bytes per
    point for lengths with small factors, 224 for large primes (Bluestein),
    and under 1 MiB in all for short lines.  256 n + 2^20 bytes, n the
    longest line L2, bound it.  Lines are short: L2 is about sqrt(M/2)
    for a power of two M, and reaches M/2 only when M/2 is prime.
    """
    rows, cols = _split(nodes // 2)
    return (
        _TRANSFORM_BYTES_PER_NODE * nodes
        + 8 * _DIVIDE_BLOCK
        + 8 * min(_ROW_BLOCK, rows) * cols
        + _table_bytes(nodes)
        + 256 * cols
        + 2**20
    )


def _table_bytes(nodes: int) -> int:
    """A bound on the bytes of the twiddles of one slice, at every moment of it.

    Let L = M/2 = L1 L2 (``_split``), A = ceil(sqrt(L2)),
    B = ceil(L2/A) <= A and G = min(``_TWIDDLE_ROWS``, L1).  A ``_roots``
    call of E exponents holds its int64 exponents, q and r and its
    float64 angles (or, after r and the angles are freed, the 16 bytes
    per entry of the powers of -i): 32 E bytes besides its complex128
    output of 16 E.  ``np.cos`` writes the strided real and imaginary
    parts through numpy's ufunc buffers, at most 8192 (the default
    ``np.getbufsize()``) entries of 8 bytes for its input and for its
    output: 2^17 bytes.

    ``_level`` forms the column of L1 roots from int64 k1 and exponents,
    56 L1 bytes while ``_roots`` runs, and keeps the column and the int64
    row multipliers k, 24 L1, for the slice.  ``_four_step`` forms one
    group's tables at a time (``_product_tables``) and drops them before
    the next: while the G A-entry table is formed, 48 G A bytes and a
    range of A integers; while the G B-entry one is, that table's 16 G A
    and 48 G B bytes and two ranges of B integers.  Both are at most
    64 G A + 16 A.  So 24 L1 + max(32 L1, 64 G A + 16 A) + 2^17 bytes,
    plus 2^12 for the array and tuple headers, bound every moment: O(256
    sqrt(L2)) bytes, where the whole-run tables of every row were
    O(M^(3/4)).
    """
    rows, cols = _split(nodes // 2)
    width = math.isqrt(cols - 1) + 1
    group = 64 * min(_TWIDDLE_ROWS, rows) * width + 16 * width
    return 24 * rows + max(32 * rows, group) + 2**17 + 2**12


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


def _level(nodes: int, shift: int) -> tuple:
    """The twiddles of slice s = ``shift`` of ``two_level_means`` at M = ``nodes``.

    With L = M/2 = L1 L2: the shape (L1, L2), the pre-twiddle
    omega^(s L2 t1) as an (L1, 1) column, and the row multipliers
    k = 8 k1 + s of the middle twiddle omega^(t2 k), which ``_four_step``
    forms a group of rows at a time.
    """
    rows, cols = _split(nodes // 2)
    k1 = np.arange(rows)
    column = _roots(shift * cols * k1, nodes)[:, None]
    return (rows, cols), column, 8 * k1 + shift


def _four_step(buf: np.ndarray, k: np.ndarray, nodes: int) -> Iterator[tuple[int, int]]:
    """The DFT of the pre-twiddled (L1, L2) ``buf``, in place; see ``two_level_means``.

    The DFTs down the columns run first.  Then, for each group of
    ``_TWIDDLE_ROWS`` rows, the middle twiddle omega^(t2 k_i) of its rows
    is formed (``_product_tables``), each block of ``_ROW_BLOCK`` rows of
    the group is twiddled and transformed along its rows, and its row
    range (a, b) is yielded once rows a to b - 1 hold their output.  A
    group's tables are dropped before the next group's are formed.
    """
    np.fft.fft(buf, axis=0, out=buf)
    rows, cols = buf.shape
    for g in range(0, rows, _TWIDDLE_ROWS):
        low, high = _product_tables(k[g : g + _TWIDDLE_ROWS], cols, nodes)
        for a in range(g, min(g + _TWIDDLE_ROWS, rows), _ROW_BLOCK):
            b = min(a + _ROW_BLOCK, rows)
            block = buf[a:b]
            _twiddle(block, low[a - g : b - g], high[a - g : b - g])
            np.fft.fft(block, axis=1, out=block)
            yield a, b
        del low, high


def _fold(a: CoefficientBlocks, shift: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """w_r = sum_q zeta^(shift q) a_(r+qL) into the complex ``out`` of L entries, zeta = exp(-i pi/4).

    One pass over ``a``, each block cut at the multiples of L: segment q
    is entries qL to qL + L - 1.  The weight of segment q depends on
    q mod 8; its parts are 0, +-1 or, for odd ``shift`` and odd q,
    +-fl(sqrt(1/2)), the one inexact weight (``_EIGHTH_ROOTS``).

    The whole segments within a block are one (segments, L) view.  For
    each part, its rows of nonzero weight are taken into ``scratch``,
    in q order, times their weights, the current part is added to the
    first, and ``np.add.accumulate`` down the rows leaves the part in the
    last.  A piece of a segment at a block edge is added to or subtracted
    from each part by the signs of its weight (``_EIGHTH_ROOT_SIGNS``),
    after, for odd ``shift`` and odd q, it is scaled by fl(sqrt(1/2))
    into ``scratch``.  Either way each term is the product of the weight
    and the entry, exact or one rounding, and each w_r adds its terms one
    after another in the order of q, whatever the blocks of ``a``: an
    array and a source of the same coefficients fold to the same bits.
    ``scratch`` holds at least as many floats as the largest block.
    """
    half = out.size
    parts = (out.real, out.imag)
    out.view(np.float64)[...] = 0.0
    start = 0
    for block in a:
        lo = 0
        while lo < block.size:
            q, r = divmod(start + lo, half)
            count = (block.size - lo) // half if r == 0 else 0
            if count:
                rows = block[lo : lo + count * half].reshape(count, half)
                weights = _EIGHTH_ROOTS[shift * (q + np.arange(count)) % 8]
                for part, weight in zip(parts, weights.T):
                    chosen = np.flatnonzero(weight)
                    if chosen.size:
                        stack = scratch[: chosen.size * half].reshape(-1, half)
                        np.take(rows, chosen, axis=0, out=stack)
                        stack *= weight[chosen, None]
                        np.add(part, stack[0], out=stack[0])
                        np.add.accumulate(stack, axis=0, out=stack)
                        part[...] = stack[-1]
                lo += count * half
            else:
                piece = block[lo : min(block.size, lo + half - r)]
                if shift * q % 2:
                    piece = np.multiply(piece, math.sqrt(0.5), out=scratch[: piece.size])
                for sign, part in zip(_EIGHTH_ROOT_SIGNS[shift * q % 8], parts):
                    if sign:
                        part = part[r : r + piece.size]
                        (np.add if sign > 0 else np.subtract)(part, piece, out=part)
                lo += piece.size
        start += block.size


def _slice(
    coeffs: CoefficientBlocks, shift: int, nodes: int, buf: np.ndarray, scratch: np.ndarray
) -> Iterator[np.ndarray]:
    """Slice s = ``shift`` of ``two_level_means`` at M = ``nodes`` in ``buf``.

    Folds ``coeffs`` into ``buf`` (``_fold``), scales the rows of its
    (L1, L2) view by the pre-twiddle column of ``_level`` and runs
    ``_four_step`` on it, yielding each block of rows of the view once it
    holds its output: entry [k1, k2] is X_(8 (k1 + L1 k2) + s).
    """
    shape, column, k = _level(nodes, shift)
    _fold(coeffs, shift, buf, scratch)
    y = buf.reshape(shape)
    y *= column
    for lo, hi in _four_step(y, k, nodes):
        yield y[lo:hi]


def two_level_means(coeffs: np.ndarray | CoefficientBlocks, p: float, nodes: int) -> tuple[float, float]:
    """p-means of |f| at M = ``nodes`` and at 2M half-offset nodes, for real coefficients.

    Both levels are nodes exp(2 pi i l/4M): l = 4j + 2 for the M nodes,
    l odd for the 2M.  With omega = exp(-2 pi i/4M), |f| at the node of
    index l is |X_l| for X_l = sum_m a_m omega^(lm).  Let L = M/2, so
    omega^(8L) = 1, and write m = r + qL with r < L, and l = 8k + s with
    k < L.  Then omega^(8k(r+qL)) = e^(-2 pi i kr/L), so

        X_(8k+s) = sum_(r<L) e^(-2 pi i kr/L) omega^(sr) w_r,
        w_r = sum_q zeta^(sq) a_(r+qL),   zeta = omega^L = exp(-i pi/4):

    each residue s of l mod 8 is a DFT of length L, a slice, of
    omega^(sr) times the weighted fold w (``_fold``).  For real a,
    X_(4M-l) = conj(X_l), and 4M - l = -l (mod 8) pairs the residues
    1 and 7, 3 and 5, 2 and 6.  So the 2M odd l are the values of the
    slices s = 1 and 5 and their conjugates, and the mean of |f|^p over
    the M values of those two slices is the 2M-node level's; the M-node
    level, l = 2 or 6 (mod 8), is the slice s = 2 and its conjugate.  For
    s = 2 the weights (-i)^q are exactly +-1 and +-i; for s = 1 and 5 the
    weights of odd q are (+-1 +- i) sqrt(1/2).  M even makes L whole; M
    need not be a power of two.

    Four steps (Bailey, J. Supercomputing 4, 1990).  Let L = L1 L2
    (``_split``), t = L2 t1 + t2 and j = k1 + L1 k2 with t1, k1 < L1 and
    t2, k2 < L2.  Then e^(-2 pi i/L) = omega^8, and jt is
    k1 t1 L2 + k1 t2 + k2 t2 L1 plus a multiple of L, so

        sum_t omega^(s t) w_t e^(-2 pi i jt/L)
          = sum_(t2) e^(-2 pi i k2 t2/L2) omega^(t2 (8 k1 + s))
                sum_(t1) e^(-2 pi i k1 t1/L1) omega^(s L2 t1) w_(L2 t1 + t2).

    Entry [t1, t2] of the C-ordered view w.reshape(L1, L2) is
    w_(L2 t1 + t2).  So: scale row t1 by omega^(s L2 t1); take DFTs of
    length L1 down the columns (axis 0), giving entry [k1, t2]; scale
    entry [k1, t2] by omega^(t2 (8 k1 + s)); take DFTs of length L2 along
    the rows (axis 1), giving entry [k1, k2] = output j = k1 + L1 k2.  The
    pre-twiddle's factor omega^(s t2) is merged into the middle twiddle,
    which with t2 = a + A b is omega^(a (8 k1 + s)) omega^(A b (8 k1 + s)),
    two tables of A and B entries per row (``_product_tables``), formed
    for one group of ``_TWIDDLE_ROWS`` rows at a time (``_four_step``):
    O(256 sqrt(L2)) entries, see ``_table_bytes``.  Every output appears
    once in the array, so a mean over it needs no permutation.
    ``_roots`` gives omega^e at angles in [0, pi/2] times an exact power
    of -i, so a twiddle has the same bits whichever group forms it.

    Memory.  The slices run one after another in one buffer of L complex
    numbers, which ``_fold`` fills from the input read a block at a time.
    ``coeffs`` is a real array, which is served as views of itself
    (``CoefficientBlocks.of_array``) and never copied, or a
    ``CoefficientBlocks``, which is read once per slice.  The row
    pass works one block of ``_ROW_BLOCK`` rows at a time
    (``_four_step``), and each block's |Y| is raised to p and summed as
    soon as the block is transformed.  Each slice forms its own twiddles,
    the middle ones a group of ``_TWIDDLE_ROWS`` rows at a time, and
    nothing is cached between calls.

    Sums.  Each level is one ``_sum_of_powers``, the package's one sum of
    |x|^p, over the |Y| blocks of its slices: 1 and 5 (M values) for the
    2M-node level, 2 (M/2 values) for the M-node level.  Its
    ``exact_sum`` of the block sums makes their order irrelevant, and it
    refuses with ``ConditioningError``, as the l^q norms do, a largest
    |Y|^p below the normal range or a sum that could overflow.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if not isinstance(coeffs, CoefficientBlocks):
        a = np.asarray(coeffs)
        if np.iscomplexobj(a):
            raise ValueError("coeffs must be real")
        coeffs = CoefficientBlocks.of_array(a)
    _check_two_level_nodes(nodes)
    buf = np.empty(nodes // 2, dtype=np.complex128)
    scratch = np.empty(min(_DIVIDE_BLOCK, coeffs.size))

    def mags(*shifts: int) -> Iterator[np.ndarray]:
        return (np.abs(block) for shift in shifts for block in _slice(coeffs, shift, nodes, buf, scratch))

    fine = _sum_of_powers(mags(1, 5), nodes, p) / nodes
    coarse = _sum_of_powers(mags(2), nodes // 2, p) / (nodes // 2)
    return coarse ** (1.0 / p), fine ** (1.0 / p)


def lq_norm(f: TruncatedSeries, q: float) -> float:
    """(sum |a_n|^q)^(1/q); a quasi-norm when q < 1 (triangle fails)."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    return float(np.float64(_sum_of_powers([np.abs(f.coeffs)], f.coeffs.size, q)) ** (1.0 / q))


def _sum_of_powers(blocks: Iterable[np.ndarray], size: int, q: float) -> float:
    """sum mags^q over float64 blocks of magnitudes, ``size`` in all, each raised to q in place.

    The package's one sum of |x|^q: every l^q norm (``lq_norm``, the l^q
    convergence row) and every p-mean (``two_level_means``, ``_p_mean``)
    is this sum, and each caller takes its own root.

    With b = max mags and L = ``size``, the sum S lies in [b^q, L b^q].
    A term is computed within a few u = 2^-53 of itself, or within a few
    2^-1074 below 2^-1022.  So if b^q >= 2^-1022 = 2^52 2^-1074, then
    S >= 2^-1022 and the terms' errors add up to a few L u S, the order
    of the sum's own rounding.  If 0 < b^q < 2^-1022, the largest term is
    subnormal or 0 and S has lost its digits; if L b^q >= 2^1024, S can
    overflow.  Both raise ``ConditioningError``, tested as q log2 b < -1022
    and q log2 b + log2 L >= 1024.

    The overflow test runs before each block is raised to q, on the
    running max b' of the blocks so far.  b' <= b, and b' = b from the
    block that holds b on, so it fails before any power is taken exactly
    when the test on b fails.  The subnormal test needs b itself and runs
    after the last block.  Non-finite magnitudes pass through: the running
    max keeps a NaN (``np.maximum``), and neither test applies once it is
    not finite.  numpy sums each block, and ``exact_sum`` adds the block
    sums, exactly rounded.
    """
    big = 0.0
    sums = []
    for mags in blocks:
        big = float(np.maximum(big, np.max(mags, initial=0.0)))
        if 0.0 < big < math.inf and q * math.log2(big) + math.log2(size) >= 1024.0:
            _refuse_powers(q, q * math.log2(big))
        mags **= q
        sums.append(float(np.sum(mags)))
    if 0.0 < big < math.inf and q * math.log2(big) < -1022.0:
        _refuse_powers(q, q * math.log2(big))
    return exact_sum(sums)


def _refuse_powers(q: float, e: float) -> None:
    raise ConditioningError(f"the largest term |x|^{q:g} = 2^{e:.6g} is outside the normal range of a sum of powers")


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
    """max_j |f| over the half-offset nodes (the p -> infinity limit); warns as ``hp_norm_estimate`` does."""
    return float(np.max(np.abs(_sampled_boundary(f, nodes))))


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
    ``hp_norm_estimate`` does when the nodes undersample h.  The right
    side's p-mean is one ``_sum_of_powers``, so a largest |h|^p below
    the normal range, or a sum of them that could overflow, raises
    ``ConditioningError`` as the l^q norms do.

    At node j of M, |1 - z_j| = 2 sin(pi (j + 1/2)/M).  Memory: the
    node values (``boundary_values``, charged ``_two_level_bytes(M) +
    16 M`` bytes) are dropped once their magnitudes are taken, and the
    rest works in place on the magnitudes and on one more array of M
    floats at a time (the p-mean's powers, then the closed form): 16 M
    bytes besides the transform's charge, checked with it before
    anything is allocated.
    """
    _check_reverse_holder(p, q)
    nodes = _node_count(h, nodes)
    _check_memory(_two_level_bytes(nodes) + 32 * nodes, f"nodes = {nodes}", "transform buffers and node arrays")
    mags = np.abs(_sampled_boundary(h, nodes))
    rhs = reverse_holder_constant(p, q) * _p_mean(mags, p)
    base = abs(exact_sum(h.coeffs)) ** q
    sing = np.arange(0.5, nodes)
    sing *= math.pi / nodes
    np.sin(sing, out=sing)
    sing *= 2.0
    sing **= -q
    mags **= q
    mags -= base
    mags *= sing
    integral = base * circle_abs_power_integral(-q) + float(np.mean(mags))
    lhs = max(integral, 0.0) ** (1.0 / q)
    return lhs, rhs
