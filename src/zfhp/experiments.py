"""Convergence experiments, their records, manifests and CSV output.

Runners:

* ``run_lq_convergence``: l^q distance of sum_{k=2..n} mu(k) (I - S) h_k
  from 1 - z, with a proved Minkowski bound on the truncated tail.
* ``run_hp_convergence``: H^p quasi-norm distance of sum mu(k) h_k from 1
  for 0 < p < 1, with quadrature-refinement control.
* ``run_lambda_sweep``: residuals of the identity Lambda^(s)(h_k) = G_k(s),
  with h_k truncated and the functional evaluated in closed form, against
  a proved tail bound plus derived rounding and zeta budgets.
* ``run_pointwise_approx``: residuals of sum mu(k) G_k(s) against -1/s,
  each with a proved bound, by the weighted Mertens recursion in
  O(n^(2/3)) from a Möbius table to about n^(2/3).
* ``run_mellin_verify``: the Mellin transform of the step function p_k,
  integrated piece by piece, against the closed form f_k(s), with a
  rounding bound proved from k and s.
* ``run_weights_classify``, ``run_weights_probe``: the strip of each
  weight family and the extremal ratio trace (``zfhp.weights``), the
  family and subsequence given as the text the CLI takes.
* ``run_zeta``: zeta(s) with its proved absolute error bound.

Every record carries its coefficient cutoff and, where applicable, a tail
bound, so no number leaves this module without its truncation context.
A manifest (parameters + code version) fully determines a run.
``EXPERIMENTS`` holds each experiment's runner and CSV writer, one entry
per name; ``rerun`` is the one dispatch from a manifest to its runner, the
CLI included, and each runner takes exactly its manifest's parameters.
No parameter sizes a Möbius table: the l^q and H^p runners sieve one to
their largest n.
Values reproduce bit for bit on one platform, wall times of course do not.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._version import __version__
from .arith import _WALK_BYTES, MobiusTable, _check_memory, _sieve_bytes, _walk_sum, build_mobius, mobius_sum_over_k
from .errors import DomainError
from .functionals import approx_reciprocal_s_partial_sums, lambda_hk_truncated
from .norms import (
    QuadratureWarning,
    _check_two_level_nodes,
    _sum_of_powers,
    _two_level_bytes,
    _undersampling,
    two_level_means,
)
from .series import _ROUNDING_FACTOR, CoefficientBlocks, _check_checkpoints, _kernel_bytes, mobius_ims_partial_sums
from .special import (_SLACK, _U, ZetaValue, _check_zeta_range, _g_k_given_zeta, _mellin_step_pk_bound,
                      f_k, g_k_error_bound, lambda_on_constant, mellin_step_pk, zeta)
from .weights import (ClassificationResult, ProbeResult, classify, extremal_probe, parse_subsequence,
                      parse_weight_family)

__all__ = [
    "ConvergenceRecord",
    "LambdaRecord",
    "ApproxRecord",
    "MellinRecord",
    "ExperimentManifest",
    "build_manifest",
    "rerun",
    "EXPERIMENTS",
    "run_lq_convergence",
    "lq_tail_bound",
    "run_hp_convergence",
    "run_lambda_sweep",
    "run_pointwise_approx",
    "run_mellin_verify",
    "run_weights_classify",
    "run_weights_probe",
    "run_zeta",
    "write_convergence_csv",
    "write_lambda_csv",
    "write_approx_csv",
    "write_mellin_csv",
    "write_weights_csv",
    "write_probe_csv",
    "write_manifest",
]


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    norm_kind: str
    param: float
    coeff_cutoff: int
    value: float
    tail_bound: float | None
    wall_time_ms: int


@dataclass(frozen=True)
class LambdaRecord:
    k: int
    s: complex
    residual: float
    tail_bound: float
    passed: bool


@dataclass(frozen=True)
class ApproxRecord:
    s: complex
    n: int
    residual: float
    bound: float


@dataclass(frozen=True)
class MellinRecord:
    k: int
    s: complex
    abs_err: float
    bound: float
    ok: bool


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, from CPython's built-in SHA-256.

    ``hashlib`` maps OpenSSL's libcrypto, about 3.7 MB of resident set
    that no command needs.  ``_sha2`` (CPython 3.12 on) and ``_sha256``
    (3.10 and 3.11) give the same digest without it, as CPython's own
    ``random`` loads ``_sha512``; ``hashlib`` is the fallback where
    neither exists.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


@dataclass(frozen=True)
class ExperimentManifest:
    """Everything needed to reproduce a run: name, parameters, seed, version.

    ``manifest_id`` is the first 12 hex digits of the SHA-256 of
    ``canonical_json``, hashed by ``_sha256_hex``, so no command loads
    OpenSSL.
    """

    experiment: str
    parameters: dict
    seed: int | None = None
    version: str = field(default=__version__)

    def canonical_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def manifest_id(self) -> str:
        return _sha256_hex(self.canonical_json().encode())[:12]


def build_manifest(experiment: str, seed: int | None = None, **parameters) -> ExperimentManifest:
    """The manifest of ``experiment`` run with ``parameters``.

    JSON has no complex numbers: a complex value, or each complex item of a
    list, is stored as its ``[re, im]`` pair, which ``rerun`` turns back.
    """
    def pair(v):
        return [v.real, v.imag] if isinstance(v, complex) else v

    stored = {k: [pair(x) for x in v] if isinstance(v, list) else pair(v) for k, v in parameters.items()}
    return ExperimentManifest(experiment=experiment, parameters=stored, seed=seed)


def rerun(manifest: ExperimentManifest):
    """Re-execute the run a manifest describes, returning its records.

    The runner is the manifest's ``EXPERIMENTS`` entry, called with the
    manifest parameters its signature names, the ``[re, im]`` pairs of
    ``s`` and ``s_grid`` as complex numbers.  A parameter it does not name
    is ignored, so an old sidecar that still carries one, such as
    ``mobius_limit`` or ``tol``, reruns.  An unknown experiment raises
    ``ValueError``.
    """
    if manifest.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {manifest.experiment!r}")
    runner = EXPERIMENTS[manifest.experiment][0]
    args = {name: manifest.parameters[name] for name in inspect.signature(runner).parameters}
    if "s" in args:
        args["s"] = complex(*args["s"])
    if "s_grid" in args:
        args["s_grid"] = [complex(*s) for s in args["s_grid"]]
    return runner(**args)


def _check_grid(s_grid: Iterable[complex]) -> list[complex]:
    grid = [complex(s) for s in s_grid]
    if not grid:
        raise ValueError("s_grid must not be empty")
    for s in grid:
        if s.real <= 0.5:
            raise DomainError(
                f"s = {s} rejected: need Re(s) > 1/2, where the evaluation functionals "
                "are bounded on the Hardy-Hilbert space of the disk"
            )
        if abs(s - 1.0) < 1e-12:
            raise DomainError("s = 1 rejected: zeta pole")
        _check_zeta_range(s)
    return grid


def _convergence_records(
    norm_kind: str, param: float, n_list: Sequence[int], coeff_cutoff: int,
    row: Callable[[int, CoefficientBlocks, MobiusTable], tuple[float, float]], warning: str | None = None,
    row_memory: int = 0,
) -> list[ConvergenceRecord]:
    """One record per n of ``row(n, coeffs, table) -> (value, tail_bound)``.

    ``n_list`` and the cutoff are checked first, the kernel's buffers
    against physical memory included (``series._check_checkpoints``).
    ``row_memory`` is the bytes of the buffers ``row`` allocates besides
    the kernel's.  Then everything the run holds at once is checked as one
    sum: the Möbius table to the largest n and its sieve segments
    (``arith.build_mobius``), one block of the blocked exact sums over k
    and d <= n (``arith._WALK_BYTES``, taken by ``mobius_sum_over_k``, its
    log companion and ``lq_tail_bound``), the kernel's buffers and
    ``row_memory``.
    Only then is ``table`` sieved, to the largest n and no further.  n
    must stay below 2^31, the cap of ``build_mobius``.
    ``coeffs`` is ``mobius_ims_partial_sums`` at n, a ``CoefficientBlocks``;
    a record's wall time covers the kernel's advance to n and the row.
    ``row`` may read ``coeffs`` in as many passes as it needs and modify
    each block in place, and must be done with it when it returns, because
    the next advance changes it.  ``warning``, if any, is issued as a
    ``QuadratureWarning`` once every argument has passed.
    """
    ns = [int(n) for n in n_list]
    top = max(ns, default=0)
    if coeff_cutoff < top:
        raise ValueError("coeff_cutoff must be >= max(n_list)")
    if top >= 2**31:
        raise ValueError(f"n = {top} too large: the Möbius table needs n < 2^31")
    _check_checkpoints(ns, coeff_cutoff)
    need = top + 1 + _sieve_bytes(top) + _WALK_BYTES + _kernel_bytes(coeff_cutoff) + row_memory
    _check_memory(need, f"n = {top} with coeff_cutoff = {coeff_cutoff}",
                  "Möbius table, sieve segments, partial-sum and row buffers")
    table = build_mobius(top)
    partial_sums = mobius_ims_partial_sums(ns, coeff_cutoff, table)
    if warning:
        warnings.warn(warning, QuadratureWarning, stacklevel=3)
    records: list[ConvergenceRecord] = []
    t_mark = time.perf_counter()
    for n, coeffs in zip(ns, partial_sums):
        value, tail = row(n, coeffs, table)
        now = time.perf_counter()
        ms = int(round((now - t_mark) * 1000.0))
        records.append(ConvergenceRecord(n, norm_kind, param, coeff_cutoff, value, tail, ms))
        t_mark = now
    return records


def lq_tail_bound(q: float, n: int, coeff_cutoff: int, table: MobiusTable) -> float:
    """Proved bound on the l^q norm of the residual coefficients beyond the cutoff.

    Statement.  With N = coeff_cutoff, 2 <= n <= N < 2^53 and q > 1, the
    residual sum_{k=2..n} mu(k) (I - S) h_k - (1 - z) has the coefficients
    w_j = (c_n - D_j(n))/j for j > N, where c_n = sum_{k=2..n} mu(k)/k and
    D_j(n) = sum_{d | j, 2 <= d <= n} mu(d).  The returned value is at
    least (sum_{j>N} |w_j|^q)^(1/q).  It is finite for every q > 1, costs
    O(n) and needs no divisor table.  The sum over d is walked in blocks
    (``arith._walk_sum``), so it holds no array as long as n, and an n
    beyond ``table`` is refused before the walk.

    Proof.  Write w = c_n e - sum_d mu(d) e_d with e_j = 1/j and
    (e_d)_j = [d | j]/j, over squarefree 2 <= d <= n.  Minkowski's
    inequality on l^q(j > N) gives

        ||w|| <= |c_n| ||e|| + sum_d ||e_d||.

    The multiples of d beyond N are j = d i with i > M_d = floor(N/d), and
    M_d >= 1 because d <= n <= N, so ||e_d||^q = d^-q sum_{i>M_d} i^-q.
    For M >= 1, sum_{i>M} i^-q <= int_M^inf x^-q dx = M^(1-q)/(q-1),
    since i^-q <= x^-q on [i - 1, i].  With r = 1 - 1/q and
    A = (q - 1)^(-1/q) this yields the exact bound

        B = A (|c_n| N^-r + sum_d M_d^-r / d).

    Rounding.  u = 2^-53; N, M_d and d are exact doubles; +, -, *, / and
    the int-to-float conversions are correctly rounded; ``exact_sum`` is
    exactly rounded (the lemma of ``arith.exact_sum``); ``pow`` (libm or
    numpy) is within 4 ulp, a relative error of at most 8u.  L = ln N < 36.8
    bounds ln M_d and ln n.
      1. r~ = fl(1 - fl(1/q)) has |r~ - r| <= 2u, so for 1 <= M <= N,
         M^-r <= M^-r~ e^(2uL) <= (1 + 74u) M^-r~.
      2. A~ = pow(fl(q - 1), -fl(1/q)): the input error (1 + u)^(1/q),
         the exponent error e^(u |ln(q - 1)|/q) with q - 1 >= 2^-52, and
         pow give A <= (1 + 48u) A~.
      3. Each term t~_d = fl(pow(M_d, -r~)/d) and P~ = pow(N, -r~) give,
         with 1., M_d^-r/d <= (1 + 84u) t~_d and N^-r <= (1 + 83u) P~;
         their exactly rounded sum S~ (``exact_sum``) keeps
         sum_d M_d^-r/d <= (1 + 86u) S~.
      4. c~ = fl(mobius_sum_over_k(n) - 1) carries the rounding of each
         term mu(k)/k, |c_n| <= (1 + 3u)(|c~| + u) + u ln n.  The
         additive part is at most u (L + 2) P~ <= 2u (L + 2) S~ <= 80u S~,
         since the d = 2 term alone makes S~ >= P~/2 (1 - 20u).
      5. X~ = fl(fl(|c~| P~) + S~) then satisfies
         |c_n| N^-r + sum_d M_d^-r/d <= (1 + 170u) X~, and B~ = fl(A~ X~)
         satisfies B <= (1 + 220u) B~.
    The returned fl(B~ F), F = 1 + 2^-40 = 1 + 8192u, is at least
    B~ (1 + 8192u)(1 - u) >= (1 + 220u) B~ >= B.  []
    """
    if not 1.0 < q < math.inf:
        raise ValueError("q must be finite and > 1")
    if not 2 <= n <= coeff_cutoff < 2**53:
        raise ValueError("need 2 <= n <= coeff_cutoff < 2^53")
    c_n = abs(mobius_sum_over_k(table, n) - 1.0)  # refuses n beyond the table first
    inv_q = 1.0 / q
    r = 1.0 - inv_q

    def terms(lo: int, j: np.ndarray) -> np.ndarray:
        d = j[table.values[lo : lo + j.size] != 0]  # the squarefree d, exact floats
        return (coeff_cutoff // d) ** -r / d

    s = _walk_sum(terms, n, start=2)
    x = c_n * math.pow(coeff_cutoff, -r) + s
    return math.pow(q - 1.0, -inv_q) * x * _ROUNDING_FACTOR


def run_lq_convergence(
    q: float, n_list: Sequence[int], coeff_cutoff: int
) -> list[ConvergenceRecord]:
    """l^q residual of the Möbius partial sums against 1 - z, per truncation n.

    The partial sums come from the closed-form kernel
    ``mobius_ims_partial_sums``, advanced from one checkpoint to the next,
    so a sweep costs O(N log n) for N = coeff_cutoff.  Each record carries
    the proved tail bound ``lq_tail_bound`` on the coefficients beyond N.
    The norm is taken in one pass over the kernel's blocks, each reduced
    in place to its sum of |r|^q (``norms._sum_of_powers``), so the row
    holds the kernel's divisor sums, 1 byte per coefficient below
    coeff_cutoff 9,699,690 and 2 from it, and its block buffers
    (``series._kernel_bytes``), and no array of coeff_cutoff + 1 floats.
    q must be finite and exceed 1.  Trends should be read across decades
    of n, not adjacent values: the Möbius fluctuations make pointwise
    monotonicity false.
    """
    if not 1.0 < q < math.inf:
        raise ValueError("q must be finite and > 1")

    def row(n: int, residual: CoefficientBlocks, table: MobiusTable) -> tuple[float, float]:
        value = float(np.float64(_sum_of_powers(_distance_magnitudes(residual), residual.size, q)) ** (1.0 / q))
        # value is finite exactly when the sum of the nonnegative |r_m|^q
        # is, and that sum is finite only if every term is
        if not math.isfinite(value):
            raise ValueError("all coefficients must be finite")
        return value, lq_tail_bound(q, n, coeff_cutoff, table)

    # The row allocates nothing that grows with the cutoff.
    return _convergence_records("lq", q, n_list, coeff_cutoff, row)


def _distance_magnitudes(residual: CoefficientBlocks) -> Iterator[np.ndarray]:
    """|r_m - t_m| in place, block by block, for the coefficients t = (1, -1) of the target 1 - z."""
    for i, block in enumerate(residual):
        if i == 0:
            block[0] -= 1.0
            block[1] += 1.0
        yield np.abs(block, out=block)


def run_hp_convergence(
    p: float,
    n_list: Sequence[int],
    coeff_cutoff: int,
    nodes: int,
) -> list[ConvergenceRecord]:
    """H^p quasi-norm of sum_{k=2..n} mu(k) h_k - 1 for 0 < p < 1.

    The coefficients are the running sums (h_k = (I - S)^-1 (I - S) h_k)
    of the closed-form kernel ``mobius_ims_partial_sums``, formed in place
    block by block, at each of the transform's passes (``_running_sums``).
    Both quadrature levels, ``nodes`` and 2 ``nodes`` half-offset nodes,
    come from three DFTs per checkpoint, each of ``nodes``/2 points, that
    compute only the spectrum the means read (``norms.two_level_means``).
    Each DFT is a four-step FFT on a 2-D view of one shared buffer of
    ``nodes``/2 complex numbers: batched short transforms down the
    columns, a separable twiddle, batched short transforms along the rows.
    Each record's ``tail_bound`` column carries the quadrature refinement
    discrepancy |value at nodes - value at 2 nodes|: the truncation tail
    has no usable closed-form bound on the boundary, so the refinement
    control is the honest error indicator here.

    Memory is checked before anything is allocated: ``nodes`` (even,
    >= 16) with its transform buffers on their own
    (``norms._two_level_bytes``), the kernel's divisor sums (1 byte per
    coefficient below coeff_cutoff 9,699,690, 2 from it) and block buffers
    on their own (``series._kernel_bytes``), then both with the Möbius
    table as one sum, since the row holds all of them while it
    transforms.  No array of coeff_cutoff + 1 floats exists.  A
    node count below coeff_cutoff + 1 undersamples the series; once every
    argument has passed, the run then warns once (``QuadratureWarning``)
    and the records are computed as usual.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    _check_two_level_nodes(nodes)

    def row(n: int, residual: CoefficientBlocks, table: MobiusTable) -> tuple[float, float]:
        coeffs = CoefficientBlocks(residual.size, functools.partial(_running_sums, residual))
        value, refined = two_level_means(coeffs, p, nodes)
        return value, abs(value - refined)

    warning = _undersampling(nodes, coeff_cutoff)
    return _convergence_records("hp", p, n_list, coeff_cutoff, row, warning, _two_level_bytes(nodes))


def _running_sums(residual: CoefficientBlocks) -> Iterator[np.ndarray]:
    """One pass of the running sums of ``residual``, minus 1 at m = 0, in place, block by block.

    Each block starts from the last sum of the one before, ``carry``:
    with r[0] += carry, ``np.cumsum`` adds the terms in the order a
    cumsum of the whole array does, so every sum is the same float.  The
    1 of the target is subtracted after the carry is read.
    """
    carry = 0.0
    for i, block in enumerate(residual):
        if i:
            block[0] += carry
        np.cumsum(block, out=block)
        carry = float(block[-1])
        if i == 0:
            block[0] -= 1.0
        yield block


# Bytes per record, checked before a list of k is built or read: per (k, s)
# of lambda, a GeneratorEvaluation and a LambdaRecord (an object and its
# attribute dict, about 150 bytes each, a complex and floats) and their list
# slots, under 512 (tracemalloc: 346); per k, its int, list slot and
# manifest JSON text, under 64; per k of mellin verify, a MellinRecord, two
# floats and slots, under 256 (tracemalloc: 194).
_LAMBDA_PAIR_BYTES, _K_BYTES, _MELLIN_K_BYTES = 512, 64, 256


def _record_bytes(k_count: int, grid_size: int | None = None) -> int:
    """Bytes of the records of ``run_lambda_sweep`` over ``grid_size`` points s, or of ``run_mellin_verify``."""
    if grid_size is None:
        return k_count * (_MELLIN_K_BYTES + _K_BYTES)
    return k_count * (_LAMBDA_PAIR_BYTES * grid_size + _K_BYTES)


def _check_record_memory(k_count: int, subject: str, grid_size: int | None = None) -> None:
    """Refuse ``k_count`` values of k whose records (``_record_bytes``) exceed physical memory.

    The CLI calls this on the ``--k`` range before it becomes a list, and
    ``run_lambda_sweep`` and ``run_mellin_verify`` on their ``k_list``
    before any record is built.
    """
    buffers = "mellin records" if grid_size is None else "lambda records"
    _check_memory(_record_bytes(k_count, grid_size), subject, buffers)


def run_lambda_sweep(
    k_list: Sequence[int],
    s_grid: Iterable[complex],
    coeff_cutoff: int,
) -> list[LambdaRecord]:
    """Residuals |Lambda^(s)(h_k) - G_k(s)| with pass flags, k-major order.

    Lambda^(s) is applied to h_k truncated at N = coeff_cutoff by the
    closed form ``lambda_hk_truncated``: one pass over j^(-s) per s and
    O(1) work per (k, s), no coefficient table.  ``tail_bound`` is the
    proved truncation bound from the envelope ``hk_coefficient_envelope``.
    A record passes when

        residual <= tail_bound + R + Z,

    with R the closed form's rounding bound and Z = ``g_k_error_bound``,
    which carries the proved ``error_bound`` of zeta(s) and the rounding
    of G_k(s); each bounds its part of |value - G_k(s)|, so a failure
    contradicts the identity.

    Grid points must satisfy Re(s) > 1/2 (the functionals are bounded on
    the underlying Hardy-Hilbert space only there), s != 1 (pole) and
    |s| <= 2^20 (the range of ``zeta``); like the memory of the records
    (``_check_record_memory``), these are checked before any buffer is
    built.  The closed form walks j <= coeff_cutoff in blocks, so its
    memory does not grow with the cutoff, which must be below 2^53.
    """
    grid = _check_grid(s_grid)
    _check_record_memory(len(k_list), f"k_list of {len(k_list)} values", len(grid))
    records: list[LambdaRecord] = []
    evaluations = lambda_hk_truncated(k_list, grid, coeff_cutoff)
    zetas = {s: zeta(s) for s in dict.fromkeys(grid)}
    for ev in evaluations:
        z = zetas[ev.s]
        g = _g_k_given_zeta(ev.k, ev.s, z.value)
        residual = abs(ev.value - g)
        budget = ev.tail_bound + ev.rounding_bound + g_k_error_bound(ev.k, ev.s, g, z.error_bound)
        records.append(
            LambdaRecord(
                k=ev.k,
                s=ev.s,
                residual=residual,
                tail_bound=ev.tail_bound,
                passed=residual <= budget * _ROUNDING_FACTOR,
            )
        )
    return records


def run_pointwise_approx(s_grid: Iterable[complex], n_list: Sequence[int]) -> list[ApproxRecord]:
    """Residuals |sum_{k=2..n} mu(k) G_k(s) + 1/s| over the n sweep, s-major order, each with its bound.

    ``approx_reciprocal_s_partial_sums`` serves the whole grid from one
    Möbius sieve to about (max n)^(2/3): each n <= that limit reads the
    weighted prefix-sum tables, and each larger n comes from the weighted
    Mertens recursion in O(n^(2/3)).  Each n must lie in 2..2^53 - 1.

    ``bound`` >= |residual - |sum + 1/s||.  The value is within its bound B
    of the sum (proved there, with the ``error_bound`` of zeta(s));
    -1/s is within 8u/|s|, and the subtraction and the modulus add at most
    u and 2u of the residual, so the returned fl((B + 8u/|s| + 4u
    residual) ``_SLACK``) is a bound, u = 2^-53.  Reporting only:
    convergence is not asserted for Re(s) <= 1.
    """
    grid = _check_grid(s_grid)
    ns = [int(n) for n in n_list]
    values = approx_reciprocal_s_partial_sums(ns, grid)
    records: list[ApproxRecord] = []
    for s, row in zip(grid, values):
        target = lambda_on_constant(s)
        for n, (v, b) in zip(ns, row):
            residual = abs(v - target)
            records.append(ApproxRecord(s, n, residual, (b + 8 * _U / abs(s) + 4 * _U * residual) * _SLACK))
    return records


def run_mellin_verify(k_list: Sequence[int], s: complex) -> list[MellinRecord]:
    """|M[p_k](s) - f_k(s)| per k (``mellin_step_pk``), ok when at most its bound.

    ``bound`` is B(k, s) of ``special._mellin_step_pk_bound``: while both
    values are within their proved rounding of f_k(s), the computed
    difference is at most B, so ok = false contradicts the identity.
    Every k is checked against the range of that proof, and the records
    against physical memory (``_check_record_memory``), before any value is
    computed.
    """
    if not k_list:
        raise ValueError("k_list must not be empty")
    _check_record_memory(len(k_list), f"k_list of {len(k_list)} values")
    bounds = [_mellin_step_pk_bound(k, s) for k in k_list]
    errs = [abs(mellin_step_pk(k, s) - f_k(k, s)) for k in k_list]
    return [MellinRecord(k, s, err, b, err <= b) for k, err, b in zip(k_list, errs, bounds)]


def run_weights_classify(families: Sequence[str]) -> list[ClassificationResult]:
    """The strip of each family, given as ``parse_weight_family`` text (``weights.classify``)."""
    return [classify(parse_weight_family(text)) for text in families]


def run_weights_probe(family: str, r: float, subsequence: str, count: int) -> ProbeResult:
    """``weights.extremal_probe`` of a family and subsequence given as text (``parse_subsequence``)."""
    return extremal_probe(parse_weight_family(family), r, parse_subsequence(subsequence), count)


def run_zeta(s: complex) -> ZetaValue:
    """zeta(s) with its proved absolute ``error_bound`` (``special.zeta``)."""
    return zeta(s)


# ----------------------------------------------------------------------------
# CSV output.  Floats are written with repr (shortest round-trip form), rows
# end with "\n", so identical records serialize to identical bytes.


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_rows(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])


def write_convergence_csv(records: Sequence[ConvergenceRecord], out: TextIO) -> None:
    _write_rows(
        out,
        ("n", "norm_kind", "param", "coeff_cutoff", "value", "tail_bound", "wall_time_ms"),
        (
            (r.n, r.norm_kind, r.param, r.coeff_cutoff, r.value, r.tail_bound, r.wall_time_ms)
            for r in records
        ),
    )


def write_lambda_csv(records: Sequence[LambdaRecord], out: TextIO) -> None:
    _write_rows(
        out,
        ("k", "s_re", "s_im", "residual", "tail_bound", "pass"),
        ((r.k, r.s.real, r.s.imag, r.residual, r.tail_bound, r.passed) for r in records),
    )


def write_approx_csv(records: Sequence[ApproxRecord], out: TextIO) -> None:
    _write_rows(
        out,
        ("s_re", "s_im", "n", "residual", "bound"),
        ((r.s.real, r.s.imag, r.n, r.residual, r.bound) for r in records),
    )


def write_mellin_csv(records: Sequence[MellinRecord], out: TextIO) -> None:
    rows = ((r.k, r.s.real, r.s.imag, r.abs_err, r.bound, r.ok) for r in records)
    _write_rows(out, ("k", "s_re", "s_im", "abs_err", "bound", "ok"), rows)


def write_weights_csv(results: Sequence[ClassificationResult], out: TextIO) -> None:
    _write_rows(
        out,
        ("family", "params", "c4_r", "rm_bounded", "strip"),
        (
            (
                r.family.kind,
                r.family.params,
                r.c4_halfplane,
                r.easy_c3_bounded_rm,
                r.strip,
            )
            for r in results
        ),
    )


def write_probe_csv(result: ProbeResult, out: TextIO) -> None:
    cmin = result.cumulative_min()
    cmax = result.cumulative_max()
    _write_rows(
        out,
        ("i", "n", "ratio", "running_min", "running_max"),
        (
            (i + 1, int(result.indices[i]), float(result.ratios[i]), float(cmin[i]), float(cmax[i]))
            for i in range(result.indices.size)
        ),
    )


def write_manifest(manifest: ExperimentManifest, out: TextIO) -> None:
    payload = json.loads(manifest.canonical_json())
    payload["id"] = manifest.manifest_id
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# Each experiment's runner and CSV writer (None: the command prints its
# result instead).  ``rerun`` and the CLI read an experiment from here.
EXPERIMENTS: dict[str, tuple[Callable, Callable | None]] = {
    "lq_convergence": (run_lq_convergence, write_convergence_csv),
    "hp_convergence": (run_hp_convergence, write_convergence_csv),
    "lambda_sweep": (run_lambda_sweep, write_lambda_csv),
    "pointwise_approx": (run_pointwise_approx, write_approx_csv),
    "mellin_verify": (run_mellin_verify, write_mellin_csv),
    "weights_classify": (run_weights_classify, write_weights_csv),
    "weights_table1": (run_weights_classify, write_weights_csv),
    "weights_probe": (run_weights_probe, write_probe_csv),
    "zeta": (run_zeta, None),
}
