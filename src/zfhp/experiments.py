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

Every record carries its coefficient cutoff and, where applicable, a tail
bound, so no number leaves this module without its truncation context.
A manifest (parameters + code version) fully determines a run: ``rerun``
is the one dispatch from a manifest to its runner, the CLI included, and
each runner takes exactly its manifest's parameters.  No parameter sizes a
Möbius table: the l^q and H^p runners sieve one to their largest n.
Values reproduce bit for bit on one platform, wall times of course do not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from ._version import __version__
from .arith import MobiusTable, _check_memory, build_mobius, exact_sum, mobius_sum_over_k
from .errors import DomainError
from .functionals import approx_reciprocal_s_partial_sums, lambda_hk_truncated
from .norms import (
    QuadratureWarning,
    _check_two_level_nodes,
    _lq_of_magnitudes,
    _two_level_bytes,
    _undersampling,
    two_level_means,
)
from .series import _check_checkpoints, _kernel_bytes, mobius_ims_partial_sums
from .special import (_SLACK, _U, _check_zeta_range, _g_k_given_zeta, _mellin_step_pk_bound, f_k,
                      g_k_error_bound, lambda_on_constant, mellin_step_pk, zeta)
from .weights import ClassificationResult, ProbeResult

__all__ = [
    "ConvergenceRecord",
    "LambdaRecord",
    "ApproxRecord",
    "MellinRecord",
    "ExperimentManifest",
    "build_manifest",
    "rerun",
    "run_lq_convergence",
    "lq_tail_bound",
    "run_hp_convergence",
    "run_lambda_sweep",
    "run_pointwise_approx",
    "run_mellin_verify",
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


@dataclass(frozen=True)
class ExperimentManifest:
    """Everything needed to reproduce a run: name, parameters, seed, version."""

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
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def build_manifest(experiment: str, seed: int | None = None, **parameters) -> ExperimentManifest:
    return ExperimentManifest(experiment=experiment, parameters=parameters, seed=seed)


def rerun(manifest: ExperimentManifest):
    """Re-execute the run a manifest describes, returning its records."""
    p = manifest.parameters
    name = manifest.experiment
    if name == "lq_convergence":
        return run_lq_convergence(p["q"], p["n_list"], p["coeff_cutoff"])
    if name == "hp_convergence":
        return run_hp_convergence(p["p"], p["n_list"], p["coeff_cutoff"], p["nodes"])
    if name == "lambda_sweep":
        grid = [complex(re, im) for re, im in p["s_grid"]]
        return run_lambda_sweep(p["k_list"], grid, p["coeff_cutoff"])
    if name == "pointwise_approx":
        grid = [complex(re, im) for re, im in p["s_grid"]]
        return run_pointwise_approx(grid, p["n_list"])
    if name == "mellin_verify":
        return run_mellin_verify(p["k_list"], complex(*p["s"]))
    raise ValueError(f"unknown experiment {name!r}")


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
    row: Callable[[int, np.ndarray, MobiusTable], tuple[float, float]], warning: str | None = None,
    row_memory: tuple[int, str] | None = None,
) -> list[ConvergenceRecord]:
    """One record per n of ``row(n, coeffs, table) -> (value, tail_bound)``.

    ``n_list`` and the cutoff are checked first, the kernel's buffers
    against physical memory included (``series._check_checkpoints``).
    ``row_memory``, if any, is (bytes, name) of the buffers ``row``
    allocates besides the kernel's; then the kernel's bytes and these are
    checked as one sum.  Only then is ``table`` sieved, to the largest n
    and no further.  n must stay below 2^31, the cap of ``build_mobius``.
    ``coeffs`` is ``mobius_ims_partial_sums`` at n; a record's wall time
    covers the kernel's advance to n and the row.  ``coeffs`` is the kernel's one
    output buffer, the same array at every n: ``row`` may overwrite it, and
    must be done with it when it returns, because the next advance
    overwrites it.  ``warning``, if any, is issued as a
    ``QuadratureWarning`` once every argument has passed.
    """
    ns = [int(n) for n in n_list]
    top = max(ns, default=0)
    if coeff_cutoff < top:
        raise ValueError("coeff_cutoff must be >= max(n_list)")
    if top >= 2**31:
        raise ValueError(f"n = {top} too large: the Möbius table needs n < 2^31")
    _check_checkpoints(ns, coeff_cutoff)
    if row_memory:
        need, name = row_memory
        _check_memory(_kernel_bytes(coeff_cutoff) + need, f"coeff_cutoff = {coeff_cutoff}",
                      f"partial-sum buffers and {name}")
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


# 1 + 2^-40 covers the relative rounding error of lq_tail_bound (at most
# 220 u, u = 2^-53, derived in its docstring) and that of a residual and
# its budget in run_lambda_sweep (under 8 u) with a wide margin.
_TAIL_ROUNDING_FACTOR = 1.0 + 2.0**-40


def lq_tail_bound(q: float, n: int, coeff_cutoff: int, table: MobiusTable) -> float:
    """Proved bound on the l^q norm of the residual coefficients beyond the cutoff.

    Statement.  With N = coeff_cutoff, 2 <= n <= N < 2^53 and q > 1, the
    residual sum_{k=2..n} mu(k) (I - S) h_k - (1 - z) has the coefficients
    w_j = (c_n - D_j(n))/j for j > N, where c_n = sum_{k=2..n} mu(k)/k and
    D_j(n) = sum_{d | j, 2 <= d <= n} mu(d).  The returned value is at
    least (sum_{j>N} |w_j|^q)^(1/q).  It is finite for every q > 1, costs
    O(n) and needs no divisor table.

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
    inv_q = 1.0 / q
    r = 1.0 - inv_q
    d = np.flatnonzero(table.values[2 : n + 1]) + 2
    m_d = (coeff_cutoff // d).astype(np.float64)
    s = exact_sum(m_d ** -r / d)
    c_n = abs(mobius_sum_over_k(table, n) - 1.0)
    x = c_n * math.pow(coeff_cutoff, -r) + s
    return math.pow(q - 1.0, -inv_q) * x * _TAIL_ROUNDING_FACTOR


def run_lq_convergence(
    q: float, n_list: Sequence[int], coeff_cutoff: int
) -> list[ConvergenceRecord]:
    """l^q residual of the Möbius partial sums against 1 - z, per truncation n.

    The partial sums come from the closed-form kernel
    ``mobius_ims_partial_sums``, advanced from one checkpoint to the next,
    so a sweep costs O(N log n) for N = coeff_cutoff.  Each record carries
    the proved tail bound ``lq_tail_bound`` on the coefficients beyond N.
    The norm is taken in place on the kernel's output buffer, so the row
    holds the kernel's 10 bytes per coefficient and no more.
    q must be finite and exceed 1.  Trends should be read across decades
    of n, not adjacent values: the Möbius fluctuations make pointwise
    monotonicity false.
    """
    if not 1.0 < q < math.inf:
        raise ValueError("q must be finite and > 1")

    def row(n: int, residual: np.ndarray, table: MobiusTable) -> tuple[float, float]:
        residual[0] -= 1.0  # subtract the target 1 - z
        residual[1] += 1.0
        value = _lq_of_magnitudes(np.abs(residual, out=residual), q)
        # value is finite exactly when the sum of the nonnegative |r_m|^q
        # is, and that sum is finite only if every term is
        if not math.isfinite(value):
            raise ValueError("all coefficients must be finite")
        return value, lq_tail_bound(q, n, coeff_cutoff, table)

    # Peak bytes per coefficient: the kernel's int16 divisor sums (2) and
    # its float64 output (8), which the row overwrites with |r|^q; the
    # kernel's own guard on these 10 is the row's memory guard.
    return _convergence_records("lq", q, n_list, coeff_cutoff, row)


def run_hp_convergence(
    p: float,
    n_list: Sequence[int],
    coeff_cutoff: int,
    nodes: int,
) -> list[ConvergenceRecord]:
    """H^p quasi-norm of sum_{k=2..n} mu(k) h_k - 1 for 0 < p < 1.

    The coefficients are the running sums (h_k = (I - S)^-1 (I - S) h_k)
    of the closed-form kernel ``mobius_ims_partial_sums``, taken in place.
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
    (``norms._two_level_bytes``), the kernel's 10 (coeff_cutoff + 1)
    bytes on their own, then both as one sum, since the row holds the
    kernel's output while it transforms.  A node count below
    coeff_cutoff + 1 undersamples the series; once every argument has
    passed, the run then warns once (``QuadratureWarning``) and the
    records are computed as usual.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    _check_two_level_nodes(nodes)

    def row(n: int, coeffs: np.ndarray, table: MobiusTable) -> tuple[float, float]:
        np.cumsum(coeffs, out=coeffs)
        coeffs[0] -= 1.0
        value, refined = two_level_means(coeffs, p, nodes)
        return value, abs(value - refined)

    warning = _undersampling(nodes, coeff_cutoff)
    memory = (_two_level_bytes(nodes), f"the transform buffers of nodes = {nodes}")
    return _convergence_records("hp", p, n_list, coeff_cutoff, row, warning, memory)


def run_lambda_sweep(
    k_list: Iterable[int],
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
    |s| <= 2^20 (the range of ``zeta``); like the memory guard of the
    degree, these are checked before any buffer is built.
    """
    grid = _check_grid(s_grid)
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
                passed=residual <= budget * _TAIL_ROUNDING_FACTOR,
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


def run_mellin_verify(k_list: Iterable[int], s: complex) -> list[MellinRecord]:
    """|M[p_k](s) - f_k(s)| per k (``mellin_step_pk``), ok when at most its bound.

    ``bound`` is B(k, s) of ``special._mellin_step_pk_bound``: while both
    values are within their proved rounding of f_k(s), the computed
    difference is at most B, so ok = false contradicts the identity.
    Every k is checked against the range of that proof before any value
    is computed.
    """
    ks = list(k_list)
    if not ks:
        raise ValueError("k_list must not be empty")
    bounds = [_mellin_step_pk_bound(k, s) for k in ks]
    errs = [abs(mellin_step_pk(k, s) - f_k(k, s)) for k in ks]
    return [MellinRecord(k, s, err, b, err <= b) for k, err, b in zip(ks, errs, bounds)]


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
