"""Command-line interface.

One binary, ``zfhp``, with subcommands for the convergence experiments,
the functional identity sweep, the pointwise approximation of -1/s, weight
classification, Mellin verification and zeta evaluation.  Experiment
commands run exactly ``rerun(manifest)``, and their options are the
manifest's parameters: nothing the runner can work out from them, such as
the extent of the Möbius sieve or the rounding bound each ``mellin verify``
row is checked against, is an option.  Results are CSV on stdout,
or in ``--out FILE`` plus, for experiments, a ``*.manifest.json`` sidecar.

Exit codes: 0 success, 2 invalid arguments, 3 domain or conditioning error
(pole, half-plane violation, lost accuracy), 4 check failed in ``--check``
mode.  Warnings, such as an undersampling ``QuadratureWarning``, go to
stderr as one line each; a ``QuadratureWarning`` does so whatever warning
filters the caller set.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .arith import _check_memory
from .errors import ConditioningError, DomainError
from .experiments import (
    build_manifest,
    rerun,
    write_approx_csv,
    write_convergence_csv,
    write_lambda_csv,
    write_manifest,
    write_mellin_csv,
    write_probe_csv,
    write_weights_csv,
)
from .norms import QuadratureWarning
from .special import zeta
from .weights import (
    TABLE1_STRIPS,
    TABLE_FAMILIES,
    all_integers,
    arithmetic_progression,
    classify,
    extremal_probe,
    parse_weight_family,
    prime_indices,
)

CHECK_FAILED = 4


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse integer list from {text!r}") from None
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


def parse_int_range(text: str) -> range | list[int]:
    """Accepts ``2..10`` (inclusive, as a range, not yet a list) or a comma list ``2,3,5``."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return parse_int_list(text)


def parse_s_grid(text: str) -> list[complex]:
    """``"0.6,0.75,1.5,2 x 0,1,5"`` -> cartesian grid, real part varying slowest."""
    re_text, sep, im_text = text.partition("x")
    if not sep:
        raise ValueError("s-grid must look like 'RE,RE,... x IM,IM,...'")
    res = [float(p) for p in re_text.split(",") if p.strip()]
    ims = [float(p) for p in im_text.split(",") if p.strip()]
    if not res or not ims:
        raise ValueError("s-grid needs at least one real and one imaginary part")
    return [complex(re, im) for re in res for im in ims]


def _subsequence(text: str):
    text = text.strip().lower()
    if text == "all":
        return all_integers()
    if text == "primes":
        return prime_indices()
    if text.startswith("arith:"):
        start_text, _, step_text = text[len("arith:") :].partition(",")
        return arithmetic_progression(int(start_text), int(step_text))
    raise ValueError(f"unknown subsequence {text!r} (want all | primes | arith:START,STEP)")


def _emit(path: str | None, writer, records, manifest=None) -> None:
    if path is None:
        writer(records, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer(records, out)
    if manifest is not None:
        with open(Path(path).with_suffix(".manifest.json"), "w", encoding="utf-8") as out:
            write_manifest(manifest, out)


def _run(args: argparse.Namespace, manifest, writer) -> list:
    """The one path from a command to its runner: ``rerun(manifest)``, then write."""
    records = rerun(manifest)
    _emit(args.out, writer, records, manifest)
    return records


def _check(args: argparse.Namespace, failure) -> int:
    """Exit code: 4 under ``--check`` when ``failure`` names a failed check, else 0."""
    if args.check and failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    common = dict(n_list=parse_int_list(args.n), coeff_cutoff=args.coeff_cutoff)
    if args.space == "lq":
        if args.q is None:
            raise ValueError("--q is required for --space lq")
        manifest = build_manifest("lq_convergence", q=args.q, **common)
    else:
        if args.p is None:
            raise ValueError("--p is required for --space hp")
        manifest = build_manifest("hp_convergence", p=args.p, nodes=args.nodes, **common)
    records = _run(args, manifest, write_convergence_csv)
    rising = any(b.value >= a.value for a, b in zip(records, records[1:]))
    return _check(args, rising and "values are not strictly decreasing")


# Bytes per record, checked before --k is made a list: per (k, s) of lambda,
# a GeneratorEvaluation and a LambdaRecord (an object and its attribute dict,
# about 150 bytes each, a complex and floats) and their list slots, under 512
# (tracemalloc: 346); per k, its int, list slot and manifest JSON text, under
# 64; per k of mellin verify, a MellinRecord, two floats and slots, under 256
# (tracemalloc: 194).
_LAMBDA_PAIR_BYTES, _K_BYTES, _MELLIN_K_BYTES = 512, 64, 256


def _cmd_lambda(args: argparse.Namespace) -> int:
    k_range, grid = parse_int_range(args.k), parse_s_grid(args.s_grid)
    need = len(k_range) * (_LAMBDA_PAIR_BYTES * len(grid) + _K_BYTES)
    _check_memory(need, f"--k {args.k}", "lambda records")
    s_grid = [[s.real, s.imag] for s in grid]
    manifest = build_manifest(
        "lambda_sweep", k_list=list(k_range), s_grid=s_grid, coeff_cutoff=args.coeff_cutoff
    )
    records = _run(args, manifest, write_lambda_csv)
    bad = sum(not r.passed for r in records)
    return _check(args, bad and f"{bad} of {len(records)} residuals above bound")


def _cmd_approx(args: argparse.Namespace) -> int:
    s = parse_complex(args.s)
    n_list = parse_int_list(args.n)
    manifest = build_manifest("pointwise_approx", s_grid=[[s.real, s.imag]], n_list=n_list)
    _run(args, manifest, write_approx_csv)
    return 0


def _cmd_mellin_verify(args: argparse.Namespace) -> int:
    k_range, s = parse_int_range(args.k), parse_complex(args.s)
    _check_memory(len(k_range) * (_MELLIN_K_BYTES + _K_BYTES), f"--k {args.k}", "mellin records")
    manifest = build_manifest("mellin_verify", k_list=list(k_range), s=[s.real, s.imag])
    records = _run(args, manifest, write_mellin_csv)
    bad = sum(not r.ok for r in records)
    return _check(args, bad and f"{bad} of {len(records)} errors above their rounding bound")


def _cmd_weights_classify(args: argparse.Namespace) -> int:
    family = parse_weight_family(args.family)
    _emit(args.out, write_weights_csv, [classify(family)])
    return 0


def _cmd_weights_table1(args: argparse.Namespace) -> int:
    results = [classify(fam) for fam in TABLE_FAMILIES]
    _emit(args.out, write_weights_csv, results)
    wrong = [r.family.label for r in results if r.strip != TABLE1_STRIPS[r.family.kind]]
    return _check(args, wrong and f"strips differ from the table for {', '.join(wrong)}")


def _cmd_weights_probe(args: argparse.Namespace) -> int:
    family = parse_weight_family(args.family)
    result = extremal_probe(family, args.r, _subsequence(args.subsequence), args.count)
    if args.out:
        _emit(args.out, write_probe_csv, result)
    print(
        f"family={family.label} r={args.r:g} count={args.count} "
        f"running_min={result.running_min!r} running_max={result.running_max!r}"
    )
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    result = zeta(parse_complex(args.s))
    value = result.value
    print(f"zeta({args.s}) = {value.real!r} + {value.imag!r}i  [error_bound {result.error_bound!r}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfhp",
        description="Numerical experiments around zero-free half-plane criteria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="Möbius partial-sum convergence experiments")
    conv.add_argument("--space", choices=("lq", "hp"), required=True)
    conv.add_argument("--q", type=float, help="l^q exponent (space lq; q > 1)")
    conv.add_argument("--p", type=float, help="H^p exponent (space hp; 0 < p < 1)")
    conv.add_argument("--n", required=True, help="comma list of truncations, e.g. 10,100,1000")
    conv.add_argument("--coeff-cutoff", type=int, default=100_000)
    conv.add_argument("--nodes", type=int, default=8192, help="quadrature nodes (space hp)")
    conv.add_argument("--out", help="CSV output path (stdout if omitted)")
    conv.add_argument("--check", action="store_true", help="exit 4 unless values strictly decrease")
    conv.set_defaults(func=_cmd_convergence)

    lam = sub.add_parser("lambda", help="residuals of the functional identity on h_k")
    lam.add_argument("--k", required=True, help="range 2..10 or comma list")
    lam.add_argument("--s-grid", required=True, help='grid "0.6,0.75 x 0,1,5"')
    lam.add_argument("--coeff-cutoff", type=int, default=100_000)
    lam.add_argument("--out", help="CSV output path (stdout if omitted)")
    lam.add_argument("--check", action="store_true", help="exit 4 unless every residual passes")
    lam.set_defaults(func=_cmd_lambda)

    approx = sub.add_parser("approx", help="pointwise approximation of -1/s")
    approx.add_argument("--s", required=True, help="complex point, e.g. 2+0i")
    approx.add_argument("--n", required=True, help="comma list of truncations")
    approx.add_argument("--out", help="CSV output path (stdout if omitted)")
    approx.set_defaults(func=_cmd_approx)

    weights = sub.add_parser("weights", help="weight-family diagnostics")
    wsub = weights.add_subparsers(dest="weights_command", required=True)

    wclassify = wsub.add_parser("classify", help="classify one family")
    wclassify.add_argument("--family", required=True, help="e.g. power:0.25")
    wclassify.add_argument("--out", help="CSV output path (stdout if omitted)")
    wclassify.set_defaults(func=_cmd_weights_classify)

    wtable = wsub.add_parser("table1", help="classify one representative of every kind")
    wtable.add_argument("--out", help="CSV output path (stdout if omitted)")
    wtable.add_argument("--check", action="store_true", help="exit 4 unless strips match")
    wtable.set_defaults(func=_cmd_weights_table1)

    wprobe = wsub.add_parser("probe", help="extremal ratio trace w_n / n^(r - 1/2)")
    wprobe.add_argument("--family", required=True)
    wprobe.add_argument("--r", type=float, required=True, help="exponent in (1/2, 1)")
    wprobe.add_argument("--subsequence", default="all", help="all | primes | arith:START,STEP")
    wprobe.add_argument("--count", type=int, default=10_000)
    wprobe.add_argument("--out", help="CSV trace path (summary always printed)")
    wprobe.set_defaults(func=_cmd_weights_probe)

    mellin = sub.add_parser("mellin", help="Mellin transform verification")
    msub = mellin.add_subparsers(dest="mellin_command", required=True)
    mverify = msub.add_parser("verify", help="piecewise-exact step transforms against f_k")
    mverify.add_argument("--k", required=True, help="range 1..10 or comma list")
    mverify.add_argument("--s", required=True, help="complex point, e.g. 2+1i")
    mverify.add_argument("--out", help="CSV output path (stdout if omitted)")
    mverify.add_argument("--check", action="store_true", help="exit 4 if an error exceeds its bound")
    mverify.set_defaults(func=_cmd_mellin_verify)

    zeta_cmd = sub.add_parser("zeta", help="zeta(s) on Re(s) > 0, |s| <= 2^20, with a proved absolute error bound")
    zeta_cmd.add_argument("--s", required=True, help="complex point, e.g. 2+0i")
    zeta_cmd.set_defaults(func=_cmd_zeta)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", QuadratureWarning)
            warnings.showwarning = _print_warning
            return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
