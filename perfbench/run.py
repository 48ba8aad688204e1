"""End-to-end benchmark of the `zfhp` CLI, with a traced run for per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the commands of one workload (see `workloads.py`) as whole rounds, one
child interpreter per command and one child at a time, until S seconds have
passed.  Every CSV row is one operation, checked against reference values
that `reference.py` computes without `zfhp`.  With `--trace 1` one more
round runs with every `zfhp` function wrapped (`spans.py`), and
`python -X importtime` gives the import times; the traced CSVs must match
the untraced ones byte for byte outside the `wall_time_ms` column.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  This process imports no
numpy: on Linux a child's max-RSS includes its parent's resident set at
spawn time, so the timing process must stay smaller than any child.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# Largest child (approx-1e7, about 800 MB) plus the reference helper's
# arrays, which are freed before the children start, and some margin.
MIN_AVAILABLE_MB = 1200
# No round starts when it could end after this many seconds of the run;
# a run must finish within 180 s.
DEADLINE_S = 150.0
IMPORTTIME_RUNS = 3
TRACED_LAYERS = ("arith", "series", "special", "functionals", "norms", "experiments", "cli")
IMPORT_LAYERS = {"cli": ("zfhp", "zfhp.cli"), "special": ("zfhp.special",),
                 "norms": ("zfhp.norms",), "weights": ("zfhp.weights",)}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ChildResult:
    wall: float
    setup: float
    cpu: float
    rss_mb: float
    code: int
    csv_text: str | None
    stderr: str
    trace: dict | None


class Runner:
    def __init__(self, root: Path, tmp: Path, started: float) -> None:
        self.root = root
        self.tmp = tmp
        self.deadline = started + DEADLINE_S + 20.0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({name: "1" for name in THREAD_VARS})

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, float, object, int]:
        """Run argv to its end; returns (start, end, rusage, exit code)."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=self.root)
        timer = threading.Timer(max(self.deadline - time.perf_counter(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, usage, proc.returncode

    def command(self, index: int, cmd: workloads.Command, trace: bool) -> ChildResult:
        out = self.tmp / f"cmd{index}.csv"
        stamp = self.tmp / f"cmd{index}.stamp"
        trace_path = self.tmp / f"cmd{index}.trace.json"
        for path in (out, out.with_suffix(".manifest.json"), stamp, trace_path):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(stamp),
                str(trace_path) if trace else "-", *cmd.argv, "--out", str(out)]
        stderr_path = self.tmp / f"cmd{index}.stderr"
        start, end, usage, code = self.spawn(argv, stderr_path)
        return ChildResult(
            wall=end - start,
            setup=float(stamp.read_text()) - start if stamp.exists() else math.nan,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=code,
            csv_text=out.read_text(encoding="utf-8") if out.exists() else None,
            stderr=stderr_path.read_text(errors="replace"),
            trace=json.loads(trace_path.read_text()) if trace and trace_path.exists() else None,
        )

    def round(self, cmds: list[workloads.Command], trace: bool = False) -> list[ChildResult]:
        return [self.command(i, cmd, trace) for i, cmd in enumerate(cmds)]

    def import_times(self) -> dict[str, float]:
        """Median cumulative import time (s) per module of `import zfhp.cli`."""
        samples: dict[str, list[float]] = {}
        stderr_path = self.tmp / "importtime.stderr"
        for _ in range(IMPORTTIME_RUNS):
            *_, code = self.spawn([sys.executable, "-X", "importtime", "-c", "import zfhp.cli"],
                                  stderr_path)
            if code != 0:
                raise BenchError(f"import zfhp.cli failed:\n{stderr_path.read_text()}")
            for line in stderr_path.read_text().splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = line[len("import time:"):].split("|")
                if fields[0].strip().isdigit():
                    samples.setdefault(fields[2].strip(), []).append(int(fields[1]) / 1e6)
        return {name: statistics.median(values) for name, values in samples.items()}


def compute_reference(name: str, seed: int, tmp: Path, env: dict) -> dict:
    path = tmp / "reference.json"
    proc = subprocess.run([sys.executable, str(HERE / "reference.py"), name, str(seed), str(path)],
                          env=env, cwd=HERE, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"reference computation failed:\n{proc.stderr}")
    return json.loads(path.read_text())


def parse_rows(text: str | None) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text))) if text else []


def masked(text: str | None) -> str | None:
    """CSV text with the `wall_time_ms` column blanked (the criterion-12 comparison)."""
    if text is None:
        return None
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "wall_time_ms" in rows[0]:
        col = rows[0].index("wall_time_ms")
        for row in rows[1:]:
            if col < len(row):
                row[col] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def row_problems(expected: dict, row: dict | None) -> list[tuple[str, str | None]]:
    """(message, known fault or None) for every way `row` misses `expected`."""
    if row is None:
        return [("row missing", None)]
    problems = []
    for col, want in expected["key"].items():
        text = row.get(col)
        try:
            ok = text == want if isinstance(want, str) else float(text) == float(want)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            problems.append((f"{col}={text!r}, expected {want!r}", None))
    for chk in expected["checks"]:
        col, op, arg = chk["col"], chk["op"], chk["arg"]
        try:
            if op == "eq":
                ok = row[col] == arg
            elif op == "le":
                ok = float(row[col]) <= arg
            elif op == "ge":
                ok = float(row[col]) >= arg
            else:  # within
                ok = abs(float(row[col]) - arg[0]) <= float(row[arg[1]])
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            shown = {c: row.get(c) for c in (col, arg[1] if op == "within" else col)}
            problems.append((f"{chk['why']}: {shown} {op} {arg!r}", chk["fault"]))
    return problems


def check_round(reference: dict, results: list[ChildResult]) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, unexpected problems, known-fault problems) for one round."""
    attempted = failed = 0
    unexpected: list[str] = []
    known: list[str] = []
    for index, (expected_rows, result) in enumerate(zip(reference["commands"], results)):
        rows = parse_rows(result.csv_text) if result.code == 0 else []
        if result.code != 0:
            unexpected.append(f"command {index} exited {result.code}: {result.stderr.strip()[-500:]}")
        if len(rows) > len(expected_rows):
            unexpected.append(f"command {index} wrote {len(rows)} rows, expected {len(expected_rows)}")
        for pos, expected in enumerate(expected_rows):
            attempted += 1
            problems = row_problems(expected, rows[pos] if pos < len(rows) else None)
            if not problems:
                continue
            failed += 1
            where = f"command {index} row {expected['key']}"
            for message, fault in problems:
                (known if fault else unexpected).append(f"{where}: {message}"
                                                        + (f" [known fault {fault}]" if fault else ""))
    return attempted, failed, unexpected, known


def environment(root: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zfhp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer(traced: list[ChildResult], imports: dict[str, float], overhead: float) -> dict:
    layers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for result in traced:
        summary = result.trace or {"layers": {}, "counters": {}, "inclusive": {}}
        for layer, entry in summary["layers"].items():
            total = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            total["self_s"] += entry["self_s"]
            total["calls"] += entry["calls"]
        for name, value in {**summary["counters"], **summary["inclusive"]}.items():
            counters[name] = counters.get(name, 0) + value
    out = {}
    for layer in TRACED_LAYERS:
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = metric(entry["self_s"], "s")
        out[f"{layer}.calls"] = metric(entry["calls"], "count")
    for layer, modules in IMPORT_LAYERS.items():
        out[f"{layer}.import_s"] = metric(sum(imports.get(m, 0.0) for m in modules), "s")
    for name in ("series.kernel_coeff_updates", "arith.sieve_entries", "special.fk_terms",
                 "special.zeta_calls", "functionals.terms_summed", "norms.fft_points"):
        out[name] = metric(counters.get(name, 0), "count")
    out["experiments.tail_bound_s"] = metric(counters.get("experiments.tail_bound_s", 0.0), "s")
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def run(args: argparse.Namespace, root: Path, tmp: Path, started: float) -> dict:
    cmds = workloads.commands(args.workload, args.seed)
    runner = Runner(root, tmp, started)
    reference = compute_reference(args.workload, args.seed, tmp, runner.env)
    print(f"workload {args.workload} seed {args.seed}:")
    for cmd in cmds:
        print("  zfhp " + " ".join(cmd.argv))
    *_, code = runner.spawn([sys.executable, "-c", "import zfhp.cli"], tmp / "warmup.stderr")
    if code != 0:
        raise BenchError(f"import zfhp.cli failed:\n{(tmp / 'warmup.stderr').read_text()}")

    rounds: list[list[ChildResult]] = []
    first = time.perf_counter()
    while True:
        rounds.append(runner.round(cmds))
        now = time.perf_counter()
        last = sum(r.wall for r in rounds[-1])
        if now - first >= args.seconds or now - started + 1.5 * last > DEADLINE_S:
            break

    attempted = failed = 0
    unexpected: list[str] = []
    known: list[str] = []
    for results in rounds:
        a, f, u, k = check_round(reference, results)
        attempted, failed = attempted + a, failed + f
        unexpected += u
        known += k
    baseline = [masked(r.csv_text) for r in rounds[0]]
    for number, results in enumerate(rounds[1:], start=2):
        if [masked(r.csv_text) for r in results] != baseline:
            unexpected.append(f"round {number} CSV bytes differ from round 1 outside wall_time_ms")

    walls = [sum(r.wall for r in results) for results in rounds]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(sum(r.setup for r in res) for res in rounds), "s"),
        "cpu_s": metric(statistics.median(sum(r.cpu for r in res) for res in rounds), "s"),
        "peak_rss_mb": metric(statistics.median(max(r.rss_mb for r in res) for res in rounds), "MB"),
    }
    print(f"  {len(rounds)} rounds, wall_s per round: " + ", ".join(f"{w:.3f}" for w in walls))
    print("  medians over rounds, each round summed over the workload's commands:")
    for name, entry in metrics.items():
        print(f"  {name:12s} {entry['value']:.4f} {entry['unit']}")

    if args.trace:
        traced = runner.round(cmds, trace=True)
        if [masked(r.csv_text) for r in traced] != baseline:
            unexpected.append("traced CSV bytes differ from the untraced run outside wall_time_ms")
        a, f, u, k = check_round(reference, traced)
        attempted, failed = attempted + a, failed + f
        unexpected += u
        known += k
        overhead = sum(r.wall for r in traced) - statistics.median(walls)
        metrics = per_layer(traced, runner.import_times(), overhead)
        print("  per-layer metrics from one traced round:")
        for name, entry in metrics.items():
            print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")

    print(f"  operations: attempted {attempted}, failed {failed}")
    for message in sorted(set(known)):
        print(f"  failed (known fault): {message}")
    for message in unexpected[:20]:
        print(f"  FAILED: {message}")
    print("env: " + json.dumps(environment(root), sort_keys=True))
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zfhp" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/zfhp/cli.py not found", file=sys.stderr)
        return 2
    free = available_mb()
    if free is not None and free < MIN_AVAILABLE_MB:
        print(f"perfbench: MemAvailable is {free:.0f} MB; the largest workload needs about "
              f"{MIN_AVAILABLE_MB} MB, refusing to run", file=sys.stderr)
        return 3
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = run(args, root, tmp, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
