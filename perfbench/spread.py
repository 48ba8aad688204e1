"""Run `run.py` on several seeds and report the spread of each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S [--out FILE]

For each metric it prints the median of the per-run values, the quartiles
from `statistics.quantiles(values, n=4)` and the quartile distance as a share
of the median, next to the metric's bound in BENCHMARK.json.  With `--out`,
the per-run results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        print(f"{name:12s} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"spread {(q3 - q1) / median:.4f}  bound {bounds.get(name)}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                              "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
