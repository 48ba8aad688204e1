"""Run one `zfhp` CLI command in a fresh interpreter, for `run.py`.

Usage: python3 perfbench/child.py STAMP_FILE TRACE_FILE|- ZFHP_ARGS...

Writes to STAMP_FILE the `time.perf_counter()` reading taken as soon as
`zfhp.cli` has been imported (CLOCK_MONOTONIC, which the parent shares), so
the parent can split the command's wall time into set-up and the rest.
With a TRACE_FILE, every `zfhp` function is wrapped to record spans (see
`spans.py`) and a per-layer summary is written there at exit.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, *argv = sys.argv[1:]
    import zfhp.cli

    imported = time.perf_counter()
    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        return zfhp.cli.main(argv)
    finally:
        with open(stamp_path, "w", encoding="utf-8") as out:
            out.write(repr(imported))
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
