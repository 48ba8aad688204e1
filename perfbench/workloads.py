"""The four benchmark workloads as `zfhp` command lines, drawn from a seed.

Seed 0 gives the fixed parameters of the benchmark README.  Any other seed
draws inputs of the same size: `q` for `lq-1e6`, the imaginary parts of the
s-grid for `lambda-grid` and the real part of `s` for `approx-1e7`.
`hp-boundary` is the same on every seed, because its second command carries
the known fault that must fail identically in every run.

Standard library only: the timing process imports this module and must stay
small, since a child's max-RSS on Linux includes its parent's resident set
at spawn time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("lq-1e6", "lambda-grid", "approx-1e7", "hp-boundary")


@dataclass(frozen=True)
class Command:
    """One `zfhp` invocation (without `--out`) and the parameters it encodes."""

    argv: tuple[str, ...]
    params: dict


def _lq(rng: random.Random | None) -> list[Command]:
    q = 2.0 if rng is None else round(rng.uniform(1.5, 2.5), 3)
    n_list = [100, 1000, 10000]
    cutoff = 1_000_000
    argv = ("convergence", "--space", "lq", "--q", repr(q), "--n", ",".join(map(str, n_list)),
            "--coeff-cutoff", str(cutoff))
    return [Command(argv, {"kind": "lq", "q": q, "n_list": n_list, "coeff_cutoff": cutoff})]


def _lambda(rng: random.Random | None) -> list[Command]:
    res = [0.6, 0.75, 1.5, 2.0]
    ims = [0.0, 1.0, 5.0] if rng is None else sorted(round(rng.uniform(0.0, 6.0), 3) for _ in range(3))
    k_list = list(range(2, 21))
    cutoff = 100_000
    grid = f"{','.join(map(repr, res))} x {','.join(map(repr, ims))}"
    argv = ("lambda", "--k", "2..20", "--s-grid", grid, "--coeff-cutoff", str(cutoff))
    return [Command(argv, {"kind": "lambda", "k_list": k_list, "res": res, "ims": ims,
                           "coeff_cutoff": cutoff})]


def _approx(rng: random.Random | None) -> list[Command]:
    s_re = 2.0 if rng is None else round(rng.uniform(1.5, 2.5), 3)
    n_list = [100, 10_000, 1_000_000, 10_000_000]
    argv = ("approx", "--s", f"{s_re!r}+0i", "--n", ",".join(map(str, n_list)))
    return [Command(argv, {"kind": "approx", "s_re": s_re, "n_list": n_list})]


def _hp(rng: random.Random | None) -> list[Command]:
    del rng  # seed-independent on purpose, see the module docstring
    fft_bound = Command(
        ("convergence", "--space", "hp", "--p", "0.5", "--n", "2,10,100",
         "--coeff-cutoff", "2097151", "--nodes", "2097152"),
        {"kind": "hp", "p": 0.5, "n_list": [2, 10, 100], "coeff_cutoff": 2_097_151,
         "nodes": 2_097_152, "fault_check": False},
    )
    # No --nodes: the CLI default (8192) undersamples degree 100000.
    default_nodes = Command(
        ("convergence", "--space", "hp", "--p", "0.5", "--n", "10,100,1000",
         "--coeff-cutoff", "100000"),
        {"kind": "hp", "p": 0.5, "n_list": [10, 100, 1000], "coeff_cutoff": 100_000,
         "nodes": 8192, "fault_check": True},
    )
    return [fft_bound, default_nodes]


_BUILDERS = {"lq-1e6": _lq, "lambda-grid": _lambda, "approx-1e7": _approx, "hp-boundary": _hp}


def commands(name: str, seed: int) -> list[Command]:
    """The commands of workload `name` for `seed`, in the order they run."""
    rng = None if seed == 0 else random.Random(f"{name}/{seed}")
    return _BUILDERS[name](rng)
