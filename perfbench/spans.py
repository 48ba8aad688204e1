"""Per-layer spans and counters for one traced `zfhp` command.

`Tracer.install` replaces every function bound in the namespace of a loaded
`zfhp` module, including functions imported from another `zfhp` module, by
a wrapper that records a span: layer (the defining module), start, end and
parent span.  Intra-module calls go through the module namespace too, so
they are caught.  Spans stay in memory; `write` reduces them to self time
and call counts per layer (self time is a span's duration minus the time
its child spans cover) plus the counters below, and writes one JSON object.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

# (module, function) -> (counter, argument whose size or value is added; None adds 1)
COUNTERS = {
    ("zfhp.series", "accumulate_ims"): ("series.kernel_coeff_updates", "acc"),
    ("zfhp.arith", "build_mobius"): ("arith.sieve_entries", "limit"),
    ("zfhp.arith", "build_divisor_counts"): ("arith.sieve_entries", "limit"),
    ("zfhp.special", "fk_values"): ("special.fk_terms", "n_max"),
    ("zfhp.special", "zeta"): ("special.zeta_calls", None),
    ("zfhp.functionals", "_fsum_complex"): ("functionals.terms_summed", "terms"),
    ("zfhp.norms", "boundary_values"): ("norms.fft_points", "nodes"),
}
# (module, function) -> metric holding the function's inclusive time
INCLUSIVE = {("zfhp.experiments", "lq_tail_bound"): "experiments.tail_bound_s"}


def _amount(value) -> int:
    return int(value.size) if hasattr(value, "size") else int(value)


class Tracer:
    def __init__(self) -> None:
        # [layer, (module, function), start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {name: 0 for name, _ in COUNTERS.values()}

    def install(self) -> None:
        wrapped: dict[int, types.FunctionType] = {}
        for name, module in list(sys.modules.items()):
            if name != "zfhp" and not name.startswith("zfhp."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("zfhp"):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj)
                    setattr(module, attr, wrapped[id(obj)])

    def _wrap(self, fn: types.FunctionType):
        key = (fn.__module__, fn.__name__)
        layer = fn.__module__.rpartition(".")[2]
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter and counter[1] else None
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                amount = 1 if signature is None else _amount(
                    signature.bind(*args, **kwargs).arguments[counter[1]])
                counters[counter[0]] += amount
            index = len(spans)
            span = [layer, key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        covered = [0.0] * len(self.spans)
        for layer, key, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, dict] = {}
        inclusive = {name: 0.0 for name in INCLUSIVE.values()}
        for (layer, key, start, end, parent), child_time in zip(self.spans, covered):
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child_time
            entry["calls"] += 1
            metric = INCLUSIVE.get(key)
            if metric and (parent < 0 or self.spans[parent][1] != key):
                inclusive[metric] += end - start
        return {"layers": layers, "counters": self.counters, "inclusive": inclusive,
                "spans": len(self.spans)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.summary(), out)
