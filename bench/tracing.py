"""Outside-in per-layer trace of tcc: wrappers on the public functions of each module.

Each wrapper is installed on every `tcc.*` module attribute bound to the
wrapped function object (cli imports `centralizer_code` by name, so
patching `tcc.centralizer` alone would miss that call), and removed again
by `uninstall`.  Spans stay in memory: name, start, end, parent span and
the op id of the CLI command that caused them.  Counters are computed from
each call's arguments and return value, except cli.stdout_bytes, which the
runner adds from the captured output.  A wrapped function that tcc no
longer has, or a counter that cannot read a call's arguments or result,
is an error (TraceError), never a count of zero: a layer that changed
shape needs its trace changed with it.
"""

import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

WRAPPED = {
    "linalg": ("rref", "kernel_basis", "matmul_mod", "kronecker", "inverse", "parse_matrix_text"),
    "comb": ("comb_matrix", "comb_spectrum", "eigen_scan"),
    "centralizer": ("twisted_operator", "centralizer_code", "is_member"),
    "code": ("code_from_basis", "analyze", "min_distance", "decode_nearest", "encode"),
    "channel": ("exhaustive_stats", "monte_carlo", "inject_errors"),
    "cli": ("main",),
}

# Counter metrics besides <layer>.<fn>.calls and .self_s, with their units.
COUNTERS = {
    "linalg.rref.cells": "count",
    "linalg.matmul_mod.object_calls": "count",
    "linalg.kronecker.bytes": "bytes",
    "code.codewords_enumerated": "count",
    "code.codewords_scored": "count",
    "code.decode.unique_ratio": "ratio",
    "channel.trials": "count",
    "channel.success_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
}


class TraceError(Exception):
    pass


def _count_rref(c, args, result):
    c["linalg.rref.cells"] += args[0].rows * args[0].cols


def _count_matmul(c, args, result):
    a, _, p = args
    # The int64 path would overflow here, so tcc must use Python ints.
    if a.shape[-1] * (p - 1) ** 2 >= 2**63:
        c["linalg.matmul_mod.object_calls"] += 1


def _count_kronecker(c, args, result):
    c["linalg.kronecker.bytes"] += result.array.nbytes


def _count_min_distance(c, args, result):
    c["code.codewords_enumerated"] += args[0].prime.p ** args[0].dim


def _count_decode(c, args, result):
    c["code.codewords_scored"] += args[0].prime.p ** args[0].dim
    c["code.decodes"] += 1
    if result.status not in ("unique", "ambiguous"):
        raise ValueError(f"unknown decode status {result.status!r}")
    c["code.unique_decodes"] += result.status == "unique"


def _count_channel(c, args, result):
    c["channel.trials"] += result.trials
    c["channel.successes"] += result.successes


COUNT = {
    "linalg.rref": _count_rref,
    "linalg.matmul_mod": _count_matmul,
    "linalg.kronecker": _count_kronecker,
    "code.min_distance": _count_min_distance,
    "code.decode_nearest": _count_decode,
    "channel.exhaustive_stats": _count_channel,
    "channel.monte_carlo": _count_channel,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = Counter()
        self.op = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)
        # Counter failures, raised by metrics(): raising inside the call
        # would reach cli.main, which turns some exceptions into exit codes.
        self.errors = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNT.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    count(counters, args, result)
                except Exception as exc:
                    self.errors.append(f"{name} counter: {exc!r}")
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "tcc" or key.startswith("tcc.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"tcc.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.uninstall()
                    raise TraceError(f"tcc.{layer}.{fn_name} is not a function of tcc")
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self time per wrapped function, plus the counters."""
        if self.errors:
            raise TraceError("; ".join(self.errors[:5]))
        calls = Counter()
        total = Counter()
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for layer, names in WRAPPED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                out[f"{name}.calls"] = (calls[name], "count")
                out[f"{name}.self_s"] = (total[name] - child[name], "s")
        c = self.counters
        for key, unit in COUNTERS.items():
            out[key] = (c[key], unit)
        out["code.decode.unique_ratio"] = (_ratio(c["code.unique_decodes"], c["code.decodes"]), "ratio")
        out["channel.success_ratio"] = (_ratio(c["channel.successes"], c["channel.trials"]), "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _ratio(part: int, whole: int) -> float:
    # A workload that never decodes reports 0, not an undefined ratio.
    return part / whole if whole else 0.0
