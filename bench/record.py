"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the root of a tcc checkout:

    python3 bench/record.py --out bench/baseline.json

For every workload in BENCHMARK.json and each of ten seeds it runs the
benchmark command once with `--trace 0`, then once per workload with
`--trace 1`.
Seeds go in the outer loop, so the workloads interleave.  Each end-to-end
metric, and each detail line the run prints, is summarised by its median,
its quartiles and its spread (the distance between the quartiles over the
median); the end-to-end metrics are checked against the
metric's bound in BENCHMARK.json; the exit code is 1 if a spread other
than that of setup_s exceeds a third of its bound, or a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)

def run_once(command, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """The result object and the `name = value unit` detail lines of one run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(argv)} reported wrong outputs: {proc.stderr.strip()[-2000:]}")
    details = {}
    for line in lines[:-1]:
        name, eq, value, unit = (line.split() + ["", "", "", ""])[:4]
        if eq == "=":
            details[name] = {"value": float(value), "unit": unit}
    return result, details


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    import numpy

    return {
        "git_sha": sha or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: {metric: [] for metric in bounds} for name in names}
    detail_values = {name: {} for name in names}
    for seed in SEEDS:
        for name in names:
            result, details = run_once(spec["command"], name, seed, spec["run_seconds"], 0)
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            for detail, d in details.items():
                detail_values[name].setdefault(detail, []).append(d["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m}={v[-1]:.4g}" for m, v in values[name].items()), file=sys.stderr)

    steady = True
    summary = {"environment": environment(), "run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for name in names:
        metrics = {metric: summarise(vals) for metric, vals in values[name].items()}
        for metric, s in metrics.items():
            limit = bounds[metric] / 3
            ok = metric == "setup_s" or s["spread"] <= limit
            steady &= ok
            print(f"{name:15} {metric:12} median {s['median']:<12.6g} spread {s['spread']:.4f} (limit {limit:.4f}){'' if ok else '  TOO WIDE'}")
        summary["workloads"][name] = {
            "end_to_end": metrics,
            "details": {detail: summarise(vals) for detail, vals in detail_values[name].items()},
        }
        traced, _ = run_once(spec["command"], name, 1, spec["run_seconds"], 1)
        summary["workloads"][name]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
