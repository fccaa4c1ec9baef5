"""Benchmark of the tcc command line: three workloads of in-process CLI calls.

Run from the root of a tcc checkout:

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 34 --trace 0

Each workload is a fixed list of `tcc` commands, run back to back through
`tcc.cli.main(argv)` with stdout and stderr captured: one client, closed
loop, one thread.  The list runs once, and again as long as another pass
should end within `--seconds`; every output is checked against answers
computed without tcc.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
repeats); lines before it give each command's median time, the
workload's own rates and the raw times.  `setup_s` is the median of
several set-ups, each the time to import tcc in a fresh interpreter and
write the input files.  `key_op_s` times the workload's main command and
`guard_op_s` the commands an optimisation of it should leave unchanged.
`peak_rss_mb` is read after the first pass, before any output is
checked.  Every reported time except the
raw ones and the traced self times is scaled to a reference machine
speed by speed.py, because this host's speed drifts by more than the
bounds.  With `--trace 1` the untraced passes are followed by one traced
pass, and the metrics are the per-layer ones from tracing.py plus
`trace.overhead_ratio`.  `--spans FILE` also writes the traced spans out
as JSON lines.  `--tiny` shrinks every workload for the self-test.

The program is imported from `src/` of the current directory; without it
the benchmark exits with code 2 and prints no result.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is short, so it runs several times and reports the median.
SETUP_REPEATS = 11


@dataclass
class OpRun:
    op: workloads.Op
    exit_code: int
    stdout: str
    wall: float
    cpu: float
    # Multiplies wall and cpu to the reference speed.
    scale: float


def set_up(name, seed, tiny, src, work_dir):
    """Import tcc afresh from `src`, build the workload's ops and write its input files."""
    for key in [k for k in sys.modules if k == "tcc" or k.startswith("tcc.")]:
        del sys.modules[key]
    cli = importlib.import_module("tcc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"tcc was imported from {cli.__file__}, not from {src}")
    workload = workloads.make(name, seed, tiny, work_dir)
    write_inputs(workload, work_dir)
    return cli, workload


def write_inputs(workload, work_dir):
    for file_name, text in workload.files.items():
        (work_dir / file_name).write_text(text)


# Prints how long `import tcc.cli` takes in a fresh interpreter, numpy included.
IMPORT_TCC = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import tcc.cli
print(time.perf_counter() - t)
assert tcc.cli.__file__.startswith(sys.argv[1]), tcc.cli.__file__
"""


def time_setup(workload, src, work_dir, probe) -> tuple[float, float]:
    """Raw and scaled time of one set-up: import tcc in a new process, write the inputs.

    The ops and their expected answers are built beforehand, so only
    the program's own start-up is timed, not the benchmark's.
    """
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TCC, str(src)], capture_output=True, text=True, check=True, timeout=120
    )
    t1 = perf_counter()
    write_inputs(workload, work_dir)
    t2 = perf_counter()
    import_s = float(proc.stdout)
    return import_s + (t2 - t1), import_s * probe.scale(t0, t1) + (t2 - t1) * probe.scale(t1, t2)


def run_pass(cli, ops, probe, tracer=None) -> list[OpRun]:
    runs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out = io.StringIO()
        crash = None
        # Garbage left by earlier ops and checks is not this op's cost.
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            w0, c0 = perf_counter(), process_time()
            try:
                # Looked up per call, so an installed trace wrapper is used.
                code = cli.main(op.argv)
            except Exception:
                # A crash is a failed op with no exit code, not the end of the run.
                code, crash = None, traceback.format_exc()
            w1, c1 = perf_counter(), process_time()
        if crash:
            print(f"bench: {op.name} raised:\n{crash}", file=sys.stderr)
        runs.append(OpRun(op, code, out.getvalue(), w1 - w0, c1 - c0, probe.scale(w0, w1)))
        if tracer is not None:
            tracer.counters["cli.stdout_bytes"] += len(runs[-1].stdout.encode())
    return runs


def count_failures(runs: list[OpRun]) -> int:
    failed = 0
    for run in runs:
        problems = run.op.problems(run.exit_code, run.stdout)
        if problems:
            failed += 1
            shown = "; ".join(problems[:5]) + (f"; ... {len(problems) - 5} more" if len(problems) > 5 else "")
            print(f"bench: {run.op.name} ({' '.join(run.op.argv)}): {shown}", file=sys.stderr)
    return failed


def pass_wall(runs: list[OpRun]) -> float:
    return sum(r.wall * r.scale for r in runs)


def op_time(runs: list[OpRun], names) -> float:
    return sum(r.wall * r.scale for r in runs if r.op.name in names)


def end_to_end(passes, workload, setups, peak_rss_kib, attempted, failed):
    """Metrics and detail lines; `setups` holds (raw, scaled) set-up times."""
    walls = [pass_wall(runs) for runs in passes]
    work = sum(op.work for op in workload.ops)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(sum(r.cpu * r.scale for r in runs) for runs in passes), "s"),
        "key_op_s": (statistics.median(op_time(runs, [workload.key_op]) for runs in passes), "s"),
        "guard_op_s": (statistics.median(op_time(runs, workload.guard_ops) for runs in passes), "s"),
        "work_per_s": (statistics.median(work / w for w in walls), "1/s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "fail_ratio": (failed / attempted, "ratio"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setups), "s"),
        "raw_wall_s": (statistics.median(sum(r.wall for r in runs) for runs in passes), "s"),
        "raw_cpu_s": (statistics.median(sum(r.cpu for r in runs) for runs in passes), "s"),
    }
    op_wall = {op.name: statistics.median(runs[i].wall * runs[i].scale for runs in passes) for i, op in enumerate(workload.ops)}
    for name, wall in op_wall.items():
        details[f"{name}_s"] = (wall, "s")
    for rate, names in workload.rates.items():
        ops = [op for op in workload.ops if op.name in names]
        details[rate] = (sum(op.work for op in ops) / sum(op_wall[op.name] for op in ops), "1/s")
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="with --trace 1, write the spans to this JSON-lines file")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "tcc" / "cli.py").is_file():
        print(f"bench: no tcc sources under {src}; run from the root of a tcc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        cli, workload = set_up(args.workload, args.seed, args.tiny, src, work_dir)
        with speed.SpeedProbe(workload.probe) as probe:
            setups = [time_setup(workload, src, work_dir, probe) for _ in range(SETUP_REPEATS)]

            passes, failed = [], 0
            start = perf_counter()
            while True:
                passes.append(run_pass(cli, workload.ops, probe))
                if len(passes) == 1:
                    # Read before the first check, whose parsing of the
                    # outputs would otherwise set the peak.  ru_maxrss is in
                    # KiB on Linux.
                    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                failed += count_failures(passes[-1])
                # Outputs kept for later passes would raise peak_rss_mb with the pass count.
                for r in passes[-1]:
                    r.stdout = ""
                # Start another pass only if it should end within --seconds.
                last = sum(r.wall for r in passes[-1])
                if perf_counter() - start + last > args.seconds:
                    break
            attempted = len(passes) * len(workload.ops)

            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run_pass(cli, workload.ops, probe, tracer)
                finally:
                    tracer.uninstall()
        if args.trace:
            failed += count_failures(traced)
            attempted += len(traced)
            metrics = tracer.metrics()
            untraced = statistics.median(pass_wall(runs) for runs in passes)
            metrics["trace.overhead_ratio"] = (pass_wall(traced) / untraced, "ratio")
            if args.spans:
                tracer.write_spans(args.spans)
        else:
            metrics, details = end_to_end(passes, workload, setups, peak_rss_kib, attempted, failed)
            print(f"workload {workload.name}, seed {args.seed}, {len(passes)} passes")
            for name, (value, unit) in details.items():
                print(f"{name} = {value} {unit}")
    finally:
        shutil.rmtree(work_dir)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
