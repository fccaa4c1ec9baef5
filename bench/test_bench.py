"""Self-test of the benchmark at tiny sizes.

Run from the root of a tcc checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, workload, trace, *extra):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_runs_end_to_end(workload):
    result = last_json(bench(ROOT, workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    first = last_json(bench(ROOT, workload, 1, "--spans", str(spans)))
    second = last_json(bench(ROOT, workload, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    assert {k: first["metrics"][k] for k in counted} == {k: second["metrics"][k] for k in counted}

    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(records) == sum(first["metrics"][k]["value"] for k in counted if k.endswith(".calls"))
    commands = [r for r in records if r["name"] == "cli.main"]
    assert len(commands) == first["metrics"]["cli.main.calls"]["value"] >= 1
    assert all(r["parent"] == -1 for r in commands)
    for r in records:
        if r["parent"] >= 0:
            parent = records[r["parent"]]
            assert parent["start"] <= r["start"] <= r["end"] <= parent["end"]
            assert parent["op"] == r["op"]


def _tampered(stdout: str) -> str:
    """The same JSON with one answer changed."""
    out = json.loads(stdout)
    if "rows" in out:
        out["rows"][-1]["dim"] += 1
    elif "trials" in out:
        out["successes"] += 1
    elif "dimension" in out:
        out["dimension"] += 1
    else:
        out["eigenvalues"][0][1] += 1
    return json.dumps(out)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checker_flags_wrong_answers(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    cli, wl = run.set_up(workload, 3, True, (ROOT / "src").resolve(), tmp_path)
    with speed.SpeedProbe() as probe:
        runs = run.run_pass(cli, wl.ops, probe)
    assert run.count_failures(runs) == 0
    for r in runs:
        assert r.op.problems(r.exit_code, _tampered(r.stdout)), r.op.name
        assert r.op.problems(r.exit_code + 1, r.stdout), r.op.name
    runs[0].stdout = _tampered(runs[0].stdout)
    with contextlib.redirect_stderr(io.StringIO()):
        assert run.count_failures(runs) == 1


def test_crash_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    cli, wl = run.set_up("large-instance", 3, True, (ROOT / "src").resolve(), tmp_path)

    def crash(argv):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(cli, "main", crash)
    with speed.SpeedProbe() as probe, contextlib.redirect_stderr(io.StringIO()) as err:
        runs = run.run_pass(cli, wl.ops[:1], probe)
        assert run.count_failures(runs) == 1
    assert "deliberate" in err.getvalue()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "verify-grid", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_trace_refuses_a_missing_function(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    run.set_up("channel-sim", 3, True, (ROOT / "src").resolve(), tmp_path)
    linalg, code = sys.modules["tcc.linalg"], sys.modules["tcc.code"]
    rref = linalg.rref
    monkeypatch.delattr(code, "decode_nearest")
    with pytest.raises(tracing.TraceError, match="decode_nearest"):
        tracing.Tracer().install()
    # The wrappers installed before the error are taken out again.
    assert linalg.rref is rref


def test_trace_refuses_a_counter_that_fails(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    cli, wl = run.set_up("large-instance", 3, True, (ROOT / "src").resolve(), tmp_path)

    def broken(c, args, result):
        raise AttributeError("no rows")

    monkeypatch.setitem(tracing.COUNT, "linalg.rref", broken)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with speed.SpeedProbe() as probe:
            runs = run.run_pass(cli, wl.ops[:1], probe, tracer)
    finally:
        tracer.uninstall()
    assert run.count_failures(runs) == 0
    with pytest.raises(tracing.TraceError, match="linalg.rref counter"):
        tracer.metrics()
