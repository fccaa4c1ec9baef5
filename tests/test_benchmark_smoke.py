"""One tiny traced pass of the benchmark's channel and verify workloads, run as the benchmark runs them.

The benchmark's own self-test (bench/test_bench.py) is not part of this
suite, so this catches a channel or verify change that breaks the
benchmark's answer check or its trace counters.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_channel_workload_tiny_traced_run():
    argv = ["bench/run.py", "--workload", "channel-sim", "--seed", "1", "--seconds", "0", "--trace", "1", "--tiny"]
    run = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["channel.trials"]["value"] > 0


def test_verify_workload_tiny_traced_run():
    argv = ["bench/run.py", "--workload", "verify-grid", "--seed", "1", "--seconds", "0", "--trace", "1", "--tiny"]
    run = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
