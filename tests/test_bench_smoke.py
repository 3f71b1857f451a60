"""The benchmark in bench/ still runs against the program: its traced runs
call the layers they time by name, so a rename there breaks them, and each
workload checks every output against the benchmark's own references (the
large-n run checks the N = 6 probability against its own per-tau sum, the
N = 6 interference orders against both limits and that probability, and the
N = 14 permanents against its Glynn permanent)."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scan", "distribution", "large-n"])
def test_traced_workload_runs_and_checks_out(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
