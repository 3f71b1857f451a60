"""The benchmark in bench/ still runs against the program: its traced scan
workload calls the layers it times by name, so a rename there breaks it."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_scan_workload_runs_and_checks_out():
    argv = [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
            "--seconds", "0.1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
