"""End-to-end and per-layer benchmark of the interfere CLI and library.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, distribution, large-n (see README.md). One client in one
process sends requests in a closed loop, each after the previous one returns,
with BLAS threads fixed at 1. CLI requests go through ``interfere.cli.main``
in process with stdout captured in memory. Rounds of requests repeat until
``--seconds`` have passed; the last round is completed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, the tracing
overhead, and writes the spans to .bench_work/. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
WARMUP_STREAM = 1 << 40  # request index of the warm-up request's inputs


def import_program():
    """Import interfere from this checkout's sources, and nowhere else."""
    if not (SOURCE / "interfere" / "__init__.py").is_file():
        sys.exit(f"bench: no interfere sources at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import interfere

    if pathlib.Path(interfere.__file__).resolve().parent != SOURCE / "interfere":
        sys.exit(f"bench: imported interfere from {interfere.__file__}, not from {SOURCE}")
    return interfere


def cold_start():
    """Wall time of a fresh interpreter through ``import interfere.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import interfere.cli"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed_call(call, cli):
    if call.argv is None:
        start = time.perf_counter()
        value = call.function()
        return time.perf_counter() - start, value
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(call.argv)
        elapsed = time.perf_counter() - start
    return elapsed, (code, stdout.getvalue(), stderr.getvalue())


def execute(request, cli, tracer, request_id):
    """Time each call of the request, then check the outputs untimed."""
    seconds, outputs, problems = 0.0, [], []
    first_span = len(tracer.spans) if tracer else 0
    for call in request.calls:
        if tracer:
            tracer.request = request_id
        try:
            elapsed, output = timed_call(call, cli)
        except Exception as exc:  # a crash fails this request; the run goes on
            problems.append(f"{call.label}: raised {exc!r}")
            break
        finally:
            if tracer:
                tracer.request = None
        seconds += elapsed
        outputs.append(output)
    if not problems:
        problems = request.check(outputs)
    return {
        "seconds": seconds,
        "events": request.events,
        "problems": problems,
        "known_defect": request.known_defect,
        "layers": tracer.close_request(first_span) if tracer else None,
    }


def run(workload_name, seed, seconds, trace):
    interfere = import_program()
    import numpy as np

    import tracing
    import workloads
    from interfere import cli

    workload = workloads.WORKLOADS[workload_name]
    tracer = tracing.Tracer(interfere) if trace else None
    WORK.mkdir(exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    records, setup = [], []
    try:
        files = workloads.InputFiles(directory)

        def inputs(index, position):
            return workload.build(np.random.default_rng([seed, index]), position, files)

        execute(inputs(WARMUP_STREAM, 0), cli, None, -1)
        if not trace:
            cold_start()  # fills the file cache and bytecode caches; not a sample
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1
            if not trace:
                setup.append(cold_start())
            if traced:
                tracer.install()
            try:
                for position in range(workload.requests_per_round):
                    record = execute(inputs(len(records), position), cli, tracer if traced else None, len(records))
                    record["traced"] = traced
                    records.append(record)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            if time.perf_counter() >= deadline and (not trace or rounds % 2 == 0):
                break
    finally:
        shutil.rmtree(directory)

    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    passed = [r for r in records if not r["problems"]]
    report_failures(failed)
    untraced = [r for r in passed if not r["traced"]]
    if not untraced:
        sys.exit("bench: no request passed its checks")
    p50 = statistics.median(r["seconds"] for r in untraced)
    if trace:
        traced = [r for r in passed if r["traced"]]
        values, bases = tracing.Tracer.metrics([r["layers"] for r in traced])
        units = dict(tracing.METRICS)
        traced_p50 = statistics.median(r["seconds"] for r in traced)
        values["trace.overhead_ratio"] = traced_p50 / p50
        units["trace.overhead_ratio"] = "ratio"
        bases["trace.overhead_ratio"] = (f"traced request p50 {traced_p50:.6f} s over {len(traced)} requests / "
                                         f"untraced request p50 {p50:.6f} s over {len(untraced)} requests")
        spans_path = WORK / f"trace-{workload_name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "request_p50_s": p50,
            "events_per_s": sum(r["events"] for r in untraced) / sum(r["seconds"] for r in untraced),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "request_p50_s": "s", "events_per_s": "1/s", "peak_rss_mib": "MiB"}
        bases = {
            "setup_s": f"median of {len(setup)} cold starts, one per round",
            "request_p50_s": f"median of {len(untraced)} passed requests",
            "events_per_s": f"{sum(r['events'] for r in untraced)} events in {len(untraced)} passed requests",
            "peak_rss_mib": "ru_maxrss of the workload process",
        }
    print(f"workload {workload_name}, seed {seed}, {rounds} rounds of {workload.requests_per_round} requests: "
          f"{len(records)} attempted, {len(failed)} failed ({len(unexpected)} unexpected)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}  ({bases[name]})")
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def report_failures(failed):
    seen = {}
    for record in failed:
        for problem in record["problems"]:
            key = (record["known_defect"], problem.split(":")[0])
            seen.setdefault(key, [0, problem])[0] += 1
    for (defect, _), (count, problem) in seen.items():
        cause = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"failed x{count} [{cause}] {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["scan", "distribution", "large-n"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
