import json
import math
import subprocess
import sys

import numpy as np

from interfere import engine
from interfere.cli import main
from interfere.decompose import interference_orders, transition_polynomial
from interfere.engine import EventSpec, event_probability
from interfere.linalg import fourier_unitary, random_unitary
from interfere.model import (
    SourceConfig,
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    occupation_label,
    uniform_gram,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "prob", "--no-such-flag")
    assert code == 1
    assert "usage error" in err
    assert "usage:" in err  # help text accompanies the diagnosis
    # dist computes every output, so it takes no --output
    code, out, err = run_cli(
        capsys, "dist", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
        "--alpha", "0.5", "--output", "7,7,7",
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --output" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_bad_scenario_name_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "scenario", "nope")
    assert code == 1


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "prob", "--unitary", "fourier", "-m", "2", "--input", "1,2",
        "--stats", "boson", "--alpha", "1.5", "--output", "1,1",
    )
    assert code == 2
    assert "error" in err
    # non-finite coherence length, oscillation or position
    for extra in (["--lc", "nan"], ["--kf", "inf"], ["--positions", "0,nan"]):
        argv = ["prob", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
                "--positions", "0,1", "--output", "1,1"] + extra
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


def test_bad_grid_exit_code(capsys):
    code, _, _ = run_cli(capsys, "scenario", "hom", "--grid", "5:0:10")
    assert code == 2
    code, _, _ = run_cli(capsys, "scenario", "hom", "--grid", "0:5:1")
    assert code == 2


def test_conflicting_gram_specs(capsys):
    code, _, _ = run_cli(
        capsys, "prob", "--unitary", "fourier", "-m", "2", "--input", "1,2",
        "--stats", "boson", "--alpha", "0.5", "--positions", "0,1",
        "--output", "1,1",
    )
    assert code == 2


def test_hom_probability_csv(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--unitary", "beamsplitter", "--transmissivity", "0.5",
        "--input", "1,2", "--stats", "boson", "--alpha", "0", "--output", "1,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,event,probability"
    assert lines[1] == ",1.1,0.5"


def test_one_based_input_conversion(capsys):
    # 1-based CLI modes 3,6,9 address the same event as library modes 2,5,8
    code, out, _ = run_cli(
        capsys, "prob", "--unitary", "fourier", "-m", "9", "--input", "3,6,9",
        "--stats", "fermion", "--alpha", "0", "--output", "1,1,1,0,0,0,0,0,0",
    )
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert np.isclose(value, 6 / 729, atol=1e-9)


def test_decompose_hom(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--unitary", "fourier", "-m", "2", "--input", "1,2",
        "--output", "1,1", "--stats", "boson",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == ",d0,0.5"
    assert lines[2] == ",d2,-0.5"


def test_dist_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--unitary", "fourier", "-m", "5", "--input", "1,3",
        "--stats", "boson", "--positions", "0,0.7", "--lc", "1.0",
    )
    assert code == 0
    total = sum(float(line.split(",")[2]) for line in out.strip().splitlines()[1:])
    assert np.isclose(total, 1.0, atol=1e-9)


def test_verify_passes_within_budget(capsys):
    code, _, err = run_cli(
        capsys, "dist", "--unitary", "random", "-m", "4", "--seed", "7",
        "--input", "1,2,4", "--stats", "fermion", "--positions", "0,1,2",
        "--verify",
    )
    assert code == 0
    assert "verify" in err
    # two bosons in one input mode: the repeated mode is normalized
    code, out, err = run_cli(
        capsys, "dist", "--unitary", "beamsplitter", "--input", "1,1", "--stats", "boson",
        "--alpha", "0.5", "--verify",
    )
    assert code == 0
    assert "verify" in err
    assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["0.25", "0.5", "0.25"]


def test_prob_verify_prints_the_same_and_builds_each_output_once(capsys, monkeypatch):
    event = ["prob", "--unitary", "random", "-m", "6", "--seed", "11", "--input", "1,3,4",
             "--stats", "boson", "--alpha", "0.4"]
    argv = event + ["--output", "1,0,1,0,0,1", "--output", "0,3,0,0,0,0"]
    plain = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("csv", "json")}
    calls = []
    original = engine.relative_permutation_terms

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(engine, "relative_permutation_terms", counted)
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert (code, out) == plain["csv"][:2]
    assert "verify" in err
    # every output's terms are built once, for the full distribution
    assert len(calls) == len(set(calls)) == math.comb(6 + 3 - 1, 3)
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--verify")
    assert code == 0
    assert json.loads(out)["data"] == json.loads(plain["json"][1])["data"]
    # a bad output is rejected before the full distribution is built
    calls.clear()
    code, _, _ = run_cli(capsys, *event, "--output", "1,1,0,0,0,0", "--verify")
    assert (code, calls) == (2, [])


def test_scan_and_dist_equal_single_event_probabilities(capsys):
    # every row is bit for bit the probability of its (Gram, output) pair
    u = random_unitary(5, 3)
    outputs = [(1, 1, 1, 0, 0), (0, 2, 0, 0, 1), (3, 0, 0, 0, 0)]
    event = ["--unitary", "random", "-m", "5", "--seed", "3", "--input", "1,2,4", "--format", "json"]
    scans = {
        "alpha": (["--alpha", "0"], lambda v: uniform_gram(3, v)),
        "x": (["--positions", "0,0.7,1.5", "--lc", "0.9", "--kf", "1.5"],
              lambda v: gram_from_positions(SourceConfig((0.0, 0.7 * v, 1.5 * v), 0.9, 1.5))),
    }
    for stats in Statistics:
        for vary, (gram_args, gram_at) in scans.items():
            argv = (["scan"] + event + ["--stats", stats.value, "--vary", vary, "--grid", "0:1:5"]
                    + gram_args)
            for occ in outputs:
                argv += ["--output", ",".join(map(str, occ))]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            rows = json.loads(out)["data"]
            assert len(rows) == 5 * len(outputs)
            for row, (v, occ) in zip(rows, [(v, o) for v in np.linspace(0, 1, 5) for o in outputs]):
                assert row["event"] == occupation_label(occ)
                spec = EventSpec(u, (0, 1, 3), occ, gram_at(v), stats)
                assert row["probability"] == event_probability(spec)
        code, out, _ = run_cli(capsys, "dist", *event, "--stats", stats.value, "--alpha", "0.3")
        assert code == 0
        rows = json.loads(out)["data"]
        assert len(rows) == math.comb(7, 3)
        for row, occ in zip(rows, enumerate_occupations(5, 3)):
            assert row["event"] == occupation_label(occ)
            spec = EventSpec(u, (0, 1, 3), occ, uniform_gram(3, 0.3), stats)
            assert row["probability"] == event_probability(spec)


def test_verify_beyond_oracle_budget_is_domain_error(capsys):
    code, _, _ = run_cli(
        capsys, "dist", "--unitary", "fourier", "-m", "10", "--input", "1,2",
        "--stats", "boson", "--alpha", "0.5", "--verify",
    )
    assert code == 2


def test_scan_alpha_matches_transition_polynomial(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--unitary", "fourier", "-m", "9", "--input", "3,6,9",
        "--stats", "fermion", "--alpha", "0", "--vary", "alpha",
        "--grid", "0:1:5", "--output", "1,1,1,0,0,0,0,0,0",
    )
    assert code == 0
    result = interference_orders(
        fourier_unitary(9), (2, 5, 8), (1, 1, 1, 0, 0, 0, 0, 0, 0), Statistics.FERMION
    )
    for line in out.strip().splitlines()[1:]:
        alpha_text, _, p_text = line.split(",")
        expected = transition_polynomial(result, float(alpha_text))
        assert np.isclose(float(p_text), expected, atol=1e-9)


def test_scenario_hom_starts_at_zero(capsys):
    code, out, _ = run_cli(capsys, "scenario", "hom", "--grid", "0:5:11")
    assert code == 0
    first = out.strip().splitlines()[1]
    assert first == "0,1.1,0"


def test_scenario_fermion9_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "fermion9", "--grid", "0:5:21", "--format", "json",
        "--output", "1,1,1,0,0,0,0,0,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["scenario"] == "fermion9"
    re_emitted = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert re_emitted == out


def test_scenario_fermion9_flags_nonmonotonic_events(capsys):
    code, out, _ = run_cli(
        capsys, "scenario", "fermion9", "--grid", "0:5:201", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["meta"]["nonmonotonic_events"]) >= 1
    # at the far end of the scan every singly occupied event has reached the
    # distinguishable-limit value 3!/9^3
    far = [row["probability"] for row in payload["data"] if row["parameter"] == 5.0]
    assert len(far) == 84
    assert max(abs(p - 6 / 729) for p in far) <= 1e-6


def test_scenario_runs_are_deterministic():
    argv = [sys.executable, "-m", "interfere", "scenario", "fermion9", "--grid", "0:5:41"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"parameter,event,probability\n")


def test_out_file_and_unwritable_path(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "scenario", "bjork", "--grid", "0:1.5707963267948966:5",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("parameter,event,probability\n")
    code, _, _ = run_cli(
        capsys, "scenario", "bjork", "--out", str(tmp_path / "missing" / "curve.csv"),
    )
    assert code == 2


def write_matrix_file(path, matrix):
    lines = [str(matrix.shape[0])]
    for row in matrix:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    path.write_text("\n".join(lines) + "\n")


def test_unitary_file_round_trip(tmp_path, capsys):
    path = tmp_path / "fourier3.txt"
    write_matrix_file(path, fourier_unitary(3))
    code, out, _ = run_cli(
        capsys, "prob", "--unitary", "file", "--unitary-file", str(path),
        "--input", "1,2", "--stats", "boson", "--alpha", "1", "--output", "0,1,1",
    )
    assert code == 0
    reference = run_cli(
        capsys, "prob", "--unitary", "fourier", "-m", "3",
        "--input", "1,2", "--stats", "boson", "--alpha", "1", "--output", "0,1,1",
    )
    assert out == reference[1]


def test_non_unitary_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_matrix_file(path, np.ones((2, 2), dtype=complex))
    code, _, err = run_cli(
        capsys, "prob", "--unitary", "file", "--unitary-file", str(path),
        "--input", "1,2", "--stats", "boson", "--alpha", "1", "--output", "1,1",
    )
    assert code == 2
    assert "unitary" in err


def test_gram_file(tmp_path, capsys):
    path = tmp_path / "gram.txt"
    gram = np.array([[1.0, 0.25], [0.25, 1.0]], dtype=complex)
    write_matrix_file(path, gram)
    code, out, _ = run_cli(
        capsys, "prob", "--unitary", "beamsplitter", "--input", "1,2",
        "--stats", "boson", "--gram-file", str(path), "--output", "1,1",
    )
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert np.isclose(value, (1 - 0.25**2) / 2, atol=1e-12)


def test_consistency_error_maps_to_exit_3(capsys, monkeypatch):
    from interfere import cli as cli_module
    from interfere.exceptions import ConsistencyError

    def boom(*_args, **_kwargs):
        raise ConsistencyError("synthetic failure")

    monkeypatch.setattr(cli_module.engine, "full_distribution", boom)
    code, _, err = run_cli(
        capsys, "dist", "--unitary", "fourier", "-m", "3", "--input", "1,2",
        "--stats", "boson", "--alpha", "0.5",
    )
    assert code == 3
    assert "consistency" in err


def test_emit_empty_results_is_header_only():
    from interfere.cli import emit

    assert emit([], {}, "csv") == "parameter,event,probability\n"
    payload = json.loads(emit([], {"command": "prob"}, "json"))
    assert payload["data"] == []


def test_random_unitary_requires_seed(capsys):
    code, _, _ = run_cli(
        capsys, "prob", "--unitary", "random", "-m", "3", "--input", "1",
        "--stats", "boson", "--alpha", "1", "--output", "1,0,0",
    )
    assert code == 2
