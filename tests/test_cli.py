import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfere
from _helpers import emit_rows, run_module
from interfere import cli, decompose, engine, model, scenarios
from interfere.cli import MAX_GRID_POINTS, main
from interfere.decompose import interference_orders, transition_polynomial
from interfere.engine import event_probability
from interfere.exceptions import DomainError
from interfere.linalg import MAX_MODES, fourier_unitary, random_unitary
from interfere.model import (
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
    # each command registers only the options it reads
    for argv in (
        ["decompose", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
         "--output", "1,1", "--alpha", "7", "--gram-file", "no-such-file", "--lc", "-3"],
        ["scenario", "hom", "--output", "7,7", "--kf", "3", "--alpha", "9"],
        ["scenario", "bjork", "--lc", "-5"],
        ["scenario", "doubleslit", "--kf", "nan"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err


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


def test_extreme_finite_gram_inputs(capsys):
    # l_c^2 underflows, a squared distance overflows, an oscillation phase
    # overflows: no numpy warning (an error under pytest) in any of them
    code, out, _ = run_cli(capsys, "scenario", "hom", "--lc", "1e-200", "--grid", "0:1:3")
    assert (code, out) == (0, "parameter,event,probability\n0,1.1,0\n0.5,1.1,0.5\n1,1.1,0.5\n")
    code, out, _ = run_cli(capsys, "prob", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
                           "--positions", "0,1e200", "--output", "1,1")
    assert (code, out) == (0, "parameter,event,probability\n,1.1,0.5\n")
    code, out, err = run_cli(capsys, "scan", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
                             "--positions", "0,1", "--kf", "1e300", "--vary", "x", "--grid", "0:1e10:3",
                             "--output", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: oscillation phase overflows")


def test_bad_grid_exit_code(capsys):
    code, _, _ = run_cli(capsys, "scenario", "hom", "--grid", "5:0:10")
    assert code == 2
    code, _, _ = run_cli(capsys, "scenario", "hom", "--grid", "0:5:1")
    assert code == 2
    # non-finite ends, a span that overflows, and a count above the budget
    for grid in ("0:inf:3", "nan:1:3", "-1e308:1e308:3", f"0:1:{MAX_GRID_POINTS + 1}"):
        for name in ("doubleslit", "hom"):
            code, out, err = run_cli(capsys, "scenario", name, f"--grid={grid}")
            assert (code, out) == (2, "")
            assert err.startswith("error: grid")


def test_negative_grid_and_positions_need_the_equals_form(capsys):
    # argparse reads a value that starts with '-' and is no plain number as an option
    scan = ["scan", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson", "--output", "1,1",
            "--vary", "x", "--grid", "0:1:3"]
    for argv, option, value, rows in ((["scenario", "hom"], "--grid", "-2:2:5", 5),
                                      (scan, "--positions", "-1,0", 3)):
        code, out, err = run_cli(capsys, *argv, option, value)
        assert (code, out) == (1, "")
        assert f"argument {option}: expected one argument" in err
        assert "usage:" in err
        code, out, _ = run_cli(capsys, *argv, f"{option}={value}")
        assert code == 0
        assert len(out.splitlines()) == 1 + rows


def test_bad_coherence_length_or_mode_count_exit_code(capsys):
    for lc in ("0", "-1", "nan"):
        code, out, err = run_cli(capsys, "scenario", "fermion9", "--lc", lc, "--grid", "0:1:3")
        assert (code, out) == (2, "")
        assert "coherence length" in err
    for kind in (["fourier"], ["random", "--seed", "1"]):
        code, out, err = run_cli(
            capsys, "prob", "--unitary", *kind, "-m", str(MAX_MODES + 1), "--input", "1",
            "--stats", "boson", "--alpha", "1", "--output", "1",
        )
        assert (code, out) == (2, "")
        assert "mode count" in err


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


DECOMPOSE_BYTES = [  # network and event, stats, the CSV text, the JSON coefficients and total_check
    pytest.param("--unitary beamsplitter --transmissivity 0.3 --input 1,2 --output 1,1", "boson",
        ",d0,0.58\n,d2,-0.42\n", [0.58, -0.41999999999999993], 0.16000000000000003, id="N2-boson"),
    pytest.param("--unitary beamsplitter --transmissivity 0.3 --input 1,2 --output 1,1", "fermion",
        ",d0,0.58\n,d2,0.42\n", [0.5800000000000001, 0.4199999999999999], 1.0, id="N2-fermion"),
    pytest.param("--unitary random -m 6 --seed 11 --input 1,3,4,6 --output 2,0,1,0,0,1", "boson",
        ",d0,0.00295317026575\n,d2,-0.000175170516071\n,d3,-0.00114983674724\n,d4,0.00131174400694\n",
        [0.0029531702657475257, -0.00017517051607145737, -0.0011498367472430725, 0.0013117440069384779],
        0.0029399070093714735, id="N4-boson"),
    pytest.param("--unitary random -m 6 --seed 11 --input 1,3,4,6 --output 1,0,1,1,0,1", "fermion",
        ",d0,0.0120928681331\n,d2,0.0189987656763\n,d3,0.0162139719256\n,d4,0.00870736078668\n",
        [0.01209286813309494, 0.01899876567628867, 0.016213971925629053, 0.008707360786681847],
        0.05601296652169451, id="N4-fermion"),
    pytest.param("--unitary random -m 8 --seed 3 --input 1,2,3,4,5,6,7 --output 1,3,0,0,0,0,3,0", "boson",
        ",d0,1.45356922108e-05\n,d2,6.34422025768e-05\n,d3,-1.89805914195e-05\n,d4,-4.62261389745e-05\n"
        ",d5,5.32571283179e-05\n,d6,1.17182371951e-05\n,d7,-4.87701038424e-05\n",
        [1.4535692210830453e-05, 6.34422025768409e-05, -1.898059141951148e-05, -4.622613897446036e-05,
         5.3257128317938274e-05, 1.171823719514472e-05, -4.8770103842404675e-05],
        2.8976426064377838e-05, id="N7-boson"),
    pytest.param("--unitary random -m 8 --seed 9 --input 1,2,3,4,5,6,7 --output 1,0,1,1,1,1,1,1", "fermion",
        ",d0,0.00274129234965\n,d2,0.0087548115664\n,d3,0.00832595572247\n,d4,0.0162537356909\n"
        ",d5,0.0165526618719\n,d6,0.0109017073224\n,d7,0.000469175607099\n",
        [0.00274129234965083, 0.008754811566395427, 0.008325955722467785, 0.016253735690883203,
         0.016552661871948336, 0.010901707322417279, 0.0004691756070989237],
        0.0639993401308618, id="N7-fermion"),
]


@pytest.mark.parametrize("event, stats, csv, orders, total", DECOMPOSE_BYTES)
def test_decompose_of_one_output_keeps_its_bytes(capsys, event, stats, csv, orders, total):
    # N = 2, 4 and 7 (N + 1 = 8 rows, where numpy's pairwise orders.sum(axis=0)
    # would round total_check differently from adding the rows in order d)
    argv = ["decompose", *event.split(), "--stats", stats]
    assert run_cli(capsys, *argv) == (0, "parameter,event,probability\n" + csv, "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert (code, err, out) == (0, "", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    label = event.split()[-1].replace(",", ".")
    assert [row["probability"] for row in payload["data"]] == orders  # float reprs: exact bytes
    assert payload["meta"]["total_check"] == {label: total}


@pytest.mark.parametrize("count", [1, 2, 5])
def test_decompose_makes_one_path_sum_for_any_number_of_outputs(capsys, monkeypatch, count):
    calls = []
    def counted(*args):
        calls.append(len(args[2]))
        return engine._path_sum_totals(*args)
    monkeypatch.setattr(decompose, "_path_sum_totals", counted)
    outputs = [",".join(map(str, occ)) for occ in itertools.islice(enumerate_occupations(3, 3), count)]
    code, out, _ = run_cli(capsys, "decompose", "--unitary", "fourier", "-m", "3", "--input", "1,2,3",
                           "--stats", "boson", *itertools.chain(*(["--output", o] for o in outputs)))
    assert (code, calls) == (0, [count])
    assert len(out.splitlines()) == 1 + 3 * count


@pytest.mark.parametrize("others", [[], ["--output", "1,1,1,1"]])
@pytest.mark.parametrize("stats, orders", [("boson", "0.015625,0.03125,0,-0.046875"),
                                           ("fermion", "0.015625,-0.03125,0,0.015625")])
def test_decompose_prints_an_order_that_cancels_exactly_as_zero(capsys, stats, orders, others):
    # C_3 of this Fourier event is 0 in exact arithmetic; its rounding noise
    # (about 1e-17) lies under the floor of interference_orders, which each
    # output keeps when it shares the call with a larger one (max |P(w)| 8 to
    # 18 times as large; the two outputs take the tensor expansion)
    code, out, _ = run_cli(
        capsys, "decompose", "--unitary", "fourier", "-m", "4", "--input", "1,2,3,4",
        "--output", "0,1,3,0", *others, "--stats", stats,
    )
    assert code == 0
    assert [line.split(",")[2] for line in out.strip().splitlines()[1:5]] == orders.split(",")


def test_dist_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--unitary", "fourier", "-m", "5", "--input", "1,3",
        "--stats", "boson", "--positions", "0,0.7", "--lc", "1.0",
    )
    assert code == 0
    total = sum(float(line.split(",")[2]) for line in out.strip().splitlines()[1:])
    assert np.isclose(total, 1.0, atol=1e-9)


def test_dist_checks_no_output_it_labels(capsys, monkeypatch):
    # the outputs of a full distribution come from its plan, not from the
    # user, so labelling them takes no integer check: the 715 outputs at
    # (m, N) = (10, 4) take as many as the 35 at (4, 4)
    calls = []
    as_integers = model.as_integers
    for module in (model, engine, cli):
        monkeypatch.setattr(module, "as_integers", lambda *a, **k: calls.append(a) or as_integers(*a, **k))
    counts = {}
    for modes in (10, 4):
        engine._distribution_plan.cache_clear()  # each size enumerates its outputs once
        calls.clear()
        code, out, _ = run_cli(capsys, "dist", "--unitary", "fourier", "-m", str(modes), "--input", "1,2,3,4",
                               "--stats", "boson", "--alpha", "0.5")
        assert (code, len(out.splitlines())) == (0, 1 + math.comb(modes + 3, 4))
        counts[modes] = len(calls)
    assert counts[10] == counts[4] < 10


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
    table, distribution = engine._path_sum_totals, engine.full_distribution
    monkeypatch.setattr(engine, "_path_sum_totals", lambda *a: calls.append(a[2].tolist()) or table(*a))
    monkeypatch.setattr(engine, "full_distribution", lambda *a: calls.append("full") or distribution(*a))
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert (code, out) == plain["csv"][:2]
    assert "verify" in err
    # the requested outputs take one expansion, as without --verify, each once,
    # and the oracle checks that table: no full distribution is built
    assert calls == [[[1, 0, 1, 0, 0, 1], [0, 3, 0, 0, 0, 0]]]
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--verify")
    assert code == 0
    assert json.loads(out)["data"] == json.loads(plain["json"][1])["data"]
    # a bad output is rejected before the oracle runs
    calls.clear()
    code, _, _ = run_cli(capsys, *event, "--output", "1,1,0,0,0,0", "--verify")
    assert (code, calls) == (2, [])
    # prob, dist and an alpha scan each make one table call
    commands = {"prob": argv, "dist": ["dist", *event[1:]],
                "scan": ["scan", *argv[1:], "--vary", "alpha", "--grid", "0:1:3"]}
    tables = []
    for name in ("probability_table", "full_distribution"):
        monkeypatch.setattr(engine, name, lambda *a, name=name, spied=getattr(engine, name): tables.append(name)
                            or spied(*a))
    for command, expected in (("prob", "probability_table"), ("dist", "full_distribution"),
                              ("scan", "probability_table")):
        tables.clear()
        assert run_cli(capsys, *commands[command])[0] == 0
        assert tables == [expected]
    # a printed row that strays from the oracle fails the check, in prob and in dist
    spied_table, spied_distribution = engine.probability_table, engine.full_distribution
    monkeypatch.setattr(engine, "probability_table", lambda *a: spied_table(*a) + [0.0, 1e-8])
    monkeypatch.setattr(engine, "full_distribution", lambda *a: {
        occ: p + 1e-8 * (k == 3) for k, (occ, p) in enumerate(spied_distribution(*a).items())})
    for command in ("prob", "dist"):
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, *commands[command], "--format", fmt, "--verify")
            assert (code, out) == (3, "")
            assert err.startswith("internal consistency error: first-quantized cross-check deviates by 1.000e-08")


def test_scan_and_dist_equal_single_event_probabilities(capsys):
    # every row is the probability of its (Gram, output) pair within 1e-15:
    # one event takes a path sum, the five-Gram scans and dist the tensor expansion
    u = random_unitary(5, 3)
    outputs = [(1, 1, 1, 0, 0), (0, 2, 0, 0, 1), (3, 0, 0, 0, 0)]
    event = ["--unitary", "random", "-m", "5", "--seed", "3", "--input", "1,2,4", "--format", "json"]
    scans = {
        "alpha": (["--alpha", "0"], lambda v: uniform_gram(3, v)),
        "x": (["--positions", "0,0.7,1.5", "--lc", "0.9", "--kf", "1.5"],
              lambda v: gram_from_positions((0.0, 0.7 * v, 1.5 * v), 0.9, 1.5)),
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
                p = event_probability(u, (0, 1, 3), occ, gram_at(v), stats)
                assert abs(row["probability"] - p) <= 1e-15
        code, out, _ = run_cli(capsys, "dist", *event, "--stats", stats.value, "--alpha", "0.3")
        assert code == 0
        rows = json.loads(out)["data"]
        assert len(rows) == math.comb(7, 3)
        for row, occ in zip(rows, enumerate_occupations(5, 3)):
            assert row["event"] == occupation_label(occ)
            p = event_probability(u, (0, 1, 3), occ, uniform_gram(3, 0.3), stats)
            assert abs(row["probability"] - p) <= 1e-15


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
    (orders,) = interference_orders(
        fourier_unitary(9), (2, 5, 8), [(1, 1, 1, 0, 0, 0, 0, 0, 0)], Statistics.FERMION
    ).T
    for line in out.strip().splitlines()[1:]:
        alpha_text, _, p_text = line.split(",")
        expected = transition_polynomial(orders, float(alpha_text))
        assert np.isclose(float(p_text), expected, atol=1e-9)


def test_scenario_hom_starts_at_zero(capsys):
    code, out, _ = run_cli(capsys, "scenario", "hom", "--grid", "0:5:11")
    assert code == 0
    first = out.strip().splitlines()[1]
    assert first == "0,1.1,0"


@pytest.mark.parametrize("grid", ["0:5:21", "-2:3:11"])
def test_position_presets_print_the_bytes_of_scan_vary_x(capsys, grid):
    # hom, fermion9 and boson9 are position scans: the same rows as scan --vary x
    singles = [",".join(map(str, occ)) for occ in enumerate_occupations(9, 3) if max(occ) == 1]
    fourier = ["--unitary", "fourier", "-m", "9", "--input", "3,6,9", "--positions", "0,1,2",
               "--lc", "1.3", "--kf", "0.4", "--vary", "x", f"--grid={grid}"]
    for preset, stats in (("fermion9", "fermion"), ("boson9", "boson")):
        expected = run_cli(capsys, "scenario", preset, "--lc", "1.3", "--kf", "0.4", f"--grid={grid}")
        assert expected[0] == 0
        argv = ["scan", *fourier, "--stats", stats] + [arg for occ in singles for arg in ("--output", occ)]
        assert run_cli(capsys, *argv) == expected
    expected = run_cli(capsys, "scenario", "hom", f"--grid={grid}")
    assert expected[0] == 0
    assert run_cli(capsys, "scan", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
                   "--positions", "0,1", "--vary", "x", f"--grid={grid}", "--output", "1,1") == expected


def test_displacement_scans_go_through_position_scan(capsys, monkeypatch):
    calls = []
    original = scenarios.position_scan

    def spy(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "position_scan", spy)
    scenarios.hom_scan(1.0, [0.0, 1.0])
    scenarios.fermion_fourier_scan([0.0, 1.0])
    scenarios.boson_fourier_scan([0.0, 1.0])
    code, _, _ = run_cli(capsys, "scan", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
                         "--positions", "0,0.5", "--vary", "x", "--grid", "0:1:3", "--output", "1,1")
    assert code == 0
    assert calls == [(0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), [0.0, 0.5]]


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
    argv = ["scenario", "fermion9", "--grid", "0:5:41"]
    first = run_module(*argv, check=True)
    second = run_module(*argv, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"parameter,event,probability\n")


def test_version_is_the_pyproject_version():
    # the version is written twice, in pyproject.toml and in interfere.__version__
    # (which --version prints and JSON meta embeds): the two must agree
    run = run_module("--version", text=True, check=True)
    assert run.stdout == interfere.__version__ + "\n"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == interfere.__version__


def test_one_process_runs_each_command_as_a_fresh_process_would():
    # the parser is built once per process: appended --output lists and
    # defaults must not carry over from one main() call to the next, after a
    # folded run of --output or after a fold that falls back to a full parse
    network = ["--unitary", "random", "-m", "3", "--seed", "4", "--input", "1,2", "--stats", "boson"]
    scan = ["scan", *network, "--alpha", "0", "--vary", "alpha", "--grid", "0:1:3",
            "--output", "1,0,1", "--output", "0,2,0"]
    sequence = [scan, ["dist", *network, "--alpha", "0.5", "--output", "1,1,0"],
                ["dist", *network, "--alpha", "0.5", "--format", "json"], scan, [*scan, "--output=0,0,2"], scan]
    codes = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main(argv))
        fresh = run_module(*argv, text=True)
        assert (codes[-1], out.getvalue(), err.getvalue()) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert codes == [0, 1, 0, 0, 0, 0]
    assert len(out.getvalue().splitlines()) == 1 + 3 * 2  # header, 3 grid points x 2 outputs


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


def test_invalid_gram_files_are_domain_errors(tmp_path, capsys):
    # the engine's Gram check is the only one: a non-Hermitian or wrong-size
    # overlap file fails prob, dist and dist --verify alike, before any output
    event = ["--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson"]
    for name, gram in (("non-hermitian", [[1, 0.3], [0.5, 1]]), ("wrong-size", np.eye(3))):
        path = tmp_path / f"{name}.txt"
        write_matrix_file(path, np.array(gram, dtype=complex))
        for argv in (["prob", *event, "--output", "1,1"], ["dist", *event], ["dist", *event, "--verify"]):
            code, out, err = run_cli(capsys, *argv, "--gram-file", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: overlap matrix")


def test_empty_list_items_are_domain_errors(capsys):
    # an empty item is an error, not skipped: "1,,2" is not read as "1,2"
    base = {"--input": "1,2", "--positions": "0,1", "--output": "1,1"}
    for flag in base:
        for text in ("1,,2", "1,1,", ",1"):
            values = dict(base, **{flag: text})
            code, out, err = run_cli(
                capsys, "prob", "--unitary", "beamsplitter", "--stats", "boson",
                *(item for pair in values.items() for item in pair),
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: expected a comma-separated")


def test_zero_size_matrix_files_are_domain_errors(tmp_path, capsys):
    # a file of dimension 0 or below holds no matrix: exit 2, not a traceback
    event = ["--input", "1", "--stats", "boson"]
    path = tmp_path / "empty.txt"
    for text in ("0\n", "-1\n1,0\n"):
        path.write_text(text)
        for argv in (
            ["prob", "--unitary", "file", "--unitary-file", str(path), *event, "--alpha", "1", "--output", "1"],
            ["prob", "--unitary", "fourier", "-m", "1", *event, "--gram-file", str(path), "--output", "1"],
            ["decompose", "--unitary", "file", "--unitary-file", str(path), *event, "--output", "1"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:")


def test_empty_matrix_files_name_themselves(tmp_path, capsys):
    # a file with no token, or only whitespace, holds no dimension: exit 2 with its own message
    event = ["--input", "1", "--stats", "boson", "--output", "1"]
    for text in ("", " \n\t\n"):
        path = tmp_path / "blank.txt"
        path.write_text(text)
        for kind, argv in (
            ("unitary", ["prob", "--unitary", "file", "--unitary-file", str(path), *event, "--alpha", "1"]),
            ("overlap", ["prob", "--unitary", "fourier", "-m", "1", *event, "--gram-file", str(path)]),
        ):
            assert run_cli(capsys, *argv) == (2, "", f"error: {kind} file {path} is empty\n")


def test_a_position_scan_takes_no_other_gram_spec(tmp_path, capsys):
    # --vary x reads its Grams from --positions: --alpha or --gram-file there is a domain error
    path = tmp_path / "eye3.txt"
    write_matrix_file(path, np.eye(3, dtype=complex))
    scan = ["scan", "--unitary", "fourier", "-m", "3", "--input", "1,2,3", "--stats", "fermion",
            "--vary", "x", "--grid", "0:1:5", "--output", "1,1,1"]
    for spec in (["--alpha", "0.5"], ["--gram-file", str(path)]):
        assert run_cli(capsys, *scan, *spec) == (2, "", "error: --vary x requires --positions as the gram spec\n")


def test_matrix_files_hold_one_re_im_pair_per_entry(tmp_path):
    # each entry is one "re,im" token, read bit for bit (-0.0, subnormals, NaN,
    # digit separators); a token without exactly one comma is an error, also
    # where the file's commas still split it into 2 n^2 numbers
    path = tmp_path / "m.txt"
    texts = ["-0.0,0.0", "5e-324,-1e308", "nan,-inf", "0.1,1_0"]
    path.write_text("2\n" + " ".join(texts) + "\n")
    want = np.array([complex(*map(float, text.split(","))) for text in texts]).reshape(2, 2)
    assert cli._read_complex_matrix(path, "unitary").tobytes() == want.tobytes()
    for bad in ("1,0,0 0 0,0 1,0", "1,0 0,0 0,0 1,0,0", "1;0 0,0 0,0 1,0", "1,0 0,0 0,0 1,", "1,0 0,0 0,0"):
        path.write_text("2\n" + bad + "\n")
        with pytest.raises(DomainError, match=r"must hold a dimension n >= 1 then n\*n 're,im' pairs"):
            cli._read_complex_matrix(path, "unitary")


README_ALPHA_SCAN = ["scan", "--unitary", "fourier", "-m", "9", "--input", "3,6,9", "--stats", "fermion",
                     "--vary", "alpha", "--grid", "0:1:51", "--output", "1,1,0,1,0,0,0,0,0"]


def test_alpha_scan_takes_its_overlaps_from_the_grid(tmp_path, capsys):
    # the README's example, verbatim: --vary alpha needs no --alpha
    code, out, _ = run_cli(capsys, *README_ALPHA_SCAN)
    assert code == 0
    assert len(out.splitlines()) == 52
    # an --alpha beside it is still accepted and changes no row; JSON meta.gram echoes it only when given
    assert run_cli(capsys, *README_ALPHA_SCAN, "--alpha", "0.5")[:2] == (0, out)
    grams = [json.loads(run_cli(capsys, *README_ALPHA_SCAN, *extra, "--format", "json")[1])["meta"]["gram"]
             for extra in ([], ["--alpha", "0.5"])]
    assert grams == [{"kind": "uniform"}, {"kind": "uniform", "alpha": 0.5}]
    # the other overlap specs stay domain errors there, and --vary x still needs --positions
    path = tmp_path / "eye3.txt"
    write_matrix_file(path, np.eye(3, dtype=complex))
    for argv in (README_ALPHA_SCAN + ["--positions", "0,1,2"], README_ALPHA_SCAN + ["--gram-file", str(path)],
                 [arg if arg != "alpha" else "x" for arg in README_ALPHA_SCAN]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


ALPHA_SCAN_GRIDS = ("0:1:2", "0.2:0.8:6", "0:0.99:201")
# scan --vary alpha of three outputs of the 3-mode Fourier network, by format,
# statistics and 1-based input modes: the first 16 hex digits of the SHA-256 of
# stdout on each grid (the JSON version written as "VERSION"), as printed when
# each grid point built its own overlap matrix. None: two fermions in one mode
# at alpha = 1, whose input state vanishes.
ALPHA_SCAN_DIGESTS = {
    "csv boson 1,2,3": ("b21c934837388a44", "5fa1c7f6187d064d", "c732c03b4e56400f"),
    "csv boson 1,1,2": ("d3a87a4270bd418e", "ef4ae1b089a832c7", "71bc8dd578d6702d"),
    "csv fermion 1,2,3": ("a51290ae6a57ae76", "cbda49071762fe50", "b635303703773cb8"),
    "csv fermion 1,1,2": (None, "8c7fba461e9e5f63", "270bd310fda0b181"),
    "json boson 1,2,3": ("338382671189ac2c", "df2424210e54d2d4", "62266f1fd874c5ab"),
    "json boson 1,1,2": ("fc308f2767e0ea1a", "a01ffdb4f5092bfe", "b08fc5dbea65fc97"),
    "json fermion 1,2,3": ("79d91a75dd274c07", "f017fbfab651642e", "36ceb326d55f9a5f"),
    "json fermion 1,1,2": (None, "8e57d9c58695a206", "494960148dc6f34a"),
}


@pytest.mark.parametrize("grid", ALPHA_SCAN_GRIDS + ("0:2:5", "-0.5:1:3"))
@pytest.mark.parametrize("case", list(ALPHA_SCAN_DIGESTS))
def test_alpha_scans_keep_their_bytes(capsys, case, grid):
    # the grid's overlaps are one stack; a grid that leaves [0, 1] names its first value outside
    fmt, stats, inputs = case.split()
    code, out, err = run_cli(capsys, "scan", "--unitary", "fourier", "-m", "3", "--input", inputs, "--stats", stats,
                             "--vary", "alpha", f"--grid={grid}", "--output", "1,1,1", "--output", "3,0,0",
                             "--output", "0,1,2", "--format", fmt)
    if grid not in ALPHA_SCAN_GRIDS:
        first = {"0:2:5": 1.5, "-0.5:1:3": -0.5}[grid]
        assert (code, out, err) == (2, "", f"error: overlap: expected finite reals in [0.0, 1.0], got ({first},)\n")
    elif ALPHA_SCAN_DIGESTS[case][ALPHA_SCAN_GRIDS.index(grid)] is None:
        assert (code, out, err) == (2, "", "error: input state vanishes (squared norm 0.000e+00)\n")
    else:
        text = out.replace(json.dumps(interfere.__version__), '"VERSION"')
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (code, digest, err) == (0, ALPHA_SCAN_DIGESTS[case][ALPHA_SCAN_GRIDS.index(grid)], "")


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

    assert emit(None, [], [[]], {}, "csv") == "parameter,event,probability\n"
    payload = json.loads(emit(None, [], [[]], {"command": "prob"}, "json"))
    assert payload["data"] == []


GRID_VALUES = [0.0, -0.0, 1.0, -2.5, 1e-300, -1e-300, 0.1 + 0.2, 2 * math.pi, 1e300, 5e-324]
PROBABILITIES = [0.0, 1.0, 1e-18, 0.1 + 0.2, 0.5, 1 / 3, 5e-324]


@st.composite
def emit_blocks(draw):
    """A table block of ``emit``: no grid, one value or many (negative,
    tiny, repeated, -0.0), 0 to 200 labels (some holding %) and a
    probability for each grid value and label."""
    grid = draw(st.sampled_from([None, 1, "many"]))
    value = st.one_of(st.sampled_from(GRID_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    if grid == 1:
        grid = [draw(value)]
    elif grid == "many":
        grid = sorted(draw(st.lists(value, min_size=2, max_size=12)))
        grid = draw(st.sampled_from([grid, [grid[0]] * len(grid)]))
    label = st.one_of(st.sampled_from(["1.1.0", "d2", "1.0.1:d3", "%", "%d", "50%", "%%s"]),
                      st.text(st.sampled_from("0123456789.:d%s"), max_size=8))
    labels = draw(st.lists(label, max_size=200))
    probability = st.one_of(st.sampled_from(PROBABILITIES), st.floats(0.0, 1.0))
    table = [[draw(probability) for _ in labels] for _ in (grid or [None])]
    return grid, labels, table


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block=emit_blocks())
def test_emit_renders_the_bytes_of_the_row_by_row_renderer(block):
    grid, labels, table = block
    rows = [(parameter, label, p) for parameter, row in zip(grid or [None], table) for label, p in zip(labels, row)]
    meta = {"command": "scan", "grid": {"count": len(grid or ())}}
    for fmt in ("csv", "json"):
        assert cli.emit(grid, labels, table, meta, fmt) == emit_rows(rows, meta, fmt)


def test_random_unitary_requires_seed(capsys):
    code, _, _ = run_cli(
        capsys, "prob", "--unitary", "random", "-m", "3", "--input", "1",
        "--stats", "boson", "--alpha", "1", "--output", "1,0,0",
    )
    assert code == 2


NUMBERS = ["0", "-1", "nan", "inf", "1e400", "", "0.5", "-inf"]
# each flag any command takes, with values that include 0, negatives, nan,
# inf, 1e400, empty strings, wrong lengths and counts above every budget
ARGV_VALUES = {
    "--unitary": ["fourier", "beamsplitter", "random", "file", "other"],
    "-m": ["0", "-1", "nan", "", "1e400", str(MAX_MODES + 1), "2", "3"],
    "--seed": ["-1", "0", "", "1e400"],
    "--transmissivity": NUMBERS,
    "--unitary-file": ["no-such-file"],
    "--input": ["0,1", "-1", "", "nan", "1.5,2", "1,2,3,4,5,6,7,8", "1,1,1,1,1,1,1,1", "1,1,1,1,1,1",
                "1", "1,1", "2,1", "3,1,2", "1,,2", "1,1,"],
    "--stats": ["boson", "fermion", "other"],
    "--alpha": NUMBERS,
    "--positions": ["0,nan", "0,inf", "0,1e400", "", "0", "0,0.5,1", "0,1", "0,1e200", "=-1e308,1e308",
                    "1,,2", "1,1,"],
    "--lc": NUMBERS + ["1e-200", "1e300"],
    "--kf": NUMBERS + ["1e-200", "1e300"],
    "--gram-file": ["no-such-file"],
    "--output": ["", "-1,3", "1.5,0.5", "1,1,1,1,1,1,1,1", "8,0", "0,6", "1,1", "2,0", "1,0,1",
                 "0,1,1", "0,0,2", "1,1,1", "1,1,1,0,0,0,0,0,0", "0,0,3,0,0,0,0,0,0", "1,,2", "1,1,"],
    "--vary": ["alpha", "x", "other"],
    "--grid": ["0:inf:3", "nan:1:3", "0:1e400:3", "=-1e308:1e308:3", f"0:1:{MAX_GRID_POINTS + 1}",
               "0:1", "", "1:0:3", "0:1:1", "0:1:-2", "0:1:x", "0:1:3", "0:2:4", "0:1e10:3"],
    "--format": ["csv", "json", "xml"],
    "--verify": [None],
}
NETWORK_FLAGS = ["--unitary", "-m", "--seed", "--transmissivity", "--unitary-file", "--input",
                 "--stats", "--format"]
GRAM_FLAGS = ["--alpha", "--positions", "--lc", "--kf", "--gram-file"]
# A valid command line for each subcommand and preset, and the flags it takes.
ARGV_BASES = [
    (["prob", "--unitary", "random", "-m", "2", "--seed", "3", "--input", "1,2", "--stats", "boson",
      "--alpha", "0.5", "--output", "1,1"], NETWORK_FLAGS + GRAM_FLAGS + ["--output", "--verify"]),
    (["dist", "--unitary", "random", "-m", "3", "--seed", "5", "--input", "1,3", "--stats", "fermion",
      "--positions", "0,1"], NETWORK_FLAGS + GRAM_FLAGS + ["--verify"]),
    (["scan", "--unitary", "random", "-m", "3", "--seed", "4", "--input", "1,2", "--stats", "boson",
      "--alpha", "0", "--vary", "alpha", "--grid", "0:1:3", "--output", "1,0,1"],
     NETWORK_FLAGS + GRAM_FLAGS + ["--output", "--vary", "--grid"]),
    (README_ALPHA_SCAN, NETWORK_FLAGS + GRAM_FLAGS + ["--output", "--vary", "--grid"]),
    (["decompose", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "fermion",
      "--output", "1,1"], NETWORK_FLAGS + ["--output"]),
    (["prob", "--unitary", "beamsplitter", "--transmissivity", "0.3", "--input", "1,2", "--stats", "boson",
      "--positions", "0,1", "--lc", "2", "--output", "1,1"], NETWORK_FLAGS + GRAM_FLAGS + ["--output"]),
    (["dist", "--unitary", "fourier", "-m", "3", "--input", "1,2", "--stats", "boson", "--alpha", "0.5"],
     NETWORK_FLAGS + GRAM_FLAGS + ["--verify"]),
    (["scenario", "doubleslit", "--grid", "0:3:3"], ["--grid", "--format", "--alpha"]),
    (["scenario", "hom", "--grid", "0:1:3"], ["--grid", "--format", "--lc"]),
    (["scenario", "fermion9", "--grid", "0:1:3"], ["--grid", "--format", "--lc", "--kf", "--output"]),
    (["scenario", "boson9", "--grid", "0:1:3"], ["--grid", "--format", "--lc", "--kf", "--output"]),
    (["scenario", "bjork", "--grid", "0:1:3"], ["--grid", "--format"]),
]


@st.composite
def command_lines(draw, changes=st.integers(1, 3), bases=ARGV_BASES):
    """A valid command with some options set to other values, dropped or
    added: mostly options that the command takes, sometimes any."""
    base, own = draw(st.sampled_from(bases))
    argv = list(base)
    for _ in range(draw(changes)):
        flag = draw(st.sampled_from(3 * own + sorted(ARGV_VALUES)))
        value = draw(st.sampled_from(ARGV_VALUES[flag]))
        action = draw(st.sampled_from(["set", "append", "drop"]))
        if action == "drop" and flag in argv:
            index = argv.index(flag)
            del argv[index:index + (1 if value is None else 2)]
        elif action == "set" and flag in argv and value is not None:
            argv[argv.index(flag) + 1] = value
        elif value is None:
            argv.append(flag)
        elif value.startswith("="):  # a value that starts with "-"
            argv.append(flag + value)
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_every_command_line_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception fails the test
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("usage error")
    if code != 0:
        assert out.getvalue() == ""


# the options that each --unitary kind reads, with values that it accepts
UNITARY_OPTIONS = {
    "fourier": ["-m", "2"],
    "random": ["-m", "2", "--seed", "5"],
    "beamsplitter": ["--transmissivity", "0.3"],
    "file": ["--unitary-file", "no-such-file"],
}
DEPENDENT_VALUES = {"-m": "2", "--seed": "5", "--transmissivity": "0.3", "--unitary-file": "no-such-file",
                    "--lc": "2", "--kf": "1"}


@st.composite
def unread_option_lines(draw):
    """An event command line and one option that its other options leave
    unread: a network option of another --unitary kind, or --lc or --kf
    without --positions."""
    command = draw(st.sampled_from(["prob", "dist", "scan", "decompose"]))
    kind = draw(st.sampled_from(sorted(UNITARY_OPTIONS)))
    argv = [command, "--unitary", kind, *UNITARY_OPTIONS[kind], "--input", "1,2", "--stats", "boson"]
    unread = [flag for flag in ("-m", "--seed", "--transmissivity", "--unitary-file")
              if flag not in UNITARY_OPTIONS[kind]]
    if command != "decompose":
        gram = draw(st.sampled_from([["--alpha", "0.5"], ["--positions", "0,1"], ["--gram-file", "no-such-file"]]))
        argv += gram
        if gram[0] != "--positions":
            unread += ["--lc", "--kf"]
    if command == "scan":
        argv += ["--vary", "x" if gram[0] == "--positions" else "alpha", "--grid", "0:1:3"]
    if command != "dist":
        argv += ["--output", "1,1"]
    flag = draw(st.sampled_from(unread))
    return argv, [flag, DEPENDENT_VALUES[flag]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=unread_option_lines())
def test_unread_dependent_option_is_usage_error(case):
    argv, option = case
    runs = []
    for line in (argv, argv + option, argv[:1] + option + argv[1:]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(line), out.getvalue(), err.getvalue()))
    assert runs[0][0] in (0, 2)  # the command line without the option runs, or fails on a missing file
    name = "--modes" if option[0] == "-m" else option[0]
    for code, out, err in runs[1:]:
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {name} has no effect")


# The network options in the order that their errors are reported, and for
# each --unitary kind the ones that it reads and the ones that it requires.
NETWORK_OPTIONS = ["-m", "--seed", "--transmissivity", "--unitary-file"]
KIND_OPTIONS = {
    "fourier": ({"-m"}, {"-m"}),
    "random": ({"-m", "--seed"}, {"-m", "--seed"}),
    "beamsplitter": ({"--transmissivity"}, set()),
    "file": ({"--unitary-file"}, {"--unitary-file"}),
}
LONG_NAMES = {"-m": "--modes"}
COMMAND_REST = {"prob": ["--alpha", "0.5", "--output", "1,1"], "dist": ["--alpha", "0.5"],
                "decompose": ["--output", "1,1"]}


@pytest.mark.parametrize("command", sorted(COMMAND_REST))
@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_each_unitary_kind_reads_and_requires_its_own_options(tmp_path, capsys, command, kind):
    # every subset of the network options: an unread one is a usage error,
    # else a missing required one a domain error, else the command runs
    identity = tmp_path / "identity.txt"
    identity.write_text("2\n1,0 0,0\n0,0 1,0\n", encoding="utf-8")
    values = {"-m": "2", "--seed": "5", "--transmissivity": "0.3", "--unitary-file": str(identity)}
    reads, requires = KIND_OPTIONS[kind]
    for size in range(len(NETWORK_OPTIONS) + 1):
        for given in itertools.combinations(NETWORK_OPTIONS, size):
            options = [part for flag in given for part in (flag, values[flag])]
            code, out, err = run_cli(capsys, command, "--unitary", kind, *options, "--input", "1,2",
                                     "--stats", "boson", *COMMAND_REST[command])
            unread = [LONG_NAMES.get(flag, flag) for flag in given if flag not in reads]
            missing = [LONG_NAMES.get(flag, flag) for flag in NETWORK_OPTIONS if flag in requires - set(given)]
            if unread:
                assert (code, out) == (1, "")
                assert err.startswith(f"usage error: {unread[0]} has no effect with the other options given\n")
            elif missing:
                assert (code, out, err) == (2, "", f"error: --unitary {kind} requires {missing[0]}\n")
            else:
                assert (code, err) == (0, "") and out.startswith("parameter,event,probability\n")


def test_alpha_scan_parses_once_whatever_its_output_count(tmp_path, monkeypatch, capsys):
    # the benchmark's alpha scan: 165 outputs reach argparse as one --output
    path = tmp_path / "u9.txt"
    write_matrix_file(path, random_unitary(9, 2))
    base = ["scan", "--unitary", "file", "--unitary-file", str(path), "--input", "2,5,8", "--stats", "boson",
            "--alpha", "0.5", "--vary", "alpha", "--grid", "0.0:1.0:6"]
    outputs = [",".join(map(str, occ)) for occ in enumerate_occupations(9, 3)]
    parsed = []
    original = cli._Parser.parse_args
    monkeypatch.setattr(cli._Parser, "parse_args", lambda self, args: parsed.append(len(args)) or original(self, args))
    for count in (1, 2, len(outputs)):
        parsed.clear()
        code, out, _ = run_cli(capsys, *base, *[token for text in outputs[:count] for token in ("--output", text)])
        assert (code, parsed) == (0, [len(base) + 2])
        assert len(out.splitlines()) == 1 + 6 * count
    assert len(outputs) == 165


# texts that are not int lists, have another width, are empty, or are ints in a form int() takes, with the
# exit code of a scan over them and the 165 outputs of three particles in nine modes
BLOCK_MISFITS = {"x": 2, "1,1": 2, "": 2, "+1": 2, " 1": 2, "01": 2, "1_0": 2, "1,,1,1,0,0,0,0,0": 2,
                 "1.0,1,1,0,0,0,0,0,0": 2, "+1,1,1,0,0,0,0,0,0": 0, " 1,1,1,0,0,0,0,0,0": 0,
                 "01,1,1,0,0,0,0,0,0": 0, "1_0,1,1,0,0,0,0,0,0": 2}


@pytest.mark.parametrize("misfit, exit_code", BLOCK_MISFITS.items())
def test_each_output_text_answers_as_it_does_alone(capsys, misfit, exit_code):
    # the misfit at the start, middle or end of the 165 outputs: the exit code
    # and stderr (the first bad text's message) of a scan over the misfit alone
    outputs = [",".join(map(str, occ)) for occ in enumerate_occupations(9, 3)]
    base = ["scan", "--unitary", "fourier", "-m", "9", "--input", "3,6,9", "--stats", "boson",
            "--vary", "alpha", "--grid", "0:1:3"]
    code, _, err = run_cli(capsys, *base, "--output", misfit)
    assert code == exit_code
    if misfit in ("x", "", "1,,1,1,0,0,0,0,0", "1.0,1,1,0,0,0,0,0,0"):  # not an int list
        assert err == f"error: expected a comma-separated int list, got {misfit!r}\n"
    for at in (0, 82, 165):
        run = outputs[:at] + [misfit] + outputs[at:]
        code_at, out, err_at = run_cli(capsys, *base, *[token for text in run for token in ("--output", text)])
        assert (code_at, err_at, len(out.splitlines())) == (code, err, 1 + 3 * len(run) if code == 0 else 0)


def test_tables_render_with_each_label_made_once(tmp_path, capsys, monkeypatch):
    # the benchmark's alpha scan and scenario fermion9 render their tables,
    # and dist labels the 715 outputs of (10, 4) once per process
    path = tmp_path / "u9.txt"
    write_matrix_file(path, random_unitary(9, 2))
    labelled, occupation_labels = [], model._occupation_labels
    for module in (model, engine, scenarios, cli):
        monkeypatch.setattr(module, "_occupation_labels", lambda occ: labelled.append(1) or occupation_labels(occ))
    outputs = [",".join(map(str, occ)) for occ in enumerate_occupations(9, 3)]
    code, out, _ = run_cli(capsys, "scan", "--unitary", "file", "--unitary-file", str(path), "--input", "2,5,8",
                           "--stats", "boson", "--alpha", "0.5", "--vary", "alpha", "--grid", "0.0:1.0:6",
                           *[token for text in outputs for token in ("--output", text)])
    assert (code, len(out.splitlines())) == (0, 1 + 6 * 165)
    code, out, _ = run_cli(capsys, "scenario", "fermion9", "--grid", "0.0:2.0:11", "--lc", "1.1")
    assert (code, len(out.splitlines())) == (0, 1 + 11 * 84)
    engine._distribution_plan.cache_clear()
    labelled.clear()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "dist", "--unitary", "fourier", "-m", "10", "--input", "1,2,3,4",
                               "--stats", "boson", "--alpha", "0.5")
        assert (code, len(out.splitlines())) == (0, 1 + 715)
    assert len(labelled) <= 1


def run_main(argv):
    """(exit code, stdout, stderr) of one main() call; --help exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


# outputs that the valid command lines accept, by mode count, and ones that none does
RUN_VALUES = {2: ["1,1", "2,0", "0,2"], 3: ["1,0,1", "0,2,0", "0,0,2", "1,1,0"],
              9: ["1,1,0,1,0,0,0,0,0", "0,0,3,0,0,0,0,0,0", "1,1,1,0,0,0,0,0,0", "0,1,1,0,0,0,0,0,1"]}
BAD_RUN_VALUES = ["", "1.5,0.5", "1,,2", "8,0", "1,1,1", "-0,2", "x"]
# forms that argparse reads and the fold leaves to it
ODD_FORMS = [["--output=1,0,1"], ["--output=1,1"], ["--outp", "2,0"], ["--output"], ["--output", "-1,3"],
             ["--output", "--"], ["--help"], ["--", "--output", "1,1"]]


@st.composite
def output_run_lines(draw):
    """A command line of ``command_lines``, half of them of commands that
    take ``--output``, with a run of 1 to 200 ``--output`` pairs put in it:
    mostly at the end, else anywhere (before the command name too) or after
    ``--``; sometimes with odd forms inside the run or ending it, or with
    values that no command accepts."""
    bases = draw(st.sampled_from([ARGV_BASES, [base for base in ARGV_BASES if "--output" in base[1]]]))
    argv = draw(command_lines(changes=st.sampled_from([0, 0, 1, 2, 3]), bases=bases))
    own = [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == "--output"]
    values = st.sampled_from(RUN_VALUES.get(len(own[0].split(",")) if own else 9, BAD_RUN_VALUES))
    if draw(st.sampled_from([True, False, False, False])):
        values = st.one_of(values, st.sampled_from(BAD_RUN_VALUES))
    values = draw(st.lists(values, min_size=1, max_size=200))
    run = [token for value in values for token in ("--output", value)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = 2 * draw(st.integers(0, len(values)))
        run[at:at] = draw(st.sampled_from(ODD_FORMS))
    where = draw(st.sampled_from(["end", "end", "end", "anywhere", "after --"]))
    if where == "after --":
        argv.append("--")
    at = draw(st.integers(0, len(argv))) if where == "anywhere" else len(argv)
    argv[at:at] = run
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=output_run_lines())
def test_a_folded_output_run_parses_as_argparse_alone_does(argv):
    folded = run_main(argv)
    with mock.patch.object(cli, "_parse", lambda parser, argv: parser.parse_args(argv)):
        assert folded == run_main(argv)


def test_folded_runs_keep_every_usage_error_byte():
    network = ["--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson", "--alpha", "0.5"]
    code, out, err = run_main(["dist", *network, "--output", "1,1", "--output", "2,0"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --output 1,1 --output 2,0" in err.splitlines()[0]
    for tail, message in ((["--output"], "argument --output: expected one argument"),
                          (["--output", "-1,3"], "argument --output: expected one argument")):
        code, out, err = run_main(["prob", *network, "--output", "1,1", "--output", "2,0", *tail])
        assert (code, out, err.splitlines()[0]) == (1, "", f"usage error: {message}")


LINE47 = ["--unitary", "random", "-m", "4", "--seed", "2", "--input", "2,2", "--stats", "fermion"]
LINE47_OUTPUTS = [f"{a},{b},{c},{d}" for a, b, c, d in enumerate_occupations(4, 2)]
LINE47_PROB = ["0.21665375659", "0.0163447154902", "0.219385051341", "0.261884322845", "0.000308268055089",
               "0.00827538424625", "0.00987849265079", "0.0555376946139", "0.132592910828", "0.0791394048259"]
LINE47_SCAN = {  # the rows at 0.9 and at 0.949999995 are equal
    "0.9": ["0.216653756188", "0.0163447157191", "0.219385050858", "0.261884320727", "0.000308268059411",
            "0.00827538454071", "0.00987849195158", "0.0555376945534", "0.132592912379", "0.0791394050229"],
    "0.99999999": ["0.216653756161", "0.0163447156937", "0.219385050519", "0.261884319923", "0.000308268059679",
                   "0.00827538454864", "0.00987849195326", "0.0555376946113", "0.13259291172", "0.0791394047933"],
}


def test_fermions_sharing_a_mode_keep_their_tables(capsys):
    # Two fermions in one mode with overlap 1 - 1e-8, so N_in = 2e-8: a table
    # of every output keeps the path sums (the tensor expansion's rounding,
    # not scaled by N_in, would exceed IMAG_TOL once divided by it), with the
    # bytes printed before the tensor expansion served tables. dist, the same
    # table, prints the same rows.
    outputs = [arg for text in LINE47_OUTPUTS for arg in ("--output", text)]
    labels = [text.replace(",", ".") for text in LINE47_OUTPUTS]
    expected = "".join(f",{label},{p}\n" for label, p in zip(labels, LINE47_PROB))
    for command in (["prob", *LINE47, "--alpha", "0.99999999", *outputs], ["dist", *LINE47, "--alpha", "0.99999999"]):
        code, out, err = run_cli(capsys, *command)
        assert (code, out, err) == (0, "parameter,event,probability\n" + expected, "")
    code, out, err = run_cli(capsys, "scan", *LINE47, "--alpha", "0.5", "--vary", "alpha",
                             "--grid", "0.9:0.99999999:3", *outputs)
    rows = [(parameter, LINE47_SCAN["0.9" if parameter == "0.949999995" else parameter])
            for parameter in ("0.9", "0.949999995", "0.99999999")]
    expected = "".join(f"{x},{label},{p}\n" for x, values in rows for label, p in zip(labels, values))
    assert (code, out, err) == (0, "parameter,event,probability\n" + expected, "")
