"""The three workloads: fixed request bundles, their inputs and their checks.

A request is a fixed bundle of calls of about the same cost. Its inputs come
from a generator seeded by (benchmark seed, request index), so the same seed
gives the same inputs and no two requests share work. Every check compares
the program's output with the references in ``reference.py`` or with a
property the method must satisfy; none compares with stored output. Checks run
after the timed calls.

A round is a fixed cycle of requests. In ``distribution`` and ``large-n`` one
request per round exercises a known defect with inputs that do not depend on
the seed, so it fails on every round of every run until the defect is fixed.
"""

import math
from dataclasses import dataclass

import numpy as np

import reference
from interfere import Statistics, engine, oracle

SUM_TOL = 1e-9  # |sum p - 1|, and the residual of an alpha-curve fit
ABS_TOL = 1e-12  # per value: ABS_TOL + REL_TOL * |reference|
REL_TOL = 1e-9
# N = 14, Ryser against Glynn: LARGE_REL_TOL * |reference| + LARGE_ABS_TOL * the
# event's classical probability. The Gray-code Ryser's absolute error reaches
# about 1e-11 of the classical probability, which dominates when |perm|^2 is
# far below it.
LARGE_REL_TOL = 1e-8
LARGE_ABS_TOL = 1e-9
FOURIER9_INPUT_MODES = (2, 5, 8)  # the fermion9 scenario's input, 0-based
FOURIER9_GRID = (0.0, 2.0, 11)
FOURIER9_OSCILLATION = 2.0  # the scenario's default pair-coherence wavenumber, times l_c
ALPHA_GRID = (0.0, 1.0, 6)


@dataclass
class Call:
    """One call into the program: ``argv`` through ``cli.main``, or ``function()``."""

    label: str
    argv: list = None
    function: object = None


@dataclass
class Request:
    calls: list
    events: int
    check: object  # outputs of the calls, in order -> list of problems
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    build: object  # (rng, position in round, InputFiles) -> Request
    requests_per_round: int


class InputFiles:
    """Unitary files for ``--unitary file``, rewritten for every request."""

    def __init__(self, directory):
        self.directory = directory

    def unitary(self, name, u):
        path = self.directory / f"{name}.txt"
        tokens = [f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(u).ravel()]
        path.write_text(f"{len(u)}\n" + "\n".join(tokens) + "\n", encoding="utf-8")
        return str(path)


def _label(occupation, sep="."):
    return sep.join(str(c) for c in occupation)


def _modes_arg(modes):
    return ",".join(str(m + 1) for m in modes)


def _stats(fermion):
    return "fermion" if fermion else "boson"


def _random_occupation(rng, num_modes, num_particles):
    return tuple(np.bincount(rng.integers(0, num_modes, num_particles), minlength=num_modes).tolist())


def _grid_arg(grid):
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _event_args(u_path, inputs, fermion):
    return ["--unitary", "file", "--unitary-file", u_path, "--input", _modes_arg(inputs),
            "--stats", _stats(fermion)]


def _rows(output, label):
    """Parse CLI CSV output into (parameter, event, probability) rows."""
    code, stdout, stderr = output
    if code != 0:
        raise _Problem(f"{label}: exit {code}: {stderr.strip()[:200]}")
    lines = stdout.splitlines()
    if not lines or lines[0] != "parameter,event,probability":
        raise _Problem(f"{label}: unexpected header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        parameter, event, probability = line.split(",")
        rows.append((float(parameter) if parameter else None, event, float(probability)))
    return rows


class _Problem(Exception):
    pass


def _checked(*checks):
    """Run each check; collect the problems they raise instead of stopping."""
    problems = []
    for check in checks:
        try:
            check()
        except _Problem as exc:
            problems.append(str(exc))
    return problems


def _expect_close(label, got, want, abs_tol=ABS_TOL, rel_tol=REL_TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    excess = np.abs(got - want) - (abs_tol + rel_tol * np.abs(want))
    worst = int(np.argmax(excess))
    if not excess[worst] <= 0.0:
        raise _Problem(f"{label}: {float(got[worst])!r} deviates from the reference {float(want[worst])!r} "
                       f"beyond {abs_tol:g} + {rel_tol:g} relative")


def _grid_block(rows, label, grid, events):
    """Rows of a grid scan as a (grid points, events) array, order checked."""
    values = np.linspace(*grid)
    labels = [_label(e) for e in events]
    if len(rows) != len(values) * len(labels):
        raise _Problem(f"{label}: {len(rows)} rows, expected {len(values) * len(labels)}")
    table = np.empty((len(values), len(labels)))
    for k, (parameter, event, probability) in enumerate(rows):
        i, j = divmod(k, len(labels))
        if event != labels[j] or abs(parameter - values[i]) > 1e-9:
            raise _Problem(f"{label}: row {k} is ({parameter}, {event}), expected ({values[i]}, {labels[j]})")
        table[i, j] = probability
    return values, table


def _distribution(rows, label, num_modes, num_particles):
    """Probabilities of every output, which must come in lexicographic order."""
    events = list(reference.occupations(num_modes, num_particles))
    if [event for _, event, _ in rows] != [_label(e) for e in events]:
        raise _Problem(f"{label}: rows do not list the {len(events)} outputs in lexicographic order")
    return events, np.array([p for _, _, p in rows])


def _expect_normalized(label, probabilities):
    total = float(np.sum(probabilities))
    if not abs(total - 1.0) <= SUM_TOL:
        raise _Problem(f"{label}: probabilities sum to {total!r}, not 1")


# --- scan -----------------------------------------------------------------

def build_scan(rng, position, files):
    """fermion9 on a short grid at a fresh l_c, and an alpha scan over all
    165 outputs of 3 bosons on a fresh 9-mode Haar network."""
    lc = float(rng.uniform(0.8, 1.6))
    u = reference.haar_unitary(9, rng)
    inputs = tuple(sorted(rng.choice(9, 3, replace=False).tolist()))
    outputs = list(reference.occupations(9, 3))
    fourier_events = [e for e in outputs if max(e) == 1]
    scenario = ["scenario", "fermion9", "--grid", _grid_arg(FOURIER9_GRID), "--lc", repr(lc)]
    scan = (["scan"] + _event_args(files.unitary("u9", u), inputs, False)
            + ["--alpha", "0.5", "--vary", "alpha", "--grid", _grid_arg(ALPHA_GRID)])
    for e in outputs:
        scan += ["--output", _label(e, ",")]

    def check_fermion9(output):
        xs, table = _grid_block(_rows(output, "fermion9"), "fermion9", FOURIER9_GRID, fourier_events)
        f9 = reference.fourier_unitary(9)
        terms = reference.EventTerms(f9, FOURIER9_INPUT_MODES, fourier_events, fermion=True)
        for i, x in enumerate(xs):
            gram = reference.positions_gram((0.0, x, 2.0 * x), lc, FOURIER9_OSCILLATION / lc)
            _expect_close(f"fermion9 x={x:g}", table[i], terms.probabilities(gram))
        dets = [reference.quantum_limit(f9, FOURIER9_INPUT_MODES, e, fermion=True) for e in fourier_events]
        _expect_close("fermion9 x=0 against |det|^2", table[0], dets)

    def check_scan(output):
        alphas, table = _grid_block(_rows(output, "scan"), "scan", ALPHA_GRID, outputs)
        terms = reference.EventTerms(u, inputs, outputs, fermion=False)
        for i, a in enumerate(alphas):
            _expect_normalized(f"scan alpha={a:g}", table[i])
            _expect_close(f"scan alpha={a:g}", table[i], terms.probabilities(reference.uniform_gram(3, a)))
        _expect_close("scan alpha=0 against perm(|M|^2)/s!", table[0],
                      [reference.classical_limit(u, inputs, e) for e in outputs])
        _expect_close("scan alpha=1 against |perm M|^2/s!", table[-1],
                      [reference.quantum_limit(u, inputs, e, fermion=False) for e in outputs])
        worst = max(reference.linear_free_fit_residual(alphas, table[:, j], 3) for j in range(len(outputs)))
        if not worst <= SUM_TOL:
            raise _Problem(f"scan: alpha curves leave a residual {worst:.3e} without a linear term")

    return Request(
        calls=[Call("fermion9", argv=scenario), Call("scan", argv=scan)],
        events=len(fourier_events) * FOURIER9_GRID[2] + len(outputs) * ALPHA_GRID[2],
        check=lambda outs: _checked(lambda: check_fermion9(outs[0]), lambda: check_scan(outs[1])),
    )


# --- distribution ---------------------------------------------------------

def _dist_check(label, output, u, inputs, alpha, fermion, verify):
    events, got = _distribution(_rows(output, label), label, len(u), len(inputs))
    _expect_normalized(label, got)
    gram = reference.uniform_gram(len(inputs), alpha)
    _expect_close(label, got, reference.EventTerms(u, inputs, events, fermion).probabilities(gram))
    if verify:
        stats = Statistics.FERMION if fermion else Statistics.BOSON
        first_quantized = oracle.first_quantized_distribution(u, inputs, reference.internal_vectors(gram), stats)
        _expect_close(f"{label} against the first-quantized oracle", got, [first_quantized[e] for e in events])


def _dist_request(big, small, known_defect=""):
    """big: N = 4 in 10 modes; small: N = 3 in 9 modes with --verify.
    Each is (unitary argv, unitary, inputs, alpha, fermion)."""
    calls = []
    for name, (u_args, u, inputs, alpha, fermion), extra in (("dist N=4", big, []), ("dist N=3", small, ["--verify"])):
        calls.append(Call(name, argv=["dist"] + u_args + ["--input", _modes_arg(inputs), "--stats", _stats(fermion),
                                                          "--alpha", repr(alpha)] + extra))

    def check(outs):
        return _checked(lambda: _dist_check("dist N=4", outs[0], *big[1:], verify=False),
                        lambda: _dist_check("dist N=3 --verify", outs[1], *small[1:], verify=True))

    events = math.comb(10 + 3, 4) + math.comb(9 + 2, 3)
    return Request(calls=calls, events=events, check=check, known_defect=known_defect)


def build_distribution(rng, position, files):
    """Full distributions, N = 4 in 10 modes and N = 3 in 9 modes with
    --verify; the two calls swap boson and fermion statistics every request.
    The last request of a round has a repeated bosonic input mode."""
    if position == DISTRIBUTION.requests_per_round - 1:
        return _dist_request(
            (["--unitary", "fourier", "-m", "10"], reference.fourier_unitary(10), (0, 0, 2, 4), 0.5, False),
            (["--unitary", "fourier", "-m", "9"], reference.fourier_unitary(9), (0, 1, 3), 0.5, True),
            known_defect="repeated input modes are not normalized (ROADMAP item 1, defect 1)",
        )
    big_fermion = position % 2 == 1
    u10 = reference.haar_unitary(10, rng)
    u9 = reference.haar_unitary(9, rng)
    inputs4 = tuple(sorted(rng.choice(10, 4, replace=False).tolist()))
    inputs3 = tuple(sorted(rng.choice(9, 3, replace=False).tolist()))
    alpha4, alpha3 = (float(a) for a in rng.uniform(0.2, 0.8, 2))
    return _dist_request(
        (["--unitary", "file", "--unitary-file", files.unitary("u10", u10)], u10, inputs4, alpha4, big_fermion),
        (["--unitary", "file", "--unitary-file", files.unitary("u9", u9)], u9, inputs3, alpha3, not big_fermion),
    )


# --- large-n --------------------------------------------------------------

NAN_LC_ARGV = ["prob", "--unitary", "beamsplitter", "--input", "1,2", "--stats", "boson",
               "--positions", "0,1", "--lc", "nan", "--output", "1,1"]


def _nan_lc_request():
    def check(outs):
        code, stdout, _ = outs[0]
        if code != 2:
            return [f"prob --lc nan: exit {code} (expected 2), printed {stdout.splitlines()[-1:]}"]
        return []

    return Request(calls=[Call("prob --lc nan", argv=NAN_LC_ARGV)], events=1, check=check,
                   known_defect="a NaN coherence length passes unchecked (ROADMAP item 1, defect 2)")


def build_large_n(rng, position, files):
    """prob and decompose of one N = 6 event, and the N = 14 library fast
    paths; statistics of the N = 6 event alternate every request. The last
    request of a round asks for a NaN coherence length, which must exit 2."""
    if position == LARGE_N.requests_per_round - 1:
        return _nan_lc_request()
    fermion = position % 2 == 1
    u8 = reference.haar_unitary(8, rng)
    inputs6 = tuple(sorted(rng.choice(8, 6, replace=False).tolist()))
    out6 = _random_occupation(rng, 8, 6)
    alpha = float(rng.uniform(0.2, 0.8))
    u20 = reference.haar_unitary(20, rng)
    inputs14 = tuple(sorted(rng.choice(20, 14, replace=False).tolist()))
    bunched14 = _random_occupation(rng, 20, 14)
    distinct14 = tuple(np.bincount(rng.choice(20, 14, replace=False), minlength=20).tolist())

    event = _event_args(files.unitary("u8", u8), inputs6, fermion) + ["--output", _label(out6, ",")]
    boson, fermion_stats = Statistics.BOSON, Statistics.FERMION
    calls = [
        Call("prob N=6", argv=["prob"] + event + ["--alpha", repr(alpha)]),
        Call("decompose N=6", argv=["decompose"] + event),
        Call("quantum N=14 boson", function=lambda: engine.quantum_probability(u20, inputs14, bunched14, boson)),
        Call("classical N=14", function=lambda: engine.classical_probability(u20, inputs14, bunched14)),
        Call("quantum N=14 fermion",
             function=lambda: engine.quantum_probability(u20, inputs14, distinct14, fermion_stats)),
    ]

    def check_event(prob_output, decompose_output):
        rows = _rows(prob_output, "prob N=6")
        if [event for _, event, _ in rows] != [_label(out6)]:
            raise _Problem(f"prob N=6: rows {rows} do not hold event {_label(out6)}")
        p = rows[0][2]
        terms = reference.EventTerms(u8, inputs6, [out6], fermion)
        _expect_close("prob N=6", [p], terms.probabilities(reference.uniform_gram(6, alpha)))
        orders = {event: c for _, event, c in _rows(decompose_output, "decompose N=6")}
        if set(orders) != {"d0"} | {f"d{d}" for d in range(2, 7)}:
            raise _Problem(f"decompose N=6: orders {sorted(orders)} are not d0, d2..d6")
        _expect_close("decompose N=6 C_0 against perm(|M|^2)/s!", [orders["d0"]],
                      [reference.classical_limit(u8, inputs6, out6)])
        _expect_close("decompose N=6 sum C_d against the quantum limit", [sum(orders.values())],
                      [reference.quantum_limit(u8, inputs6, out6, fermion)])
        _expect_close("prob N=6 against sum alpha^d C_d", [p],
                      [sum(alpha ** int(k[1:]) * c for k, c in orders.items())])

    def check_fast_paths(quantum_boson, classical, quantum_fermion):
        bunched_classical = reference.classical_limit(u20, inputs14, bunched14)
        distinct_classical = reference.classical_limit(u20, inputs14, distinct14)
        for label, got, want, scale in (
            ("quantum N=14 boson against Glynn", quantum_boson,
             reference.quantum_limit(u20, inputs14, bunched14, False), bunched_classical),
            ("classical N=14 against Glynn", classical, bunched_classical, bunched_classical),
            ("quantum N=14 fermion against det", quantum_fermion,
             reference.quantum_limit(u20, inputs14, distinct14, True), distinct_classical),
        ):
            _expect_close(label, [got], [want], abs_tol=LARGE_ABS_TOL * scale, rel_tol=LARGE_REL_TOL)

    return Request(
        calls=calls,
        events=5,
        check=lambda outs: _checked(lambda: check_event(outs[0], outs[1]), lambda: check_fast_paths(*outs[2:])),
    )


SCAN = Workload(build_scan, requests_per_round=4)
DISTRIBUTION = Workload(build_distribution, requests_per_round=5)
LARGE_N = Workload(build_large_n, requests_per_round=5)
WORKLOADS = {"scan": SCAN, "distribution": DISTRIBUTION, "large-n": LARGE_N}
