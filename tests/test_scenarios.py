import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import nonmonotonic_labels
from interfere import engine
from interfere.engine import event_probability, quantum_probability
from interfere.exceptions import DomainError
from interfere.linalg import beamsplitter, fourier_unitary
from interfere.model import (
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    occupation_label,
)
from interfere.scenarios import (
    FOURIER_INPUT_MODES,
    MONOTONE_FLOOR,
    TransitionCurve,
    bjork_predictability,
    bjork_projection,
    bjork_scan,
    boson_fourier_scan,
    double_slit,
    double_slit_scan,
    fermion_fourier_scan,
    fermion_scan_oscillation,
    hom_scan,
    nonmonotonic_events,
    position_scan,
)

GRID = np.linspace(0.0, 5.0, 201)
SINGLE_OCCUPANCY = [occ for occ in enumerate_occupations(9, 3) if max(occ) == 1]


def test_double_slit_limits():
    assert np.isclose(double_slit(0.0, 1.0), 1.0, atol=1e-12)
    assert np.isclose(double_slit(math.pi, 1.0), 0.0, atol=1e-12)
    for phi in (0.0, 1.0, 2.5):
        assert np.isclose(double_slit(phi, 0.0), 0.5, atol=1e-12)
    with pytest.raises(DomainError):
        double_slit(0.0, 1.5)
    for phi in (math.nan, math.inf):
        with pytest.raises(DomainError):
            double_slit(phi, 0.5)


def test_double_slit_scan_fringes():
    curve = double_slit_scan(np.linspace(0, 2 * math.pi, 21), 0.7)
    values = curve.values("detector")
    assert np.isclose(values.max(), 0.85, atol=1e-12)
    assert np.isclose(values.min(), 0.15, atol=1e-12)


def test_hom_scan_matches_closed_form():
    lc = 1.3
    curve = hom_scan(lc, GRID * lc)
    values = curve.values(occupation_label((1, 1)))
    expected = (1.0 - np.exp(-((GRID * lc) ** 2) / lc**2)) / 2.0
    assert np.abs(values - expected).max() <= 1e-9


def test_hom_scan_endpoints():
    curve = hom_scan(1.0, [0.0, 1.0, 10.0])
    values = curve.values("1.1")
    assert values[0] <= 1e-12
    assert np.isclose(values[1], (1 - math.exp(-1)) / 2, atol=1e-9)
    assert np.isclose(values[2], 0.5, atol=1e-9)


def test_fermion_scan_pauli_suppression_at_zero_delay():
    events = list(enumerate_occupations(9, 3))
    curve = fermion_fourier_scan([0.0, 1.0], events=events)
    assert curve.grid[0] == 0.0
    at_zero = dict(zip(curve.events, curve.table[0]))
    multi = [p for occ in events if max(occ) > 1 for p in [at_zero[occupation_label(occ)]]]
    assert max(multi) <= 1e-12
    allowed = [at_zero[occupation_label(occ)] for occ in events if max(occ) == 1]
    assert np.isclose(sum(allowed), 1.0, atol=1e-9)


def test_fourier_scans_reach_combinatoric_limit():
    x_far = [20.0]
    for scan in (fermion_fourier_scan, boson_fourier_scan):
        curve = scan(x_far, events=SINGLE_OCCUPANCY)
        assert curve.table.shape == (1, len(SINGLE_OCCUPANCY))
        assert np.abs(curve.table - 6 / 729).max() <= 1e-9
        bunched = [(0, 0, 0, 3, 0, 0, 0, 0, 0)]
        curve = scan(x_far, events=bunched)
        assert abs(curve.table[0, 0] - 1 / 729) <= 1e-9


def test_fermion_scan_has_nonmonotonic_events():
    curve = fermion_fourier_scan(GRID)
    flagged = nonmonotonic_events(curve)
    assert len(flagged) >= 1


def test_fermion_scan_plain_gaussian_is_monotone():
    # the cyclic input (2,5,8) makes every Pauli-allowed event monotone when
    # the pair coherence decays without oscillating; this is why the default
    # fermionic scan uses the oscillatory coherence
    curve = fermion_fourier_scan(GRID, oscillation=0.0)
    assert nonmonotonic_events(curve) == []


def test_boson_scan_nonmonotonic_under_plain_gaussian():
    curve = boson_fourier_scan(GRID)
    assert len(nonmonotonic_events(curve)) >= 1


def test_boson_scan_bunched_event_monotone_and_enhanced():
    bunched = (3, 0, 0, 0, 0, 0, 0, 0, 0)
    curve = boson_fourier_scan(GRID, events=[bunched])
    values = curve.values(occupation_label(bunched))
    # probability only grows as the delay shrinks
    assert np.all(np.diff(values) <= 1e-12)
    expected_quantum = quantum_probability(
        fourier_unitary(9), FOURIER_INPUT_MODES, bunched, Statistics.BOSON
    )
    assert np.isclose(values[0], expected_quantum, atol=1e-10)


def test_fourier_scan_limits_are_statistics_independent():
    events = SINGLE_OCCUPANCY[:5] + [(2, 1, 0, 0, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0, 0, 0, 0)]
    fermion = fermion_fourier_scan([25.0], events=events)
    boson = boson_fourier_scan([25.0], events=events)
    assert fermion.events == boson.events
    assert np.abs(fermion.table - boson.table).max() <= 1e-9


def test_scans_equal_single_event_probabilities():
    # the seven-Gram scans take the per-tau expansion, a one-event evaluation
    # the sign sum: the two agree within 1e-15
    xs = np.linspace(0.0, 3.0, 7)
    events = SINGLE_OCCUPANCY[:6] + [(2, 1, 0, 0, 0, 0, 0, 0, 0)]
    u9 = fourier_unitary(9)
    curve = fermion_fourier_scan(xs, events=events, coherence_length=1.3)
    assert curve.grid.tolist() == xs.tolist()
    assert curve.events == tuple(map(occupation_label, events))
    for x, row in zip(xs, curve.table):
        gram = gram_from_positions((0.0, x, 2.0 * x), 1.3, 2.0 / 1.3)
        for occ, p in zip(events, row):
            assert abs(p - event_probability(u9, FOURIER_INPUT_MODES, occ, gram, Statistics.FERMION)) <= 1e-15
    hom = hom_scan(0.8, xs)
    assert hom.grid.tolist() == xs.tolist()
    for x, p in zip(xs, hom.values("1.1")):
        gram = gram_from_positions((0.0, x), 0.8)
        assert abs(p - event_probability(beamsplitter(0.5), (0, 1), (1, 1), gram, Statistics.BOSON)) <= 1e-15


def test_fermion9_scan_validates_each_gram_and_builds_each_event_once(monkeypatch):
    calls = {"validate_gram": [], "_per_tau_totals": [], "_signed_sum_table": [], "_tensor_totals": [],
             "eigvalsh": []}
    for module, name in ((engine, "validate_gram"), (engine, "_per_tau_totals"), (engine, "_signed_sum_table"),
                         (engine, "_tensor_totals"), (np.linalg, "eigvalsh")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    # the default 201 points take the per-tau build, the benchmark's 11 the tensor expansion
    for grid, expansion in ((GRID, "_per_tau_totals"), (np.linspace(0.0, 2.0, 11), "_tensor_totals")):
        for values in calls.values():
            values.clear()
        curve = fermion_fourier_scan(grid)
        assert curve.table.shape == (len(grid), 84)
        # the Grams are checked as one stack, with one eigenvalue call
        assert calls["validate_gram"] == []
        ((stack,),) = calls["eigvalsh"]
        assert stack.shape == (len(grid), 3, 3)
        # one expansion of the table, with every event listed once
        ((_, _, events, grams, _),) = calls[expansion]
        assert len(events) == len(set(map(tuple, events.tolist()))) == 84
        assert len(grams) == len(grid)
        assert sum(len(calls[name]) for name in ("_per_tau_totals", "_signed_sum_table", "_tensor_totals")) == 1


def test_scans_take_any_iterable_of_events():
    # the events are listed once, so a generator gives the same curve as a list
    events = SINGLE_OCCUPANCY[:4]
    listed = fermion_fourier_scan([0.0, 0.5], events=events)
    generated = fermion_fourier_scan([0.0, 0.5], events=(occ for occ in events))
    assert generated.events == listed.events == tuple(map(occupation_label, events))
    assert np.array_equal(generated.table, listed.table)
    direct = position_scan(fourier_unitary(9), FOURIER_INPUT_MODES, iter(events), (0, 1, 2), [0.0, 0.5],
                           Statistics.FERMION, 1.0, 2.0)
    assert direct.grid.tolist() == [0.0, 0.5]
    assert np.array_equal(direct.table, listed.table)


def test_default_oscillation_checks_lc_as_the_gram_does():
    assert fermion_scan_oscillation(1.25) == 1.6
    for lc in (0.0, -1.0, math.nan, "1"):
        with pytest.raises(DomainError) as expected:
            gram_from_positions((), lc)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            fermion_scan_oscillation(lc)


def test_scans_check_lc_and_the_oscillation_without_displacements():
    # no displacement builds no Gram, yet a bad l_c or oscillation raises
    # what it raises with one displacement
    calls = [
        lambda xs: hom_scan(-1.0, xs),
        lambda xs: boson_fourier_scan(xs, coherence_length=-1.0),
        lambda xs: boson_fourier_scan(xs, oscillation=math.nan),
        lambda xs: fermion_fourier_scan(xs, coherence_length=0.0, oscillation=1.0),
    ]
    for call in calls:
        with pytest.raises(DomainError) as expected:
            call([0.5])
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            call([])
    assert hom_scan(0.5, []).table.shape == (0, 1)


def scan_grams(positions, xs, lc, kf):
    """The Gram stack that position_scan hands to the engine, or the message of the DomainError it raises
    before that (a grid that is not sorted fails later, in TransitionCurve)."""
    handed = []

    def table(unitary, inputs, events, grams, statistics):
        handed.append(np.asarray(grams))
        return np.zeros((len(xs), len(events)))

    with mock.patch.object(engine, "probability_table", table):
        try:
            position_scan(None, (), [(1,)], positions, xs, Statistics.BOSON, lc, kf)
        except DomainError as exc:
            if not handed:
                return str(exc)
    return handed[0]


def per_x_grams(positions, xs, lc, kf):
    """gram_from_positions of x * positions for each x in turn, after the l_c and oscillation checks."""
    try:
        gram_from_positions((), lc, kf)
        grams = [gram_from_positions(tuple(x * p for p in positions), lc, kf) for x in xs]
    except DomainError as exc:
        return str(exc)
    return np.array(grams).reshape(len(xs), len(positions), len(positions))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    positions=st.lists(st.one_of(st.floats(-10.0, 10.0), FINITE), max_size=5),
    xs=st.lists(st.one_of(st.floats(-5.0, 5.0), FINITE), max_size=12),
    lc=st.one_of(st.floats(1e-3, 1e3), st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-1.0, 0.0])),
    kf=st.one_of(st.just(0.0), st.floats(-10.0, 10.0), FINITE),
)
def test_position_scan_stack_equals_the_per_x_grams(positions, xs, lc, kf):
    # the (G, N, N) stack of every x at once holds the bits of the per-x
    # Grams, and an x * p or a phase that overflows raises the per-x message
    stacked, expected = scan_grams(positions, xs, lc, kf), per_x_grams(positions, xs, lc, kf)
    if isinstance(expected, str):
        assert stacked == expected
    else:
        assert stacked.shape == expected.shape and stacked.tobytes() == expected.tobytes()


def test_position_scan_overflow_messages():
    # the first x whose x * p or phase overflows names the fault, as in the per-x loop
    assert scan_grams((0.0, 1e200), (0.0, 1e200), 1.0, 0.0) == (
        "positions: expected finite reals in [-inf, inf], got (0.0, inf)")
    assert scan_grams((0.0, 1e200), (0.0, 1.0), 1.0, 1e200) == (
        "oscillation phase overflows: 1e+200 times a source distance")
    assert scan_grams((0.0, 1e10), (1.0, 1e300), 1.0, 1e300) == (
        "oscillation phase overflows: 1e+300 times a source distance")
    assert scan_grams((0.0, 1e10), (1e300, 1.0), 1.0, 1e300) == (
        "positions: expected finite reals in [-inf, inf], got (0.0, inf)")
    assert scan_grams((0.0, 1e10), (1e300,), -1.0, 0.0) == "coherence length must be positive, got -1.0"


def test_fermion_scan_rejects_bad_events():
    with pytest.raises(DomainError):
        fermion_fourier_scan([1.0], events=[(1, 1, 0, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(DomainError):
        fermion_fourier_scan([1.0], events=[(1, 1, 1)])


def test_projection_probability_curve():
    gammas = np.linspace(0.0, math.pi / 2, 101)
    for g in gammas:
        assert abs(bjork_projection(g) - math.cos(3 * math.pi / 8 + g / 2) ** 2) <= 1e-12
    assert np.isclose(bjork_projection(0.0), 0.1464466094, atol=1e-9)
    assert bjork_projection(math.pi / 4) <= 1e-12
    assert np.isclose(bjork_projection(math.pi / 2), 0.1464466094, atol=1e-9)
    curve = bjork_scan(gammas)
    assert np.array_equal(curve.values("projection"), [bjork_projection(g) for g in gammas])


def test_projection_purity_matches_numerical_trace():
    # the scan's purity column is the exact rank-one value; the numerically
    # evaluated trace of rho^2 agrees to floating precision
    gammas = np.linspace(0.0, math.pi / 2, 25)
    purity = bjork_scan(gammas).values("purity")
    for g, reported in zip(gammas, purity):
        state = np.array([math.cos(math.pi / 4 + g / 2), math.sin(math.pi / 4 + g / 2)])
        state = state / np.linalg.norm(state)
        rho = np.outer(state, state)
        assert abs(float(np.trace(rho @ rho)) - reported) <= 1e-12


def test_projection_is_nonmonotonic_with_single_interior_zero():
    gammas = np.linspace(0.0, math.pi / 2, 101)
    curve = bjork_scan(gammas)
    assert "projection" in nonmonotonic_events(curve)
    values = curve.values("projection")
    zeros = np.flatnonzero(values <= 1e-12)
    assert len(zeros) == 1 and 0 < zeros[0] < len(values) - 1


def test_predictability_monotone_while_projection_is_not():
    gammas = np.linspace(0.0, math.pi / 2, 101)
    curve = bjork_scan(gammas)
    predictability = curve.values("predictability")
    assert np.all(np.diff(predictability) >= -1e-12)
    assert "predictability" not in nonmonotonic_events(curve)
    assert np.all(curve.values("purity") == 1.0)


def test_predictability_values():
    assert abs(bjork_predictability(0.0)) <= 1e-12
    assert np.isclose(bjork_predictability(math.pi / 6), 0.5, atol=1e-12)
    assert np.isclose(bjork_predictability(math.pi / 2), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        bjork_predictability(-0.1)
    with pytest.raises(DomainError):
        bjork_projection(2.0)


def test_transition_curve_validation():
    with pytest.raises(DomainError):
        TransitionCurve([1.0, 0.5], ["a"], [[0.5], [0.5]])
    for bad in (1.5, -1e-9, np.nan):
        with pytest.raises(DomainError):
            TransitionCurve([0.0], ["a"], [[bad]])
    for table in ([[0.1, 0.2]], [[0.1, 0.2], [0.3]]):  # one row short, one entry short
        with pytest.raises(DomainError):
            TransitionCurve([0.0, 1.0], ["a", "b"], table)
    table = np.array([[0.1, 0.2], [0.3, 0.4]])
    curve = TransitionCurve([0.0, 1.0], ["a", "b"], table)
    assert curve.events == ("a", "b")
    assert np.array_equal(curve.grid, [0.0, 1.0])
    assert np.array_equal(curve.values("a"), [0.1, 0.3])
    with pytest.raises(DomainError, match="'c'"):
        curve.values("c")
    assert curve.table.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    table[0, 0] = 0.9  # the curve holds a copy
    assert curve.values("a")[0] == 0.1
    with pytest.raises(ValueError):
        curve.table[0, 0] = 0.5
    with pytest.raises(ValueError):
        curve.grid[0] = 0.5


def _flagged(*columns, events=None):
    events = events or [str(k) for k in range(len(columns))]
    table = np.array(columns, dtype=float).T
    curve = TransitionCurve(np.arange(len(table)), events, table)
    assert nonmonotonic_events(curve) == nonmonotonic_labels(curve)
    return nonmonotonic_events(curve)


def test_nonmonotonic_events_edge_cases():
    below = 0.5 * MONOTONE_FLOOR
    assert _flagged([0.5, 0.5 + below, 0.5], [0.5, 0.5 - below, 0.5]) == []  # plateaus below the floor
    assert _flagged([0.3, 0.5, 0.5, 0.3], [0.3, 0.5, 0.5, 0.7]) == ["0"]  # exact ties
    assert _flagged([0.1, 0.1, 0.4], [0.4, 0.1, 0.4], events=["a", "a"]) == ["a"]
    assert _flagged([0.1, 0.4, 0.1], [0.1, 0.4, 0.1], events=["b", "b"]) == ["b"]
    assert _flagged([], [], events=["a", "b"]) == []  # no grid points
    assert _flagged([0.2], [0.7], events=["a", "b"]) == []  # one grid point


STEPS = [0.0, 1e-11, -1e-11, 9.9e-11, -9.9e-11, 1e-10, -1e-10, 2e-10, -2e-10, 1e-3, -1e-3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_nonmonotonic_events_matches_per_label_reference(data):
    # repeated labels name the same event, so they share one column
    rows = data.draw(st.integers(0, 8), label="rows")
    events = data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), label="events")
    step = st.one_of(st.sampled_from(STEPS), st.floats(-0.05, 0.05))
    columns = {
        label: 0.5 + np.cumsum(data.draw(st.lists(step, min_size=rows, max_size=rows), label=label))
        for label in dict.fromkeys(events)
    }
    table = np.column_stack([columns[label] for label in events])
    curve = TransitionCurve(np.arange(rows), events, table)
    assert nonmonotonic_events(curve) == nonmonotonic_labels(curve)
