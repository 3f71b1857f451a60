"""End-to-end acceptance gate.

Each test verifies one contract item at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s``). Expected runtime of the whole
module is well under two minutes.
"""

import math

import numpy as np

from _helpers import run_module
from interfere.decompose import (
    interference_orders,
    naive_interpolation,
    transition_polynomial,
)
from interfere.engine import (
    classical_probability,
    event_probability,
    full_distribution,
    quantum_probability,
)
from interfere.linalg import beamsplitter, fourier_unitary, random_unitary
from interfere.model import (
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    uniform_gram,
)
from interfere.oracle import first_quantized_distribution, internal_vectors_from_gram
from interfere.scenarios import (
    bjork_predictability,
    bjork_projection,
    bjork_scan,
    fermion_fourier_scan,
    hom_scan,
    nonmonotonic_events,
)

F9 = fourier_unitary(9)
ALL_EVENTS = list(enumerate_occupations(9, 3))


def _check(num, name, ok):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_distinguishable_limit_combinatorics():
    # inputs 3,6,9 (1-based), displacement 20 coherence lengths: every
    # all-distinct output at 3!/9^3, every bunched output at 1/9^3, every
    # partially bunched output at the multinomial value 3/9^3
    gram = gram_from_positions((0.0, 20.0, 40.0), 1.0)
    ok = True
    for occ in ALL_EVENTS:
        for stats in Statistics:
            p = event_probability(F9, (2, 5, 8), occ, gram, stats)
            if max(occ) == 1:
                ok &= abs(p - 6 / 729) <= 1e-6
            elif max(occ) == 3:
                ok &= abs(p - 1 / 729) <= 1e-6
            else:
                ok &= abs(p - 3 / 729) <= 1e-6
    _check(1, "distinguishable-limit combinatorics", ok)


def test_02_pauli_suppression_at_zero_delay():
    dist = full_distribution(F9, (2, 5, 8), np.ones((3, 3)), Statistics.FERMION)
    multi = max(p for occ, p in dist.items() if max(occ) > 1)
    allowed = sum(p for occ, p in dist.items() if max(occ) == 1)
    ok = multi <= 1e-12 and abs(allowed - 1.0) <= 1e-9
    _check(2, "Pauli suppression of multiply occupied outputs at zero delay", ok)


def test_03_fermionic_nonmonotonicity():
    curve = fermion_fourier_scan(np.linspace(0.0, 5.0, 201))
    flagged = nonmonotonic_events(curve)
    _check(3, f"fermionic nonmonotonicity ({len(flagged)} events flagged)", len(flagged) >= 1)


def test_04_hom_transition():
    lc = 1.0
    grid = np.linspace(0.0, 5.0, 201)
    curve = hom_scan(lc, grid)
    values = curve.values("1.1")
    expected = (1.0 - np.exp(-(grid**2) / lc**2)) / 2.0
    ok = float(np.abs(values - expected).max()) <= 1e-9
    ok &= values[0] <= 1e-12
    far = hom_scan(lc, [20.0 * lc]).values("1.1")[0]
    ok &= abs(far - 0.5) <= 1e-9
    fermion_dip = event_probability(
        beamsplitter(0.5), (0, 1), (1, 1), np.ones((2, 2)), Statistics.FERMION
    )
    ok &= abs(fermion_dip - 1.0) <= 1e-12
    _check(4, "two-particle coincidence transition", ok)


def test_05_pure_state_projection_counterexample():
    gammas = np.linspace(0.0, math.pi / 2, 101)
    projection = np.array([bjork_projection(g) for g in gammas])
    purity = bjork_scan(gammas).values("purity")
    predictability = np.array([bjork_predictability(g) for g in gammas])
    expected = np.cos(3 * math.pi / 8 + gammas / 2) ** 2
    ok = float(np.abs(projection - expected).max()) <= 1e-12
    ok &= projection[50] <= 1e-12 and np.isclose(gammas[50], math.pi / 4)
    ok &= abs(projection[0] - 0.146447) <= 1e-6
    ok &= abs(projection[-1] - 0.146447) <= 1e-6
    diffs = np.diff(projection)
    signs = np.sign(np.where(np.abs(diffs) < 1e-12, 0.0, diffs))
    signs = signs[signs != 0]
    ok &= bool(np.any(signs[:-1] * signs[1:] < 0))
    ok &= bool(np.all(purity == 1.0))
    ok &= bool(np.all(np.diff(predictability) >= 0.0))
    _check(5, "nonmonotonic pure-state projection with unit purity", ok)


def _random_event(rng, max_particles):
    m = int(rng.integers(2, 8))
    n = int(rng.integers(1, min(m, max_particles) + 1))
    u = random_unitary(m, int(rng.integers(0, 2**31)))
    inputs = tuple(sorted(int(j) for j in rng.choice(m, size=n, replace=False)))
    occupations = list(enumerate_occupations(m, n))
    occ = occupations[int(rng.integers(0, len(occupations)))]
    return u, inputs, occ


def test_06_interference_order_polynomial_identity():
    rng = np.random.default_rng(2024)
    alphas = np.linspace(0.0, 1.0, 11)
    ok = True
    for _ in range(50):
        u, inputs, occ = _random_event(rng, max_particles=4)
        n = len(inputs)
        for stats in Statistics:
            (orders,) = interference_orders(u, inputs, [occ], stats).T
            ok &= orders[1] == 0.0
            for alpha in alphas:
                direct = event_probability(u, inputs, occ, uniform_gram(n, float(alpha)), stats)
                ok &= abs(transition_polynomial(orders, float(alpha)) - direct) <= 1e-10
            ok &= abs(orders[0] - classical_probability(u, inputs, occ)) <= 1e-10
            ok &= abs(orders.sum() - quantum_probability(u, inputs, occ, stats)) <= 1e-10
    _check(6, "interference-order polynomial identity", ok)


def test_07_straight_line_blend_fails_for_three_particles():
    # stored instance: Haar unitary from seed 13 on 5 modes, fermions from
    # modes (0, 1, 2), output (1, 1, 0, 0, 1), overlap 0.54
    u = random_unitary(5, 13)
    (orders,) = interference_orders(u, (0, 1, 2), [(1, 1, 0, 0, 1)], Statistics.FERMION).T
    p_classical = orders[0]
    p_quantum = max(0.0, min(1.0, orders.sum()))
    deviation = abs(
        naive_interpolation(p_classical, p_quantum, 0.54)
        - transition_polynomial(orders, 0.54)
    )
    ok = deviation > 0.01
    # one or two particles: the exact transition is monotonic, so the
    # straight blend misses nothing qualitative there
    rng = np.random.default_rng(71)
    alphas = np.linspace(0.0, 1.0, 41)
    for _ in range(30):
        u2, inputs, occ = _random_event(rng, max_particles=2)
        for stats in Statistics:
            (res,) = interference_orders(u2, inputs, [occ], stats).T
            values = [transition_polynomial(res, float(a)) for a in alphas]
            diffs = np.diff(values)
            ok &= bool(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12))
    _check(7, f"straight-line blend failure (deviation {deviation:.3f})", ok)


def test_08_bunched_transitions_are_monotonic():
    rng = np.random.default_rng(88)
    alphas = np.linspace(0.0, 1.0, 41)
    ok = True
    for _ in range(50):
        m = int(rng.integers(3, 8))
        u = random_unitary(m, int(rng.integers(0, 2**31)))
        inputs = tuple(sorted(int(j) for j in rng.choice(m, size=3, replace=False)))
        bunched = (3,) + (0,) * (m - 1)
        (orders,) = interference_orders(u, inputs, [bunched], Statistics.BOSON).T
        ok &= min(orders) >= -1e-12
        values = [transition_polynomial(orders, float(a)) for a in alphas]
        ok &= bool(np.all(np.diff(values) >= -1e-12))
    _check(8, "bunched-output monotonicity for bosons", ok)


def test_09_first_quantized_oracle_equivalence():
    rng = np.random.default_rng(909)
    worst = 0.0
    worst_norm = 0.0
    comparisons = 0
    while comparisons < 100:
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, min(m, 3) + 1))
        u = random_unitary(m, int(rng.integers(0, 2**31)))
        inputs = tuple(sorted(int(j) for j in rng.choice(m, size=n, replace=False)))
        positions = tuple(rng.uniform(0.0, 3.0, size=n))
        oscillation = float(rng.uniform(0.0, 3.0)) if rng.integers(0, 2) else 0.0
        gram = gram_from_positions(positions, 1.0, oscillation)
        vectors = internal_vectors_from_gram(gram)
        for stats in Statistics:
            reference = first_quantized_distribution(u, inputs, vectors, stats)
            worst_norm = max(worst_norm, abs(sum(reference.values()) - 1.0))
            engine_dist = full_distribution(u, inputs, gram, stats)
            worst_norm = max(worst_norm, abs(sum(engine_dist.values()) - 1.0))
            for occ, p_reference in reference.items():
                worst = max(worst, abs(engine_dist[occ] - p_reference))
            comparisons += 1
    ok = worst <= 1e-9 and worst_norm <= 1e-9
    _check(9, f"first-quantized oracle equivalence (max deviation {worst:.2e})", ok)


def test_10_deterministic_scenario_output():
    first = run_module("scenario", "fermion9", check=True)
    second = run_module("scenario", "fermion9", check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _check(10, "byte-identical repeated scenario runs", ok)
