import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import brute_force_probability, pairwise_terms, parity, random_instance, random_vector_gram
from interfere import engine, linalg
from interfere.decompose import interference_orders
from interfere.engine import (
    _as_probability,
    classical_probability,
    event_probability,
    full_distribution,
    probability_table,
    quantum_probability,
    relative_permutation_terms,
)
from interfere.exceptions import ConsistencyError, DomainError, ResourceError
from interfere.linalg import beamsplitter, fourier_unitary, random_unitary
from interfere.model import Statistics, enumerate_occupations, uniform_gram, validate_gram
from interfere.oracle import first_quantized_distribution, internal_vectors_from_gram
from interfere.scenarios import fermion_fourier_scan

BS = beamsplitter(0.5)
F9 = fourier_unitary(9)
ONES2 = np.ones((2, 2))
EYE2 = np.eye(2)


def hom_probability(gram, statistics=Statistics.BOSON, output=(1, 1)):
    return event_probability(BS, (0, 1), output, gram, statistics)


def test_hom_coincidence_vanishes_for_identical_bosons():
    assert hom_probability(ONES2) <= 1e-15


def test_hom_coincidence_distinguishable():
    assert np.isclose(hom_probability(EYE2), 0.5, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_hom_coincidence_uniform_overlap(alpha):
    # the four permutation-pair terms sum to (1 - alpha^2) / 2
    p = hom_probability(uniform_gram(2, alpha))
    assert np.isclose(p, (1 - alpha**2) / 2, atol=1e-12)


def test_identical_fermions_obey_pauli_exclusion():
    for occ in [(2, 0), (0, 2)]:
        p = hom_probability(ONES2, Statistics.FERMION, occ)
        assert p <= 1e-12
    occ9 = (3,) + (0,) * 8
    assert event_probability(F9, (2, 5, 8), occ9, np.ones((3, 3)), Statistics.FERMION) <= 1e-12


def test_fourier9_distinguishable_combinatorics():
    distinct = (1, 1, 1, 0, 0, 0, 0, 0, 0)
    bunched = (0, 0, 3, 0, 0, 0, 0, 0, 0)
    two_one = (2, 0, 0, 1, 0, 0, 0, 0, 0)
    for stats in Statistics:
        for occ, count in ((distinct, 6), (bunched, 1), (two_one, 3)):
            p = event_probability(F9, (2, 5, 8), occ, np.eye(3), stats)
            assert np.isclose(p, count / 729, atol=1e-12)


def test_matches_literal_double_permutation_sum():
    rng = np.random.default_rng(21)
    for _ in range(25):
        u, inputs, gram = random_instance(rng)
        m, n = u.shape[0], len(inputs)
        for occ in enumerate_occupations(m, n):
            for stats in Statistics:
                expected = brute_force_probability(u, inputs, occ, gram, stats)
                assert abs(expected.imag) <= 1e-10
                got = event_probability(u, inputs, occ, gram, stats)
                assert abs(got - expected.real) <= 1e-12


def test_quantum_fast_path_hom():
    assert quantum_probability(BS, (0, 1), (1, 1), Statistics.BOSON) <= 1e-15
    assert np.isclose(quantum_probability(BS, (0, 1), (1, 1), Statistics.FERMION), 1.0, atol=1e-12)
    assert np.isclose(quantum_probability(BS, (0, 1), (2, 0), Statistics.BOSON), 0.5, atol=1e-12)
    # two identical bosons in one input mode: the input state has norm 2!
    assert np.isclose(quantum_probability(BS, (0, 0), (2, 0), Statistics.BOSON), 0.25, atol=1e-12)
    assert np.isclose(quantum_probability(BS, (0, 0), (1, 1), Statistics.BOSON), 0.5, atol=1e-12)
    with pytest.raises(DomainError):
        quantum_probability(BS, (0, 0), (1, 1), Statistics.FERMION)


def test_classical_fast_path():
    assert np.isclose(classical_probability(BS, (0, 1), (1, 1)), 0.5, atol=1e-12)
    distinct = (1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert np.isclose(classical_probability(F9, (2, 5, 8), distinct), 6 / 729, atol=1e-12)
    two_one = (0, 2, 1, 0, 0, 0, 0, 0, 0)
    assert np.isclose(classical_probability(F9, (2, 5, 8), two_one), 3 / 729, atol=1e-12)


def test_classical_equals_multinomial_for_uniform_network():
    # |U|^2 is constant 1/9 on the Fourier multiport
    for occ in [(1, 1, 1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0, 0, 0), (3,) + (0,) * 8]:
        count = math.factorial(3)
        for c in occ:
            count //= math.factorial(c)
        expected = count * (1 / 9) ** 3
        assert np.isclose(classical_probability(F9, (2, 5, 8), occ), expected, atol=1e-12)


def test_limit_equivalence_with_fast_paths():
    # the last 10 instances repeat an input mode: the limits then hold for
    # bosons, and identical fermions in one mode are rejected by both paths
    rng = np.random.default_rng(33)
    for trial in range(30):
        u, inputs, _ = random_instance(rng)
        m, n = u.shape[0], len(inputs)
        if trial >= 20:
            n = int(rng.integers(2, 4))
            modes = [int(j) for j in rng.integers(0, m, n - 1)]
            inputs = tuple(sorted(modes + modes[:1]))
        all_ones = np.ones((n, n))
        identity = np.eye(n)
        for occ in enumerate_occupations(m, n):
            for stats in Statistics:
                if stats is Statistics.FERMION and trial >= 20:
                    with pytest.raises(DomainError):
                        event_probability(u, inputs, occ, all_ones, stats)
                    with pytest.raises(DomainError):
                        quantum_probability(u, inputs, occ, stats)
                    continue
                via_engine = event_probability(u, inputs, occ, all_ones, stats)
                assert abs(via_engine - quantum_probability(u, inputs, occ, stats)) <= 1e-10
            via_engine = event_probability(u, inputs, occ, identity, Statistics.BOSON)
            assert abs(via_engine - classical_probability(u, inputs, occ)) <= 1e-10


def test_single_particle_distribution_is_unitary_row():
    u = random_unitary(5, 99)
    dist = full_distribution(u, (2,), np.eye(1), Statistics.BOSON)
    for occ, p in dist.items():
        mode = occ.index(1)
        assert np.isclose(p, abs(u[2, mode]) ** 2, atol=1e-12)
    assert np.isclose(sum(dist.values()), 1.0, atol=1e-12)


def test_distribution_checks_no_output_it_enumerated(monkeypatch):
    u = random_unitary(6, 12)
    expected = full_distribution(u, (0, 2, 5), uniform_gram(3, 0.3), Statistics.BOSON)
    checked = []
    original = engine.validate_occupation
    monkeypatch.setattr(engine, "validate_occupation", lambda s: checked.append(s) or original(s))
    assert full_distribution(u, (0, 2, 5), uniform_gram(3, 0.3), Statistics.BOSON) == expected
    assert checked == []
    outputs = list(expected)
    table = probability_table(u, (0, 2, 5), outputs, [uniform_gram(3, 0.3)], Statistics.BOSON)
    assert checked == []  # a caller's outputs of ints are checked as one array
    assert np.abs(table[0] - list(expected.values())).max() <= 1e-15
    numpy_ints = [tuple(np.int64(c) for c in occ) for occ in outputs]
    assert np.array_equal(probability_table(u, (0, 2, 5), numpy_ints, [uniform_gram(3, 0.3)], Statistics.BOSON), table)
    assert checked == numpy_ints  # other integers take the per-output check, once each


BAD_OUTPUTS = {
    "negative": (-1, 2, 2, 0), "too many modes": (1, 1, 1, 0, 0), "too few particles": (1, 1, 0, 0),
    "too many particles": (3, 1, 0, 0), "a bool": (True, 1, 1, 0), "a float": (1.0, 1, 1, 0),
    "a string": ("1", 1, 1, 0), "beyond int64": (10**30, 0, 0, 0), "not a sequence": 3,
    "a sum that wraps to N in int64": (2**62, 2**62, 2**62, 2**62 + 3),
}


@pytest.mark.parametrize("position", [0, 90, 179])
@pytest.mark.parametrize("kind", sorted(BAD_OUTPUTS))
def test_a_bad_output_anywhere_in_a_table_raises_its_own_message(kind, position):
    # outputs are checked as one array; a failure is rechecked output by output
    u, inputs, grams = fourier_unitary(4), (0, 1, 2), [uniform_gram(3, 0.5)]
    outputs = list(enumerate_occupations(4, 3)) * 9
    outputs[position] = BAD_OUTPUTS[kind]
    with pytest.raises(DomainError) as expected:
        probability_table(u, inputs, [BAD_OUTPUTS[kind]], grams, Statistics.BOSON)
    with pytest.raises(DomainError) as raised:
        probability_table(u, inputs, outputs, grams, Statistics.BOSON)
    assert str(raised.value) == str(expected.value)


def test_hom_distribution():
    dist = full_distribution(BS, (0, 1), ONES2, Statistics.BOSON)
    assert np.isclose(dist[(2, 0)], 0.5, atol=1e-12)
    assert np.isclose(dist[(0, 2)], 0.5, atol=1e-12)
    assert dist[(1, 1)] <= 1e-12


def test_fermion_fourier_distribution_pauli_and_normalization():
    dist = full_distribution(F9, (2, 5, 8), np.ones((3, 3)), Statistics.FERMION)
    multi = [p for occ, p in dist.items() if max(occ) > 1]
    assert max(multi) <= 1e-12
    assert np.isclose(sum(dist.values()), 1.0, atol=1e-9)


def test_distribution_normalization_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(10):
        u, inputs, gram = random_instance(rng)
        for stats in Statistics:
            dist = full_distribution(u, inputs, gram, stats)
            assert np.isclose(sum(dist.values()), 1.0, atol=1e-9)
            assert min(dist.values()) >= 0.0


def test_relabeling_invariance():
    rng = np.random.default_rng(77)
    for _ in range(10):
        u, inputs, gram = random_instance(rng, max_modes=6, max_particles=3)
        n = len(inputs)
        perm = rng.permutation(n)
        permuted_inputs = tuple(inputs[j] for j in perm)
        permuted_gram = gram[np.ix_(perm, perm)]
        for occ in enumerate_occupations(u.shape[0], n):
            for stats in Statistics:
                a = event_probability(u, inputs, occ, gram, stats)
                b = event_probability(u, permuted_inputs, occ, permuted_gram, stats)
                assert abs(a - b) <= 1e-12


def test_event_spec_validation_errors():
    with pytest.raises(DomainError):
        event_probability(BS, (0, 2), (1, 1), ONES2, Statistics.BOSON)
    with pytest.raises(DomainError):
        event_probability(BS, (0, 1), (1, 1, 0), ONES2, Statistics.BOSON)
    with pytest.raises(DomainError):
        event_probability(BS, (0, 1), (2, 1), ONES2, Statistics.BOSON)
    with pytest.raises(DomainError):
        event_probability(BS, (0, 1), (1, 1), np.ones((3, 3)), Statistics.BOSON)
    with pytest.raises(DomainError):
        event_probability(BS, (0, 1), (1, 1), 2 * ONES2, Statistics.BOSON)
    for gram in ([[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(DomainError):
            event_probability(BS, (0, 1), (1, 1), gram, Statistics.BOSON)
    # a 0 x 0 overlap matrix or network is rejected before any reduction over its entries
    with pytest.raises(DomainError):
        event_probability(BS, (0, 1), (1, 1), np.zeros((0, 0)), Statistics.BOSON)
    with pytest.raises(DomainError):
        internal_vectors_from_gram(np.zeros((0, 0)))
    for unitary in (0.5 * np.eye(2), np.full((2, 2), np.nan), [[1.0, np.inf], [0.0, 1.0]], np.zeros((0, 0))):
        with pytest.raises(DomainError):
            event_probability(unitary, (0, 1), (1, 1), ONES2, Statistics.BOSON)
        with pytest.raises(DomainError):
            full_distribution(unitary, (0, 1), ONES2, Statistics.BOSON)
        with pytest.raises(DomainError):
            interference_orders(unitary, (0, 1), [(1, 1)], Statistics.BOSON)
        with pytest.raises(DomainError):
            quantum_probability(unitary, (0, 1), (1, 1), Statistics.BOSON)
        with pytest.raises(DomainError):
            classical_probability(unitary, (0, 1), (1, 1))
    # with a repeated input mode P(alpha) is a ratio of polynomials, not a sum of orders
    with pytest.raises(DomainError):
        interference_orders(BS, (0, 0), [(1, 1)], Statistics.BOSON)
    # every entry point makes the same check: modes in range, integral modes
    # and counts (never truncated, and never a bool), and at least one particle
    for inputs, output in (((0, 2), (1, 1)), ((0, 1), (2, 1)), ((0.7, 1.2), (1, 1)),
                           ((0, 1), (1.2, 1.9)), ((0, 1), (True, 1.9)), ((0, 1), (2.0, 0)),
                           ((False, True), (True, True)), ((), (0, 0))):
        with pytest.raises(DomainError):
            probability_table(BS, inputs, [output], [ONES2], Statistics.BOSON)
        with pytest.raises(DomainError):
            interference_orders(BS, inputs, [output], Statistics.BOSON)
        for stats in Statistics:
            with pytest.raises(DomainError):
                quantum_probability(BS, inputs, output, stats)
        with pytest.raises(DomainError):
            classical_probability(BS, inputs, output)


def test_statistics_is_checked_at_every_entry_point():
    # nothing but a Statistics member is taken, at every entry point: the
    # string "fermion" is not read as a boson (which would give 0.0 here, not 1.0)
    vectors = internal_vectors_from_gram(ONES2)
    for stats in ("fermion", None):
        for call in (
            lambda: event_probability(BS, (0, 1), (1, 1), ONES2, stats),
            lambda: probability_table(BS, (0, 1), [(1, 1)], [ONES2], stats),
            lambda: full_distribution(BS, (0, 1), ONES2, stats),
            lambda: quantum_probability(BS, (0, 1), (1, 1), stats),
            lambda: interference_orders(BS, (0, 1), [(1, 1)], stats),
            lambda: first_quantized_distribution(BS, (0, 1), vectors, stats),
        ):
            with pytest.raises(DomainError):
                call()


def test_probability_check_rejects_nan():
    for value in (np.nan, complex(0.5, np.nan), [0.25, np.nan]):
        with pytest.raises(ConsistencyError):
            _as_probability(value, "test")


def test_fermions_sharing_input_mode():
    # identical internal states in one mode are rejected: the state vanishes ...
    with pytest.raises(DomainError):
        event_probability(BS, (0, 0), (1, 1), ONES2, Statistics.FERMION)
    # ... orthogonal and partly overlapping ones are allowed and normalized
    for gram in (EYE2, uniform_gram(2, 0.5)):
        dist = full_distribution(BS, (0, 0), gram, Statistics.FERMION)
        assert np.allclose([dist[(2, 0)], dist[(1, 1)], dist[(0, 2)]], [0.25, 0.5, 0.25], atol=1e-12)


def test_repeated_bosonic_input_is_normalized():
    # two bosons in mode 0 of a balanced splitter: (1/4, 1/2, 1/4) at any overlap
    for alpha in (0.0, 0.5, 1.0):
        dist = full_distribution(BS, (0, 0), uniform_gram(2, alpha), Statistics.BOSON)
        assert np.allclose([dist[(2, 0)], dist[(1, 1)], dist[(0, 2)]], [0.25, 0.5, 0.25], atol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_modes=st.integers(1, 6),
    num_particles=st.integers(1, 3),
    fermion=st.booleans(),
)
def test_engine_matches_first_quantized_oracle(seed, num_modes, num_particles, fermion):
    # random networks, overlaps and input modes, repeated modes included
    rng = np.random.default_rng(seed)
    u = random_unitary(num_modes, seed)
    inputs = tuple(sorted(int(j) for j in rng.integers(0, num_modes, num_particles)))
    gram = random_vector_gram(num_particles, num_particles, rng)
    stats = Statistics.FERMION if fermion else Statistics.BOSON
    vectors = internal_vectors_from_gram(gram)
    try:
        dist = full_distribution(u, inputs, gram, stats)
    except DomainError:
        # only a vanishing fermionic state is rejected, and the oracle agrees
        with pytest.raises(DomainError):
            first_quantized_distribution(u, inputs, vectors, stats)
        assume(False)
    reference = first_quantized_distribution(u, inputs, vectors, stats)
    assert max(abs(dist[occ] - reference[occ]) for occ in dist) <= 1e-9
    assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_resource_limits():
    with pytest.raises(ResourceError):
        event_probability(np.eye(8), tuple(range(8)), (1,) * 8, np.eye(8), Statistics.BOSON)
    with pytest.raises(ResourceError):
        interference_orders(np.eye(8), tuple(range(8)), [(1,) * 8], Statistics.BOSON)
    with pytest.raises(ResourceError):
        full_distribution(np.eye(13), (0,), np.eye(1), Statistics.BOSON)
    with pytest.raises(ResourceError):
        full_distribution(np.eye(8), tuple(range(6)), np.eye(6), Statistics.BOSON)


def test_fast_path_budget():
    # the closed forms stop where the permanent does, at linalg.MAX_PERMANENT_DIM = 20;
    # the identity network moves each particle straight through
    assert classical_probability(np.eye(20), tuple(range(20)), (1,) * 20) == 1.0
    with pytest.raises(ResourceError):
        classical_probability(np.eye(21), tuple(range(21)), (1,) * 21)
    for stats in Statistics:
        with pytest.raises(ResourceError):
            quantum_probability(np.eye(21), tuple(range(21)), (1,) * 21, stats)


@pytest.mark.parametrize("n", [5, 6])
def test_terms_match_pairwise_path_sum(n):
    rng = np.random.default_rng(60 + n)
    u = random_unitary(n + 2, 60 + n)
    occupations = list(enumerate_occupations(n + 2, n))
    for index in rng.choice(len(occupations), size=3, replace=False):
        inputs = tuple(sorted(int(j) for j in rng.choice(n + 2, size=n, replace=False)))
        output = occupations[index]
        (inner,) = relative_permutation_terms(u, inputs, [output])[2]
        assert np.abs(inner - pairwise_terms(u, inputs, output)).max() <= 1e-15


def test_terms_of_inverse_permutations_are_conjugate():
    # G(tau^-1) = conj G(tau): swapping the roles of the two paths of a pair
    rng = np.random.default_rng(61)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(m, 5) + 1))
        u = random_unitary(m, int(rng.integers(0, 2**31)))
        inputs = tuple(int(j) for j in rng.choice(m, size=n))
        output = tuple(np.bincount(rng.choice(m, size=n), minlength=m))
        perms, _, (inner,), _ = relative_permutation_terms(u, inputs, [output])
        index = {tuple(p): t for t, p in enumerate(perms.tolist())}
        inverse = [index[tuple(np.argsort(p))] for p in perms]
        assert np.abs(inner[inverse] - inner.conj()).max() <= 1e-15


def outputs_per_chunk(n):
    """Outputs whose +-1 stacks are built together: a stack of at most
    CHUNK_ELEMENTS / 8 numbers, or one output."""
    return max(1, (linalg.CHUNK_ELEMENTS >> 3) // (2 ** (n - 1) * n * n))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("size", ["none", "below", "at", "above", "few"])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_batched_terms_equal_the_per_output_reference(n, size, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))  # few modes, so output and input modes repeat
    u = random_unitary(m, seed)
    inputs = tuple(int(j) for j in rng.choice(m, size=n))
    chunk = outputs_per_chunk(n)
    count = {"none": 0, "below": chunk - 1, "at": chunk, "above": chunk + 1, "few": 3}[size]
    modes = rng.integers(0, m, size=(count, n))
    outputs = [tuple(int(c) for c in np.bincount(row, minlength=m)) for row in modes]
    _, _, inner, multiplicity = relative_permutation_terms(u, inputs, outputs)
    assert inner.shape == (count, math.factorial(n)) and multiplicity.shape == (count,)
    single = {s: relative_permutation_terms(u, inputs, [s])[2][0] for s in set(outputs)}
    for s, row, factor in zip(outputs, inner, multiplicity):
        assert np.array_equal(row, single[s])  # chunking leaves the arithmetic alone
        assert factor == math.prod(math.factorial(c) for c in s)
    for s, row in single.items():
        # the reference sums N! products of terms up to N! in size
        reference = pairwise_terms(u, inputs, s)
        scale = math.factorial(n) * np.finfo(float).eps * max(1.0, np.abs(reference).max())
        assert np.abs(row - reference).max() <= scale


def test_batched_terms_at_seven_particles_equal_the_reference():
    # two outputs per chunk at N = 7: the same output three times fills two chunks
    u = random_unitary(4, 64)
    inputs, output = (0, 0, 1, 2, 3, 3, 3), (2, 0, 3, 2)
    _, _, inner, multiplicity = relative_permutation_terms(u, inputs, [output] * 3)
    reference = pairwise_terms(u, inputs, output)
    assert np.abs(inner - reference).max() <= 5040 * np.finfo(float).eps * np.abs(reference).max()
    assert multiplicity.tolist() == [24.0] * 3


def test_seven_particle_event_memory_is_bounded():
    # one output under one Gram takes the sign sum: 2^6 permanents of 7 x 7
    # matrices, whose intermediates hold at most CHUNK_ELEMENTS numbers each
    u = random_unitary(9, 62)
    output = (1, 0, 2, 0, 1, 1, 0, 1, 1)
    tracemalloc.start()
    try:
        table = probability_table(u, range(7), [output], [uniform_gram(7, 0.5)], Statistics.BOSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= table[0, 0] <= 1.0
    assert peak < 16 * 2**20


def test_a_seven_particle_per_tau_table_is_memory_bounded(monkeypatch):
    # two outputs under 201 Grams take the per-tau build, which adds one
    # (outputs, N!) product per sign vector to the terms: about 5 MiB, against
    # 8.5 MiB for N! permanents of N x N products per output
    taken = []
    per_tau = engine._per_tau_totals
    monkeypatch.setattr(engine, "_per_tau_totals", lambda *a: taken.append(len(a[3])) or per_tau(*a))
    u = random_unitary(9, 62)
    outputs = [(1, 0, 2, 0, 1, 1, 0, 1, 1), (0, 1, 1, 1, 0, 2, 1, 0, 1)]
    grams = [uniform_gram(7, a) for a in np.linspace(0.0, 1.0, 201)]
    tracemalloc.start()
    try:
        table = probability_table(u, range(7), outputs, grams, Statistics.BOSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == [201]
    assert np.all((0.0 <= table) & (table <= 1.0))
    assert peak < 8 * 2**20


@pytest.mark.parametrize("stats", list(Statistics))
def test_twelve_mode_distribution_memory_is_bounded(stats):
    # the 12^5-entry tensor, its map to the 4368 outputs (built here, not
    # taken from the cache) and the result; a map built by sorting the mode
    # tuples peaked at about 27 MiB
    u = random_unitary(12, 63)
    engine._distribution_plan.cache_clear()
    tracemalloc.start()
    try:
        dist = full_distribution(u, (0, 2, 3, 5, 8), uniform_gram(5, 0.5), stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
    assert peak < 20 * 2**20


def test_a_many_gram_table_of_every_output_is_memory_bounded():
    # 51 Grams over the 4368 outputs at (12, 5): the tensor expansion runs one
    # Gram's 12^5 levels at a time, and the table holds 51 x 4368 numbers
    u = random_unitary(12, 64)
    outputs = list(enumerate_occupations(12, 5))
    grams = [uniform_gram(5, a) for a in np.linspace(0.0, 1.0, 51)]
    engine._distribution_plan.cache_clear()
    tracemalloc.start()
    try:
        table = probability_table(u, (0, 2, 3, 5, 8), outputs, grams, Statistics.FERMION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12
    assert peak < 20 * 2**20


def input_norm(inputs, gram, fermion):
    """Squared norm of the input state: the sum over the permutations that
    keep the input modes of eps(tau) prod_j S[j, tau(j)], one at a time."""
    total = 0j
    for tau in itertools.permutations(range(len(inputs))):
        if all(inputs[j] == inputs[t] for j, t in enumerate(tau)):
            total += (parity(tau) if fermion else 1) * math.prod(gram[j, t] for j, t in enumerate(tau))
    return total.real


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    count=st.integers(1, 3),
    fermion=st.booleans(),
)
def test_sign_sum_equals_the_per_tau_expansion_and_the_path_sum(seed, n, count, fermion):
    # Bounds are on P * N_in, what every expansion returns, and scale with
    # N and max(1, N_in): N * 1e-15 absolute on P for bosons and for distinct
    # input modes (five bosons in one mode, P = 1, come out 1.1e-15 off). The
    # per-tau expansion sums N! terms of N! products and gets twice that;
    # when the input state vanishes (and is rejected) its terms cancel to noise.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))  # few modes, so input and output modes repeat
    u = random_unitary(m, seed)
    inputs = tuple(sorted(int(j) for j in rng.integers(0, m, n)))
    grams = [random_vector_gram(n, int(rng.integers(1, n + 1)), rng) for _ in range(count)]
    outputs = [tuple(int(c) for c in np.bincount(rng.integers(0, m, n), minlength=m)) for _ in range(2)]
    stats = Statistics.FERMION if fermion else Statistics.BOSON
    signed = engine._signed_sum_table(u, inputs, outputs, np.array(grams), fermion)
    perms, signs, inner, multiplicity = relative_permutation_terms(u, inputs, outputs)
    assert signed.shape == (count, len(outputs))
    norms = [input_norm(inputs, gram, fermion) for gram in grams]
    expected = np.array([[brute_force_probability(u, inputs, s, gram, stats) for s in outputs] for gram in grams])
    for gram, row, norm, reference in zip(grams, signed, norms, expected):
        assert np.abs(row - reference).max() <= 1e-15 * n * max(1.0, norm)
        if norm > 1e-9:
            weights = gram[np.arange(n), perms].prod(axis=1) * (signs if fermion else 1)
            per_tau = (weights * inner).sum(axis=1)
            assert np.abs(row - per_tau / multiplicity).max() <= 2e-15 * n * max(1.0, norm)
    if min(norms) > 1e-9:
        table = probability_table(u, inputs, outputs, grams, stats)
        norms = np.array(norms)[:, None]
        assert np.all(np.abs(table - expected.real / norms) <= 2e-15 * n * np.maximum(1.0, norms) / norms)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), fermion=st.booleans())
def test_tensor_expansion_equals_the_path_sum(seed, n, fermion):
    # the expansion of a full distribution, P * N_in of every output at once,
    # within the sign sum's bound N * 1e-15 * max(1, N_in)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))  # few modes, so input and output modes repeat
    u = random_unitary(m, seed)
    inputs = tuple(sorted(int(j) for j in rng.integers(0, m, n)))
    gram = random_vector_gram(n, int(rng.integers(1, n + 1)), rng)
    stats = Statistics.FERMION if fermion else Statistics.BOSON
    outputs = engine._distribution_plan(m, n)[0]
    totals = engine._tensor_totals(u, inputs, outputs, gram[None], fermion)
    assert totals.shape == (1, len(outputs))
    norm = input_norm(inputs, gram, fermion)
    chosen = [int(k) for k in rng.integers(0, len(outputs), 2)]
    expected = [brute_force_probability(u, inputs, outputs[k], gram, stats) for k in chosen]
    assert np.abs(totals[0, chosen] - expected).max() <= 1e-15 * n * max(1.0, norm)
    if norm > 1e-9 and not (fermion and len(set(inputs)) < n):  # fermions sharing a mode may take a path sum
        dist = full_distribution(u, inputs, gram, stats)
        got = [dist[outputs[k]] for k in chosen]
        assert np.abs(np.subtract(got, np.real(expected) / norm)).max() <= 2e-15 * n * max(1.0, norm) / norm


EXPANSIONS = (engine._per_tau_totals, engine._signed_sum_table, engine._tensor_totals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), roots=st.booleans(), fermion=st.booleans(),
       count=st.integers(1, 8), size=st.integers(1, 7))
def test_every_expansion_equals_the_path_sum_on_any_table(seed, n, roots, fermion, count, size):
    # Any outputs (repeated modes, duplicates, any order) under G = 1..8
    # random-rank complex Grams, or the non-Hermitian roots-of-unity overlaps
    # (1 - w) I + w J of interference_orders, which need distinct input
    # modes: each expansion gives P * N_in within N * 1e-15 * max(1, N_in).
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n if roots else 1, n + 3))  # few modes, so modes repeat
    u = random_unitary(m, seed)
    if roots:
        inputs = tuple(sorted(rng.choice(m, n, replace=False).tolist()))
        grams = [np.eye(n) + w * (1 - np.eye(n)) for w in np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))]
    else:
        inputs = tuple(sorted(rng.integers(0, m, n).tolist()))
        grams = [random_vector_gram(n, int(rng.integers(1, n + 1)), rng) for _ in range(count)]
    distinct = list({tuple(np.bincount(rng.integers(0, m, n), minlength=m).tolist()) for _ in range(3)})
    outputs = [distinct[int(j)] for j in rng.integers(0, len(distinct), size)]
    stats = Statistics.FERMION if fermion else Statistics.BOSON
    expected = {(g, s): brute_force_probability(u, inputs, s, gram, stats)
                for g, gram in enumerate(grams) for s in distinct}
    bounds = [1e-15 * n * max(1.0, input_norm(inputs, gram, fermion)) for gram in grams]
    for expansion in EXPANSIONS:
        totals = expansion(u, inputs, np.array(outputs), np.array(grams), fermion)
        assert totals.shape == (len(grams), len(outputs))
        for g, bound in enumerate(bounds):
            error = np.abs(totals[g] - [expected[g, s] for s in outputs]).max()
            assert error <= bound, (expansion.__name__, g, error)


def tensor_totals_by_every_column(u, r, grams, fermion):
    """The tensor expansion of every output with each column one matmul, the first too: its level
    starts as one 1 x 1 array of ones per Gram, which the first column's factors multiply."""
    _, occupations, weights, codes, slots, steps, chunk, _ = engine._distribution_plan(u.shape[0], len(r))
    rows = u[list(r)]
    totals = np.empty((len(grams), len(occupations)), dtype=complex)
    for start in range(0, len(grams), chunk):
        f = grams[start:start + chunk][:, :, :, None] * rows.conj()[:, None, :] * rows[None, :, :]
        level = np.ones((len(f), 1, 1), dtype=complex)
        for k, (sources, partners, signs) in enumerate(steps):
            factors = f[:, partners, k] * signs[:, None] if fermion else f[:, partners, k]
            level = (level[:, sources].swapaxes(-1, -2) @ factors).reshape(len(f), len(partners), -1)
        for row, tuples in enumerate(level.view(float).reshape(len(f), -1), start):
            totals[row] = np.bincount(slots, tuples, 2 * len(codes)).view(complex)
    return totals


@pytest.mark.parametrize("fermion", [False, True])
def test_tensor_first_column_without_a_matmul_is_bit_identical(fermion):
    # D_1({i}) = F[0, i] taken directly gives the bits of 1 x F[0, i] by a matmul,
    # over random tables up to (12, 5), repeated input modes included, 1 and 11 Grams
    rng = np.random.default_rng(26)
    shapes = [(2, 1), (3, 2), (5, 3), (9, 3), (10, 4), (6, 5), (12, 5)]
    for (m, n), count, repeated in itertools.product(shapes, (1, 11), (False, True)):
        u = random_unitary(m, int(rng.integers(2**31)))
        r = tuple(sorted(rng.integers(0, m, n).tolist() if repeated else rng.choice(m, n, replace=False).tolist()))
        grams = np.array([random_vector_gram(n, int(rng.integers(1, n + 1)), rng) for _ in range(count)])
        occupations = engine._distribution_plan(m, n)[1]
        totals = engine._tensor_totals(u, r, occupations, grams, fermion)
        assert totals.tobytes() == tensor_totals_by_every_column(u, r, grams, fermion).tobytes(), (m, n, count, r)


def test_distribution_plan_sends_every_mode_tuple_to_its_occupation():
    for m, n in itertools.product(range(1, 5), repeat=2):
        outputs, occupations, weights, codes, slots, *_ = engine._distribution_plan(m, n)
        assert outputs == tuple(enumerate_occupations(m, n))
        assert occupations.tolist() == list(map(list, outputs))
        assert np.all(np.diff(codes) > 0) and np.array_equal(codes, occupations @ weights)
        assert engine._scattering_stack(fourier_unitary(m), (0,) * n, occupations, n)[1].tolist() == [
            math.prod(map(math.factorial, s)) for s in outputs]
        tuples = list(itertools.product(range(m), repeat=n))  # C order, the tensor's
        assert slots.shape == (2 * len(tuples),)
        for f, real, imag in zip(tuples, slots[::2].tolist(), slots[1::2].tolist()):
            assert real % 2 == 0
            assert imag == real + 1
            assert outputs[real // 2] == tuple(f.count(mode) for mode in range(m))


@pytest.mark.parametrize("n, most", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 6)])
def test_tables_take_the_expansion_with_fewer_operations(monkeypatch, n, most):
    # the least estimated time of _path_sum_totals: for one output the sign
    # sum up to `most` Grams and the per-tau build after; the tensor expansion
    # for two or more outputs within the distribution budget, unless fermions
    # share an input mode
    paths = []
    for name in ("_signed_sum_table", "_per_tau_totals", "_tensor_totals"):
        original = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, _n=name, _f=original: paths.append(_n) or _f(*a))
    u, output = random_unitary(3, n), (n, 0, 0)
    for count in (most, most + 1):
        probability_table(u, (0,) * n, [output], [uniform_gram(n, 0.5)] * count, Statistics.BOSON)
    assert paths == ["_signed_sum_table", "_per_tau_totals"]
    paths.clear()
    full_distribution(random_unitary(6, n), tuple(range(n)), uniform_gram(n, 0.5), Statistics.FERMION)
    full_distribution(random_unitary(6, n), (0,) * n, uniform_gram(n, 0.5), Statistics.BOSON)
    assert paths == ["_tensor_totals"] * 2
    paths.clear()
    if n > 1:
        full_distribution(random_unitary(6, n), (0,) * n, uniform_gram(n, 0.5), Statistics.FERMION)
        assert paths.pop() != "_tensor_totals"
    interference_orders(random_unitary(6, n), tuple(range(n)), [(n,) + (0,) * 5], Statistics.BOSON)
    assert paths == ["_per_tau_totals" if n in (2, 3, 4) else "_signed_sum_table"]  # N + 1 Grams
    if n == 3:
        paths.clear()
        assert fermion_fourier_scan(np.linspace(0.0, 5.0, 11)).table.shape == (11, 84)
        outputs = list(enumerate_occupations(9, 3))
        alphas = [uniform_gram(3, a) for a in np.linspace(0.0, 1.0, 6)]
        probability_table(random_unitary(9, 3), (1, 4, 6), outputs, alphas, Statistics.BOSON)
        assert paths == ["_tensor_totals"] * 2  # the benchmark's two scans
        paths.clear()
        probability_table(random_unitary(9, 3), (1, 4, 6), outputs[:3], alphas * 34, Statistics.BOSON)
        probability_table(random_unitary(13, 3), (1, 4, 6), [occ + (0,) * 4 for occ in outputs[:30]], alphas,
                          Statistics.BOSON)  # m > 12
        probability_table(random_unitary(8, 3), range(6), [(1,) * 6 + (0, 0)] * 2, [uniform_gram(6, 0.5)],
                          Statistics.BOSON)  # N > 5
        assert "_tensor_totals" not in paths and len(paths) == 3


# The Grams of a table are checked as one stack; a bad one anywhere raises
# what the per-Gram check raises for it.
BAD_GRAMS = {
    "non-finite": [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "non-Hermitian": [[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "diagonal off 1": [[1.0, 0.5, 0.0], [0.5, 1.0 + 1e-9, 0.0], [0.0, 0.0, 1.0]],
    "not PSD": [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]],
    "not numbers": [["1", "x", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "non-Hermitian 4x4": (np.triu(np.ones((4, 4))) * 0.5 + np.eye(4) * 0.5).tolist(),
}


@pytest.mark.parametrize("position", [0, 3, 6])
@pytest.mark.parametrize("kind", sorted(BAD_GRAMS))
def test_a_bad_gram_anywhere_in_a_scan_raises_its_own_message(kind, position):
    grams = [uniform_gram(3, a) for a in np.linspace(0.0, 1.0, 7)]
    grams[position] = BAD_GRAMS[kind]
    with pytest.raises(DomainError) as expected:
        validate_gram(BAD_GRAMS[kind])
    for stack in (grams, grams[:position] + [uniform_gram(2, 0.5)] + grams[position:]):  # a valid 2x2 first
        with pytest.raises(DomainError) as raised:
            probability_table(fourier_unitary(3), (0, 1, 2), [(1, 1, 1)], stack, Statistics.BOSON)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("position", [0, 3, 6])
def test_a_gram_of_another_size_in_a_scan_raises_the_size_message(position):
    grams = [uniform_gram(3, a) for a in np.linspace(0.0, 1.0, 7)]
    for other in (uniform_gram(2, 0.5), uniform_gram(4, 0.5)):
        grams[position] = other
        with pytest.raises(DomainError, match=rf"^overlap matrix is {len(other)}x{len(other)}, need 3x3$"):
            probability_table(fourier_unitary(3), (0, 1, 2), [(1, 1, 1)], grams, Statistics.FERMION)


@pytest.mark.parametrize("stats", list(Statistics))
def test_a_table_is_the_same_for_every_form_of_its_grams(monkeypatch, stats):
    # one (G, N, N) array, a list of arrays and nested lists from a generator
    # (listed once) all pass the stack check, with no per-Gram call.
    # Repeated input modes, so each table divides by N_in.
    rng = np.random.default_rng(72)
    u, inputs = random_unitary(5, 72), (0, 0, 2, 2)
    grams = np.array([random_vector_gram(4, 4, rng) for _ in range(5)])
    checked = []
    monkeypatch.setattr(engine, "validate_gram", lambda g: checked.append(g) or validate_gram(g))
    for outputs in (list(enumerate_occupations(5, 4)), [(1, 0, 1, 1, 1)]):  # every output, and one
        tables = []
        for form in (grams, list(grams), (gram.tolist() for gram in grams)):
            checked.clear()
            tables.append(probability_table(u, inputs, outputs, form, stats))
            assert checked == []
        assert np.array_equal(tables[0], tables[1]) and np.array_equal(tables[0], tables[2])


@pytest.mark.parametrize("stats", list(Statistics))
def test_no_grams_give_an_empty_table(stats):
    # an empty list, an empty (0, K, K) array and an empty generator are no Grams
    # of any size; [[]] is one Gram with no row
    outputs = [(1, 1, 1), (0, 1, 2), (3, 0, 0)]
    for grams in ([], np.zeros((0, 3, 3)), np.zeros((0, 2, 2)), (gram for gram in [])):
        table = probability_table(fourier_unitary(3), (0, 1, 2), outputs, grams, stats)
        assert table.shape == (0, len(outputs))
    with pytest.raises(DomainError, match=r"^overlap matrix: expected a square matrix with at least one row"):
        probability_table(fourier_unitary(3), (0, 1, 2), outputs, [[]], stats)


def test_the_first_vanishing_gram_names_its_norm():
    # fermions 0 and 1 share a mode; Grams 2 and 4 make them (nearly) identical
    grams = [uniform_gram(3, a) for a in np.linspace(0.0, 0.5, 6)]
    for position, overlap in ((2, math.sqrt(1.0 - 4e-13)), (4, 1.0)):
        grams[position] = np.array([[1.0, overlap, 0.0], [overlap, 1.0, 0.0], [0.0, 0.0, 1.0]])
    norm = np.linalg.det(grams[2][:2, :2]).real
    assert 0.0 < norm <= engine.NORM_TOL and norm != np.linalg.det(grams[4][:2, :2]).real
    with pytest.raises(DomainError, match=re.escape(f"input state vanishes (squared norm {norm:.3e})")):
        probability_table(fourier_unitary(3), (0, 0, 1), [(1, 1, 1), (0, 1, 2)], grams, Statistics.FERMION)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       count=st.integers(1, 12), fermion=st.booleans())
def test_input_norms_are_the_per_gram_product_of_group_norms(seed, sizes, count, fermion):
    # one stacked perm|det per group of equal modes, against one call per
    # Gram and group: determinants agree exactly, permanents of the groups of
    # 2-4 within 4 ulp (a stacked call rounds differently at n >= 3)
    rng = np.random.default_rng(seed)
    inputs = tuple(mode for mode, size in enumerate(sizes) for _ in range(size))
    n = len(inputs)
    grams = np.array([random_vector_gram(n, int(rng.integers(1, n + 1)), rng) for _ in range(count)])
    groups = [np.flatnonzero(np.array(inputs) == mode) for mode, size in enumerate(sizes) if size > 1]
    evaluate = np.linalg.det if fermion else linalg.permanent
    expected = np.array([math.prod(evaluate(gram[np.ix_(g, g)]).real for g in groups) for gram in grams])
    small = np.flatnonzero(expected <= engine.NORM_TOL)
    if small.size:
        with pytest.raises(DomainError, match=re.escape(f"(squared norm {expected[small[0]]:.3e})")):
            engine._input_norms(inputs, grams, fermion)
        return
    norms = engine._input_norms(inputs, grams, fermion)
    if fermion:
        assert np.array_equal(norms, expected)
    else:
        assert np.all(np.abs(norms - expected) <= 4 * np.spacing(expected))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), data=st.data())
def test_bosonic_input_norm_is_at_least_one(seed, k, data):
    # Marcus-Lieb: perm(S) >= prod_j S_jj = 1 for a positive semidefinite S
    # with unit diagonal, so NORM_TOL can only reject fermions.
    gram = random_vector_gram(k, data.draw(st.integers(1, k)), np.random.default_rng(seed))
    assert linalg.permanent(gram).real >= 1.0 - 1e-12


FOURIER_PERIODS = [(p, n) for n in range(2, 7) for p in range(1, 12 // n + 1)]  # m = pN <= 12


def suppression_classes(p, n):
    """For N particles in the m = pN Fourier network from the inputs 0, p, ..,
    (N - 1)p: per statistics, whether the zero-transmission law allows each
    output (bosons Q = 0, fermions Q = N(N - 1)/2 mod N, Q = sum_k k s_k),
    and the outputs."""
    outputs = list(enumerate_occupations(p * n, n))
    charge = [sum(k * s for k, s in enumerate(occ)) % n for occ in outputs]
    allowed = {"boson": 0, "fermion": n * (n - 1) // 2 % n}
    return {stats: [q == allowed[stats] for q in charge] for stats in allowed}, outputs


@pytest.mark.parametrize("p, n", FOURIER_PERIODS)
def test_fourier_network_suppresses_what_the_zero_transmission_law_forbids(p, n):
    # Tichy, Tiersch, de Melo, Mintert and Buchleitner, PRL 104, 220405 (2010)
    u, inputs = fourier_unitary(p * n), tuple(range(0, p * n, p))
    classes, outputs = suppression_classes(p, n)
    for stats in Statistics:
        probabilities = [quantum_probability(u, inputs, occ, stats) for occ in outputs]
        allowed = classes[stats.value]
        assert max(q for q, ok in zip(probabilities, allowed) if not ok) <= 1e-28
        assert abs(sum(q for q, ok in zip(probabilities, allowed) if ok) - 1.0) <= 1e-9


@pytest.mark.parametrize("m, n", [(9, 3), (8, 4), (12, 4), (10, 5)])
@pytest.mark.parametrize("stats", list(Statistics))
def test_every_expansion_suppresses_what_the_zero_transmission_law_forbids(m, n, stats):
    # At S = J every expansion gives P * N_in = P of all outputs (distinct
    # input modes). A suppressed output is zero up to the rounding of the
    # terms it sums, 2^(N - 1) signed ones in the sign sum: within
    # N 2^N eps max_s P(s) of 0, and the allowed outputs sum to 1 within the
    # same bound per output.
    p = m // n
    u, inputs = fourier_unitary(m), tuple(range(0, m, p))
    classes, outputs = suppression_classes(p, n)
    allowed = np.array(classes[stats.value])
    fermion = stats is Statistics.FERMION
    occupations = engine._distribution_plan(m, n)[1]
    dist = full_distribution(u, inputs, np.ones((n, n)), stats)
    tables = [expansion(u, inputs, occupations, np.ones((1, n, n)), fermion)[0] for expansion in EXPANSIONS]
    for values in [*tables, np.array([dist[occ] for occ in outputs])]:
        bound = n * 2 ** n * np.finfo(float).eps * np.abs(values).max()
        assert np.abs(values[~allowed]).max() <= bound
        assert abs(values[allowed].sum() - 1.0) <= bound * len(outputs)


@pytest.mark.parametrize("stats", list(Statistics))
def test_a_haar_network_breaks_the_zero_transmission_law(stats):
    classes, outputs = suppression_classes(3, 3)
    u = random_unitary(9, 7)
    forbidden = [occ for occ, ok in zip(outputs, classes[stats.value]) if not ok]
    assert max(quantum_probability(u, (0, 3, 6), occ, stats) for occ in forbidden) > 1e-6


@pytest.mark.parametrize("m, n", [(12, 6), (14, 7)])
@pytest.mark.parametrize("stats", list(Statistics))
def test_the_path_sums_suppress_what_the_zero_transmission_law_forbids_at_their_own_n(m, n, stats):
    # N = 6 and 7 lie beyond the tensor expansion: the sign sum over every
    # singly occupied output, the per-tau build over a seeded sample of 20,
    # each within N 2^N eps max_s P(s) of 0 on the suppressed outputs
    u, inputs = fourier_unitary(m), tuple(range(0, m, m // n))
    fermion = stats is Statistics.FERMION
    modes = np.array(list(itertools.combinations(range(m), n)))
    outputs = np.zeros((len(modes), m), dtype=np.intp)
    np.put_along_axis(outputs, modes, 1, axis=1)
    allowed = modes.sum(axis=1) % n == (n * (n - 1) // 2 % n if fermion else 0)
    sample = np.random.default_rng(m).choice(len(outputs), size=20, replace=False)
    for expansion, rows in ((engine._signed_sum_table, slice(None)), (engine._per_tau_totals, sample)):
        (values,) = expansion(u, inputs, outputs[rows], np.ones((1, n, n)), fermion)
        bound = n * 2 ** n * np.finfo(float).eps * np.abs(values).max()
        assert np.abs(values[~allowed[rows]]).max() <= bound


def table_or_error(compute):
    """What ``compute()`` returns, or the type and message of the error that it raises."""
    try:
        return compute()
    except (DomainError, ConsistencyError) as exc:
        return type(exc), str(exc)


def test_prob_and_dist_agree_for_fermions_that_share_a_mode():
    # the tensor expansion leaves these inputs to the path sums, so a full
    # distribution is the probability table of every output, bit for bit, or
    # both raise the same error
    rng = np.random.default_rng(73)
    for m, layout in itertools.product((3, 4, 6), ((1, 1), (0, 0, 2), (1, 1, 2, 3))):
        outputs = list(enumerate_occupations(m, len(layout)))
        for seed in range(4):
            u = random_unitary(m, seed)
            for alpha in (0.0, 0.5, 1.0 - 1e-8, *(1.0 - 10.0 ** -rng.uniform(0.0, 8.0, size=5))):
                gram = uniform_gram(len(layout), alpha)
                dist = table_or_error(lambda: full_distribution(u, layout, gram, Statistics.FERMION))
                table = table_or_error(lambda: probability_table(u, layout, outputs, [gram], Statistics.FERMION))
                if isinstance(dist, dict):
                    assert list(dist) == outputs and np.array_equal(list(dist.values()), table[0])
                else:
                    assert dist == table
