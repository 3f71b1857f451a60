import itertools
import math
import tracemalloc
from unittest import mock

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
from interfere.linalg import beamsplitter, fourier_unitary, permanents, random_unitary
from interfere.model import Statistics, enumerate_occupations, uniform_gram
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
    rng = np.random.default_rng(33)
    for _ in range(20):
        u, inputs, _ = random_instance(rng)
        m, n = u.shape[0], len(inputs)
        all_ones = np.ones((n, n))
        identity = np.eye(n)
        for occ in enumerate_occupations(m, n):
            for stats in Statistics:
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
    assert checked == outputs  # a caller's outputs are still checked, once each
    assert table[0].tolist() == list(expected.values())


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
    for unitary in (0.5 * np.eye(2), np.full((2, 2), np.nan), [[1.0, np.inf], [0.0, 1.0]]):
        with pytest.raises(DomainError):
            event_probability(unitary, (0, 1), (1, 1), ONES2, Statistics.BOSON)
        with pytest.raises(DomainError):
            interference_orders(unitary, (0, 1), (1, 1), Statistics.BOSON)
        with pytest.raises(DomainError):
            quantum_probability(unitary, (0, 1), (1, 1), Statistics.BOSON)
        with pytest.raises(DomainError):
            classical_probability(unitary, (0, 1), (1, 1))
    # with a repeated input mode P(alpha) is a ratio of polynomials, not a sum of orders
    with pytest.raises(DomainError):
        interference_orders(BS, (0, 0), (1, 1), Statistics.BOSON)
    # every entry point makes the same check: modes in range, integral modes
    # and counts (never truncated), and at least one particle
    for inputs, output in (((0, 2), (1, 1)), ((0, 1), (2, 1)), ((0.7, 1.2), (1, 1)),
                           ((0, 1), (1.2, 1.9)), ((0, 1), (True, 1.9)), ((0, 1), (2.0, 0)),
                           ((), (0, 0))):
        with pytest.raises(DomainError):
            probability_table(BS, inputs, [output], [ONES2], Statistics.BOSON)
        with pytest.raises(DomainError):
            interference_orders(BS, inputs, output, Statistics.BOSON)
        for stats in Statistics:
            with pytest.raises(DomainError):
                quantum_probability(BS, inputs, output, stats)
        with pytest.raises(DomainError):
            classical_probability(BS, inputs, output)


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
        interference_orders(np.eye(8), tuple(range(8)), (1,) * 8, Statistics.BOSON)
    with pytest.raises(ResourceError):
        full_distribution(np.eye(13), (0,), np.eye(1), Statistics.BOSON)
    with pytest.raises(ResourceError):
        full_distribution(np.eye(8), tuple(range(6)), np.eye(6), Statistics.BOSON)


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
    """Outputs whose term stacks go to the permanent together: a stack of at
    most CHUNK_ELEMENTS / 8 numbers, or one output."""
    return max(1, (linalg.CHUNK_ELEMENTS >> 3) // (math.factorial(n) * n * n))


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
    sizes = []
    with mock.patch.object(linalg, "permanents", side_effect=lambda s: sizes.append(len(s)) or permanents(s)):
        _, _, inner, multiplicity = relative_permutation_terms(u, inputs, outputs)
    assert inner.shape == (count, math.factorial(n)) and multiplicity.shape == (count,)
    assert sizes == [len(outputs[i:i + chunk]) for i in range(0, count, chunk)]
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
    # one output per chunk at N = 7: the same output twice fills two chunks
    u = random_unitary(4, 64)
    inputs, output = (0, 0, 1, 2, 3, 3, 3), (2, 0, 3, 2)
    _, _, inner, multiplicity = relative_permutation_terms(u, inputs, [output, output])
    reference = pairwise_terms(u, inputs, output)
    assert np.abs(inner - reference).max() <= 5040 * np.finfo(float).eps * np.abs(reference).max()
    assert multiplicity.tolist() == [24.0, 24.0]


def test_seven_particle_event_memory_is_bounded():
    # the N! x N x N term stack is chunked through the permanent, so one
    # N = 7 event stays far below the ~44 MiB of an unchunked evaluation
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


def test_twelve_mode_distribution_memory_is_bounded():
    # the terms of all 4368 outputs are built in chunks into one array; the
    # per-output build held each output's terms twice (about 27 MiB)
    u = random_unitary(12, 63)
    tracemalloc.start()
    try:
        dist = full_distribution(u, (0, 2, 3, 5, 8), uniform_gram(5, 0.5), Statistics.FERMION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
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
    # Bounds are on P * N_in, the path sum over prod_j s_j!, and scale with
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
    signed, multiplicity = engine._signed_sum_table(u, inputs, outputs, grams, fermion)
    perms, signs, inner, _ = relative_permutation_terms(u, inputs, outputs)
    assert signed.shape == (count, len(outputs))
    norms = [input_norm(inputs, gram, fermion) for gram in grams]
    expected = np.array([[brute_force_probability(u, inputs, s, gram, stats) for s in outputs] for gram in grams])
    for gram, row, norm, reference in zip(grams, signed, norms, expected):
        assert np.abs(row / multiplicity - reference).max() <= 1e-15 * n * max(1.0, norm)
        if norm > 1e-9:
            weights = gram[np.arange(n), perms].prod(axis=1) * (signs if fermion else 1)
            per_tau = (weights * inner).sum(axis=1)
            assert np.abs((row - per_tau) / multiplicity).max() <= 2e-15 * n * max(1.0, norm)
    if min(norms) > 1e-9:
        table = probability_table(u, inputs, outputs, grams, stats)
        norms = np.array(norms)[:, None]
        assert np.all(np.abs(table - expected.real / norms) <= 2e-15 * n * np.maximum(1.0, norms) / norms)


@pytest.mark.parametrize("n, most", [(1, 50), (2, 2), (3, 3), (4, 6), (5, 16)])
def test_tables_take_the_expansion_with_fewer_operations(monkeypatch, n, most):
    # the sign sum while G 4^(N-1) N < N! (2^N N + G), the per-tau build after
    paths = []
    for name in ("_signed_sum_table", "relative_permutation_terms"):
        original = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, _n=name, _f=original: paths.append(_n) or _f(*a))
    u, output = random_unitary(3, n), (n, 0, 0)
    for count in (most, most + 1):
        probability_table(u, (0,) * n, [output], [uniform_gram(n, 0.5)] * count, Statistics.BOSON)
    expected = ["_signed_sum_table"] * 2 if n == 1 else ["_signed_sum_table", "relative_permutation_terms"]
    assert paths == expected
    paths.clear()
    full_distribution(random_unitary(6, n), tuple(range(n)), uniform_gram(n, 0.5), Statistics.FERMION)
    assert paths == ["_signed_sum_table"]  # a one-Gram table never builds the per-tau terms
    if n == 3:
        paths.clear()
        assert len(fermion_fourier_scan(np.linspace(0.0, 5.0, 11)).samples) == 11 * 84
        assert paths == ["relative_permutation_terms"]
