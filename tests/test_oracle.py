import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import first_quantized_reference, parity, random_instance, random_vector_gram
from interfere import oracle
from interfere.engine import event_probability
from interfere.exceptions import DomainError, ResourceError
from interfere.linalg import beamsplitter, fourier_unitary, random_unitary
from interfere.model import (
    Statistics,
    gram_from_positions,
    uniform_gram,
)
from interfere.oracle import (
    first_quantized_distribution,
    internal_vectors_from_gram,
)


def gram_of(vectors):
    v = np.array(vectors)
    return v.conj() @ v.T


def test_factorization_identity_gives_orthonormal_vectors():
    vectors = internal_vectors_from_gram(np.eye(3))
    assert np.allclose(gram_of(vectors), np.eye(3), atol=1e-12)


def test_factorization_all_ones_gives_identical_vectors():
    vectors = internal_vectors_from_gram(np.ones((3, 3)))
    assert len(vectors[0]) == 1  # rank one
    assert np.allclose(gram_of(vectors), np.ones((3, 3)), atol=1e-12)


def test_factorization_round_trip_uniform():
    s = uniform_gram(3, 0.5)
    vectors = internal_vectors_from_gram(s)
    assert np.abs(gram_of(vectors) - s).max() <= 1e-10


def test_factorization_round_trip_positions():
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = gram_from_positions(tuple(rng.uniform(0, 3, size=3)), 1.0, oscillation=2.0)
        vectors = internal_vectors_from_gram(s)
        assert np.abs(gram_of(vectors) - s).max() <= 1e-10


def test_factorization_rejects_non_psd():
    with pytest.raises(DomainError):
        internal_vectors_from_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_hom_identical_internals():
    bs = beamsplitter(0.5)
    vectors = internal_vectors_from_gram(np.ones((2, 2)))
    p = first_quantized_distribution(bs, (0, 1), vectors, Statistics.BOSON)[(1, 1)]
    assert p <= 1e-15


def test_hom_orthogonal_internals():
    bs = beamsplitter(0.5)
    vectors = internal_vectors_from_gram(np.eye(2))
    p = first_quantized_distribution(bs, (0, 1), vectors, Statistics.BOSON)[(1, 1)]
    assert np.isclose(p, 0.5, atol=1e-12)


def test_fermion_fourier_agrees_with_engine():
    u = fourier_unitary(9)
    gram = gram_from_positions((0.0, 1.0, 2.0), 1.0)
    vectors = internal_vectors_from_gram(gram)
    dist = first_quantized_distribution(u, (2, 5, 8), vectors, Statistics.FERMION)
    for occ, reference in dist.items():
        p = event_probability(u, (2, 5, 8), occ, gram, Statistics.FERMION)
        assert abs(p - reference) <= 1e-9


def test_randomized_agreement_and_normalization():
    rng = np.random.default_rng(30)
    for _ in range(25):
        u, inputs, gram = random_instance(rng, max_modes=6, max_particles=3)
        vectors = internal_vectors_from_gram(gram)
        for stats in Statistics:
            dist = first_quantized_distribution(u, inputs, vectors, stats)
            assert np.isclose(sum(dist.values()), 1.0, atol=1e-9)
            for occ, reference in dist.items():
                got = event_probability(u, inputs, occ, gram, stats)
                assert abs(got - reference) <= 1e-9


def test_state_exchange_symmetry():
    # swapping two particle slots leaves the bosonic tensor invariant and
    # negates the fermionic one; the tensor is the sum over permutations of
    # the factors in permuted order, signed by parity for fermions, and the
    # state it builds is normalized
    rng = np.random.default_rng(12)
    factors = list(rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    vectors = internal_vectors_from_gram(uniform_gram(3, 0.4))
    for fermion, sign in ((False, 1.0), (True, -1.0)):
        psi = oracle._symmetrized(factors, fermion).reshape(8, 8, 8)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            assert np.allclose(np.swapaxes(psi, a, b), sign * psi, rtol=0, atol=1e-12)
        explicit = sum((parity(sigma) if fermion else 1) * np.einsum("i,j,k->ijk", *(factors[j] for j in sigma))
                       for sigma in itertools.permutations(range(3)))
        assert np.allclose(psi, explicit, rtol=0, atol=1e-12)
        probs = oracle._mode_tuple_probabilities(np.eye(4, dtype=complex), (0, 2, 3), vectors, fermion)
        assert np.isclose(probs.sum(), 1.0, rtol=0, atol=1e-12)


def test_antisymmetrization_annihilates_identical_fermions():
    # at any scale of the vectors: the test scales with prod_j |v_j|^2
    bs = beamsplitter(0.5)
    vector = internal_vectors_from_gram(np.ones((2, 2)))[0]
    for scale in (1e-300, 1e-7, 1.0, 1e3, 1e300):
        with pytest.raises(DomainError, match="^antisymmetrization annihilated the input state$"):
            first_quantized_distribution(bs, (0, 0), [scale * vector] * 2, Statistics.FERMION)


@pytest.mark.parametrize("stats, u, inputs, vectors", [
    (Statistics.FERMION, fourier_unitary(3), (0, 1, 2), [[1.0, 0.0], [0.6, 0.8j], [0.0, 1.0]]),
    (Statistics.BOSON, beamsplitter(0.5), (0, 1), [[1.0, 0.0], [0.6, 0.8]]),
    (Statistics.FERMION, beamsplitter(0.5), (0, 0), [[1.0, 0.0], [0.0, 1.0]]),
])
def test_the_distribution_does_not_depend_on_the_vectors_scale(stats, u, inputs, vectors):
    # the input state's squared norm scales as prod_j |v_j|^2, and so does the test that it vanishes;
    # from 1e-60 down and 1e200 up that product leaves the float range (for two particles, from 1e-100)
    unit = first_quantized_distribution(u, inputs, vectors, stats)
    for scale in (1e-300, 1e-100, 1e-60, 1e-7, 1e-6, 1e-3, 1e3, 1e200, 1e300):
        scaled = first_quantized_distribution(u, inputs, [np.multiply(scale, v) for v in vectors], stats)
        assert list(scaled) == list(unit)
        assert max(abs(scaled[occ] - p) for occ, p in unit.items()) <= 1e-12


def test_a_zero_internal_vector_names_itself(monkeypatch):
    # rejected before any state is built, for either statistics
    monkeypatch.setattr(oracle, "_symmetrized", None)
    for stats in Statistics:
        with pytest.raises(DomainError, match=r"a zero vector holds no particle, got \[\[1.0\], \[0.0\]\]"):
            first_quantized_distribution(np.eye(2), (0, 1), [[1.0], [0.0]], stats)


def test_malformed_input_is_domain_error():
    # no particle, a mode out of range, a non-integral mode
    for inputs, vectors in (((), []), ((0, 2), [[1.0], [1.0]]), ((0, 0.5), [[1.0], [1.0]])):
        with pytest.raises(DomainError):
            first_quantized_distribution(np.eye(2), inputs, vectors, Statistics.BOSON)


def test_internal_vectors_of_unequal_lengths_are_domain_error():
    with pytest.raises(DomainError):
        first_quantized_distribution(np.eye(2), (0, 1), [np.ones(1), np.ones(2) / np.sqrt(2)], Statistics.BOSON)


def test_two_dimensional_internal_vectors_are_domain_error():
    with pytest.raises(DomainError):
        first_quantized_distribution(np.eye(2), (0, 1), [np.ones((1, 1)), np.ones((1, 1))], Statistics.BOSON)


def test_zero_length_internal_vectors_are_domain_error(monkeypatch):
    # rejected before any state is built, so no antisymmetrization is blamed
    monkeypatch.setattr(oracle, "_symmetrized", None)
    for stats in Statistics:
        with pytest.raises(DomainError, match="length"):
            first_quantized_distribution(np.eye(2), (0, 1), [np.zeros(0), np.zeros(0)], stats)


def test_non_finite_internal_vector_is_domain_error():
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            first_quantized_distribution(np.eye(2), (0, 1), [np.array([bad]), np.ones(1)], Statistics.BOSON)


def test_oracle_budget():
    vectors = internal_vectors_from_gram(np.eye(4))
    with pytest.raises(ResourceError):
        first_quantized_distribution(np.eye(5), (0, 1, 2, 3), vectors, Statistics.BOSON)[(1, 1, 1, 1, 0)]
    vectors = internal_vectors_from_gram(np.eye(1))
    with pytest.raises(ResourceError):
        first_quantized_distribution(np.eye(10), (0,), vectors, Statistics.BOSON)[(1,) + (0,) * 9]


def test_rejects_non_finite_or_non_unitary_network():
    vectors = internal_vectors_from_gram(np.eye(2))
    bad = (0.5 * np.eye(2), np.array([[np.nan, 0], [0, 1]]), np.array([[np.inf, 0], [0, 1]]),
           np.ones((2, 3)) / np.sqrt(2))
    for u in bad:
        with pytest.raises(DomainError):
            first_quantized_distribution(u, (0, 1), vectors, Statistics.BOSON)[(1, 1)]


def test_distribution_sums_mode_tuples_in_product_order():
    # the grouped sum equals a sequential sum over itertools.product, bit for
    # bit and in the same key order
    rng = np.random.default_rng(91)
    for m, n in ((1, 1), (2, 2), (4, 3), (9, 3), (6, 2)):
        for stats in Statistics:
            u = random_unitary(m, int(rng.integers(0, 2**31)))
            inputs = tuple(int(j) for j in rng.choice(m, size=n, replace=stats is Statistics.BOSON))
            vectors = internal_vectors_from_gram(random_vector_gram(n, n, rng))
            probs = oracle._mode_tuple_probabilities(u, inputs, vectors, stats is Statistics.FERMION)
            reference = {}
            for modes in itertools.product(range(m), repeat=n):
                occ = tuple(np.bincount(modes, minlength=m).tolist())
                reference[occ] = reference.get(occ, 0.0) + float(probs[modes])
            dist = first_quantized_distribution(u, inputs, vectors, stats)
            assert list(dist.items()) == list(reference.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), n=st.integers(1, 3), fermion=st.booleans())
def test_rotated_states_equal_the_dense_tensor_construction(seed, m, n, fermion):
    # symmetrizing the rotated particle states gives the distribution of the
    # dense (m,)^N x (d,)^N state rotated along each mode axis, within 1e-15,
    # for repeated input modes and complex Grams of any rank
    rng = np.random.default_rng(seed)
    u = random_unitary(m, int(rng.integers(0, 2**31)))
    inputs = tuple(int(j) for j in rng.integers(0, m, size=n))
    vectors = internal_vectors_from_gram(random_vector_gram(n, int(rng.integers(1, n + 1)), rng))
    stats = Statistics.FERMION if fermion else Statistics.BOSON
    try:
        reference = first_quantized_reference(u, inputs, vectors, fermion)
    except DomainError:
        with pytest.raises(DomainError, match="annihilated"):
            first_quantized_distribution(u, inputs, vectors, stats)
        return
    dist = first_quantized_distribution(u, inputs, vectors, stats)
    assert list(dist) == list(reference)
    assert max(abs(dist[occ] - p) for occ, p in reference.items()) <= 1e-15
