import numpy as np
import pytest

from _helpers import random_instance
from interfere import oracle
from interfere.engine import event_probability
from interfere.exceptions import DomainError, ResourceError
from interfere.linalg import beamsplitter, fourier_unitary
from interfere.model import (
    SourceConfig,
    Statistics,
    gram_from_positions,
    uniform_gram,
)
from interfere.oracle import (
    first_quantized_distribution,
    first_quantized_probability,
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
        s = gram_from_positions(
            SourceConfig(tuple(rng.uniform(0, 3, size=3)), 1.0, oscillation=2.0)
        )
        vectors = internal_vectors_from_gram(s)
        assert np.abs(gram_of(vectors) - s).max() <= 1e-10


def test_factorization_rejects_non_psd():
    with pytest.raises(DomainError):
        internal_vectors_from_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_hom_identical_internals():
    bs = beamsplitter(0.5)
    vectors = internal_vectors_from_gram(np.ones((2, 2)))
    p = first_quantized_probability(bs, (0, 1), vectors, (1, 1), Statistics.BOSON)
    assert p <= 1e-15


def test_hom_orthogonal_internals():
    bs = beamsplitter(0.5)
    vectors = internal_vectors_from_gram(np.eye(2))
    p = first_quantized_probability(bs, (0, 1), vectors, (1, 1), Statistics.BOSON)
    assert np.isclose(p, 0.5, atol=1e-12)


def test_fermion_fourier_agrees_with_engine():
    u = fourier_unitary(9)
    gram = gram_from_positions(SourceConfig((0.0, 1.0, 2.0), 1.0))
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
    # swapping two particle slots (mode axis and internal axis together)
    # leaves the bosonic tensor invariant and negates the fermionic one
    from interfere.oracle import _build_state

    vectors = internal_vectors_from_gram(uniform_gram(3, 0.4))
    n = 3
    for stats, sign in ((Statistics.BOSON, 1.0), (Statistics.FERMION, -1.0)):
        psi = _build_state((0, 2, 3), vectors, stats, 4)
        swapped = np.swapaxes(np.swapaxes(psi, 0, 1), n + 0, n + 1)
        assert np.allclose(swapped, sign * psi, atol=1e-12)
        assert np.isclose(np.sqrt((np.abs(psi) ** 2).sum()), 1.0, atol=1e-12)


def test_antisymmetrization_annihilates_identical_fermions():
    bs = beamsplitter(0.5)
    vectors = internal_vectors_from_gram(np.ones((2, 2)))
    with pytest.raises(DomainError):
        first_quantized_probability(bs, (0, 0), vectors, (1, 1), Statistics.FERMION)


def test_single_event_equals_distribution_entry():
    u = fourier_unitary(4)
    vectors = internal_vectors_from_gram(uniform_gram(2, 0.3))
    dist = first_quantized_distribution(u, (0, 2), vectors, Statistics.BOSON)
    occ = (1, 0, 1, 0)
    p = first_quantized_probability(u, (0, 2), vectors, occ, Statistics.BOSON)
    assert np.isclose(p, dist[occ], atol=1e-12)


def test_malformed_output_is_domain_error(monkeypatch):
    vectors = internal_vectors_from_gram(uniform_gram(2, 0.3))
    # the output is checked before the state is built
    monkeypatch.setattr(oracle, "_build_state", None)
    for occ in ((2, -1, 1), (1, 1), (1, 1, 1, 0), (1, 0, 0), (1, 1, 1), (1.2, 0.8, 0)):
        with pytest.raises(DomainError):
            first_quantized_probability(fourier_unitary(3), (0, 1), vectors, occ, Statistics.BOSON)


def test_malformed_input_is_domain_error():
    # no particle, a mode out of range, a non-integral mode
    for inputs, vectors in (((), []), ((0, 2), [[1.0], [1.0]]), ((0, 0.5), [[1.0], [1.0]])):
        with pytest.raises(DomainError):
            first_quantized_distribution(np.eye(2), inputs, vectors, Statistics.BOSON)


def test_oracle_budget():
    vectors = internal_vectors_from_gram(np.eye(4))
    with pytest.raises(ResourceError):
        first_quantized_probability(
            np.eye(5), (0, 1, 2, 3), vectors, (1, 1, 1, 1, 0), Statistics.BOSON
        )
    vectors = internal_vectors_from_gram(np.eye(1))
    with pytest.raises(ResourceError):
        first_quantized_probability(np.eye(10), (0,), vectors, (1,) + (0,) * 9, Statistics.BOSON)


def test_rejects_non_finite_or_non_unitary_network():
    vectors = internal_vectors_from_gram(np.eye(2))
    bad = (0.5 * np.eye(2), np.array([[np.nan, 0], [0, 1]]), np.array([[np.inf, 0], [0, 1]]),
           np.ones((2, 3)) / np.sqrt(2))
    for u in bad:
        with pytest.raises(DomainError):
            first_quantized_distribution(u, (0, 1), vectors, Statistics.BOSON)
        with pytest.raises(DomainError):
            first_quantized_probability(u, (0, 1), vectors, (1, 1), Statistics.BOSON)
