"""Tests of the benchmark's own references against each other and closed forms.

Run with: python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference


@pytest.mark.parametrize("n", range(1, reference.NAIVE_MAX + 1))
def test_naive_matches_glynn_on_random_matrices(n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert reference.permanent_naive(a) == pytest.approx(complex(reference.permanent_glynn(a)), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 14])
def test_all_ones_matrix_has_permanent_n_factorial(n):
    ones = np.ones((n, n))
    assert reference.permanent(ones).real == pytest.approx(math.factorial(n), rel=1e-12)
    assert complex(reference.permanent_glynn(ones)).real == pytest.approx(math.factorial(n), rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 14])
def test_rank_one_permanent_is_n_factorial_times_products(n):
    rng = np.random.default_rng(200 + n)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = math.factorial(n) * np.prod(u) * np.prod(v)
    assert complex(reference.permanent_glynn(np.outer(u, v))) == pytest.approx(expected, rel=1e-10)
    if n <= reference.NAIVE_MAX:
        assert reference.permanent_naive(np.outer(u, v)) == pytest.approx(expected, rel=1e-12)


def test_glynn_batches_independent_matrices():
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    batched = reference.permanent_glynn(stack)
    for k in range(5):
        assert batched[k] == pytest.approx(reference.permanent_naive(stack[k]), rel=1e-12)


def test_permutation_signs_match_determinant_of_permutation_matrices():
    perms, signs = reference.permutations(4)
    assert len(perms) == 24
    for p, s in zip(perms, signs):
        assert np.linalg.det(np.eye(4)[p]) == pytest.approx(s)


@pytest.mark.parametrize("fermion", [False, True])
def test_event_terms_reach_both_limits_and_normalize(fermion):
    rng = np.random.default_rng(11)
    u = reference.haar_unitary(5, rng)
    inputs = (0, 2, 3)
    outputs = list(reference.occupations(5, 3))
    terms = reference.EventTerms(u, inputs, outputs, fermion)
    classical = terms.probabilities(np.eye(3))
    quantum = terms.probabilities(np.ones((3, 3)))
    for k, occ in enumerate(outputs):
        assert classical[k] == pytest.approx(reference.classical_limit(u, inputs, occ), abs=1e-13)
        assert quantum[k] == pytest.approx(reference.quantum_limit(u, inputs, occ, fermion), abs=1e-13)
    for alpha in (0.0, 0.3, 0.9):
        assert terms.probabilities(reference.uniform_gram(3, alpha)).sum() == pytest.approx(1.0, abs=1e-12)


def test_repeated_input_modes_are_normalized_by_the_input_norm():
    # Two identical bosons in one mode of a balanced splitter: (1/4, 1/2, 1/4).
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    outputs = [(2, 0), (1, 1), (0, 2)]
    terms = reference.EventTerms(u, (0, 0), outputs, fermion=False)
    assert terms.probabilities(np.ones((2, 2))) == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    for alpha in (0.0, 0.5):
        assert terms.probabilities(reference.uniform_gram(2, alpha)).sum() == pytest.approx(1.0, abs=1e-14)


def test_linear_free_fit_flags_a_linear_term():
    alphas = np.linspace(0.0, 1.0, 6)
    assert reference.linear_free_fit_residual(alphas, 0.2 + 0.3 * alphas ** 2 - 0.1 * alphas ** 3, 3) < 1e-14
    assert reference.linear_free_fit_residual(alphas, 0.2 + 0.05 * alphas, 3) > 1e-4


def test_internal_vectors_reproduce_the_gram():
    gram = reference.uniform_gram(3, 0.4)
    vectors = reference.internal_vectors(gram)
    for j in range(3):
        for k in range(3):
            assert np.vdot(vectors[j], vectors[k]) == pytest.approx(gram[j, k], abs=1e-14)

