import math
import tracemalloc

import numpy as np
import pytest

from _helpers import permanent_naive
from interfere.exceptions import DomainError
from interfere.linalg import (
    MAX_MODES,
    beamsplitter,
    determinant,
    fourier_unitary,
    is_unitary,
    permanent,
    permanents,
    random_unitary,
)


def test_permanent_singleton():
    assert permanent([[5]]) == 5


def test_permanent_two_by_two():
    assert np.isclose(permanent([[1, 2], [3, 4]]), 10)


def test_permanent_all_ones_counts_permutations():
    assert np.isclose(permanent(np.ones((3, 3))), 6)


@pytest.mark.parametrize("n", range(1, 7))
def test_permanent_matches_naive_sum(n):
    rng = np.random.default_rng(100 + n)
    stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    values = permanents(stack)
    assert values.shape == (5,)
    for value, a in zip(values, stack):
        slow = permanent_naive(a)
        assert abs(value - slow) <= 1e-12 * max(1.0, abs(slow))
        assert abs(permanent(a) - slow) <= 1e-12 * max(1.0, abs(slow))


@pytest.mark.parametrize("n", [12, 16, 20])
def test_permanent_exact_cases(n):
    # perm(J_n) = n! and perm(u v^T) = n! prod(u) prod(v): the terms of
    # Glynn's sum cancel heavily here, so these bound its rounding error
    assert abs(permanent(np.ones((n, n))) - math.factorial(n)) <= 1e-12 * math.factorial(n)
    rng = np.random.default_rng(300 + n)
    u = rng.uniform(0.5, 1.5, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    v = rng.uniform(0.5, 1.5, size=n)
    expected = math.factorial(n) * u.prod() * v.prod()
    assert abs(permanent(np.outer(u, v)) - expected) <= 1e-12 * abs(expected)


def test_single_matrix_equals_stack_of_one():
    a = random_unitary(9, 5)
    assert permanents(a).shape == ()
    assert permanents(a) == permanents(a[None])[0] == permanent(a)


def test_permanent_memory_is_bounded():
    a = random_unitary(20, 6)
    tracemalloc.start()
    try:
        permanent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_permanent_rejects_bad_shapes():
    with pytest.raises(DomainError):
        permanent(np.ones((2, 3)))
    with pytest.raises(DomainError):
        permanent(np.ones((0, 0)))
    with pytest.raises(DomainError):
        permanent(np.eye(21))
    with pytest.raises(DomainError):
        permanents(np.ones((4, 2, 3)))
    with pytest.raises(DomainError):
        permanents(np.ones(3))


def test_determinant_two_by_two():
    assert np.isclose(determinant([[1, 2], [3, 4]]), -2)


def test_determinant_repeated_column_vanishes():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a[:, 2] = a[:, 0]
    assert abs(determinant(a)) <= 1e-12


def test_determinant_identity():
    for n in (1, 3, 5):
        assert np.isclose(determinant(np.eye(n)), 1)


def test_determinant_rejects_non_square():
    with pytest.raises(DomainError):
        determinant(np.ones((3, 2)))


def test_permanent_determinant_agree_on_diagonals():
    rng = np.random.default_rng(11)
    d = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = np.diag(d)
    assert np.isclose(permanent(a), determinant(a))
    assert np.isclose(permanent([[d[0]]]), determinant([[d[0]]]))


def test_fourier_two_modes():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(fourier_unitary(2), expected, atol=1e-12)


def test_fourier_nine_modes_uniform_probabilities():
    u = fourier_unitary(9)
    assert np.abs(np.abs(u) ** 2 - 1.0 / 9).max() <= 1e-12


@pytest.mark.parametrize("m", range(2, 13))
def test_fourier_unitarity(m):
    assert is_unitary(fourier_unitary(m))


def test_fourier_rejects_zero_modes():
    # and any mode count above the budget, before the matrix is allocated
    for m in (0, MAX_MODES + 1, 10**12):
        with pytest.raises(DomainError):
            fourier_unitary(m)
        with pytest.raises(DomainError):
            random_unitary(m, 0)
    with pytest.raises(DomainError):
        random_unitary(3, -1)


def test_beamsplitter_balanced():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(beamsplitter(0.5), expected, atol=1e-12)


def test_beamsplitter_extremes():
    assert np.allclose(beamsplitter(1.0), [[1, 0], [0, -1]], atol=1e-12)
    assert np.allclose(beamsplitter(0.0), [[0, 1], [1, 0]], atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
def test_beamsplitter_unitarity(t):
    assert is_unitary(beamsplitter(t))


def test_beamsplitter_rejects_out_of_range():
    for t in (-0.1, 1.1):
        with pytest.raises(DomainError):
            beamsplitter(t)


def test_random_unitary_is_unitary_and_reproducible():
    u1 = random_unitary(5, 42)
    u2 = random_unitary(5, 42)
    u3 = random_unitary(5, 43)
    assert is_unitary(u1)
    assert np.array_equal(u1, u2)
    assert not np.allclose(u1, u3)
