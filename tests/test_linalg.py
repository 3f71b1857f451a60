import numpy as np
import pytest

from _helpers import permanent_naive
from interfere.exceptions import DomainError
from interfere.linalg import (
    beamsplitter,
    determinant,
    fourier_unitary,
    is_unitary,
    permanent,
    random_unitary,
    scattering_submatrix,
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
    for _ in range(5):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        fast = permanent(a)
        slow = permanent_naive(a)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_permanent_rejects_bad_shapes():
    with pytest.raises(DomainError):
        permanent(np.ones((2, 3)))
    with pytest.raises(DomainError):
        permanent(np.ones((0, 0)))
    with pytest.raises(DomainError):
        permanent(np.eye(21))


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
    with pytest.raises(DomainError):
        fourier_unitary(0)


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


def test_scattering_submatrix_identity_rows():
    sub = scattering_submatrix(np.eye(3), (0, 2), (0, 2))
    assert np.allclose(sub, np.eye(2))


def test_scattering_submatrix_repeats_columns():
    u = np.arange(9, dtype=complex).reshape(3, 3)
    sub = scattering_submatrix(u, (0, 1), (2, 2))
    assert np.allclose(sub[:, 0], sub[:, 1])
    assert np.allclose(sub[:, 0], u[[0, 1], 2])


def test_scattering_submatrix_fourier_block_magnitudes():
    sub = scattering_submatrix(fourier_unitary(9), (2, 5, 8), (0, 1, 2))
    assert np.abs(np.abs(sub) - 1.0 / 3).max() <= 1e-12


def test_scattering_submatrix_rejects_out_of_range():
    with pytest.raises(DomainError):
        scattering_submatrix(np.eye(3), (0, 3), (0, 1))
    with pytest.raises(DomainError):
        scattering_submatrix(np.eye(3), (0, 1), (0,))


def test_random_unitary_is_unitary_and_reproducible():
    u1 = random_unitary(5, 42)
    u2 = random_unitary(5, 42)
    u3 = random_unitary(5, 43)
    assert is_unitary(u1)
    assert np.array_equal(u1, u2)
    assert not np.allclose(u1, u3)
