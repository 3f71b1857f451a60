import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _helpers import permanent_naive, permanent_ryser
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


# permanent_ryser meets the 1e-13 bounds below only where numpy's longdouble is wider than double
EXTENDED_PRECISION = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_extended_precision = pytest.mark.skipif(not EXTENDED_PRECISION, reason="numpy longdouble is double here")


@needs_extended_precision
@pytest.mark.parametrize("n", range(8, 17))
def test_permanent_matches_ryser_reference(n):
    # for n = 8...16 the row sums come from two half tables
    rng = np.random.default_rng(500 + n)
    stack = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    for value, a in zip(permanents(stack), stack):
        reference = permanent_ryser(a)
        assert abs(value - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("n", [12, 13, 14, 16, 20])
def test_permanent_exact_cases(n):
    # from n = 14 on, fewer than n - 1 free rows fit in one chunk, so the
    # kernel sums over the sign patterns of the other rows in an outer loop
    # perm(J_n) = n! and perm(u v^T) = n! prod(u) prod(v): the terms of
    # Glynn's sum cancel heavily here, so these bound its rounding error
    assert abs(permanent(np.ones((n, n))) - math.factorial(n)) <= 1e-12 * math.factorial(n)
    rng = np.random.default_rng(300 + n)
    u = rng.uniform(0.5, 1.5, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    v = rng.uniform(0.5, 1.5, size=n)
    expected = math.factorial(n) * u.prod() * v.prod()
    assert abs(permanent(np.outer(u, v)) - expected) <= 1e-12 * abs(expected)


def test_stacks_around_one_kernel_batch_match_naive_sum():
    # at n = 4 one kernel batch holds CHUNK_ELEMENTS / (4 * 2^3) = 2048 matrices
    rng = np.random.default_rng(41)
    stack = rng.normal(size=(2049, 4, 4)) + 1j * rng.normal(size=(2049, 4, 4))
    slow = np.array([permanent_naive(a) for a in stack])
    for size in (2047, 2048, 2049):
        values = permanents(stack[:size])
        assert values.shape == (size,)
        assert np.abs(values - slow[:size]).max() <= 1e-12 * max(1.0, np.abs(slow).max())


def test_strided_stack_equals_contiguous_copy():
    rng = np.random.default_rng(43)
    base = rng.normal(size=(21, 7, 11)) + 1j * rng.normal(size=(21, 7, 11))
    stack = base[::3, 1:6, 10:0:-2]  # (7, 5, 5), a negative column stride
    assert not stack.flags.c_contiguous
    values = permanents(stack)
    assert np.abs(values - permanents(stack.copy())).max() <= 1e-12 * np.abs(values).max()
    # perm(A^T) = perm(A), through a transposed view of the same stack
    assert np.abs(permanents(stack.transpose(0, 2, 1)) - values).max() <= 1e-12 * np.abs(values).max()
    for value, a in zip(values, stack):
        slow = permanent_naive(a)
        assert abs(value - slow) <= 1e-12 * max(1.0, abs(slow))
    # the same views where the row sums come from two half tables, in one step
    # (n = 9) and in two (n = 14)
    for n in (9, 14):
        base = rng.normal(size=(5, n + 2, 2 * n + 1)) + 1j * rng.normal(size=(5, n + 2, 2 * n + 1))
        stack = base[::3, 1:n + 1, 2 * n:0:-2]  # (2, n, n)
        assert stack.shape == (2, n, n) and not stack.flags.c_contiguous
        values = permanents(stack)
        assert np.abs(values - permanents(stack.copy())).max() <= 1e-12 * np.abs(values).max()
        assert np.abs(permanents(stack.transpose(0, 2, 1)) - values).max() <= 1e-12 * np.abs(values).max()
        if EXTENDED_PRECISION:
            for value, a in zip(values, stack):
                reference = permanent_ryser(a)
                assert abs(value - reference) <= 1e-13 * abs(reference)


@needs_extended_precision
def test_two_table_stacks_around_one_kernel_batch_match_ryser():
    # n = 8 is the smallest n with two half tables; one kernel batch holds
    # CHUNK_ELEMENTS / (8 * 2^7) = 64 matrices
    rng = np.random.default_rng(53)
    stack = rng.normal(size=(129, 8, 8)) + 1j * rng.normal(size=(129, 8, 8))
    reference = np.array([permanent_ryser(a) for a in stack])
    for size in (63, 64, 65, 129):
        values = permanents(stack[:size])
        assert values.shape == (size,)
        assert (np.abs(values - reference[:size]) <= 1e-13 * np.abs(reference[:size])).all()


def test_permanents_of_a_distribution_sized_stack_use_little_memory():
    # the (17160, 4, 4) stack of an m = 10, N = 4 distribution, made of
    # rank-one matrices u v^T with perm(u v^T) = 4! prod(u) prod(v)
    rng = np.random.default_rng(47)
    u = rng.uniform(0.5, 1.5, size=(17160, 4)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(17160, 4)))
    v = rng.uniform(0.5, 1.5, size=(17160, 4))
    stack = u[:, :, None] * v[:, None, :]
    tracemalloc.start()
    try:
        values = permanents(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # about 2.6 MiB; the stack itself is 4.2 MiB
    expected = 24 * u.prod(axis=1) * v.prod(axis=1)
    assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()


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


def test_two_table_permanent_memory_is_one_chunk():
    # at n = 14 the full row sums of one step, 14 * 2^12 complex numbers
    # (0.875 MiB), are the largest intermediate; the half tables' sums are
    # small, and the sign tables are cached by the first call
    a = random_unitary(14, 6)
    permanent(a.T)
    tracemalloc.start()
    try:
        permanent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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


def test_empty_matrix_is_domain_error():
    # a 0 x 0 matrix fails the shared square check, not a numpy reduction
    for function in (is_unitary, determinant, permanent):
        with pytest.raises(DomainError):
            function(np.zeros((0, 0)))


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


def test_builders_take_integer_sizes_and_seeds():
    # a float is a domain error, even when integral: never rounded (9.5 to a
    # 10 x 10 matrix that is not unitary) nor left to a bare TypeError
    for m in (9.5, 2.0, "2", True):
        with pytest.raises(DomainError):
            fourier_unitary(m)
    for m, seed in ((4.5, 1), (4, 1.5), (4.0, 1), (4, "1"), (True, 1), (4, False)):
        with pytest.raises(DomainError):
            random_unitary(m, seed)
    assert np.array_equal(fourier_unitary(np.int64(3)), fourier_unitary(3))
    assert np.array_equal(random_unitary(np.int64(3), np.int64(7)), random_unitary(3, 7))


def test_unitarity_tolerance():
    # one tolerance, loose enough for matrices read back from text files
    u = fourier_unitary(4)
    perturbed = u.copy()
    perturbed[1, 2] += 1e-9
    assert is_unitary(perturbed)
    perturbed[1, 2] += 1e-7
    assert not is_unitary(perturbed)
    # a non-finite entry is a plain False, without a numpy warning
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
        broken = u.copy()
        broken[0, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_unitary(broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_unitary(np.full((3, 3), np.inf))


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
