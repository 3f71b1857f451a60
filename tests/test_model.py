import numpy as np
import pytest

from interfere.exceptions import DomainError
from interfere.model import (
    SourceConfig,
    assignment_to_occupation,
    enumerate_occupations,
    gram_from_positions,
    occupation_label,
    occupation_to_assignment,
    uniform_gram,
    validate_gram,
)


@pytest.mark.parametrize(
    "occupation, assignment",
    [((2, 0, 1), (0, 0, 2)), ((1, 1, 1), (0, 1, 2)), ((0, 3), (1, 1, 1))],
)
def test_occupation_to_assignment(occupation, assignment):
    assert occupation_to_assignment(occupation) == assignment


def test_assignment_occupation_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 5))
        assignment = tuple(sorted(int(j) for j in rng.integers(0, m, size=n)))
        occ = assignment_to_occupation(assignment, m)
        assert occupation_to_assignment(occ) == assignment


def test_occupation_rejects_negative_counts():
    with pytest.raises(DomainError):
        occupation_to_assignment((1, -1))
    # non-integral counts are rejected, not truncated
    for occ in ((1.2, 1.9), (2.0, 0), ("1", 1), (1, None), 3):
        with pytest.raises(DomainError):
            occupation_to_assignment(occ)


def test_assignment_rejects_out_of_range():
    with pytest.raises(DomainError):
        assignment_to_occupation((0, 3), 3)


def test_occupation_label():
    assert occupation_label((1, 1, 1, 0, 0, 0, 0, 0, 0)) == "1.1.1.0.0.0.0.0.0"


def test_enumerate_occupations_counts():
    occs = list(enumerate_occupations(9, 3))
    assert len(occs) == 165  # C(11, 3)
    assert len(set(occs)) == 165
    assert all(sum(occ) == 3 and len(occ) == 9 for occ in occs)


def test_gram_equal_positions_is_all_ones():
    s = gram_from_positions(SourceConfig((0.3, 0.3, 0.3), 1.0))
    assert np.allclose(s, np.ones((3, 3)), atol=1e-15)


def test_gram_single_coherence_length_separation():
    s = gram_from_positions(SourceConfig((0.0, 2.0), 2.0))
    assert np.isclose(s[0, 1], np.exp(-0.5))


def test_gram_distinguishable_limit():
    s = gram_from_positions(SourceConfig((0.0, 20.0, 40.0), 1.0))
    off = s - np.eye(3)
    assert np.abs(off).max() <= np.exp(-200.0)


def test_gram_invariants_for_random_positions():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        positions = tuple(rng.uniform(-4, 4, size=n))
        s = gram_from_positions(SourceConfig(positions, float(rng.uniform(0.2, 3.0))))
        validate_gram(s)


def test_gram_translation_invariance():
    rng = np.random.default_rng(8)
    positions = tuple(rng.uniform(0, 3, size=4))
    a = gram_from_positions(SourceConfig(positions, 1.3))
    b = gram_from_positions(SourceConfig(tuple(x + 17.5 for x in positions), 1.3))
    assert np.allclose(a, b, atol=1e-12)


def test_gram_rejects_bad_coherence_length():
    for lc in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            SourceConfig((0.0, 1.0), lc)
    with pytest.raises(DomainError):
        SourceConfig((0.0, float("nan")), 1.0)
    for oscillation in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            SourceConfig((0.0, 1.0), 1.0, oscillation)


def test_oscillating_gram_stays_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        cfg = SourceConfig(
            tuple(rng.uniform(-3, 3, size=n)),
            float(rng.uniform(0.3, 2.0)),
            oscillation=float(rng.uniform(0.0, 4.0)),
        )
        validate_gram(gram_from_positions(cfg))


def test_zero_oscillation_matches_plain_gaussian():
    positions = (0.0, 0.7, 1.9)
    a = gram_from_positions(SourceConfig(positions, 1.1))
    b = gram_from_positions(SourceConfig(positions, 1.1, oscillation=0.0))
    assert np.array_equal(a, b)


def test_uniform_gram_limits():
    assert np.allclose(uniform_gram(4, 0.0), np.eye(4))
    assert np.allclose(uniform_gram(4, 1.0), np.ones((4, 4)))


def test_uniform_gram_minimum_eigenvalue():
    # spectrum is 1 - alpha (twice) and 1 + 2 alpha for three particles
    eigs = np.linalg.eigvalsh(uniform_gram(3, 0.5))
    assert np.isclose(eigs.min(), 0.5)
    for alpha in (0.0, 0.3, 0.8, 1.0):
        eigs = np.linalg.eigvalsh(uniform_gram(5, alpha))
        assert eigs.min() >= 1.0 - alpha - 1e-12


def test_uniform_gram_rejects_out_of_range():
    for alpha in (-0.01, 1.01):
        with pytest.raises(DomainError):
            uniform_gram(3, alpha)


def test_validate_gram_rejections():
    bad_hermitian = np.array([[1.0, 0.5j], [0.5j, 1.0]])
    with pytest.raises(DomainError):
        validate_gram(bad_hermitian)
    bad_diag = np.array([[1.0, 0.0], [0.0, 0.9]])
    with pytest.raises(DomainError):
        validate_gram(bad_diag)
    not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError):
        validate_gram(not_psd)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            validate_gram(np.array([[1.0, bad], [bad, 1.0]]))
