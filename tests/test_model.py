import itertools

import numpy as np
import pytest

from interfere.exceptions import DomainError
from interfere.model import (
    SourceConfig,
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    is_fermion,
    occupation_label,
    uniform_gram,
    validate_gram,
    validate_occupation,
)


def test_occupation_rejects_negative_counts():
    with pytest.raises(DomainError):
        validate_occupation((1, -1))
    # non-integral counts are rejected, not truncated
    for occ in ((1.2, 1.9), (2.0, 0), ("1", 1), (1, None), 3):
        with pytest.raises(DomainError):
            validate_occupation(occ)


def test_statistics_must_be_a_member():
    assert [is_fermion(stats) for stats in Statistics] == [False, True]
    # no coercion: the value string of a member is not that member
    for stats in ("fermion", "boson", None, 1, True):
        with pytest.raises(DomainError):
            is_fermion(stats)


def test_sizes_must_be_integers():
    # a float is rejected, not truncated or rounded, even when integral
    for num_modes, num_particles in ((3.5, 2), (3, 2.0), ("3", 2)):
        with pytest.raises(DomainError):
            list(enumerate_occupations(num_modes, num_particles))
    for n in (2.5, 2.0, "2"):
        with pytest.raises(DomainError):
            uniform_gram(n, 0.3)
    assert list(enumerate_occupations(np.int64(2), np.int64(1))) == [(1, 0), (0, 1)]
    assert uniform_gram(np.int64(2), 0.3).shape == (2, 2)


def test_occupation_label():
    assert occupation_label((1, 1, 1, 0, 0, 0, 0, 0, 0)) == "1.1.1.0.0.0.0.0.0"


def test_enumerate_occupations_counts():
    occs = list(enumerate_occupations(9, 3))
    assert len(occs) == 165  # C(11, 3)
    assert len(set(occs)) == 165
    assert all(sum(occ) == 3 and len(occ) == 9 for occ in occs)


def test_enumerate_occupations_follows_the_mode_combinations():
    # lexicographic order of the occupied-mode combinations, as Python ints
    for m, n in ((1, 3), (4, 0), (3, 1), (5, 2), (9, 3), (10, 4)):
        combos = itertools.combinations_with_replacement(range(m), n)
        occs = list(enumerate_occupations(m, n))
        assert occs == [tuple(np.bincount(c, minlength=m).tolist()) for c in combos]
        assert all(type(c) is int for occ in occs for c in occ)


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


def test_gram_rounds_as_the_plain_formula():
    # the power-of-two scaling is exact: ordinary inputs give the same bits
    rng = np.random.default_rng(14)
    for _ in range(200):
        x = rng.normal(size=int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-5, 5)
        lc, kf = 10.0 ** rng.uniform(-5, 5), float(rng.choice([0.0, rng.normal()]))
        delta = x[:, None] - x[None, :]
        plain = np.exp(-(delta ** 2) / (2.0 * lc * lc))
        if kf:
            plain = plain * np.cos(kf * delta)
        assert np.array_equal(gram_from_positions(SourceConfig(tuple(x), lc, kf)), plain)


def test_gram_at_extreme_finite_scales():
    # RuntimeWarning is an error under pytest, so none of these may warn
    expected = {
        ((0.0, 0.0, 1.0), 1e-200): [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # l_c^2 underflows
        ((0.0, 1e-250), 1e-200): [[1, 1], [1, 1]],
        ((0.0, 1e200), 1.0): [[1, 0], [0, 1]],  # the squared distance overflows
        ((-1e308, 1e308), 1.0): [[1, 0], [0, 1]],  # the distance overflows
        ((0.0, 1.0), 1e300): [[1, 1], [1, 1]],
    }
    for (positions, lc), gram in expected.items():
        assert np.array_equal(gram_from_positions(SourceConfig(positions, lc)), gram)
    for positions, oscillation in (((0.0, 1e10), 1e300), ((-1e308, 1e308), 1.0)):
        with pytest.raises(DomainError, match="overflows"):
            gram_from_positions(SourceConfig(positions, 1.0, oscillation))


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
    with pytest.raises(DomainError):
        validate_gram(np.zeros((0, 0)))
