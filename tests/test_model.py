import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfere
from interfere import (
    TransitionCurve,
    beamsplitter,
    bjork_predictability,
    bjork_projection,
    bjork_scan,
    boson_fourier_scan,
    classical_probability,
    determinant,
    double_slit,
    double_slit_scan,
    event_probability,
    fermion_fourier_scan,
    first_quantized_distribution,
    fourier_unitary,
    full_distribution,
    hom_scan,
    interference_orders,
    internal_vectors_from_gram,
    naive_interpolation,
    permanent,
    position_scan,
    random_unitary,
    transition_polynomial,
)
from interfere.exceptions import DomainError
from interfere.model import (
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    is_fermion,
    _occupation_labels,
    occupation_label,
    uniform_gram,
    validate_gram,
    validate_occupation,
)


def test_occupation_rejects_negative_counts():
    with pytest.raises(DomainError):
        validate_occupation((1, -1))
    # non-integral counts are rejected, not truncated
    for occ in ((1.2, 1.9), (2.0, 0), ("1", 1), (1, None), (True, 1), 3):
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
    # and never a bool or a negative count (itertools' bare error, or no vector at all)
    for num_modes, num_particles in ((3.5, 2), (3, 2.0), ("3", 2), (True, 2), (3, -1), (-1, 2)):
        with pytest.raises(DomainError):
            list(enumerate_occupations(num_modes, num_particles))
    for n in (2.5, 2.0, "2", True):
        with pytest.raises(DomainError):
            uniform_gram(n, 0.3)
    assert list(enumerate_occupations(np.int64(2), np.int64(1))) == [(1, 0), (0, 1)]
    assert uniform_gram(np.int64(2), 0.3).shape == (2, 2)


def test_occupation_label():
    assert occupation_label((1, 1, 1, 0, 0, 0, 0, 0, 0)) == "1.1.1.0.0.0.0.0.0"
    assert occupation_label(np.array([0, 2])) == "0.2"
    # the label of a vector that is not an occupation is an error, not a truncation
    for counts in ((1.7, 0.2), (True, 0), (-1, 2), ("x",)):
        with pytest.raises(DomainError, match=re.escape(repr(counts))):
            occupation_label(counts)


INTEGER_TYPES = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def counts_of(draw, kind, size):
    high = 2**70 if kind is int else int(np.iinfo(kind).max)
    return [kind(draw(st.integers(0, high) | st.integers(0, 5))) for _ in range(size)]


@st.composite
def accepted_occupations(draw):
    """An occupation the engine's check accepts, in 1 to 12 modes: a tuple or
    list of non-negative Python ints and numpy integers, mixed, or an array
    of one numpy integer type."""
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(INTEGER_TYPES[1:]))
        return np.array(counts_of(draw, kind, size), dtype=kind)
    counts = [counts_of(draw, draw(st.sampled_from(INTEGER_TYPES)), 1)[0] for _ in range(size)]
    return draw(st.sampled_from([tuple, list]))(counts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(occupations=st.lists(accepted_occupations(), min_size=1, max_size=6))
def test_unchecked_labels_equal_the_checked_ones(occupations):
    # the formatter the CLI and the scans use on checked outputs gives the
    # bytes of occupation_label, over mixed mode counts in one call
    for occ in occupations:
        validate_occupation(occ)
    assert _occupation_labels(occupations) == [occupation_label(occ) for occ in occupations]


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
    s = gram_from_positions((0.3, 0.3, 0.3), 1.0)
    assert np.allclose(s, np.ones((3, 3)), atol=1e-15)


def test_gram_single_coherence_length_separation():
    s = gram_from_positions((0.0, 2.0), 2.0)
    assert np.isclose(s[0, 1], np.exp(-0.5))


def test_gram_distinguishable_limit():
    s = gram_from_positions((0.0, 20.0, 40.0), 1.0)
    off = s - np.eye(3)
    assert np.abs(off).max() <= np.exp(-200.0)


def test_gram_invariants_for_random_positions():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        positions = tuple(rng.uniform(-4, 4, size=n))
        s = gram_from_positions(positions, float(rng.uniform(0.2, 3.0)))
        validate_gram(s)


def test_gram_translation_invariance():
    rng = np.random.default_rng(8)
    positions = tuple(rng.uniform(0, 3, size=4))
    a = gram_from_positions(positions, 1.3)
    b = gram_from_positions(tuple(x + 17.5 for x in positions), 1.3)
    assert np.allclose(a, b, atol=1e-12)


def test_gram_rejects_bad_coherence_length():
    for lc in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gram_from_positions((0.0, 1.0), lc)
    with pytest.raises(DomainError):
        gram_from_positions((0.0, float("nan")), 1.0)
    for oscillation in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            gram_from_positions((0.0, 1.0), 1.0, oscillation)
    # the checks run in argument order, and l_c's sign comes last
    with pytest.raises(DomainError, match="positions"):
        gram_from_positions((0.0, float("nan")), -1.0, float("nan"))
    with pytest.raises(DomainError, match="oscillation"):
        gram_from_positions((0.0, 1.0), -1.0, float("nan"))


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
        assert np.array_equal(gram_from_positions(tuple(x), lc, kf), plain)


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
        assert np.array_equal(gram_from_positions(positions, lc), gram)
    for positions, oscillation in (((0.0, 1e10), 1e300), ((-1e308, 1e308), 1.0)):
        with pytest.raises(DomainError, match="overflows"):
            gram_from_positions(positions, 1.0, oscillation)


def test_oscillating_gram_stays_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        gram = gram_from_positions(
            tuple(rng.uniform(-3, 3, size=n)),
            float(rng.uniform(0.3, 2.0)),
            oscillation=float(rng.uniform(0.0, 4.0)),
        )
        validate_gram(gram)


def test_zero_oscillation_matches_plain_gaussian():
    positions = (0.0, 0.7, 1.9)
    a = gram_from_positions(positions, 1.1)
    b = gram_from_positions(positions, 1.1, oscillation=0.0)
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


def test_an_int_too_large_for_a_float_is_a_domain_error():
    with pytest.raises(DomainError, match="expected a matrix of numbers"):
        validate_gram([[10**400, 0], [0, 1]])
    with pytest.raises(DomainError, match="expected a matrix of numbers"):
        event_probability([[10**400]], (0,), (1,), [[1]], Statistics.BOSON)


# numpy's complex scalars convert to float with a mere warning, so they are bad values of their own
REAL = (None, "x", 0.5j, math.nan, math.inf, np.complex128(0.5j), True, np.True_)
INTEGER, MATRIX = (None, "x", 0.5j, math.nan, True), ("x", [[10**400, 0], [0, 1]])  # an int too large for a float
BS, EYE2, ORDERS = beamsplitter(0.5), np.eye(2), np.array([0.5, 0.0, -0.5])
# name: (entry point, valid arguments, {path to one argument or one entry of it: bad values}); the
# paths index the argument tuple, then into sequences, e.g. (1, 0) is the first input mode
ENTRY_POINTS = {
    "uniform_gram": (uniform_gram, (2, 0.5), {(0,): INTEGER, (1,): REAL}),
    "enumerate_occupations": (lambda m, n: list(enumerate_occupations(m, n)), (3, 2),
                              {(0,): INTEGER, (1,): INTEGER}),
    "gram_from_positions": (gram_from_positions, ((0.0, 1.0), 1.0, 0.0), {(0, 1): REAL, (1,): REAL, (2,): REAL}),
    "occupation_label": (occupation_label, ((1, 0),), {(0, 0): INTEGER}),
    "validate_gram": (validate_gram, (EYE2,), {(0,): MATRIX}),
    "fourier_unitary": (fourier_unitary, (3,), {(0,): INTEGER}),
    "random_unitary": (random_unitary, (3, 7), {(0,): INTEGER, (1,): INTEGER}),
    "beamsplitter": (beamsplitter, (0.5,), {(0,): REAL}),
    "permanent": (permanent, (EYE2,), {(0,): MATRIX}),
    "determinant": (determinant, (EYE2,), {(0,): MATRIX}),
    "internal_vectors_from_gram": (internal_vectors_from_gram, (EYE2,), {(0,): MATRIX}),
    "first_quantized_distribution": (lambda u, r, v: first_quantized_distribution(u, r, v, Statistics.BOSON),
                                     (BS, (0, 1), ((1.0,), (1.0,))),
                                     {(0,): MATRIX, (1, 0): INTEGER, (2, 0, 0): (None, "x")}),
    "event_probability": (lambda u, r, s, g: event_probability(u, r, s, g, Statistics.BOSON),
                          (BS, (0, 1), (1, 1), EYE2),
                          {(0,): MATRIX, (1, 0): INTEGER, (2, 1): INTEGER, (3,): MATRIX}),
    "full_distribution": (lambda u, r, g: full_distribution(u, r, g, Statistics.FERMION),
                          (BS, (0, 1), EYE2), {(0,): MATRIX, (1, 1): INTEGER, (2,): MATRIX}),
    "interference_orders": (lambda u, r, s: interference_orders(u, r, s, Statistics.BOSON),
                            (BS, (0, 1), [(1, 1)]), {(0,): MATRIX, (1, 0): INTEGER, (2, 0, 0): INTEGER}),
    "classical_probability": (classical_probability, (BS, (0, 1), (1, 1)),
                              {(0,): MATRIX, (1, 1): INTEGER, (2, 1): INTEGER}),
    "transition_polynomial": (transition_polynomial, (ORDERS, 0.5), {(1,): REAL}),
    "naive_interpolation": (naive_interpolation, (0.2, 0.4, 0.5), {(0,): REAL, (1,): REAL, (2,): REAL}),
    "double_slit": (double_slit, (0.0, 0.5), {(0,): REAL, (1,): REAL}),
    "bjork_projection": (bjork_projection, (0.5,), {(0,): REAL}),
    "bjork_predictability": (bjork_predictability, (0.5,), {(0,): REAL}),
    "position_scan": (position_scan, (BS, (0, 1), ((1, 1),), (0.0, 1.0), (0.0, 1.0), Statistics.BOSON, 1.0, 0.0),
                      {(0,): MATRIX, (1, 0): INTEGER, (2, 0, 0): INTEGER, (3, 1): REAL, (4, 1): REAL,
                       (6,): REAL, (7,): REAL}),
    "hom_scan": (hom_scan, (1.0, (0.0, 1.0)), {(0,): REAL, (1, 1): REAL}),
    "double_slit_scan": (double_slit_scan, ((0.0, 1.0), 0.5), {(0, 1): REAL, (1,): REAL}),
    "bjork_scan": (bjork_scan, ((0.0, 0.5),), {(0, 1): REAL}),
    "fermion_fourier_scan": (fermion_fourier_scan, ((0.0, 1.0), None, 1.0, 0.0),
                             {(0, 1): REAL, (2,): REAL, (3,): REAL[1:]}),
    "boson_fourier_scan": (boson_fourier_scan, ((0.0, 1.0), None, 1.0, 0.0),
                           {(0, 1): REAL, (2,): REAL, (3,): REAL}),
    "TransitionCurve": (TransitionCurve, ((0.0, 1.0), ("a",), ((0.5,), (0.5,))),
                        {(0, 1): REAL, (2, 0, 0): REAL}),
}


def _replaced(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return tuple(items)


@pytest.mark.parametrize("function, arguments, slots", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_malformed_scalars_and_matrices_are_domain_errors(function, arguments, slots):
    # one conversion rule per kind of input: a DomainError that shows the
    # value, never a bare ValueError or TypeError (None as a scan oscillation
    # asks for the default, so it is not given there)
    function(*arguments)
    for path, values in slots.items():
        for bad in values:
            with pytest.raises(DomainError, match=re.escape(repr(bad))):
                function(*_replaced(arguments, path, bad))


def test_exports_are_exactly_the_public_names():
    # a name deleted from the package but left in __all__, or bound but not exported, fails here
    exported = interfere.__all__
    assert exported == sorted(set(exported))
    assert [name for name in exported if not hasattr(interfere, name)] == []
    bound = {name for name, value in vars(interfere).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(exported) == bound
