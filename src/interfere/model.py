"""Particle configurations, the internal-state overlap structure and the
input conversion rules.

Occupation vectors count particles per mode. Partial distinguishability lives
in a Gram matrix of internal-state inner products: identity means fully
distinguishable particles, the all-ones matrix means fully indistinguishable
ones. The computing entry points convert their integers with ``as_integers``
(a bool is not one), their reals with ``as_reals`` (finite floats only) and
their square matrices with ``as_square``; each raises DomainError, naming the
argument and the value, for anything else.
"""

import enum
import itertools
import math
import operator

import numpy as np

from .exceptions import DomainError

HERMITICITY_TOL = 1e-12
UNIT_DIAGONAL_TOL = 1e-12
PSD_TOL = 1e-10


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


def is_fermion(statistics) -> bool:
    """Whether ``statistics`` is FERMION; DomainError unless it is a Statistics member."""
    if not isinstance(statistics, Statistics):
        raise DomainError(f"statistics must be a Statistics member, got {statistics!r}")
    return statistics is Statistics.FERMION


def as_integers(values, what: str, low=-math.inf, high=math.inf) -> tuple:
    """The values as a tuple of ints in [low, high]; DomainError for any that
    is not an integer (a bool, a float such as 1.9 or 2.0, a string) instead
    of truncating, or that lies outside the range."""
    try:
        values = tuple(values)
        types = set(map(type, values))
        ints = values if types <= {int} else tuple(map(operator.index, values))  # index(int) is itself
        if bool not in types and (not ints or low <= min(ints) and max(ints) <= high):
            return ints
    except TypeError:
        pass
    raise DomainError(f"{what}: expected integers in [{low}, {high}], got {values!r}")


def as_reals(values, what: str, low=-math.inf, high=math.inf) -> tuple:
    """The values as a tuple of floats in [low, high]; DomainError for any that
    is not a finite real number (a bool, a string, None, a complex number, NaN,
    an infinity) or that lies outside the range."""
    try:
        values = tuple(values)
        # a bool is not a real; numpy's complex scalars would pass isfinite with a mere warning
        real = not any(issubclass(t, (bool, np.bool_, np.complexfloating)) for t in set(map(type, values)))
        if real and all(map(math.isfinite, values)):  # TypeError for a string, None or a Python complex
            reals = tuple(map(float, values))
            if not reals or low <= min(reals) and max(reals) <= high:
                return reals
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{what}: expected finite reals in [{low}, {high}], got {values!r}")


def as_square(matrix, what: str) -> np.ndarray:
    """The matrix as a complex array; DomainError unless it is a square matrix
    of numbers with at least one row."""
    try:
        a = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        raise DomainError(f"{what}: expected a matrix of numbers, got {matrix!r}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"{what}: expected a square matrix with at least one row, got shape {a.shape}")
    return a


def validate_occupation(counts) -> tuple:
    return as_integers(counts, "occupation counts", 0)


def occupation_label(counts) -> str:
    """Dot-joined string form of an occupation vector, e.g. '1.1.1.0';
    DomainError unless ``validate_occupation`` accepts it."""
    return _occupation_labels([validate_occupation(counts)])[0]


def _occupation_labels(occupations) -> list:
    """Labels of already checked occupations: one format call, with the string of its mode count, each."""
    occupations = list(map(tuple, occupations))
    formats = {n: ".".join(["%d"] * n) for n in set(map(len, occupations))}
    return [formats[len(counts)] % counts for counts in occupations]


def enumerate_occupations(num_modes: int, num_particles: int):
    """All occupation vectors of ``num_particles`` in ``num_modes`` modes.

    Yields C(m + N - 1, N) vectors in lexicographic order of the occupied
    mode combinations.
    """
    num_modes, num_particles = as_integers((num_modes, num_particles), "mode and particle counts", 0)
    for combo in itertools.combinations_with_replacement(range(num_modes), num_particles):
        occ = [0] * num_modes
        for mode in combo:
            occ[mode] += 1
        yield tuple(occ)


def validate_gram(matrix) -> np.ndarray:
    """The matrix as a complex array; DomainError unless it is finite, Hermitian, of unit diagonal and PSD."""
    return _checked_grams(as_square(matrix, "overlap matrix"))


def _checked_grams(s):
    """A non-empty complex matrix, or a (G, N, N) stack tested at once, that passes
    ``validate_gram``'s tests; DomainError with the first failed test's message."""
    if not np.isfinite(s).all():
        raise DomainError("overlap matrix has non-finite entries")
    if float(np.abs(s - s.conj().swapaxes(-1, -2)).max()) > HERMITICITY_TOL:
        raise DomainError("overlap matrix is not Hermitian")
    if float(np.abs(np.diagonal(s, axis1=-2, axis2=-1) - 1.0).max()) > UNIT_DIAGONAL_TOL:
        raise DomainError("overlap matrix diagonal must be 1")
    min_eig = float(np.linalg.eigvalsh(s).min())
    if min_eig < -PSD_TOL:
        raise DomainError(f"overlap matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return s


def gram_from_positions(positions, coherence_length: float, oscillation: float = 0.0) -> np.ndarray:
    """Pairwise overlap matrix for wavepackets displaced to ``positions``.

    S[j, k] = exp(-(x_j - x_k)^2 / (2 l_c^2)) * cos(oscillation * (x_j - x_k)).
    Both factors are positive-semidefinite kernels, so their product is a
    valid Gram matrix for any positions (Schur product theorem); with zero
    oscillation this is the plain Gaussian overlap decay. A nonzero
    ``oscillation`` (in inverse units of the positions) models wavepackets
    with a two-peaked momentum distribution, e.g. one-dimensional fermions
    drawn from both Fermi points. The positions, l_c and the oscillation must
    be finite reals and l_c positive, else DomainError. A distance too large
    for floating point gives overlap 0; an oscillation phase that overflows
    raises DomainError.
    """
    return _position_grams(np.array(as_reals(positions, "positions"))[None, :], coherence_length, oscillation)[0]


def _position_grams(x, coherence_length, oscillation):
    """``gram_from_positions`` for each row of a (G, N) array of finite
    positions, as a (G, N, N) array, after its checks of l_c and the
    oscillation: every element by the same arithmetic as for one row."""
    (lc,) = as_reals((coherence_length,), "coherence length")
    (kf,) = as_reals((oscillation,), "oscillation")
    if not lc > 0:
        raise DomainError(f"coherence length must be positive, got {lc}")
    # Scaling distances and l_c by one power of two is exact: l_c^2 cannot
    # underflow, and a distance that overflows to inf gives exp(-inf) = 0
    # (and a NaN phase 0 * inf, unused when there is no oscillation).
    mantissa, exponent = math.frexp(lc)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = x[:, :, None] - x[:, None, :]
        s = np.exp(-(np.ldexp(delta, -exponent) ** 2) / (2.0 * mantissa * mantissa))
        phase = kf * delta
    if kf:
        if not np.isfinite(phase).all():
            raise DomainError(f"oscillation phase overflows: {kf} times a source distance")
        s = s * np.cos(phase)
    return s


def uniform_gram(num_particles: int, overlap: float) -> np.ndarray:
    """Gram matrix with unit diagonal and a constant pairwise overlap.

    Eigenvalues are 1 - overlap (N-1 fold) and 1 + (N-1) * overlap, so the
    matrix is positive semidefinite for overlap in [0, 1]; overlap 0 is the
    fully distinguishable limit, overlap 1 the fully indistinguishable one.
    """
    (n,) = as_integers((num_particles,), "particle count", 1)
    (a,) = as_reals((overlap,), "overlap", 0.0, 1.0)
    return np.full((n, n), a, dtype=complex) + (1.0 - a) * np.eye(n)
