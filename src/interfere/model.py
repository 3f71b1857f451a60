"""Particle configurations and the internal-state overlap structure.

Occupation vectors count particles per mode; assignment lists expand them to
one mode index per particle. Partial distinguishability lives in a Gram
matrix of internal-state inner products: identity means fully distinguishable
particles, the all-ones matrix means fully indistinguishable ones.
"""

import enum
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

HERMITICITY_TOL = 1e-12
UNIT_DIAGONAL_TOL = 1e-12
PSD_TOL = 1e-10


class Statistics(enum.Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class SourceConfig:
    """Particle sources at given displacements sharing one coherence length.

    ``oscillation`` is an optional wavenumber (in inverse units of the
    displacements) modulating the pair coherence; zero gives a plain Gaussian
    overlap decay. A nonzero value models wavepackets with a two-peaked
    momentum distribution, e.g. one-dimensional fermions drawn from both
    Fermi points.
    """

    positions: tuple
    coherence_length: float
    oscillation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        if not all(math.isfinite(x) for x in self.positions + (self.oscillation,)):
            raise DomainError(f"positions and oscillation must be finite, got {self}")
        if not 0 < self.coherence_length < math.inf:
            raise DomainError(f"coherence length must be positive and finite, got {self.coherence_length}")


def as_integers(values, what: str) -> tuple:
    """The values as a tuple of ints; DomainError for any that is not an
    integer (a float such as 1.9 or 2.0, a string), instead of truncating."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise DomainError(f"{what} must be integers, got {values!r}") from None


def validate_occupation(counts) -> tuple:
    occ = as_integers(counts, "occupation counts")
    if any(c < 0 for c in occ):
        raise DomainError(f"occupation counts must be non-negative, got {occ}")
    return occ


def occupation_to_assignment(counts) -> tuple:
    """Expand an occupation vector into the sorted list of occupied modes.

    Mode j appears counts[j] times, ascending: (2, 0, 1) -> (0, 0, 2).
    """
    occ = validate_occupation(counts)
    out = []
    for mode, c in enumerate(occ):
        out.extend([mode] * c)
    return tuple(out)


def assignment_to_occupation(modes, num_modes: int) -> tuple:
    """Inverse of :func:`occupation_to_assignment` for a given mode count."""
    occ = [0] * int(num_modes)
    for mode in modes:
        if not 0 <= int(mode) < num_modes:
            raise DomainError(f"mode index {mode} out of range for {num_modes} modes")
        occ[int(mode)] += 1
    return tuple(occ)


def occupation_label(counts) -> str:
    """Dot-joined string form of an occupation vector, e.g. '1.1.1.0'."""
    return ".".join(str(int(c)) for c in counts)


def enumerate_occupations(num_modes: int, num_particles: int):
    """All occupation vectors of ``num_particles`` in ``num_modes`` modes.

    Yields C(m + N - 1, N) vectors in lexicographic order of the occupied
    mode combinations.
    """
    for combo in itertools.combinations_with_replacement(range(num_modes), num_particles):
        yield assignment_to_occupation(combo, num_modes)


def validate_gram(matrix) -> np.ndarray:
    """Check finiteness, Hermiticity, unit diagonal and positive semidefiniteness.

    Returns the matrix as a complex array; raises DomainError on violation.
    """
    s = np.asarray(matrix, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DomainError(f"overlap matrix must be square, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise DomainError("overlap matrix has non-finite entries")
    if float(np.abs(s - s.conj().T).max()) > HERMITICITY_TOL:
        raise DomainError("overlap matrix is not Hermitian")
    if float(np.abs(np.diagonal(s) - 1.0).max()) > UNIT_DIAGONAL_TOL:
        raise DomainError("overlap matrix diagonal must be 1")
    min_eig = float(np.linalg.eigvalsh(s).min())
    if min_eig < -PSD_TOL:
        raise DomainError(f"overlap matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return s


def gram_from_positions(config: SourceConfig) -> np.ndarray:
    """Pairwise overlap matrix for displaced wavepackets.

    S[j, k] = exp(-(x_j - x_k)^2 / (2 l_c^2)) * cos(oscillation * (x_j - x_k)).
    Both factors are positive-semidefinite kernels, so their product is a
    valid Gram matrix for any positions (Schur product theorem); with zero
    oscillation this is the plain Gaussian overlap decay.
    """
    x = np.asarray(config.positions, dtype=float)
    delta = x[:, None] - x[None, :]
    lc = config.coherence_length
    s = np.exp(-(delta ** 2) / (2.0 * lc * lc))
    if config.oscillation:
        s = s * np.cos(config.oscillation * delta)
    return s


def uniform_gram(num_particles: int, overlap: float) -> np.ndarray:
    """Gram matrix with unit diagonal and a constant pairwise overlap.

    Eigenvalues are 1 - overlap (N-1 fold) and 1 + (N-1) * overlap, so the
    matrix is positive semidefinite for overlap in [0, 1]; overlap 0 is the
    fully distinguishable limit, overlap 1 the fully indistinguishable one.
    """
    n = int(num_particles)
    if n < 1:
        raise DomainError("particle count must be >= 1")
    a = float(overlap)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"overlap must lie in [0, 1], got {a}")
    return np.full((n, n), a, dtype=complex) + (1.0 - a) * np.eye(n)
