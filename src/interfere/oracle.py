"""Brute-force first-quantized simulator.

Builds the explicitly (anti)symmetrized N-particle state as a dense tensor
over mode and internal-state indices, applies the network to each particle's
mode factor, and reads event probabilities off the squared amplitudes. No
permanents, no permutation-pair sums: an independent cross-check for the
production path, practical up to three particles in nine modes. Only the
event check, ``engine._validated_event``, is shared with that path.
"""

import itertools

import numpy as np

from .engine import _validated_event
from .exceptions import DomainError, ResourceError
from .model import Statistics, assignment_to_occupation, validate_gram

MAX_ORACLE_PARTICLES = 3
MAX_ORACLE_MODES = 9
FACTORIZATION_CLIP = 1e-10
RANK_CUTOFF = 1e-14


def internal_vectors_from_gram(gram) -> list:
    """Vectors v_1..v_N with <v_j, v_k> equal to the given overlaps.

    Rank-revealing factorization via the eigendecomposition; eigenvalues in
    [-1e-10, 0) are clipped to zero, components below 1e-14 are dropped.
    """
    s = validate_gram(gram)
    eigvals, eigvecs = np.linalg.eigh(s)
    if float(eigvals.min()) < -FACTORIZATION_CLIP:
        raise DomainError(
            f"overlap matrix not positive semidefinite (min eigenvalue {eigvals.min():.3e})"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    keep = eigvals > RANK_CUTOFF
    factors = np.sqrt(eigvals[keep])[:, None] * eigvecs.conj().T[keep, :]
    return [factors[:, j].copy() for j in range(s.shape[0])]


def _build_state(input_modes, vectors, statistics, num_modes):
    n = len(input_modes)
    dim = len(vectors[0])
    basis = np.eye(num_modes, dtype=complex)
    shape = (num_modes,) * n + (dim,) * n
    psi = np.zeros(shape, dtype=complex)
    for sigma in itertools.permutations(range(n)):
        # the sign of sigma is the determinant of its permutation matrix
        sign = round(np.linalg.det(np.eye(n)[list(sigma)])) if statistics is Statistics.FERMION else 1
        term = np.array(sign, dtype=complex)
        for k in range(n):
            term = np.tensordot(term, basis[input_modes[sigma[k]]], axes=0)
        for k in range(n):
            term = np.tensordot(term, np.asarray(vectors[sigma[k]], dtype=complex), axes=0)
        psi += term
    norm = float(np.sqrt((np.abs(psi) ** 2).sum()))
    if norm <= 1e-12:
        raise DomainError("antisymmetrization annihilated the input state")
    return psi / norm


def _mode_tuple_probabilities(unitary, input_modes, vectors, statistics):
    u, r, _ = _validated_event(unitary, input_modes, [])
    m, n = u.shape[0], len(r)
    if n > MAX_ORACLE_PARTICLES or m > MAX_ORACLE_MODES:
        raise ResourceError(
            f"oracle limited to {MAX_ORACLE_PARTICLES} particles in {MAX_ORACLE_MODES} modes, "
            f"got {n} in {m}"
        )
    if len(vectors) != n:
        raise DomainError(f"need {n} internal vectors, got {len(vectors)}")
    psi = _build_state(r, vectors, statistics, m)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(psi, u, axes=([axis], [0])), -1, axis)
    return (np.abs(psi) ** 2).reshape((m,) * n + (-1,)).sum(axis=-1), m, n


def first_quantized_distribution(unitary, input_modes, vectors, statistics: Statistics) -> dict:
    """Probability of every output occupation, keyed by occupation tuple."""
    probs, m, n = _mode_tuple_probabilities(unitary, input_modes, vectors, statistics)
    dist = {}
    for tup in itertools.product(range(m), repeat=n):
        occ = assignment_to_occupation(tup, m)
        dist[occ] = dist.get(occ, 0.0) + float(probs[tup])
    return dist


def first_quantized_probability(unitary, input_modes, vectors, output, statistics: Statistics) -> float:
    """Probability of one output occupation from the (anti)symmetrized state.

    The output is checked before the state is built.
    """
    _, _, (occ,) = _validated_event(unitary, input_modes, [output])
    return first_quantized_distribution(unitary, input_modes, vectors, statistics)[occ]
