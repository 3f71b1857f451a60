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
from .model import Statistics, is_fermion, validate_gram

MAX_ORACLE_PARTICLES = 3
MAX_ORACLE_MODES = 9
RANK_CUTOFF = 1e-14


def internal_vectors_from_gram(gram) -> list:
    """Vectors v_1..v_N with <v_j, v_k> equal to the given overlaps.

    Rank-revealing factorization via the eigendecomposition; eigenvalues in
    [-PSD_TOL, 0), which ``validate_gram`` lets through, are clipped to zero,
    components below 1e-14 are dropped.
    """
    s = validate_gram(gram)
    eigvals, eigvecs = np.linalg.eigh(s)
    eigvals = np.clip(eigvals, 0.0, None)
    keep = eigvals > RANK_CUTOFF
    factors = np.sqrt(eigvals[keep])[:, None] * eigvecs.conj().T[keep, :]
    return [factors[:, j].copy() for j in range(s.shape[0])]


def _build_state(input_modes, vectors, fermion, num_modes):
    n = len(input_modes)
    dim = len(vectors[0])
    basis = np.eye(num_modes, dtype=complex)
    shape = (num_modes,) * n + (dim,) * n
    psi = np.zeros(shape, dtype=complex)
    for sigma in itertools.permutations(range(n)):
        # the sign of sigma is the determinant of its permutation matrix
        sign = round(np.linalg.det(np.eye(n)[list(sigma)])) if fermion else 1
        term = np.array(sign, dtype=complex)
        for k in range(n):
            term = np.tensordot(term, basis[input_modes[sigma[k]]], axes=0)
        for k in range(n):
            term = np.tensordot(term, vectors[sigma[k]], axes=0)
        psi += term
    norm = float(np.sqrt((np.abs(psi) ** 2).sum()))
    if norm <= 1e-12:
        raise DomainError("antisymmetrization annihilated the input state")
    return psi / norm


def first_quantized_distribution(unitary, input_modes, vectors, statistics: Statistics) -> dict:
    """Probability of every output occupation, keyed by occupation tuple in
    order of first appearance, each a sum over mode tuples in product order."""
    u, r, _ = _validated_event(unitary, input_modes, [])
    fermion = is_fermion(statistics)
    m, n = u.shape[0], len(r)
    if n > MAX_ORACLE_PARTICLES or m > MAX_ORACLE_MODES:
        raise ResourceError(
            f"oracle limited to {MAX_ORACLE_PARTICLES} particles in {MAX_ORACLE_MODES} modes, "
            f"got {n} in {m}"
        )
    try:  # None converts to NaN, a string or a ragged vector raises
        arrays = [np.asarray(v, dtype=complex) for v in vectors]
        finite = all(np.isfinite(a).all() for a in arrays)
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise DomainError(f"internal vectors: expected finite numbers, got {vectors!r}")
    shapes = sorted({a.shape for a in arrays})
    if len(arrays) != n or len(shapes) != 1 or len(shapes[0]) != 1 or shapes[0][0] < 1:
        raise DomainError(f"need {n} 1-D internal vectors of one common length >= 1, got shapes {shapes}")
    psi = _build_state(r, arrays, fermion, m)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(psi, u, axes=([axis], [0])), -1, axis)
    probs = (np.abs(psi) ** 2).reshape((m,) * n + (-1,)).sum(axis=-1)
    counts = (np.indices((m,) * n).reshape(n, -1)[:, :, None] == np.arange(m)).sum(axis=0)
    codes = counts @ -((n + 1) ** np.arange(m - 1, -1, -1))  # falls as the occupation rises
    _, first, index = np.unique(codes, return_index=True, return_inverse=True)
    sums = np.bincount(index, probs.ravel(), len(first))
    return dict(zip(map(tuple, counts[first].tolist()), sums.tolist()))
