"""Brute-force first-quantized simulator.

Builds the explicitly (anti)symmetrized N-particle output state as a dense
tensor over mode and internal-state indices, sum_sigma sign(sigma) (x)_k of
the particle states v_j (x) U[r_j, :] in the order sigma (the network acts on
each particle alone, so it commutes with the symmetrization), and reads event
probabilities off the squared amplitudes. No permanents, no permutation-pair
sums: an independent cross-check for the production path, practical up to
three particles in nine modes. Only ``engine._validated_event`` is shared.
"""

import functools

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


def _symmetrized(factors, fermion):
    """sum_sigma sign(sigma) (x)_k factors[sigma(k)], slot 1 leading: factor j in slot 1
    times the symmetrized rest, with sign (-1)^j for fermions, all j in one matmul."""
    if len(factors) == 1:
        return factors[0]
    rest = np.array([_symmetrized(factors[:j] + factors[j + 1:], fermion) for j in range(len(factors))])
    if fermion:
        rest[1::2] *= -1
    return (np.array(factors).T @ rest).ravel()


def _mode_tuple_probabilities(u, r, vectors, fermion):
    """|psi|^2 over the (m,)^N mode tuples, summed over the internal states and divided by the
    squared norm of the input state, whose particle states v_j (x) e_{r_j} need only its modes. Psi is
    multilinear, so an exact power-of-two scale of each v_j keeps psi and the norm in float range."""
    v, n, m = np.array(vectors), len(r), u.shape[0]
    e = np.frexp(np.maximum(abs(v.real), abs(v.imag)).max(axis=1))[1][:, None]  # ldexp: 2.0 ** -e can overflow
    v = np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)
    slots = np.eye(n)[np.unique(r, return_inverse=True)[1]]
    norm2 = (np.abs(_symmetrized(list((v[:, :, None] * slots[:, None, :]).reshape(n, -1)), fermion)) ** 2).sum()
    if norm2 <= 1e-24 * (np.abs(v) ** 2).sum(axis=1).prod():  # |psi_in|^2 scales as prod_j |v_j|^2
        raise DomainError("antisymmetrization annihilated the input state")
    probs = np.abs(_symmetrized(list((v[:, :, None] * u[list(r)][:, None, :]).reshape(n, -1)), fermion)) ** 2
    for k in range(n):  # slot k + 1's internal axis, leading in its (d, m) block
        probs = probs.reshape(m ** k, v.shape[1], -1).sum(axis=1)
    return probs.reshape((m,) * n) / norm2


def first_quantized_distribution(unitary, input_modes, vectors, statistics: Statistics) -> dict:
    """Probability of every output occupation, keyed by occupation tuple in
    order of first appearance, each a sum over mode tuples in product order."""
    u, r, _ = _validated_event(unitary, input_modes, [])
    fermion = is_fermion(statistics)
    m, n = u.shape[0], len(r)
    if n > MAX_ORACLE_PARTICLES or m > MAX_ORACLE_MODES:
        raise ResourceError(f"oracle limited to {MAX_ORACLE_PARTICLES} particles in {MAX_ORACLE_MODES} modes, "
                            f"got {n} in {m}")
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
    if not all(map(np.any, arrays)):
        raise DomainError(f"internal vectors: a zero vector holds no particle, got {vectors!r}")
    probs = _mode_tuple_probabilities(u, r, arrays, fermion)
    digits = (n + 1) ** np.arange(m - 1, -1, -1)  # the occupation in base N + 1, mode 0 leading
    codes = functools.reduce(lambda c, _: np.add.outer(c, digits).ravel(), range(n - 1), digits)
    _, first, index = np.unique(-codes, return_index=True, return_inverse=True)  # falls as the occupation rises
    sums = np.bincount(index, probs.ravel(), len(first))
    return dict(zip(map(tuple, (codes[first, None] // digits % (n + 1)).tolist()), sums.tolist()))
