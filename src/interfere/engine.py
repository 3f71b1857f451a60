"""Many-particle transition probabilities with partial distinguishability.

The probability of detecting the output occupation s from input modes
r = (r_1..r_N) through an m-mode network U, for particles with internal-state
overlaps S, is the doubly permuted path sum

    P = (1 / prod_j s_j!) * sum_{sigma, rho in S_N} eps(sigma) eps(rho)
        * prod_k S[sigma(k), rho(k)] * conj(U[r_sigma(k), d_k]) * U[r_rho(k), d_k]

where d is the expansion of s into one output mode per particle and eps is 1
for bosons and the permutation sign for fermions. Grouping the pairs by the
relative permutation tau = rho o sigma^{-1} factors the overlap weight out of
the inner sum: the weight of a pair depends only on tau, as
prod_j S[j, tau(j)], and eps(sigma) eps(rho) = eps(tau). For a fixed tau the
inner sum over sigma is a permanent, G(tau) = perm(conj(M) * M[tau, :]) with
M[j, k] = U[r_j, d_k] (Shchesnovich, PRA 91, 013844, 2015), so all N! terms
cost O(N! 2^N N). When input modes repeat, P is further divided by the
squared norm of the input state.

Fully indistinguishable and fully distinguishable particles admit closed
forms (permanent/determinant of the scattering submatrix, and permanent of
its squared moduli), provided as fast paths.
"""

import functools
import itertools
import math

import numpy as np

from .exceptions import ConsistencyError, DomainError, ResourceError
from . import linalg
from .model import (
    Statistics,
    as_integers,
    enumerate_occupations,
    occupation_to_assignment,
    validate_gram,
    validate_occupation,
)

MAX_GENERAL_PARTICLES = 7
MAX_FAST_PATH_PARTICLES = 16
MAX_DISTRIBUTION_PARTICLES = 5
MAX_DISTRIBUTION_MODES = 12
IMAG_TOL = 1e-10
CLAMP_SLACK = 1e-10
NORM_TOL = 1e-12
UNITARITY_TOL = 1e-8  # loose enough for matrices read back from text files


def _validated_event(unitary, input_modes, outputs):
    """The one check of an event: U (square, finite, unitary), the input modes
    (integers in range) and each output occupation (non-negative integers, one
    per mode, N in total). Returns them as a complex array, a tuple and tuples."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"unitary must be square, got shape {u.shape}")
    if not (np.isfinite(u).all() and linalg.is_unitary(u, tol=UNITARITY_TOL)):
        raise DomainError(f"unitary is not finite and unitary within {UNITARITY_TOL}")
    m = u.shape[0]
    r = as_integers(input_modes, "input modes")
    n = len(r)
    if n < 1:
        raise DomainError("at least one particle required")
    if any(not 0 <= j < m for j in r):
        raise DomainError(f"input modes {r} out of range for {m} modes")
    checked = []
    for output in outputs:
        s = validate_occupation(output)
        if len(s) != m:
            raise DomainError(f"output occupation has {len(s)} modes, unitary has {m}")
        if sum(s) != n:
            raise DomainError(f"output occupation holds {sum(s)} particles, input holds {n}")
        checked.append(s)
    return u, r, checked


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int):
    """All permutations of range(n) in lexicographic order, with signs and
    moved-point counts. Arrays are cached read-only."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    inversions = np.zeros(len(perms), dtype=np.intp)
    for a, b in itertools.combinations(range(n), 2):
        inversions += perms[:, a] > perms[:, b]
    signs = 1 - 2 * (inversions % 2)
    moved = (perms != np.arange(n)).sum(axis=1)
    for a in (perms, signs, moved):
        a.setflags(write=False)
    return perms, signs, moved


def relative_permutation_terms(unitary, input_modes, output):
    """Per-tau inner sums of the pairwise path expansion.

    For each relative permutation tau (lexicographic order) returns
    G(tau) = sum_sigma conj(A_sigma) A_{tau o sigma}, where A_sigma is the
    path amplitude prod_k U[r_sigma(k), d_k]: perm(conj(M) * M[tau, :]) with
    M[j, k] = U[r_j, d_k], one batch of permanents. Also returns the permutation
    signs and moved-point counts, and the output multiplicity factor
    prod_j s_j!. G is independent of both the statistics and the overlaps.
    """
    u = np.asarray(unitary, dtype=complex)
    r = np.asarray(input_modes, dtype=np.intp)
    n = len(r)
    if n > MAX_GENERAL_PARTICLES:
        raise ResourceError(
            f"pairwise path sum limited to {MAX_GENERAL_PARTICLES} particles, got {n}"
        )
    d = np.asarray(occupation_to_assignment(output), dtype=np.intp)
    perms, signs, moved = _permutation_table(n)
    sub = u[np.ix_(r, d)]
    inner = linalg.permanents(sub.conj()[None] * sub[perms])
    multiplicity = float(math.prod(math.factorial(int(c)) for c in output))
    return perms, signs, moved, inner, multiplicity


def _as_probability(value, context: str):
    """Discard a bounded imaginary residue and clamp to [0, 1] within slack.

    Takes a scalar or an array; a NaN fails both tests.
    """
    v = np.asarray(value, dtype=complex)
    residue = np.abs(v.imag).max(initial=0.0)
    if not residue <= IMAG_TOL:
        raise ConsistencyError(f"{context}: imaginary residue {residue:.3e} exceeds {IMAG_TOL}")
    p = v.real
    inside = (-CLAMP_SLACK <= p) & (p <= 1.0 + CLAMP_SLACK)
    if not inside.all():
        raise ConsistencyError(f"{context}: value {float(p[~inside][0])!r} outside [0, 1] beyond slack")
    p = np.clip(p, 0.0, 1.0) + 0.0  # normalizes -0.0
    return float(p) if p.ndim == 0 else p


def probability_table(unitary, input_modes, outputs, grams, statistics: Statistics) -> np.ndarray:
    """Transition probabilities of every output under every overlap matrix.

    Returns an array of shape (len(grams), len(outputs)). The per-tau terms
    of each output are built once and contracted with the weights
    eps(tau) * prod_j S[j, tau(j)] of each Gram matrix. When input modes
    repeat, each row is divided by the squared norm of the input state,
    N_in = sum over the tau that keep the input assignment of the same
    weights; a state with N_in <= NORM_TOL (e.g. fermions of nearly equal
    internal states in one mode) raises DomainError.
    """
    u, r, outputs = _validated_event(unitary, input_modes, outputs)
    n = len(r)
    grams = [validate_gram(gram) for gram in grams]
    for gram in grams:
        if gram.shape[0] != n:
            raise DomainError(f"overlap matrix is {gram.shape[0]}x{gram.shape[0]}, need {n}x{n}")
    table = np.empty((len(grams), len(outputs)))
    terms = [relative_permutation_terms(u, r, s) for s in outputs]
    if not terms:
        return table
    perms, signs = terms[0][:2]
    inner = np.array([t[3] for t in terms])  # outputs x n!, contiguous along tau
    multiplicity = np.array([t[4] for t in terms])
    repeated = len(set(r)) < n
    stabilizer = np.all(np.asarray(r)[perms] == r, axis=1)
    for row, gram in enumerate(grams):
        weights = gram[np.arange(n)[None, :], perms].prod(axis=1)
        if statistics is Statistics.FERMION:
            weights = weights * signs
        total = (weights * inner).sum(axis=1) / multiplicity
        if repeated:
            norm = float(weights[stabilizer].sum().real)
            if norm <= NORM_TOL:
                raise DomainError(f"input state vanishes (squared norm {norm:.3e})")
            total = total / norm
        table[row] = _as_probability(total, "event probability")
    return table


def event_probability(unitary, input_modes, output, gram, statistics: Statistics) -> float:
    """Transition probability of one event under partial distinguishability."""
    return float(probability_table(unitary, input_modes, [output], [gram], statistics)[0, 0])


def _fast_path_submatrix(unitary, input_modes, output):
    """The checked event within the fast-path budget, as the N x N scattering
    submatrix M[j, k] = U[r_j, d_k], the input modes and the output."""
    u, r, (s,) = _validated_event(unitary, input_modes, [output])
    if len(r) > MAX_FAST_PATH_PARTICLES:
        raise ResourceError(f"fast path limited to {MAX_FAST_PATH_PARTICLES} particles, got {len(r)}")
    return u[np.ix_(r, occupation_to_assignment(s))], r, s


def quantum_probability(unitary, input_modes, output, statistics: Statistics) -> float:
    """Fast path for fully indistinguishable particles (all-ones overlaps).

    Bosons: |permanent|^2 / (prod_j s_j! prod_k r_k!) of the scattering
    submatrix, with r_k the input occupation; fermions: |determinant|^2, and
    DomainError when two of them share an input mode.
    """
    sub, r, output = _fast_path_submatrix(unitary, input_modes, output)
    if statistics is Statistics.FERMION:
        if len(set(r)) < len(r):
            raise DomainError("identical fermions sharing an input mode: the input state vanishes")
        value = abs(linalg.determinant(sub)) ** 2
    else:
        value = abs(linalg.permanent(sub)) ** 2
        for c in output:
            value /= math.factorial(int(c))
        for c in np.unique(r, return_counts=True)[1]:
            value /= math.factorial(int(c))
    return _as_probability(value, "quantum probability")


def classical_probability(unitary, input_modes, output) -> float:
    """Fast path for fully distinguishable particles (identity overlaps).

    Permanent of the elementwise |U|^2 scattering submatrix over the output
    multiplicity; equal to the multinomial count times the single-particle
    probabilities whenever those are constant.
    """
    sub, _, output = _fast_path_submatrix(unitary, input_modes, output)
    value = linalg.permanent(np.abs(sub) ** 2)
    for c in output:
        value /= math.factorial(int(c))
    return _as_probability(value, "classical probability")


def full_distribution(unitary, input_modes, gram, statistics: Statistics) -> dict:
    """Probabilities of every output occupation, keyed by occupation tuple.

    Enumerates all C(m + N - 1, N) outputs in lexicographic order.
    """
    u, r, _ = _validated_event(unitary, input_modes, [])
    m, n = u.shape[0], len(r)
    if n > MAX_DISTRIBUTION_PARTICLES or m > MAX_DISTRIBUTION_MODES:
        raise ResourceError(
            f"full distribution limited to {MAX_DISTRIBUTION_PARTICLES} particles in "
            f"{MAX_DISTRIBUTION_MODES} modes, got {n} in {m}"
        )
    outputs = list(enumerate_occupations(m, n))
    table = probability_table(u, r, outputs, [gram], statistics)
    return dict(zip(outputs, table[0].tolist()))
