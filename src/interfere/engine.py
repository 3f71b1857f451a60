"""Many-particle transition probabilities with partial distinguishability.

The probability of detecting the output occupation s from input modes
r = (r_1..r_N) through an m-mode network U, for particles with internal-state
overlaps S, is the doubly permuted path sum

    P = (1 / prod_j s_j!) * sum_{sigma, rho in S_N} eps(sigma) eps(rho)
        * prod_k S[sigma(k), rho(k)] * conj(U[r_sigma(k), d_k]) * U[r_rho(k), d_k]

where d is the expansion of s into one output mode per particle and eps is 1
for bosons and the permutation sign for fermions. With M[j, k] = U[r_j, d_k],
grouping the pairs by tau = rho o sigma^{-1} factors the weight eps(tau)
prod_j S[j, tau(j)] out of the inner sum G(tau) = perm(conj(M) * M[tau, :])
(Shchesnovich, PRA 91, 013844, 2015), N! permanents per output for all Grams.
Or, as P prod_j s_j! is the coefficient of t_1..t_N in perm (bosons) or det
(fermions) of S * sum_k t_k conj(M[:, k]) M[:, k]^T (Tichy, PRA 91, 022316,
2015; Bapat, Linear Algebra Appl. 126, 107, 1989), the sign sum 2^(1-N) sum_eps
(prod eps) perm|det(S * conj(M) diag(eps) M^T) over eps in {+-1}^N, eps_1 = 1,
gives it, for any complex S (``decompose`` uses non-Hermitian ones). G Grams
take the sign sum when G 4^(N-1) N < N! (2^N N + G), the two operation counts
per output. When input modes repeat, P is further divided by the input
state's squared norm, prod_g perm|det(S[g, g]) over the groups g of equal
input modes.

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
    """All permutations of range(n) in lexicographic order and their signs, cached read-only."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    inversions = np.zeros(len(perms), dtype=np.intp)
    for a, b in itertools.combinations(range(n), 2):
        inversions += perms[:, a] > perms[:, b]
    signs = 1 - 2 * (inversions % 2)
    for a in (perms, signs):
        a.setflags(write=False)
    return perms, signs


def _scattering_stack(u, r, outputs):
    """The (outputs, N, N) stack of M[j, k] = U[r_j, d_k], and prod_j s_j!."""
    n = len(r)
    if n > MAX_GENERAL_PARTICLES:
        raise ResourceError(f"pairwise path sum limited to {MAX_GENERAL_PARTICLES} particles, got {n}")
    occ = np.array(outputs, dtype=np.intp).reshape(len(outputs), u.shape[0])
    d = np.repeat(np.tile(np.arange(u.shape[0]), len(occ)), occ.ravel()).reshape(len(occ), n)
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    return u[np.asarray(r, dtype=np.intp)[None, :, None], d[:, None, :]], fact[occ].prod(axis=1)


def relative_permutation_terms(unitary, input_modes, outputs):
    """Per-tau inner sums of the pairwise path expansion, for checked outputs.

    For each output s and relative permutation tau (lexicographic order)
    returns G(tau) = sum_sigma conj(A_sigma) A_{tau o sigma}, where A_sigma is
    the path amplitude prod_k U[r_sigma(k), d_k]: perm(conj(M) * M[tau, :])
    with M[j, k] = U[r_j, d_k], for all outputs in chunks. Returns the
    permutations, their signs, G as an (outputs, N!) array and the output
    multiplicities prod_j s_j!. G depends on neither statistics nor overlaps,
    so tables over many Grams contract it once per Gram.
    """
    sub, multiplicity = _scattering_stack(np.asarray(unitary, dtype=complex), input_modes, outputs)
    perms, signs = _permutation_table(len(input_modes))
    n = perms.shape[1]
    inner = np.empty((len(sub), len(perms)), dtype=complex)
    # stacks of 2^13 numbers (or one output) keep peak memory at the per-output build's
    step = max(1, (linalg.CHUNK_ELEMENTS >> 3) // (len(perms) * n * n))
    for start in range(0, len(sub), step):
        block = sub[start:start + step]
        inner[start:start + step] = linalg.permanents(block.conj()[:, None] * block[:, perms])
    return perms, signs, inner, multiplicity


def _signed_sum_table(u, r, outputs, grams, fermion):
    """The module docstring's sign sum, P prod_j s_j! N_in, as a (grams,
    outputs) array, in output chunks as large as the per-tau build's."""
    sub, multiplicity = _scattering_stack(u, r, outputs)
    n = len(r)
    signs = np.hstack([np.ones((1 << (n - 1), 1)), linalg._sign_table(n - 1)])
    sign_products = signs.prod(axis=1)
    evaluate = np.linalg.det if fermion else linalg.permanents
    table = np.empty((len(grams), len(sub)), dtype=complex)
    step = max(1, (linalg.CHUNK_ELEMENTS >> 3) // (len(signs) * n * n))
    for start in range(0, len(sub), step):
        block = sub[start:start + step]
        # the (outputs, a, b, k) outer products @ (k, eps) as one 2-D gemm -> H as (outputs, eps, a, b)
        outer = block.conj()[:, :, None, :] * block[:, None, :, :]
        h = (outer.reshape(-1, n) @ signs.T).reshape(len(block), n, n, -1).transpose(0, 3, 1, 2)
        for row, gram in enumerate(grams):
            table[row, start:start + step] = (evaluate(gram * h) * sign_products).sum(axis=-1)
    return table / 2.0 ** (n - 1), multiplicity


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
    """Transition probabilities of every output under every overlap matrix,
    as a (len(grams), len(outputs)) array, by either expansion of the module
    docstring. An input state of squared norm at most NORM_TOL (e.g. fermions
    of nearly equal internal states in one mode) raises DomainError."""
    return _checked_probability_table(*_validated_event(unitary, input_modes, outputs), grams, statistics)


def _checked_probability_table(u, r, outputs, grams, statistics):
    """``probability_table`` of an event that ``_validated_event`` returned."""
    n = len(r)
    grams = [validate_gram(gram) for gram in grams]
    for gram in grams:
        if gram.shape[0] != n:
            raise DomainError(f"overlap matrix is {gram.shape[0]}x{gram.shape[0]}, need {n}x{n}")
    fermion = statistics is Statistics.FERMION
    if len(grams) * 4 ** (n - 1) * n < math.factorial(n) * (2 ** n * n + len(grams)):
        totals, multiplicity = _signed_sum_table(u, r, outputs, grams, fermion)
    else:
        perms, signs, inner, multiplicity = relative_permutation_terms(u, r, outputs)
        totals = np.empty((len(grams), len(outputs)), dtype=complex)
        for row, gram in enumerate(grams):
            weights = gram[np.arange(n)[None, :], perms].prod(axis=1)
            totals[row] = ((weights * signs if fermion else weights) * inner).sum(axis=1)
    table = totals / multiplicity
    if len(set(r)) < n:
        groups = [np.flatnonzero(np.asarray(r) == mode) for mode in set(r)]
        evaluate = np.linalg.det if fermion else linalg.permanents
        for row, gram in enumerate(grams):
            norm = math.prod(float(evaluate(gram[np.ix_(g, g)]).real) for g in groups)
            if norm <= NORM_TOL:
                raise DomainError(f"input state vanishes (squared norm {norm:.3e})")
            table[row] /= norm
    return _as_probability(table, "event probability")


def event_probability(unitary, input_modes, output, gram, statistics: Statistics) -> float:
    """Transition probability of one event under partial distinguishability."""
    return float(probability_table(unitary, input_modes, [output], [gram], statistics)[0, 0])


def _fast_path_submatrix(unitary, input_modes, output):
    """The checked event within the fast-path budget, as the N x N scattering
    submatrix M[j, k] = U[r_j, d_k], the input modes and the output."""
    u, r, (s,) = _validated_event(unitary, input_modes, [output])
    if len(r) > MAX_FAST_PATH_PARTICLES:
        raise ResourceError(f"fast path limited to {MAX_FAST_PATH_PARTICLES} particles, got {len(r)}")
    return u[np.ix_(r, np.repeat(np.arange(len(s)), s))], r, s


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
    table = _checked_probability_table(u, r, outputs, [gram], statistics)
    return dict(zip(outputs, table[0].tolist()))
