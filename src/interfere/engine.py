"""Many-particle transition probabilities with partial distinguishability.

The probability of detecting the output occupation s from input modes
r = (r_1..r_N) through an m-mode network U, for particles with internal-state
overlaps S, is the doubly permuted path sum

    P = (1 / prod_j s_j!) * sum_{sigma, rho in S_N} eps(sigma) eps(rho)
        * prod_k S[sigma(k), rho(k)] * conj(U[r_sigma(k), d_k]) * U[r_rho(k), d_k]

where d is the expansion of s into one output mode per particle and eps is 1
for bosons and the permutation sign for fermions. With M[j, k] = U[r_j, d_k]
and the +-1 stack H_eps = conj(M) diag(eps) M^T, eps in {+-1}^N with eps_1 = 1,
P prod_j s_j! = 2^(1-N) sum_eps (prod eps) perm|det(S * H_eps) for any complex
S (Tichy, PRA 91, 022316, 2015; Bapat, Linear Algebra Appl. 126, 107, 1989).
The two path sums contract H in two orders: the sign sum per Gram and eps,
the per-tau build over eps first, to G(tau) = 2^(1-N) sum_eps (prod eps)
prod_j H_eps[j, tau(j)] = perm(conj(M) * M[tau, :]) for the path pairs of
relative permutation tau (Shchesnovich, PRA 91, 013844, 2015), weighted by
eps(tau) prod_j S[j, tau(j)] for any number of Grams. Repeated input modes
divide P by the input state's squared norm N_in, prod_g perm|det(S[g, g])
over the groups g of equal modes. The tensor expansion gives every P(s) N_in
at once as the sum of T over the m^N mode tuples of occupation s, T the
tensor perm|det sum_tau eps(tau) (x)_j F[j, tau(j)] of the m-vectors
F[j, i] = S[i, j] conj(U[r_i, :]) U[r_j, :]. Column k adds sign D_k(R) (x)
F[k, i] to D_{k+1}(R + {i}) over the sets R of partner rows used, sign =
(-1)^#{i' in R : i' > i} for fermions: N 2^(N-1) outer products, the last
m^N long. Every table (``decompose``'s orders too) takes the expansion of
least estimated time, which maps the checked (G, N, N) Gram array to P N_in,
(G, outputs); the table divides by N_in once.

Fully indistinguishable and fully distinguishable particles admit closed
forms (perm|det of the scattering submatrix, perm of its squared moduli), as
fast paths that share the scattering stack and, at S = J, the input norm
with the path sum, up to N = linalg.MAX_PERMANENT_DIM, the permanent's own limit.
"""

import contextlib
import functools
import itertools
import math

import numpy as np

from .exceptions import ConsistencyError, DomainError, ResourceError
from . import linalg
from .model import (
    Statistics,
    _checked_grams,
    _occupation_labels,
    as_integers,
    as_square,
    enumerate_occupations,
    is_fermion,
    validate_gram,
    validate_occupation,
)

MAX_GENERAL_PARTICLES = 7
MAX_DISTRIBUTION_PARTICLES = 5
MAX_DISTRIBUTION_MODES = 12
IMAG_TOL = 1e-10
CLAMP_SLACK = 1e-10
NORM_TOL = 1e-12


def _validated_event(unitary, input_modes, outputs):
    """The one check of an event: U (square, finite, unitary), the input modes
    (integers in range) and each output occupation (non-negative integers, one
    per mode, N in total), as a complex array, a tuple and an (outputs, modes)
    array. Outputs of ints are checked as one array; other forms and failures
    take the per-output check, which names the first bad output."""
    u = as_square(unitary, "unitary")
    if not linalg.is_unitary(u):
        raise DomainError(f"unitary is not finite and unitary within {linalg.UNITARITY_TOL}")
    m = u.shape[0]
    r = as_integers(input_modes, "input modes", 0, m - 1)
    n = len(r)
    if n < 1:
        raise DomainError("at least one particle required")
    outputs = list(outputs)
    with contextlib.suppress(ValueError, OverflowError):  # ragged, or an int beyond the array's range
        if set(map(type, outputs)) <= {tuple, list} and set(map(type, itertools.chain.from_iterable(outputs))) <= {int}:
            occ = np.array(outputs, dtype=np.intp)  # ints only, no bool; each at most N, so row sums cannot wrap
            if occ.shape == (len(outputs), m) and 0 <= occ.min() and occ.max() <= n and (occ.sum(axis=1) == n).all():
                return u, r, occ
    checked = []
    for output in outputs:
        s = validate_occupation(output)
        if len(s) != m:
            raise DomainError(f"output occupation has {len(s)} modes, unitary has {m}")
        if sum(s) != n:
            raise DomainError(f"output occupation holds {sum(s)} particles, input holds {n}")
        checked.append(s)
    return u, r, np.array(checked, dtype=np.intp).reshape(len(checked), m)


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


@functools.lru_cache(maxsize=None)
def _distribution_plan(m: int, n: int):
    """What every tensor expansion of N particles in m modes reuses: the outputs
    of ``enumerate_occupations`` as tuples and as an array, the weights that code
    an occupation (read in base N + 1, mode 0 leading, negated), the outputs'
    codes (ascending), slots 2p and 2p + 1 for the real and imaginary part of
    each m^N mode tuple's (C order) output p, the steps, the Grams per chunk
    (levels within CHUNK_ELEMENTS, or one Gram) and the outputs' labels."""
    outputs = tuple(enumerate_occupations(m, n))
    occupations = np.array(outputs, dtype=np.intp).reshape(len(outputs), m)
    weights = -(n + 1) ** np.arange(m - 1, -1, -1, dtype=np.intp)
    codes = occupations @ weights
    tuple_codes = functools.reduce(lambda c, _: np.add.outer(c, weights).ravel(), range(n - 1), weights)
    steps, subsets = [], [()]
    for k in range(1, n + 1):
        smaller = {R: position for position, R in enumerate(subsets)}
        subsets = list(itertools.combinations(range(n), k))[::-1]  # reverse lexicographic: last R - {R[p]} is row p
        sources = [[smaller[R[:p] + R[p + 1:]] for p in range(k)] for R in subsets]  # R - {R[p]}
        signs = (-1.0) ** np.arange(k - 1, -1, -1)  # (-1)^#{i in R : i > R[p]}, as R ascends
        steps.append((np.newaxis if k == n else np.array(sources), np.array(subsets), signs))  # last: no gather copy
    slots = (2 * np.searchsorted(codes, tuple_codes)[:, None] + [0, 1]).ravel()
    chunk = max(1, linalg.CHUNK_ELEMENTS // max(math.comb(n, k) * m ** k * (n + 1 - k) for k in range(n + 1)))
    return outputs, occupations, weights, codes, slots, steps, chunk, tuple(_occupation_labels(outputs))


def _scattering_stack(u, r, outputs, limit):
    """The (outputs, N, N) stack of M[j, k] = U[r_j, d_k], and prod_j s_j!,
    for N up to the caller's ``limit``."""
    n = len(r)
    if n > limit:
        raise ResourceError(f"this evaluation is limited to {limit} particles, got {n}")
    occ = np.asarray(outputs, dtype=np.intp).reshape(len(outputs), u.shape[0])
    d = np.repeat(np.tile(np.arange(u.shape[0]), len(occ)), occ.ravel()).reshape(len(occ), n)
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    return u[np.asarray(r, dtype=np.intp)[None, :, None], d[:, None, :]], fact[occ].prod(axis=1)


def _signed_row_sums(sub):
    """Each chunk's outputs (a slice) and +-1 stack H as (outputs, eps, a, b), eps_1 = 1 and eps_2..eps_N in
    ``linalg._sign_table`` order; at most CHUNK_ELEMENTS / 8 numbers (or one output) per chunk bound the memory."""
    n = sub.shape[-1]
    signs = np.hstack([np.ones((1 << (n - 1), 1)), linalg._sign_table(n - 1)])
    step = max(1, (linalg.CHUNK_ELEMENTS >> 3) // (len(signs) * n * n))
    for start in range(0, len(sub), step):
        block = sub[start:start + step]
        # the (outputs, a, b, k) outer products @ (k, eps) as one 2-D gemm -> H as (outputs, eps, a, b)
        outer = block.conj()[:, :, None, :] * block[:, None, :, :]
        h = (outer.reshape(-1, n) @ signs.T).reshape(len(block), n, n, -1)
        yield slice(start, start + step), h.transpose(0, 3, 1, 2)


def relative_permutation_terms(unitary, input_modes, outputs):
    """Per-tau inner sums G(tau) = sum_sigma conj(A_sigma) A_{tau o sigma} of the path amplitudes A_sigma =
    prod_k U[r_sigma(k), d_k] of checked outputs, tau in lexicographic order, summed out of the +-1 stack one
    (outputs, N!) product per sign vector. Returns the permutations, their signs, G (outputs, N!) and the output
    multiplicities prod_j s_j!. G depends on neither statistics nor overlaps: Grams contract it once each."""
    sub, multiplicity = _scattering_stack(np.asarray(unitary, complex), input_modes, outputs, MAX_GENERAL_PARTICLES)
    perms, signs = _permutation_table(len(input_modes))
    n = perms.shape[1]
    slots = (np.arange(n) * n + perms).T  # (N, N!): where H[j, tau(j)] lies among the N x N entries
    inner = np.zeros((len(sub), len(perms)), dtype=complex)
    for rows, h in _signed_row_sums(sub):
        for e, sign in enumerate(linalg._sign_products(n - 1)):
            # a product over the outer slot axis multiplies each entry in slot order, whatever the chunk's shape
            inner[rows] += h[:, e].reshape(len(h), n * n).take(slots, axis=1).prod(axis=1, initial=sign)
    return perms, signs, inner / 2.0 ** (n - 1), multiplicity


def _signed_sum_table(u, r, outputs, grams, fermion):
    """P N_in by the module docstring's sign sum as a (grams, outputs) array for a (G, N, N) Gram array."""
    sub, multiplicity = _scattering_stack(u, r, outputs, MAX_GENERAL_PARTICLES)
    sign_products = linalg._sign_products(len(r) - 1)  # eps_1 = 1 leaves each product as it is
    evaluate = np.linalg.det if fermion else linalg.permanents
    table = np.empty((len(grams), len(sub)), dtype=complex)
    for rows, h in _signed_row_sums(sub):
        for row, gram in enumerate(grams):
            table[row, rows] = (evaluate(gram * h) * sign_products).sum(axis=-1)
    return table / 2.0 ** (len(r) - 1) / multiplicity


def _path_sum_totals(u, r, outputs, grams, fermion):
    """P N_in as a (grams, outputs) array for a (G, N, N) Gram array, by the
    expansion of the module docstring with the least estimated time."""
    k, g, n, m = len(outputs), len(grams), len(r), u.shape[0]
    tensor = k > 1 and n <= MAX_DISTRIBUTION_PARTICLES and m <= MAX_DISTRIBUTION_MODES and (
        not fermion or len(set(r)) == n)  # a small fermionic N_in would magnify the tensor's rounding
    costs = {  # in units of about 4.5 ns, fitted to single-thread library timings
        _per_tau_totals: 11000 + k * math.factorial(n) * (2 ** n * n + 28 + g),
        _signed_sum_table: 7000 + g * (1900 + k * 2 ** (n - 1) * ((n ** 3 if fermion else 2 ** n * n) * 3 // 4 + 37)),
        _tensor_totals: 7000 + g * (600 + n * m ** n // 2) if tensor else math.inf,
    }
    return min(costs, key=costs.get)(u, r, outputs, grams, fermion)


def _per_tau_totals(u, r, outputs, grams, fermion):
    """P N_in by the per-tau build, as a (grams, outputs) array for a (G, N, N)
    Gram array, contracted for chunks of Grams of at most CHUNK_ELEMENTS products."""
    perms, signs, inner, multiplicity = relative_permutation_terms(u, r, outputs)
    totals = np.empty((len(grams), len(outputs)), dtype=complex)
    step = max(1, linalg.CHUNK_ELEMENTS // max(1, inner.size))
    for start in range(0, len(grams), step):
        weights = grams[start:start + step][:, np.arange(len(r)), perms].prod(axis=-1)
        totals[start:start + step] = ((weights * signs if fermion else weights)[:, None, :] * inner).sum(axis=-1)
    return totals / multiplicity


def _tensor_totals(u, r, outputs, grams, fermion):
    """P N_in by the tensor expansion, as a (grams, outputs) array for a (G, N, N)
    Gram array: one batched matmul per column for a chunk of Grams, one
    ``bincount`` per Gram, outputs found by code."""
    m, n = u.shape[0], len(r)
    _, occupations, weights, codes, slots, steps, chunk, _ = _distribution_plan(m, n)
    index = slice(None) if outputs is occupations else np.searchsorted(  # the plan's own outputs: no lookup
        codes, np.asarray(outputs, dtype=np.intp).reshape(-1, m) @ weights)
    rows = u[list(r)]
    totals = np.empty((len(grams), len(outputs)), dtype=complex)
    for start in range(0, len(grams), chunk):
        f = grams[start:start + chunk][:, :, :, None] * rows.conj()[:, None, :] * rows[None, :, :]
        # D_k(R) for each k-subset R, flattened, per Gram; D_1({i}) = F[0, i], of sign +1 as R - {i} is empty
        level = f[:, steps[0][1][:, 0], 0]
        for k, (sources, partners, signs) in enumerate(steps[1:], 1):
            factors = f[:, partners, k] * signs[:, None] if fermion else f[:, partners, k]  # f[g, i, j] = F_g[j, i]
            level = (level[:, sources].swapaxes(-1, -2) @ factors).reshape(len(f), len(partners), -1)
        for row, tuples in enumerate(level.view(float).reshape(len(f), -1), start):
            totals[row] = np.bincount(slots, tuples, 2 * len(codes)).view(complex)[index]
    return totals


def _input_norms(r, grams, fermion):
    """The input state's squared norm N_in under each Gram of a (G, N, N) array: prod_g perm|det(S[g, g])
    over the groups g of two or more equal input modes, one stacked call per group, 1 when the modes are
    distinct. DomainError with the first norm that is at most NORM_TOL."""
    evaluate = np.linalg.det if fermion else linalg.permanents
    norms = np.ones(len(grams))
    for g in (np.flatnonzero(np.asarray(r) == mode) for mode in set(r) if r.count(mode) > 1):
        norms = norms * evaluate(grams[:, g[:, None], g]).real
    if (norms <= NORM_TOL).any():
        raise DomainError(f"input state vanishes (squared norm {norms[norms <= NORM_TOL][0]:.3e})")
    return norms


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
    as a (len(grams), len(outputs)) array, by the expansion of least cost. An
    input state of squared norm at most NORM_TOL (e.g. fermions of nearly
    equal internal states in one mode) raises DomainError."""
    event = _validated_event(unitary, input_modes, outputs)
    return _checked_probability_table(*event, grams, statistics)


def _validated_grams(grams, n):
    """The Grams as one complex (G, N, N) array that passes ``validate_gram``'s tests at once ((0, N, N) for
    no Grams). Any other form raises the message of its first Gram to fail a test, else of its first of another size."""
    grams = grams if type(grams) is np.ndarray else list(grams)  # read once: a generator, an np.matrix by its rows
    with contextlib.suppress(TypeError, ValueError, OverflowError, DomainError):  # ragged, not numbers, a failed test
        s = np.asarray(grams, dtype=complex)
        if s.shape[1:] == (n, n) or len(s) == 0:  # a length test: [[]] is one Gram, of shape (0,)
            return _checked_grams(s) if len(s) else s.reshape(0, n, n)
    for gram in [validate_gram(gram) for gram in grams]:
        if gram.shape[0] != n:
            raise DomainError(f"overlap matrix is {gram.shape[0]}x{gram.shape[0]}, need {n}x{n}")


def _checked_probability_table(u, r, outputs, grams, statistics):
    """``probability_table`` of a checked event."""
    grams = _validated_grams(grams, len(r))
    fermion = is_fermion(statistics)
    totals = _path_sum_totals(u, r, outputs, grams, fermion)
    return _as_probability(totals / _input_norms(r, grams, fermion)[:, None], "event probability")


def event_probability(unitary, input_modes, output, gram, statistics: Statistics) -> float:
    """Transition probability of one event under partial distinguishability."""
    return float(probability_table(unitary, input_modes, [output], [gram], statistics)[0, 0])


def quantum_probability(unitary, input_modes, output, statistics: Statistics) -> float:
    """Fast path for fully indistinguishable particles (all-ones overlaps):
    |perm|^2 (bosons) or |det|^2 (fermions) of the scattering submatrix over
    prod_j s_j! and the input norm at S = J (prod_k r_k! for bosons with r_k
    the input occupation; DomainError for fermions sharing an input mode)."""
    u, r, outputs = _validated_event(unitary, input_modes, [output])
    (sub,), (multiplicity,) = _scattering_stack(u, r, outputs, linalg.MAX_PERMANENT_DIM)
    fermion = is_fermion(statistics)
    (norm,) = _input_norms(r, np.ones((1, len(r), len(r))), fermion)
    amplitude = linalg.determinant(sub) if fermion else linalg.permanent(sub)
    return _as_probability(abs(amplitude) ** 2 / multiplicity / norm, "quantum probability")


def classical_probability(unitary, input_modes, output) -> float:
    """Fast path for fully distinguishable particles (identity overlaps).

    Permanent of the elementwise |U|^2 scattering submatrix over the output
    multiplicity; equal to the multinomial count times the single-particle
    probabilities whenever those are constant.
    """
    u, r, outputs = _validated_event(unitary, input_modes, [output])
    (sub,), (multiplicity,) = _scattering_stack(u, r, outputs, linalg.MAX_PERMANENT_DIM)
    return _as_probability(linalg.permanent(np.abs(sub) ** 2) / multiplicity, "classical probability")


def full_distribution(unitary, input_modes, gram, statistics: Statistics) -> dict:
    """Probabilities of every output occupation, keyed by occupation tuple.

    Enumerates all C(m + N - 1, N) outputs in the order of
    ``enumerate_occupations``, by the tensor expansion of the module docstring.
    """
    u, r, _ = _validated_event(unitary, input_modes, [])
    m, n = u.shape[0], len(r)
    if n > MAX_DISTRIBUTION_PARTICLES or m > MAX_DISTRIBUTION_MODES:
        raise ResourceError(
            f"full distribution limited to {MAX_DISTRIBUTION_PARTICLES} particles in "
            f"{MAX_DISTRIBUTION_MODES} modes, got {n} in {m}"
        )
    outputs, occupations, *_ = _distribution_plan(m, n)
    table = _checked_probability_table(u, r, occupations, [gram], statistics)
    return dict(zip(outputs, table[0].tolist()))
