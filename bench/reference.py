"""Independent references for checking interfere's outputs.

Nothing here imports interfere. The permanents are a naive sum over
permutations and a vectorized Glynn formula; the determinant is numpy's. The
partially distinguishable probability uses the per-relative-permutation
permanent form of the path sum (Shchesnovich, PRA 91, 013844, 2015):

    P = sum_tau eps(tau) prod_j S[j, tau(j)] perm(conj(M) * M[tau, :])
        / (prod_j s_j! * N_in),

where M is the N x N scattering submatrix and N_in, the squared norm of the
input state, is the same sum restricted to the permutations that leave the
input modes in place (1 for distinct input modes). The engine sums over
pairs of paths instead and shares no code with this module.
"""

import itertools
import math

import numpy as np

NAIVE_MAX = 6
EVENT_CHUNK = 64


def haar_unitary(num_modes, rng):
    """Haar-random unitary: QR of a complex Gaussian with phases fixed by R."""
    z = rng.standard_normal((num_modes, num_modes)) + 1j * rng.standard_normal((num_modes, num_modes))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def fourier_unitary(num_modes):
    j = np.arange(num_modes)
    return np.exp(2j * np.pi * np.outer(j, j) / num_modes) / np.sqrt(num_modes)


def occupations(num_modes, num_particles):
    """Every occupation of num_particles in num_modes, as count tuples."""
    for combo in itertools.combinations_with_replacement(range(num_modes), num_particles):
        yield tuple(combo.count(mode) for mode in range(num_modes))


def assignment(occupation):
    """Occupied output modes, one per particle, ascending."""
    return [mode for mode, count in enumerate(occupation) for _ in range(count)]


def output_multiplicity(occupation):
    return math.prod(math.factorial(c) for c in occupation)


def submatrix(unitary, input_modes, occupation):
    return np.asarray(unitary)[np.ix_(list(input_modes), assignment(occupation))]


def permutations(n):
    """All permutations of range(n) as an (n!, n) array, with their signs."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    inversions = np.zeros(len(perms), dtype=np.intp)
    for a, b in itertools.combinations(range(n), 2):
        inversions += perms[:, a] > perms[:, b]
    return perms, np.where(inversions % 2 == 0, 1.0, -1.0)


def permanent_naive(matrix):
    """Permanent as the sum over all n! permutations, for n <= NAIVE_MAX."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n > NAIVE_MAX:
        raise ValueError(f"naive permanent is meant for n <= {NAIVE_MAX}, got {n}")
    perms, _ = permutations(n)
    return complex(a[np.arange(n), perms].prod(axis=1).sum())


def _glynn_deltas(n):
    """Sign vectors with a fixed first entry +1, shape (2^(n-1), n)."""
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)[None, :]) & 1
    return np.concatenate([np.ones((len(bits), 1)), 1.0 - 2.0 * bits], axis=1)


def permanent_glynn(matrices):
    """Permanents of a stack (..., n, n) by Glynn's formula, vectorized.

    perm(A) = 2^-(n-1) sum_delta (prod_k delta_k) prod_j sum_k delta_k A[k, j].
    """
    a = np.asarray(matrices, dtype=complex)
    n = a.shape[-1]
    deltas = _glynn_deltas(n)
    sums = np.einsum("dk,...kj->...dj", deltas, a)
    return (sums.prod(axis=-1) @ deltas.prod(axis=1)) / 2.0 ** (n - 1)


def permanent(matrix):
    a = np.asarray(matrix, dtype=complex)
    return permanent_naive(a) if a.shape[0] <= NAIVE_MAX else complex(permanent_glynn(a))


def classical_limit(unitary, input_modes, occupation):
    """Fully distinguishable particles: perm(|M|^2) / prod s!."""
    m = submatrix(unitary, input_modes, occupation)
    return permanent(np.abs(m) ** 2).real / output_multiplicity(occupation)


def quantum_limit(unitary, input_modes, occupation, fermion):
    """Fully indistinguishable particles: |det M|^2, or |perm M|^2 / prod s!."""
    m = submatrix(unitary, input_modes, occupation)
    if fermion:
        return abs(np.linalg.det(m)) ** 2
    return abs(permanent(m)) ** 2 / output_multiplicity(occupation)


class EventTerms:
    """perm(conj(M) * M[tau, :]) for every tau and every event of one input.

    Built once per (unitary, input, events) and contracted with any number of
    Gram matrices, so checking a grid costs one term build.
    """

    def __init__(self, unitary, input_modes, occupations, fermion):
        self.input_modes = tuple(input_modes)
        n = len(self.input_modes)
        self.fermion = fermion
        self.perms, self.signs = permutations(n)
        self.multiplicity = np.array([output_multiplicity(o) for o in occupations], dtype=float)
        u = np.asarray(unitary, dtype=complex)
        terms = []
        for start in range(0, len(occupations), EVENT_CHUNK):
            subs = np.stack([submatrix(u, input_modes, o) for o in occupations[start:start + EVENT_CHUNK]])
            products = subs.conj()[:, None, :, :] * subs[:, self.perms, :]
            terms.append(permanent_glynn(products))
        self.terms = np.concatenate(terms, axis=0)  # (events, n!)
        same = np.array(self.input_modes)
        self.stabilizer = np.all(same[self.perms] == same[None, :], axis=1)

    def _weights(self, gram):
        n = len(self.input_modes)
        w = np.asarray(gram, dtype=complex)[np.arange(n)[None, :], self.perms].prod(axis=1)
        return w * self.signs if self.fermion else w

    def probabilities(self, gram):
        """Probability of every event for one Gram matrix, shape (events,)."""
        w = self._weights(gram)
        norm = w[self.stabilizer].sum().real
        return (self.terms @ w).real / (self.multiplicity * norm)


def uniform_gram(n, alpha):
    return np.full((n, n), float(alpha)) + (1.0 - float(alpha)) * np.eye(n)


def positions_gram(positions, coherence_length, oscillation):
    """exp(-D^2 / (2 l_c^2)) cos(k D) for pair separations D."""
    x = np.asarray(positions, dtype=float)
    delta = x[:, None] - x[None, :]
    return np.exp(-delta ** 2 / (2.0 * coherence_length ** 2)) * np.cos(oscillation * delta)


def internal_vectors(gram):
    """Vectors v_j with vdot(v_j, v_k) = S[j, k], from a Cholesky factor of a
    positive definite Gram."""
    s = np.asarray(gram, dtype=complex)
    lower = np.linalg.cholesky(s)
    return [lower[j].conj() for j in range(len(s))]


def linear_free_fit_residual(alphas, values, num_particles):
    """Largest residual of a least-squares fit to C0 + sum_{d=2..N} alpha^d C_d."""
    a = np.asarray(alphas, dtype=float)
    powers = [0] + list(range(2, num_particles + 1))
    design = np.stack([a ** p for p in powers], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    return float(np.abs(design @ coef - values).max())
