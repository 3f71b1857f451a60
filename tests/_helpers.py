"""Shared test utilities: independent reference implementations and random
instance generators. The reference path here deliberately mirrors none of the
library internals: plain nested loops over permutation pairs."""

import itertools
import math

import numpy as np

from interfere.model import Statistics, occupation_to_assignment


def parity(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j = start
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permanent_naive(matrix):
    """Permanent by direct summation over all permutations, O(n! * n)."""
    a = np.asarray(matrix, dtype=complex)
    rows = np.arange(a.shape[0])
    total = 0j
    for perm in itertools.permutations(range(a.shape[0])):
        total += a[rows, perm].prod()
    return complex(total)


def pairwise_terms(unitary, input_modes, output):
    """G(tau) = sum_sigma conj(A_sigma) A_{tau o sigma} for every tau in
    lexicographic order, with A_sigma = prod_k U[r_sigma(k), d_k]: the sum
    over path pairs taken directly, one tau at a time, O((N!)^2 N)."""
    u = np.asarray(unitary, dtype=complex)
    r = np.asarray(input_modes, dtype=np.intp)
    d = np.asarray(occupation_to_assignment(output), dtype=np.intp)
    perms = np.array(list(itertools.permutations(range(len(r)))), dtype=np.intp)
    conj_amps = u[r[perms], d[None, :]].prod(axis=1).conj()
    inner = np.empty(len(perms), dtype=complex)
    for t in range(len(perms)):
        composed = perms[t][perms]
        inner[t] = conj_amps @ u[r[composed], d[None, :]].prod(axis=1)
    return inner


def brute_force_probability(unitary, input_modes, output, gram, statistics):
    """Literal double permutation sum, O((N!)^2 N), complex arithmetic."""
    u = np.asarray(unitary, dtype=complex)
    s = np.asarray(gram, dtype=complex)
    r = tuple(input_modes)
    n = len(r)
    d = occupation_to_assignment(output)
    fermion = statistics is Statistics.FERMION
    total = 0j
    for sigma in itertools.permutations(range(n)):
        eps_sigma = parity(sigma) if fermion else 1
        for rho in itertools.permutations(range(n)):
            eps_rho = parity(rho) if fermion else 1
            term = 1.0 + 0j
            for k in range(n):
                term *= (
                    s[sigma[k], rho[k]]
                    * np.conj(u[r[sigma[k]], d[k]])
                    * u[r[rho[k]], d[k]]
                )
            total += eps_sigma * eps_rho * term
    for c in output:
        total /= math.factorial(int(c))
    return total


def random_vector_gram(n, dim, rng):
    """Gram matrix of n random unit vectors in C^dim: Hermitian, unit
    diagonal, positive semidefinite by construction."""
    vectors = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    return vectors.conj() @ vectors.T


def random_instance(rng, max_modes=6, max_particles=3):
    """Random (unitary, input modes, gram) triple with distinct inputs."""
    from interfere.linalg import random_unitary

    m = int(rng.integers(2, max_modes + 1))
    n = int(rng.integers(1, min(m, max_particles) + 1))
    u = random_unitary(m, int(rng.integers(0, 2**31)))
    inputs = tuple(sorted(int(j) for j in rng.choice(m, size=n, replace=False)))
    gram = random_vector_gram(n, n, rng)
    return u, inputs, gram
