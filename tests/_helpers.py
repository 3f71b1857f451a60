"""Shared test utilities: independent reference implementations and random
instance generators. The reference path here deliberately mirrors none of the
library internals: plain nested loops over permutation pairs."""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from interfere import __version__
from interfere.exceptions import DomainError
from interfere.model import Statistics

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_module(*argv, **kwargs):
    """``python -m interfere *argv`` in a fresh interpreter, with this checkout's
    ``src`` first on PYTHONPATH so that it, not an installed copy, is imported."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "interfere", *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, **kwargs)


def assignment(occupation):
    """The occupied modes of an occupation vector, mode j occupation[j] times, ascending."""
    return tuple(mode for mode, count in enumerate(occupation) for _ in range(count))


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


def permanent_ryser(matrix):
    """Permanent by Ryser's formula, (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} A[i, j]
    over the column subsets S, O(2^n * n^2): every row sum of every subset at
    once as one product with the 0/1 subset table, no Gray-code update. The
    terms cancel heavily, so they are formed and summed in extended precision
    (numpy's longdouble)."""
    a = np.asarray(matrix, dtype=np.clongdouble)
    n = a.shape[0]
    subsets = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.longdouble)
    terms = (a @ subsets.T).prod(axis=0) * (-1) ** (n - subsets.sum(axis=1))
    return complex(terms.sum())


def pairwise_terms(unitary, input_modes, output):
    """G(tau) = sum_sigma conj(A_sigma) A_{tau o sigma} for every tau in
    lexicographic order, with A_sigma = prod_k U[r_sigma(k), d_k]: the sum
    over path pairs taken directly, one tau at a time, O((N!)^2 N)."""
    u = np.asarray(unitary, dtype=complex)
    r = np.asarray(input_modes, dtype=np.intp)
    d = np.asarray(assignment(output), dtype=np.intp)
    perms = np.array(list(itertools.permutations(range(len(r)))), dtype=np.intp)
    conj_amps = u[r[perms], d[None, :]].prod(axis=1).conj()
    inner = np.empty(len(perms), dtype=complex)
    for t in range(len(perms)):
        composed = perms[t][perms]
        inner[t] = conj_amps @ u[r[composed], d[None, :]].prod(axis=1)
    return inner


def emit_rows(rows, meta, fmt):
    """The CLI's CSV or JSON text of (parameter, event, probability) rows,
    rendered one row at a time: each line formatted on its own, the parameter
    again whenever the row's parameter object changes."""
    if fmt == "csv":
        lines, last, left = ["parameter,event,probability"], None, ""
        for parameter, event, probability in rows:
            if parameter is not last:
                last, left = parameter, "" if parameter is None else f"{parameter:.12g}"
            lines.append(f"{left},{event},{probability:.12g}")
        return "\n".join(lines) + "\n"
    payload = {
        "meta": dict(meta, version=__version__),
        "data": [
            {"parameter": parameter, "event": event, "probability": probability}
            for parameter, event, probability in rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def nonmonotonic_labels(curve, floor=1e-10):
    """Labels whose curve has an interior local extremum, one label at a
    time over the curve's (label, probability) rows, grid-major: a sign
    change between consecutive first differences, ignoring differences below
    ``floor``. Labels are listed once, in first-appearance order."""
    samples = [(label, p) for row in curve.table.tolist() for label, p in zip(curve.events, row)]
    flagged = []
    for label in dict.fromkeys(curve.events):
        vals = np.array([p for other, p in samples if other == label])
        diffs = np.diff(vals)
        signs = np.sign(np.where(np.abs(diffs) < floor, 0.0, diffs))
        signs = signs[signs != 0]
        if len(signs) > 1 and bool(np.any(signs[:-1] * signs[1:] < 0)):
            flagged.append(label)
    return flagged


def brute_force_probability(unitary, input_modes, output, gram, statistics):
    """Literal double permutation sum, O((N!)^2 N): each term a product in
    complex arithmetic, the (N!)^2 terms summed by math.fsum with one
    rounding, so terms that cancel leave no summation error."""
    u = np.asarray(unitary, dtype=complex)
    s = np.asarray(gram, dtype=complex)
    r = tuple(input_modes)
    n = len(r)
    d = assignment(output)
    fermion = statistics is Statistics.FERMION
    terms = []
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
            terms.append(eps_sigma * eps_rho * term)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    for c in output:
        total /= math.factorial(int(c))
    return total


def first_quantized_reference(unitary, input_modes, vectors, fermion):
    """The first-quantized distribution by the dense tensor construction: the
    symmetrized input state over (m,)^N mode axes then (d,)^N internal axes,
    2N tensordot calls per permutation, normalized, the network applied along
    each mode axis, and the squared amplitudes summed by occupation over the
    mode tuples in itertools.product order. DomainError for a vanishing state."""
    u = np.asarray(unitary, dtype=complex)
    m, n = u.shape[0], len(input_modes)
    basis = np.eye(m, dtype=complex)
    psi = np.zeros((m,) * n + (len(vectors[0]),) * n, dtype=complex)
    for sigma in itertools.permutations(range(n)):
        term = np.array(parity(sigma) if fermion else 1, dtype=complex)
        for k in range(n):
            term = np.tensordot(term, basis[input_modes[sigma[k]]], axes=0)
        for k in range(n):
            term = np.tensordot(term, vectors[sigma[k]], axes=0)
        psi += term
    norm = float(np.sqrt((np.abs(psi) ** 2).sum()))
    if norm <= 1e-12:
        raise DomainError("antisymmetrization annihilated the input state")
    psi = psi / norm
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(psi, u, axes=([axis], [0])), -1, axis)
    probs = (np.abs(psi) ** 2).reshape((m,) * n + (-1,)).sum(axis=-1)
    distribution = {}
    for modes in itertools.product(range(m), repeat=n):
        occ = tuple(np.bincount(modes, minlength=m).tolist())
        distribution[occ] = distribution.get(occ, 0.0) + float(probs[modes])
    return distribution


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
