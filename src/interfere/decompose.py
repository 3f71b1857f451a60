"""Interference-order decomposition of transition probabilities.

Under a uniform pairwise overlap alpha, every pair of many-particle paths
contributes one factor alpha per particle moved by the pair's relative
permutation. Grouping terms by that count d turns the event probability into
an exact polynomial

    P(alpha) = sum_d alpha^d C_d,      d in {0} union {2..N},

whose d = 0 coefficient is the classical (fully distinguishable) probability
and whose value at alpha = 1 is the quantum (fully indistinguishable) one.
No permutation moves exactly one point, so there is no linear term. The
decomposition shows why a straight-line blend of the classical and quantum
values cannot describe three or more interfering particles. The overlaps
I + w (J - I) weight each pair by w^d as well, so one path sum of the engine
over K outputs at the N+1 roots of unity w, one ``model._uniform_grams``
stack, gives P(w) of each output (N_in = 1 for distinct input modes), and one
inverse DFT of those columns gives C_0..C_N of each, reported as 0 within
(N + 1) 2^N eps max_w |P(w)| of its own output, the rounding of its N + 1
values. Which expansion takes the path sum is decided by the engine's one
rule, ``engine._path_sum_totals``, for K outputs and N + 1 matrices.
"""

import numpy as np

from .exceptions import ConsistencyError, DomainError
from .engine import IMAG_TOL, _as_probability, _path_sum_totals, _validated_event
from .model import Statistics, _uniform_grams, as_reals, is_fermion


def interference_orders(unitary, input_modes, outputs, statistics: Statistics) -> np.ndarray:
    """Decompose event probabilities by the number of interfering particles,
    as a real (N + 1, len(outputs)) array: row d holds C_d of each output.

    C_d sums the pairs of many-particle paths whose relative permutation moves
    d particles, evaluated at the roots of unity (module docstring); row 1 is
    0 by structure. Row 0 is the classical probability, the column sum the
    quantum one. Repeated input modes raise DomainError: the norm of the input
    state then depends on alpha, so P(alpha) is not a polynomial.
    """
    u, r, outputs = _validated_event(unitary, input_modes, outputs)
    if len(set(r)) < len(r):
        raise DomainError(f"interference orders need distinct input modes, got {r}")
    n, k = len(r), np.arange(len(r) + 1)
    roots = np.exp(2j * np.pi * k / (n + 1))
    totals = _path_sum_totals(u, r, outputs, _uniform_grams(n, roots), is_fermion(statistics))  # not a Gram: unchecked
    inverse_dft = roots[np.outer(k, k) % (n + 1)].conj() / (n + 1)
    values = inverse_dft @ totals
    linear = k[:, None] == 1  # C_1 is zero by structure
    residues = np.abs(np.where(linear, values, values.imag)).max(axis=1, initial=0.0)
    if (residues > IMAG_TOL).any():
        d = int(np.argmax(residues > IMAG_TOL))
        raise ConsistencyError(f"order-{d} coefficient has residue {residues[d]:.3e} beyond {IMAG_TOL}")
    orders = np.where(linear, 0.0, values.real)
    orders[np.abs(orders) <= (n + 1) * 2 ** n * np.finfo(float).eps * np.abs(totals).max(axis=0)] = 0  # rounding floor
    return orders


def transition_polynomial(orders, alpha: float):
    """Evaluate sum_d alpha^d C_d for a uniform pairwise overlap alpha, of one
    column of ``interference_orders`` (a float) or of all of them (an array)."""
    (a,) = as_reals((alpha,), "overlap", 0.0, 1.0)
    value = sum(c * a ** d for d, c in enumerate(np.asarray(orders, dtype=float)))
    return _as_probability(value, "transition polynomial")


def naive_interpolation(p_classical: float, p_quantum: float, alpha: float) -> float:
    """Straight-line blend (1 - alpha) * P_classical + alpha * P_quantum.

    Monotonic in alpha by construction. Adequate for one or two particles
    only; for N >= 3 it misses the intermediate interference orders.
    """
    pc, pq, a = as_reals((p_classical, p_quantum, alpha), "classical and quantum probability and alpha", 0.0, 1.0)
    return (1.0 - a) * pc + a * pq
