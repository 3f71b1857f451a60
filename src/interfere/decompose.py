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
(1 - w) I + w J weight each pair by w^d as well, so the engine's path sum at
the N+1 roots of unity w, one (N + 1, N, N) array, gives P(w) (N_in = 1 for
distinct input modes), and an inverse DFT of it gives C_0..C_N, each reported
as 0 within (N + 1) 2^N eps max_w |P(w)|, the rounding of those N + 1
values. Which expansion takes the path sum is decided by the engine's one
rule, ``engine._path_sum_totals``, for one output and N + 1 matrices.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, DomainError
from .engine import IMAG_TOL, _as_probability, _path_sum_totals, _validated_event
from .model import Statistics, as_reals, is_fermion


@dataclass(frozen=True)
class DecompositionResult:
    """Real coefficients C_d keyed by interference order d.

    ``total_check`` is derived from them: the coefficient sum, i.e. the
    polynomial value at alpha = 1 (the fully indistinguishable probability).
    """

    coefficients: dict

    @property
    def total_check(self) -> float:
        return float(sum(self.coefficients.values()))


def interference_orders(unitary, input_modes, output, statistics: Statistics) -> DecompositionResult:
    """Decompose an event probability by the number of interfering particles.

    C_d sums the pairs of many-particle paths whose relative permutation moves
    d particles, evaluated at the roots of unity (module docstring). C_0 is the
    classical probability, the coefficient sum the quantum one. Repeated input
    modes raise DomainError: the norm of the input state then depends on
    alpha, so P(alpha) is not a polynomial.
    """
    u, r, outputs = _validated_event(unitary, input_modes, [output])
    if len(set(r)) < len(r):
        raise DomainError(f"interference orders need distinct input modes, got {r}")
    n, k = len(r), np.arange(len(r) + 1)
    roots = np.exp(2j * np.pi * k / (n + 1))
    grams = np.eye(n) + roots[:, None, None] * (1 - np.eye(n))  # not Hermitian: no validate_gram
    totals = _path_sum_totals(u, r, outputs, grams, is_fermion(statistics))
    inverse_dft = roots[np.outer(k, k) % (n + 1)].conj() / (n + 1)
    values = inverse_dft @ totals[:, 0]
    for d, value in enumerate(values):
        residue = abs(value) if d == 1 else abs(value.imag)  # C_1 is zero by structure
        if residue > IMAG_TOL:
            raise ConsistencyError(f"order-{d} coefficient has residue {residue:.3e} beyond {IMAG_TOL}")
    values[np.abs(values.real) <= (n + 1) * 2 ** n * np.finfo(float).eps * np.abs(totals).max()] = 0  # rounding floor
    coefficients = {d: float(values[d].real) for d in [0, *range(2, n + 1)]}
    return DecompositionResult(coefficients)


def transition_polynomial(result: DecompositionResult, alpha: float) -> float:
    """Evaluate sum_d alpha^d C_d for a uniform pairwise overlap alpha."""
    (a,) = as_reals((alpha,), "overlap", 0.0, 1.0)
    value = sum(c * a ** d for d, c in result.coefficients.items())
    return _as_probability(value, "transition polynomial")


def naive_interpolation(p_classical: float, p_quantum: float, alpha: float) -> float:
    """Straight-line blend (1 - alpha) * P_classical + alpha * P_quantum.

    Monotonic in alpha by construction. Adequate for one or two particles
    only; for N >= 3 it misses the intermediate interference orders.
    """
    pc, pq, a = as_reals((p_classical, p_quantum, alpha), "classical and quantum probability and alpha", 0.0, 1.0)
    return (1.0 - a) * pc + a * pq
