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
values cannot describe three or more interfering particles.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, DomainError, FitError
from .engine import IMAG_TOL, _as_probability, _validated_event, relative_permutation_terms
from .model import Statistics


@dataclass(frozen=True)
class DecompositionResult:
    """Real coefficients C_d keyed by interference order d.

    ``total_check`` is the coefficient sum, i.e. the polynomial value at
    alpha = 1 (the fully indistinguishable probability).
    """

    coefficients: dict
    total_check: float


def interference_orders(unitary, input_modes, output, statistics: Statistics) -> DecompositionResult:
    """Decompose an event probability by the number of interfering particles.

    Groups every pair of many-particle paths by the number of particles d
    moved by the pair's relative permutation and sums each group. The d = 0
    bucket is the classical probability; the bucket sum is the quantum one.
    Repeated input modes raise DomainError: the norm of the input state then
    depends on alpha, so P(alpha) is not a polynomial.
    """
    u, r, (s,) = _validated_event(unitary, input_modes, [output])
    if len(set(r)) < len(r):
        raise DomainError(f"interference orders need distinct input modes, got {r}")
    perms, signs, moved, (inner,), (multiplicity,) = relative_permutation_terms(u, r, [s])
    n = perms.shape[1]
    terms = inner * signs if statistics is Statistics.FERMION else inner
    buckets = np.bincount(moved, terms.real, n + 1) + 1j * np.bincount(moved, terms.imag, n + 1)
    coefficients = {}
    for d in [0, *range(2, n + 1)]:
        value = buckets[d] / multiplicity
        if abs(value.imag) > IMAG_TOL:
            raise ConsistencyError(f"order-{d} coefficient has imaginary residue {value.imag:.3e}")
        coefficients[d] = float(value.real)
    return DecompositionResult(coefficients, float(sum(coefficients.values())))


def transition_polynomial(result: DecompositionResult, alpha: float) -> float:
    """Evaluate sum_d alpha^d C_d for a uniform pairwise overlap alpha."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"overlap must lie in [0, 1], got {a}")
    value = sum(c * a ** d for d, c in result.coefficients.items())
    return _as_probability(value, "transition polynomial")


def naive_interpolation(p_classical: float, p_quantum: float, alpha: float) -> float:
    """Straight-line blend (1 - alpha) * P_classical + alpha * P_quantum.

    Monotonic in alpha by construction. Adequate for one or two particles
    only; for N >= 3 it misses the intermediate interference orders.
    """
    pc, pq, a = float(p_classical), float(p_quantum), float(alpha)
    for name, v in (("classical probability", pc), ("quantum probability", pq), ("alpha", a)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return (1.0 - a) * pc + a * pq


def fit_orders(samples, degree: int | None = None) -> DecompositionResult:
    """Recover interference-order coefficients from sampled probabilities.

    Least-squares fit of (alpha, probability) pairs to a polynomial with the
    linear term constrained to zero. ``degree`` defaults to one less than the
    sample count, so N + 1 samples of an N-particle curve determine it.
    """
    pts = [(float(a), float(p)) for a, p in samples]
    if not pts:
        raise FitError("no samples given")
    for a, _ in pts:
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"sample overlap must lie in [0, 1], got {a}")
    if degree is None:
        degree = len(pts) - 1
    if degree < 0:
        raise FitError("degree must be non-negative")
    powers = [0] + [d for d in range(2, degree + 1)]
    alphas = np.array([a for a, _ in pts])
    values = np.array([p for _, p in pts])
    if not np.isfinite(values).all():
        raise DomainError(f"sample probabilities must be finite, got {values.tolist()}")
    if len(set(alphas.tolist())) < len(powers):
        raise FitError(
            f"{len(powers)} coefficients need at least {len(powers)} distinct overlaps"
        )
    design = np.stack([alphas ** p for p in powers], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < len(powers):
        raise FitError("sample set is rank deficient for the requested degree")
    coefficients = {p: float(c) for p, c in zip(powers, coef)}
    return DecompositionResult(coefficients, float(sum(coefficients.values())))
