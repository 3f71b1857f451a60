"""Many-particle transition probabilities for partially distinguishable
bosons and fermions in linear mode-mixing networks.

The engine evaluates the doubly permuted path sum weighted by internal-state
overlaps, with permanent/determinant fast paths at the indistinguishable and
distinguishable limits; the decomposition splits any event probability by the
number of particles that interfere; a brute-force first-quantized simulator
serves as an independent cross-check; preset scenarios reproduce the standard
interference transitions.
"""

__version__ = "0.1.0"

from .model import (
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    occupation_label,
    uniform_gram,
    validate_gram,
)
from .engine import (
    classical_probability,
    event_probability,
    full_distribution,
    probability_table,
    quantum_probability,
)
from .decompose import (
    interference_orders,
    naive_interpolation,
    transition_polynomial,
)
from .linalg import (
    beamsplitter,
    determinant,
    fourier_unitary,
    permanent,
    random_unitary,
)
from .oracle import (
    first_quantized_distribution,
    internal_vectors_from_gram,
)
from .scenarios import (
    TransitionCurve,
    bjork_predictability,
    bjork_projection,
    bjork_scan,
    boson_fourier_scan,
    double_slit,
    double_slit_scan,
    fermion_fourier_scan,
    hom_scan,
    nonmonotonic_events,
    position_scan,
)
from .exceptions import ConsistencyError, DomainError, ResourceError

__all__ = [
    "ConsistencyError",
    "DomainError",
    "ResourceError",
    "Statistics",
    "TransitionCurve",
    "beamsplitter",
    "bjork_predictability",
    "bjork_projection",
    "bjork_scan",
    "boson_fourier_scan",
    "classical_probability",
    "determinant",
    "double_slit",
    "double_slit_scan",
    "enumerate_occupations",
    "event_probability",
    "fermion_fourier_scan",
    "first_quantized_distribution",
    "fourier_unitary",
    "full_distribution",
    "gram_from_positions",
    "hom_scan",
    "interference_orders",
    "internal_vectors_from_gram",
    "naive_interpolation",
    "nonmonotonic_events",
    "occupation_label",
    "permanent",
    "position_scan",
    "probability_table",
    "quantum_probability",
    "random_unitary",
    "transition_polynomial",
    "uniform_gram",
    "validate_gram",
]
