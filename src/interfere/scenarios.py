"""Preset computations: the canonical interference-transition scenarios.

Covers the single-particle double slit, the two-photon coincidence dip, the
three-particle Fourier-multiport transition for both statistics, and a
single-photon polarization projection scan that is nonmonotonic without any
loss of coherence (contrasted with the monotone mode predictability).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError
from . import engine, linalg
from .model import (
    SourceConfig,
    Statistics,
    enumerate_occupations,
    gram_from_positions,
    occupation_label,
)

FOURIER_MODES = 9
FOURIER_INPUT_MODES = (2, 5, 8)
# Pair-coherence oscillation (units of 1/l_c) used by the fermionic multiport
# scan; models 1D fermionic wavepackets occupying both Fermi points. With the
# plain Gaussian overlap the cyclic input (2, 5, 8) makes every Pauli-allowed
# event probability provably monotone in the delay, so the oscillatory
# coherence is what exposes the nonmonotonic multi-particle transition.
FERMION_SCAN_OSCILLATION = 2.0
PROBABILITY_SLACK = 1e-12


@dataclass(frozen=True)
class TransitionCurve:
    """Sampled probability-versus-parameter series for one or more events.

    ``samples`` holds (parameter value, event label, probability) triples,
    grouped by parameter value in strictly increasing order.
    """

    parameter: str
    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        previous = None
        for value, _, p in self.samples:
            if previous is not None and value < previous:
                raise DomainError("curve parameter values must be grouped in increasing order")
            previous = value
            if not -PROBABILITY_SLACK <= p <= 1.0 + PROBABILITY_SLACK:
                raise DomainError(f"curve probability {p!r} outside [0, 1]")

    def values(self, event: str) -> np.ndarray:
        """Probabilities of one labelled event, in parameter order."""
        return np.array([p for _, label, p in self.samples if label == event])

    def parameter_values(self) -> np.ndarray:
        """Distinct parameter values, in order."""
        seen = []
        for value, _, _ in self.samples:
            if not seen or value != seen[-1]:
                seen.append(value)
        return np.array(seen)

    def event_labels(self) -> list:
        """Distinct event labels, in first-appearance order."""
        seen = []
        for _, label, _ in self.samples:
            if label not in seen:
                seen.append(label)
        return seen


def nonmonotonic_events(curve: TransitionCurve, floor: float = 1e-10) -> list:
    """Labels of events whose curve has an interior local extremum.

    Detection is a sign change of consecutive first differences, ignoring
    differences below ``floor``.
    """
    flagged = []
    for label in curve.event_labels():
        vals = curve.values(label)
        diffs = np.diff(vals)
        signs = np.sign(np.where(np.abs(diffs) < floor, 0.0, diffs))
        signs = signs[signs != 0]
        if len(signs) > 1 and bool(np.any(signs[:-1] * signs[1:] < 0)):
            flagged.append(label)
    return flagged


def double_slit(phase: float, coherence: float) -> float:
    """Single-particle two-path detection probability.

    Two unit-weight paths with relative phase ``phase`` and mutual coherence
    ``coherence``: P = (1 + coherence * cos(phase)) / 2. Coherence 1 adds
    amplitudes, coherence 0 adds probabilities.
    """
    a = float(coherence)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"coherence must lie in [0, 1], got {a}")
    return 0.5 * (1.0 + a * math.cos(float(phase)))


def hom_scan(coherence_length: float, displacements) -> TransitionCurve:
    """Two-particle coincidence dip behind a balanced beamsplitter.

    Bosons enter modes 0 and 1 with relative displacement x; the coincidence
    probability follows (1 - exp(-x^2 / l_c^2)) / 2, vanishing at zero delay
    and approaching the distinguishable value 1/2.
    """
    xs = [float(x) for x in displacements]
    grams = [gram_from_positions(SourceConfig((0.0, x), coherence_length)) for x in xs]
    table = engine.probability_table(linalg.beamsplitter(0.5), (0, 1), [(1, 1)], grams, Statistics.BOSON)
    label = occupation_label((1, 1))
    return TransitionCurve("displacement", [(x, label, p) for x, (p,) in zip(xs, table.tolist())])


def _fourier_scan(displacements, events, statistics, coherence_length, oscillation):
    if events is None:
        events = [occ for occ in enumerate_occupations(FOURIER_MODES, 3) if max(occ) == 1]
    xs = [float(x) for x in displacements]
    grams = [
        gram_from_positions(SourceConfig((0.0, x, 2.0 * x), coherence_length, oscillation))
        for x in xs
    ]
    u = linalg.fourier_unitary(FOURIER_MODES)
    table = engine.probability_table(u, FOURIER_INPUT_MODES, events, grams, statistics)
    labels = [occupation_label(occ) for occ in events]
    samples = [(x, label, p) for x, ps in zip(xs, table.tolist()) for label, p in zip(labels, ps)]
    return TransitionCurve("displacement", samples)


def fermion_fourier_scan(
    displacements,
    events=None,
    coherence_length: float = 1.0,
    oscillation: float | None = None,
) -> TransitionCurve:
    """Three fermions on the 9-mode Fourier multiport versus mutual delay.

    Fermions enter modes 2, 5 and 8 (0-based) at positions (0, x, 2x). The
    default pair coherence oscillates at FERMION_SCAN_OSCILLATION / l_c under
    the Gaussian envelope; pass ``oscillation=0`` for the plain Gaussian
    overlap. ``events`` defaults to all 84 singly occupied outputs.
    """
    if oscillation is None:
        oscillation = FERMION_SCAN_OSCILLATION / float(coherence_length)
    return _fourier_scan(displacements, events, Statistics.FERMION, coherence_length, oscillation)


def boson_fourier_scan(
    displacements,
    events=None,
    coherence_length: float = 1.0,
    oscillation: float = 0.0,
) -> TransitionCurve:
    """Bosonic counterpart of :func:`fermion_fourier_scan`.

    Defaults to the plain Gaussian pair overlap, under which transitions to
    fully bunched outputs are monotone while generic outputs need not be.
    """
    return _fourier_scan(displacements, events, Statistics.BOSON, coherence_length, oscillation)


class ProjectionResult(NamedTuple):
    probability: float
    purity: float


def bjork_projection(gamma: float) -> ProjectionResult:
    """Projection probability of a rotated single-photon polarization state.

    The state cos(pi/4 + gamma/2)|1,0> + sin(pi/4 + gamma/2)|0,1> is projected
    onto cos(pi/8)|1,0> - sin(pi/8)|0,1>, giving cos^2(3 pi/8 + gamma/2):
    nonmonotonic on [0, pi/2] although the state stays pure throughout. The
    reported purity is Tr(rho^2) of the normalized rank-one projector, which
    reduces to exactly 1 for every gamma.
    """
    g = float(gamma)
    if not 0.0 <= g <= math.pi / 2:
        raise DomainError(f"rotation angle must lie in [0, pi/2], got {g}")
    state = np.array([math.cos(math.pi / 4 + g / 2), math.sin(math.pi / 4 + g / 2)])
    analyzer = np.array([math.cos(math.pi / 8), -math.sin(math.pi / 8)])
    probability = float(np.dot(analyzer, state) ** 2)
    return ProjectionResult(probability, 1.0)


def bjork_predictability(gamma: float) -> float:
    """Mode-population bias |P_first - P_second| of the rotated state.

    Equals |sin(gamma)|: monotone increasing on [0, pi/2] even though the
    projection probability is not. Knowing better where the particle sits is
    not the same as losing the ability to interfere.
    """
    g = float(gamma)
    if not 0.0 <= g <= math.pi / 2:
        raise DomainError(f"rotation angle must lie in [0, pi/2], got {g}")
    c = math.cos(math.pi / 4 + g / 2)
    s = math.sin(math.pi / 4 + g / 2)
    return abs(c * c - s * s)


def bjork_scan(gammas) -> TransitionCurve:
    """Projection probability, predictability and purity over a gamma grid."""
    samples = []
    for g in gammas:
        g = float(g)
        result = bjork_projection(g)
        samples.append((g, "projection", result.probability))
        samples.append((g, "predictability", bjork_predictability(g)))
        samples.append((g, "purity", result.purity))
    return TransitionCurve("rotation", samples)


def double_slit_scan(phases, coherence: float) -> TransitionCurve:
    """Detection probability over a relative-phase grid at fixed coherence."""
    samples = [(float(phi), "detector", double_slit(phi, coherence)) for phi in phases]
    return TransitionCurve("phase", samples)
