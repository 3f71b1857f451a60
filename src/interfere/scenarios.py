"""Preset computations: the canonical interference-transition scenarios.

Covers the single-particle double slit, the two-photon coincidence dip, the
three-particle Fourier-multiport transition for both statistics, and a
single-photon polarization projection scan that is nonmonotonic without any
loss of coherence (contrasted with the monotone mode predictability).
"""

import math
from dataclasses import dataclass

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
# first differences below this count as flat when looking for turning points
MONOTONE_FLOOR = 1e-10


@dataclass(frozen=True)
class TransitionCurve:
    """Probability-versus-parameter table for one or more events.

    ``table[i, k]`` is the probability of event ``events[k]`` at parameter
    value ``grid[i]``; the grid is non-decreasing. Both arrays are copied and
    read-only.
    """

    parameter: str
    grid: np.ndarray
    events: tuple
    table: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        events = tuple(self.events)
        table = np.array(self.table, dtype=float)
        if grid.ndim != 1 or table.shape != (len(grid), len(events)):
            raise DomainError(
                f"curve table has shape {table.shape}, need ({len(grid)}, {len(events)})"
            )
        if not np.all(np.diff(grid) >= 0.0):
            raise DomainError("curve parameter values must be non-decreasing")
        bad = ~((table >= -PROBABILITY_SLACK) & (table <= 1.0 + PROBABILITY_SLACK))
        if bad.any():
            raise DomainError(f"curve probability {table[bad][0]!r} outside [0, 1]")
        grid.flags.writeable = False
        table.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "table", table)

    @property
    def samples(self) -> list:
        """(parameter value, event label, probability) rows, grid-major."""
        return [
            (x, label, p)
            for x, row in zip(self.grid.tolist(), self.table.tolist())
            for label, p in zip(self.events, row)
        ]

    def values(self, event: str) -> np.ndarray:
        """Probabilities of one labelled event, in parameter order."""
        return self.table[:, self.events.index(event)]


def nonmonotonic_events(curve: TransitionCurve) -> list:
    """Labels of events whose curve has an interior local extremum.

    An event is flagged when its first differences, ignoring those below
    MONOTONE_FLOOR, both rise and fall. Repeated labels are listed once, in
    first-appearance order.
    """
    diffs = np.diff(curve.table, axis=0)
    turns = (diffs >= MONOTONE_FLOOR).any(axis=0) & (diffs <= -MONOTONE_FLOOR).any(axis=0)
    return list(dict.fromkeys(label for label, turn in zip(curve.events, turns) if turn))


def double_slit(phase: float, coherence: float) -> float:
    """Single-particle two-path detection probability.

    Two unit-weight paths with relative phase ``phase`` and mutual coherence
    ``coherence``: P = (1 + coherence * cos(phase)) / 2. Coherence 1 adds
    amplitudes, coherence 0 adds probabilities.
    """
    a, phi = float(coherence), float(phase)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"coherence must lie in [0, 1], got {a}")
    if not math.isfinite(phi):
        raise DomainError(f"phase must be finite, got {phi}")
    return 0.5 * (1.0 + a * math.cos(phi))


def hom_scan(coherence_length: float, displacements) -> TransitionCurve:
    """Two-particle coincidence dip behind a balanced beamsplitter.

    Bosons enter modes 0 and 1 with relative displacement x; the coincidence
    probability follows (1 - exp(-x^2 / l_c^2)) / 2, vanishing at zero delay
    and approaching the distinguishable value 1/2.
    """
    xs = [float(x) for x in displacements]
    grams = [gram_from_positions(SourceConfig((0.0, x), coherence_length)) for x in xs]
    table = engine.probability_table(linalg.beamsplitter(0.5), (0, 1), [(1, 1)], grams, Statistics.BOSON)
    return TransitionCurve("displacement", xs, (occupation_label((1, 1)),), table)


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
    return TransitionCurve("displacement", xs, tuple(occupation_label(occ) for occ in events), table)


def fermion_scan_oscillation(coherence_length: float) -> float:
    """The default pair-coherence oscillation FERMION_SCAN_OSCILLATION / l_c,
    computed after SourceConfig has checked l_c."""
    return FERMION_SCAN_OSCILLATION / SourceConfig((), coherence_length).coherence_length


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
        oscillation = fermion_scan_oscillation(coherence_length)
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


def bjork_projection(gamma: float) -> float:
    """Projection probability of a rotated single-photon polarization state.

    The state cos(pi/4 + gamma/2)|1,0> + sin(pi/4 + gamma/2)|0,1> is projected
    onto cos(pi/8)|1,0> - sin(pi/8)|0,1>, giving cos^2(3 pi/8 + gamma/2):
    nonmonotonic on [0, pi/2] although the state stays pure throughout.
    """
    g = float(gamma)
    if not 0.0 <= g <= math.pi / 2:
        raise DomainError(f"rotation angle must lie in [0, pi/2], got {g}")
    state = np.array([math.cos(math.pi / 4 + g / 2), math.sin(math.pi / 4 + g / 2)])
    analyzer = np.array([math.cos(math.pi / 8), -math.sin(math.pi / 8)])
    return float(np.dot(analyzer, state) ** 2)


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
    """Projection probability, predictability and purity over a gamma grid.

    The purity Tr(rho^2) is 1 at every gamma: the rotated state is pure.
    """
    grid = [float(g) for g in gammas]
    table = np.column_stack([
        [bjork_projection(g) for g in grid],
        [bjork_predictability(g) for g in grid],
        np.ones(len(grid)),
    ])
    return TransitionCurve("rotation", grid, ("projection", "predictability", "purity"), table)


def double_slit_scan(phases, coherence: float) -> TransitionCurve:
    """Detection probability over a relative-phase grid at fixed coherence."""
    grid = [float(phi) for phi in phases]
    table = np.array([double_slit(phi, coherence) for phi in grid])[:, None]
    return TransitionCurve("phase", grid, ("detector",), table)
