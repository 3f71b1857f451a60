"""Preset computations: the canonical interference-transition scenarios.

Covers the single-particle double slit, the two-photon coincidence dip, the
three-particle Fourier-multiport transition for both statistics, and a
single-photon polarization projection scan that is nonmonotonic without any
loss of coherence (contrasted with the monotone mode predictability).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from . import engine, linalg
from .model import (
    Statistics,
    _occupation_labels,
    _position_grams,
    as_reals,
    enumerate_occupations,
    gram_from_positions,
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

    grid: np.ndarray
    events: tuple
    table: np.ndarray

    def __post_init__(self):
        grid = np.array(as_reals(self.grid, "curve parameter values"))
        events = tuple(self.events)
        table = self.table
        if not isinstance(table, np.ndarray) or table.dtype.kind not in "fiu":  # not a number array: entry by entry
            entries = np.array(table, dtype=object)
            table = np.reshape(as_reals(entries.ravel(), "curve probabilities"), entries.shape)
        table = table.astype(float)
        if table.shape != (len(grid), len(events)):
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

    def values(self, event: str) -> np.ndarray:
        """Probabilities of one labelled event, in parameter order; DomainError
        for a label the curve lacks."""
        if event not in self.events:
            raise DomainError(f"curve has no event {event!r}")
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
    (a,) = as_reals((coherence,), "coherence", 0.0, 1.0)
    (phi,) = as_reals((phase,), "phase")
    return 0.5 * (1.0 + a * math.cos(phi))


def position_scan(unitary, input_modes, events, positions, displacements, statistics: Statistics,
                  coherence_length: float = 1.0, oscillation: float = 0.0) -> TransitionCurve:
    """Probabilities of ``events`` (any iterable of output occupations) with
    the sources at x * ``positions`` for each x of ``displacements``: the
    overlaps of ``gram_from_positions``, all x in one probability table. Its
    checks of l_c and the oscillation hold with no displacements too; where
    an x * p or its phase overflows, the first such x raises its message."""
    positions = as_reals(positions, "positions")
    xs = as_reals(displacements, "displacements")
    with np.errstate(over="ignore"):
        sources = np.multiply.outer(xs, positions)
    finite = np.isfinite(sources).all(axis=1)
    first = len(xs) if finite.all() else int(finite.argmin())
    grams = _position_grams(sources[:first], coherence_length, oscillation)
    if first < len(xs):  # the per-x message of the first x whose x * p overflows
        as_reals(sources[first].tolist(), "positions")
    events = list(events)  # listed once: the table and the labels both read it
    table = engine.probability_table(unitary, input_modes, events, grams, statistics)
    return TransitionCurve(xs, tuple(_occupation_labels(events)), table)


def hom_scan(coherence_length: float, displacements) -> TransitionCurve:
    """Two-particle coincidence dip behind a balanced beamsplitter.

    Bosons enter modes 0 and 1 with relative displacement x; the coincidence
    probability follows (1 - exp(-x^2 / l_c^2)) / 2, vanishing at zero delay
    and approaching the distinguishable value 1/2.
    """
    bs = linalg.beamsplitter(0.5)
    return position_scan(bs, (0, 1), [(1, 1)], (0.0, 1.0), displacements, Statistics.BOSON, coherence_length)


@functools.cache
def _fourier_events():
    """The singly occupied outputs of three particles in FOURIER_MODES modes, enumerated once per process."""
    return tuple(occ for occ in enumerate_occupations(FOURIER_MODES, 3) if max(occ) == 1)


def _fourier_scan(displacements, events, statistics, coherence_length, oscillation):
    if events is None:
        events = _fourier_events()
    u = linalg.fourier_unitary(FOURIER_MODES)
    return position_scan(u, FOURIER_INPUT_MODES, events, (0.0, 1.0, 2.0), displacements, statistics,
                         coherence_length, oscillation)


def fermion_scan_oscillation(coherence_length: float) -> float:
    """The default pair-coherence oscillation FERMION_SCAN_OSCILLATION / l_c,
    computed after l_c passes the check of ``gram_from_positions``."""
    gram_from_positions((), coherence_length)
    return FERMION_SCAN_OSCILLATION / float(coherence_length)


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
    (g,) = as_reals((gamma,), "rotation angle", 0.0, math.pi / 2)
    state = np.array([math.cos(math.pi / 4 + g / 2), math.sin(math.pi / 4 + g / 2)])
    analyzer = np.array([math.cos(math.pi / 8), -math.sin(math.pi / 8)])
    return float(np.dot(analyzer, state) ** 2)


def bjork_predictability(gamma: float) -> float:
    """Mode-population bias |P_first - P_second| of the rotated state.

    Equals |sin(gamma)|: monotone increasing on [0, pi/2] even though the
    projection probability is not. Knowing better where the particle sits is
    not the same as losing the ability to interfere.
    """
    (g,) = as_reals((gamma,), "rotation angle", 0.0, math.pi / 2)
    c = math.cos(math.pi / 4 + g / 2)
    s = math.sin(math.pi / 4 + g / 2)
    return abs(c * c - s * s)


def bjork_scan(gammas) -> TransitionCurve:
    """Projection probability, predictability and purity over a gamma grid.

    The purity Tr(rho^2) is 1 at every gamma: the rotated state is pure.
    """
    grid = as_reals(gammas, "rotation angles")
    table = np.column_stack([
        [bjork_projection(g) for g in grid],
        [bjork_predictability(g) for g in grid],
        np.ones(len(grid)),
    ])
    return TransitionCurve(grid, ("projection", "predictability", "purity"), table)


def double_slit_scan(phases, coherence: float) -> TransitionCurve:
    """Detection probability over a relative-phase grid at fixed coherence."""
    grid = as_reals(phases, "phases")
    table = np.array([double_slit(phi, coherence) for phi in grid])[:, None]
    return TransitionCurve(grid, ("detector",), table)
