#!/usr/bin/env python3
"""Three particles on a 9-mode Fourier multiport, quantum to classical.

Three particles enter modes 3, 6 and 9 (1-based) of the multiport on which
every single-particle transition probability is 1/9, with mutual delays
(0, x, 2x). Far in the distinguishable regime every event probability is
pure combinatorics: 6/729 for three distinct output modes, 3/729 when two
particles share a mode, 1/729 for all three together.

Approaching x = 0:
  * fermions: every multiply occupied output dies (Pauli), and with the
    oscillatory pair coherence of Fermi-surface wavepackets the allowed
    events evolve NONmonotonically;
  * bosons: bunched outputs are steadily enhanced (single-path events are
    monotone by construction) while generic outputs may wander.
"""

import numpy as np

from interfere import (
    boson_fourier_scan,
    fermion_fourier_scan,
    nonmonotonic_events,
    occupation_label,
)

grid = np.linspace(0.0, 5.0, 201)

print("== fermions ==")
fermion_curve = fermion_fourier_scan(grid)
flagged = nonmonotonic_events(fermion_curve)
print(f"nonmonotonic Pauli-allowed events: {len(flagged)} of {len(fermion_curve.events)}")

example = flagged[0]
values = fermion_curve.values(example)
diffs = np.diff(values)
signs = np.sign(np.where(np.abs(diffs) < 1e-10, 0.0, diffs))
nonzero = np.flatnonzero(signs)
turn = next(
    int(nonzero[i + 1])
    for i in range(len(nonzero) - 1)
    if signs[nonzero[i]] * signs[nonzero[i + 1]] < 0
)
print(f"example event {example}:")
print(f"  P(x=0)      = {values[0]:.6f}   (fully indistinguishable)")
print(f"  P(x={grid[turn]:.2f})   = {values[turn]:.6f}   (interior turning point)")
print(f"  P(x=5 l_c)  = {values[-1]:.6f}   (classical 6/729 = {6 / 729:.6f})")

print("\n== bosons, plain Gaussian coherence ==")
bunched = (0, 0, 3, 0, 0, 0, 0, 0, 0)
generic = (1, 1, 1, 0, 0, 0, 0, 0, 0)
boson_curve = boson_fourier_scan(grid, events=[bunched, generic])
for occ in (bunched, generic):
    vals = boson_curve.values(occupation_label(occ))
    trend = "monotone" if (np.all(np.diff(vals) <= 1e-12) or np.all(np.diff(vals) >= -1e-12)) else "nonmonotonic"
    print(f"event {occupation_label(occ)}: P(0)={vals[0]:.6f} P(5)={vals[-1]:.6f}  [{trend}]")

flagged_bosons = nonmonotonic_events(boson_fourier_scan(grid))
print(f"nonmonotonic singly occupied boson events: {len(flagged_bosons)} of 84")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(7, 4))
    for label in flagged[:3]:
        plt.plot(grid, fermion_curve.values(label), label=label)
    plt.axhline(6 / 729, color="gray", ls=":", label="6/729")
    plt.xlabel("x / l_c")
    plt.ylabel("event probability")
    plt.legend(fontsize=8)
    plt.tight_layout()
    plt.savefig("fermion_fourier_transition.png", dpi=120)
    print("\nwrote fermion_fourier_transition.png")
except ImportError:
    pass
