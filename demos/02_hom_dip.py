#!/usr/bin/env python3
"""The two-particle coincidence dip.

Two photons meet on a balanced beamsplitter. When their wavepackets overlap
perfectly, the two two-particle paths to a coincidence (both transmitted,
both reflected) cancel exactly and the coincidence rate drops to zero. As a
relative displacement x makes them distinguishable, the rate recovers to the
classical value 1/2 following (1 - exp(-x^2/l_c^2))/2.

Fermions do the opposite: at zero delay Pauli exclusion pins the coincidence
probability to one.
"""

import numpy as np

from interfere import (
    Statistics,
    beamsplitter,
    event_probability,
    gram_from_positions,
    hom_scan,
    SourceConfig,
)

lc = 1.0
grid = np.linspace(0.0, 3.0, 61)
curve = hom_scan(lc, grid)
values = curve.values("1.1")
closed_form = (1.0 - np.exp(-(grid**2) / lc**2)) / 2.0

print("x/l_c   coincidence   closed form")
for i in range(0, len(grid), 6):
    print(f"{grid[i]:5.2f}   {values[i]:.9f}   {closed_form[i]:.9f}")
print(f"\nmax |curve - closed form| = {np.abs(values - closed_form).max():.2e}")

bs = beamsplitter(0.5)
for x in (0.0, 1.0, 3.0):
    gram = gram_from_positions(SourceConfig((0.0, x), lc))
    p = event_probability(bs, (0, 1), (1, 1), gram, Statistics.FERMION)
    print(f"fermion coincidence at x={x:3.1f}: {p:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(6, 4))
    plt.plot(grid, values, label="bosons")
    plt.plot(grid, closed_form, "--", label="closed form")
    plt.xlabel("x / l_c")
    plt.ylabel("coincidence probability")
    plt.legend()
    plt.tight_layout()
    plt.savefig("hom_dip.png", dpi=120)
    print("\nwrote hom_dip.png")
except ImportError:
    pass
