#!/usr/bin/env python3
"""Decomposing a transition by the number of particles that interfere.

Under a uniform pairwise overlap alpha the probability of any N-particle
event is an exact polynomial sum_d alpha^d C_d over interference orders
d in {0, 2, .., N}. Two particles only ever produce C_0 and C_2, so their
transition is monotone and equivalent to a straight blend between the
classical and quantum values. With three particles the intermediate order
C_2 coexists with C_3, the polynomial can turn around inside (0, 1), and no
straight blend reproduces it. At every sampled alpha the polynomial equals the
engine's probability at the uniform overlap matrix.
"""

import numpy as np

from interfere import (
    Statistics,
    beamsplitter,
    event_probability,
    fourier_unitary,
    interference_orders,
    naive_interpolation,
    transition_polynomial,
    uniform_gram,
)

bs = beamsplitter(0.5)
print("two bosons, balanced beamsplitter, coincidence output:")
result = interference_orders(bs, (0, 1), (1, 1), Statistics.BOSON)
print(f"  coefficients: {result.coefficients}")
print("  -> P(alpha) = 1/2 - alpha^2/2, monotone")

f9 = fourier_unitary(9)
event = (1, 1, 0, 1, 0, 0, 0, 0, 0)
print(f"\nthree fermions, Fourier multiport, output {event}:")
result = interference_orders(f9, (2, 5, 8), event, Statistics.FERMION)
for d, c in sorted(result.coefficients.items()):
    print(f"  C_{d} = {c:+.6f}")

alphas = np.linspace(0.0, 1.0, 11)
p_c = result.coefficients[0]
p_q = max(0.0, min(1.0, result.total_check))
deviation = 0.0
print("\n  alpha   exact     straight blend   difference")
for a in alphas:
    exact = transition_polynomial(result, a)
    direct = event_probability(f9, (2, 5, 8), event, uniform_gram(3, a), Statistics.FERMION)
    deviation = max(deviation, abs(exact - direct))
    blend = naive_interpolation(p_c, p_q, a)
    print(f"  {a:5.2f}   {exact:.6f}  {blend:.6f}       {exact - blend:+.6f}")

print(f"\nlargest |polynomial - event_probability| over the {len(alphas)} overlaps: {deviation:.1e}")
assert deviation <= 1e-12, deviation
