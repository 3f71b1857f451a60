#!/usr/bin/env python3
"""Decomposing a transition by the number of particles that interfere.

Under a uniform pairwise overlap alpha the probability of any N-particle
event is an exact polynomial sum_d alpha^d C_d over interference orders
d in {0, 2, .., N}. Two particles only ever produce C_0 and C_2, so their
transition is monotone and equivalent to a straight blend between the
classical and quantum values. With three particles the intermediate order
C_2 coexists with C_3, the polynomial can turn around inside (0, 1), and no
straight blend reproduces it. At every sampled alpha the polynomial equals the
engine's probability at the uniform overlap matrix. One call gives the orders
of many outputs, one column each, so the last line counts the three-boson
outputs whose transition turns around.
"""

import numpy as np

from interfere import (
    Statistics,
    beamsplitter,
    enumerate_occupations,
    event_probability,
    fourier_unitary,
    interference_orders,
    naive_interpolation,
    transition_polynomial,
    uniform_gram,
)

bs = beamsplitter(0.5)
print("two bosons, balanced beamsplitter, outputs (1, 1) and (2, 0):")
orders = interference_orders(bs, (0, 1), [(1, 1), (2, 0)], Statistics.BOSON)
for d, row in enumerate(orders):
    print(f"  C_{d} = {row[0]:+.6f}  {row[1]:+.6f}")
print("  -> P(alpha) = 1/2 - alpha^2/2 and 1/4 + alpha^2/4, both monotone")

f9 = fourier_unitary(9)
outputs = [occ for occ in enumerate_occupations(9, 3) if max(occ) == 1]
orders = interference_orders(f9, (2, 5, 8), outputs, Statistics.FERMION)  # one column per output
event = (1, 1, 0, 1, 0, 0, 0, 0, 0)
print(f"\nthree fermions, Fourier multiport, output {event}:")
result = orders[:, outputs.index(event)]
for d in (0, *range(2, len(result))):
    print(f"  C_{d} = {result[d]:+.6f}")

alphas = np.linspace(0.0, 1.0, 11)
p_c = result[0]
p_q = max(0.0, min(1.0, result.sum()))
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

# three bosons, every output in one call: count the P(alpha) that turn around
outputs = list(enumerate_occupations(9, 3))
orders = interference_orders(f9, (2, 5, 8), outputs, Statistics.BOSON)
steps = np.diff([transition_polynomial(orders, a) for a in np.linspace(0.0, 1.0, 201)], axis=0)
signs = np.sign(np.where(np.abs(steps) < 1e-12, 0.0, steps))
turning = sum(bool(np.any(s[s != 0][:-1] * s[s != 0][1:] < 0)) for s in signs.T)
print(f"three bosons: {turning} of the {len(outputs)} outputs turn around inside (0, 1)")
