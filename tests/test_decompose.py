import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import pairwise_terms, parity, random_instance
from interfere import decompose, engine
from interfere.decompose import (
    interference_orders,
    naive_interpolation,
    transition_polynomial,
)
from interfere.engine import (
    classical_probability,
    probability_table,
    quantum_probability,
)
from interfere.exceptions import ConsistencyError, DomainError
from interfere.linalg import beamsplitter, fourier_unitary, random_unitary
from interfere.model import Statistics, enumerate_occupations, uniform_gram

BS = beamsplitter(0.5)
F9 = fourier_unitary(9)
ALPHAS = np.linspace(0.0, 1.0, 11)


def test_single_particle_has_only_zeroth_order():
    u = random_unitary(4, 12)
    orders = interference_orders(u, (1,), [(0, 0, 1, 0)], Statistics.BOSON)
    assert orders.shape == (2, 1) and orders[1, 0] == 0.0
    assert np.isclose(orders[0, 0], abs(u[1, 2]) ** 2, atol=1e-12)


def test_hom_coincidence_orders():
    orders = interference_orders(BS, (0, 1), [(1, 1)], Statistics.BOSON)
    assert np.allclose(orders[:, 0], [0.5, 0.0, -0.5], atol=1e-12)
    assert abs(orders.sum(axis=0)[0]) <= 1e-12


def test_hom_bunched_orders():
    orders = interference_orders(BS, (0, 1), [(2, 0)], Statistics.BOSON)
    assert np.allclose(orders[:, 0], [0.25, 0.0, 0.25], atol=1e-12)


def test_hom_fermion_orders_flip_sign():
    orders = interference_orders(BS, (0, 1), [(1, 1)], Statistics.FERMION)
    assert np.allclose(orders[:, 0], [0.5, 0.0, +0.5], atol=1e-12)


def test_no_outputs_give_no_columns():
    for n in (1, 3):
        assert interference_orders(F9, tuple(range(n)), [], Statistics.FERMION).shape == (n + 1, 0)


def test_no_first_order_bucket_exists():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u, inputs, _ = random_instance(rng)
        outputs = list(enumerate_occupations(u.shape[0], len(inputs)))
        orders = interference_orders(u, inputs, outputs, Statistics.BOSON)
        assert orders.shape == (len(inputs) + 1, len(outputs))
        assert (orders[1] == 0.0).all()


@pytest.mark.parametrize("n", range(1, 8))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_orders_equal_the_moved_point_buckets(n, seed):
    # The definition: G(tau) of the direct pair sum, signed for fermions,
    # summed over the tau that move d points, over prod_j s_j!. The bound is
    # (N + 1) eps times the absolute sum of those terms: the inverse DFT rounds
    # N + 1 values, none larger than that sum. Seeded draws (300 per N up to 5)
    # reached half of it.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n, n + 3))
    u = random_unitary(m, seed)
    inputs = tuple(sorted(int(j) for j in rng.choice(m, size=n, replace=False)))
    crowded = int(rng.integers(1, m + 1))  # output modes drawn from the first few, so they repeat
    output = tuple(int(c) for c in np.bincount(rng.integers(0, crowded, n), minlength=m))
    terms = pairwise_terms(u, inputs, output)
    moved = [sum(j != t for j, t in enumerate(tau)) for tau in itertools.permutations(range(n))]
    signs = [parity(tau) for tau in itertools.permutations(range(n))]
    multiplicity = math.prod(math.factorial(c) for c in output)
    bound = (n + 1) * np.finfo(float).eps * max(1.0, np.abs(terms).sum() / multiplicity)
    for stats in Statistics:
        buckets = [0j] * (n + 1)
        for d, sign, term in zip(moved, signs, terms):
            buckets[d] += (sign if stats is Statistics.FERMION else 1) * term
        spy = mock.patch.object(engine, "relative_permutation_terms", wraps=engine.relative_permutation_terms)
        with spy as per_tau:
            (orders,) = interference_orders(u, inputs, [output], stats).T
        assert per_tau.call_count == (n in (2, 3, 4))  # the per-tau build for N + 1 Grams only there
        assert orders[1] == 0.0
        for d in (0, *range(2, n + 1)):
            assert abs(orders[d] - buckets[d].real / multiplicity) <= bound


@pytest.mark.parametrize("n", range(2, 6))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_many_outputs_in_one_call_equal_one_call_each(n, data):
    # K >= 2 outputs may take another expansion than one (the tensor
    # expansion, which one output never takes, serves every N = 2 draw here),
    # so only the last bits may move
    m = data.draw(st.integers(n, 8), label="modes")
    u = random_unitary(m, data.draw(st.integers(0, 2**31 - 1), label="seed"))
    inputs = tuple(sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True))))
    every = list(enumerate_occupations(m, n))
    outputs = data.draw(st.lists(st.sampled_from(every), min_size=2, max_size=12), label="outputs")
    for stats in Statistics:
        spy = mock.patch.object(engine, "_tensor_totals", wraps=engine._tensor_totals)
        with spy as tensor:
            orders = interference_orders(u, inputs, outputs, stats)
        assert n > 2 or tensor.call_count == 1
        for column, output in zip(orders.T, outputs):
            (alone,) = interference_orders(u, inputs, [output], stats).T
            assert np.abs(column - alone).max() <= 1e-15


@pytest.mark.parametrize("stats", list(Statistics))
def test_only_orders_within_the_rounding_floor_are_zero(stats):
    # C_3 of this Fourier event is 0 in exact arithmetic and came out as
    # about 1e-17 before the floor (N + 1) 2^N eps max_w |P(w)|; the orders of
    # Haar events, none of them 0, keep their values
    assert interference_orders(fourier_unitary(4), (0, 1, 2, 3), [(0, 1, 3, 0)], stats)[3, 0] == 0.0
    rng = np.random.default_rng(70)
    for n in range(2, 6):
        u = random_unitary(n + 2, int(rng.integers(0, 2**31)))
        output = tuple(int(c) for c in np.bincount(rng.integers(0, n + 2, n), minlength=n + 2))
        orders = interference_orders(u, tuple(range(n)), [output], stats)
        assert (orders[[0, *range(2, n + 1)]] != 0.0).all()
    # each output has its own floor: orders near 1e-16 survive beside an output of probability 1
    assert (interference_orders(beamsplitter(1e-16), (0, 1), [(2, 0), (1, 1)], stats)[[0, 2], 0] != 0.0).all()


def test_residues_beyond_tolerance_raise(monkeypatch):
    # a linear term or an imaginary part, which exact arithmetic never gives,
    # in the second of two outputs
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    for order, extra in ((1, 1e-9 * roots), (0, np.full(4, 1e-9j))):
        def perturbed(*args, _extra=extra):
            return engine._path_sum_totals(*args) + np.outer(_extra, [0, 1])
        monkeypatch.setattr(decompose, "_path_sum_totals", perturbed)
        with pytest.raises(ConsistencyError, match=f"order-{order} coefficient has residue"):
            interference_orders(F9, (2, 5, 8), [(1, 1, 1, 0, 0, 0, 0, 0, 0), (3,) + (0,) * 8], Statistics.BOSON)


def test_polynomial_reproduces_uniform_overlap_probability():
    rng = np.random.default_rng(14)
    for _ in range(15):
        u, inputs, _ = random_instance(rng)
        outputs = list(enumerate_occupations(u.shape[0], len(inputs)))
        for stats in Statistics:
            orders = interference_orders(u, inputs, outputs, stats)
            for alpha in ALPHAS:
                direct = probability_table(u, inputs, outputs, [uniform_gram(len(inputs), alpha)], stats)[0]
                assert np.abs(transition_polynomial(orders, alpha) - direct).max() <= 1e-10
                assert transition_polynomial(orders[:, 0], alpha) == transition_polynomial(orders, alpha)[0]


def test_order_buckets_interpolate_fast_paths():
    rng = np.random.default_rng(15)
    for _ in range(15):
        u, inputs, _ = random_instance(rng)
        outputs = list(enumerate_occupations(u.shape[0], len(inputs)))
        for stats in Statistics:
            orders = interference_orders(u, inputs, outputs, stats)
            for occ, classical, quantum in zip(outputs, orders[0], orders.sum(axis=0)):
                assert abs(classical - classical_probability(u, inputs, occ)) <= 1e-10
                assert abs(quantum - quantum_probability(u, inputs, occ, stats)) <= 1e-10


def test_transition_polynomial_endpoints_and_midpoint():
    (orders,) = interference_orders(BS, (0, 1), [(1, 1)], Statistics.BOSON).T
    assert np.isclose(transition_polynomial(orders, 0.0), 0.5, atol=1e-12)
    assert np.isclose(transition_polynomial(orders, 1.0), 0.0, atol=1e-12)
    assert np.isclose(transition_polynomial(orders, 0.5), 0.375, atol=1e-12)
    with pytest.raises(DomainError):
        transition_polynomial(orders, 1.5)


def test_naive_interpolation_endpoints():
    assert naive_interpolation(0.3, 0.9, 0.0) == 0.3
    assert naive_interpolation(0.3, 0.9, 1.0) == 0.9
    with pytest.raises(DomainError):
        naive_interpolation(-0.1, 0.5, 0.5)
    with pytest.raises(DomainError):
        naive_interpolation(0.1, 0.5, 2.0)


def test_naive_interpolation_fails_for_three_fermions():
    # grid search over the Fourier-multiport events: somewhere the straight
    # blend misses the exact polynomial by more than a tenth of its scale
    best = 0.0
    outputs = [occ for occ in enumerate_occupations(9, 3) if max(occ) == 1]
    for orders in interference_orders(F9, (2, 5, 8), outputs, Statistics.FERMION).T:
        p_classical = orders[0]
        p_quantum = max(0.0, min(1.0, orders.sum()))
        curve_scale = max(
            abs(transition_polynomial(orders, a)) for a in np.linspace(0, 1, 101)
        )
        for alpha in np.linspace(0.0, 1.0, 101):
            blend = naive_interpolation(p_classical, p_quantum, alpha)
            exact = transition_polynomial(orders, alpha)
            best = max(best, abs(blend - exact) / curve_scale)
    assert best > 0.1


def test_two_particle_transitions_are_monotonic():
    rng = np.random.default_rng(16)
    for _ in range(20):
        u, inputs, _ = random_instance(rng, max_modes=5, max_particles=2)
        outputs = list(enumerate_occupations(u.shape[0], len(inputs)))
        for stats in Statistics:
            orders = interference_orders(u, inputs, outputs, stats)
            diffs = np.diff([transition_polynomial(orders, a) for a in ALPHAS], axis=0)
            assert (np.all(diffs >= -1e-12, axis=0) | np.all(diffs <= 1e-12, axis=0)).all()


def test_three_particle_transition_can_be_nonmonotonic():
    orders = interference_orders(
        F9, (2, 5, 8), [(1, 1, 1, 0, 0, 0, 0, 0, 0)], Statistics.BOSON
    )
    values = [transition_polynomial(orders[:, 0], a) for a in np.linspace(0, 1, 201)]
    diffs = np.diff(values)
    signs = np.sign(np.where(np.abs(diffs) < 1e-12, 0.0, diffs))
    signs = signs[signs != 0]
    assert np.any(signs[:-1] * signs[1:] < 0)


def test_bunched_output_orders_are_non_negative_for_bosons():
    rng = np.random.default_rng(17)
    for _ in range(20):
        u, inputs, _ = random_instance(rng, max_modes=5, max_particles=3)
        bunched = (len(inputs),) + (0,) * (u.shape[0] - 1)
        (orders,) = interference_orders(u, inputs, [bunched], Statistics.BOSON).T
        assert min(orders) >= -1e-12
        values = [transition_polynomial(orders, a) for a in ALPHAS]
        assert np.all(np.diff(values) >= -1e-12)
