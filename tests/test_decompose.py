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
    fit_orders,
    interference_orders,
    naive_interpolation,
    transition_polynomial,
)
from interfere.engine import (
    classical_probability,
    event_probability,
    quantum_probability,
)
from interfere.exceptions import ConsistencyError, DomainError, FitError
from interfere.linalg import beamsplitter, fourier_unitary, random_unitary
from interfere.model import Statistics, enumerate_occupations, uniform_gram

BS = beamsplitter(0.5)
F9 = fourier_unitary(9)
ALPHAS = np.linspace(0.0, 1.0, 11)


def test_single_particle_has_only_zeroth_order():
    u = random_unitary(4, 12)
    result = interference_orders(u, (1,), (0, 0, 1, 0), Statistics.BOSON)
    assert set(result.coefficients) == {0}
    assert np.isclose(result.coefficients[0], abs(u[1, 2]) ** 2, atol=1e-12)


def test_hom_coincidence_orders():
    result = interference_orders(BS, (0, 1), (1, 1), Statistics.BOSON)
    assert np.isclose(result.coefficients[0], 0.5, atol=1e-12)
    assert np.isclose(result.coefficients[2], -0.5, atol=1e-12)
    assert abs(result.total_check) <= 1e-12


def test_hom_bunched_orders():
    result = interference_orders(BS, (0, 1), (2, 0), Statistics.BOSON)
    assert np.isclose(result.coefficients[0], 0.25, atol=1e-12)
    assert np.isclose(result.coefficients[2], 0.25, atol=1e-12)


def test_hom_fermion_orders_flip_sign():
    result = interference_orders(BS, (0, 1), (1, 1), Statistics.FERMION)
    assert np.isclose(result.coefficients[0], 0.5, atol=1e-12)
    assert np.isclose(result.coefficients[2], +0.5, atol=1e-12)


def test_no_first_order_bucket_exists():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u, inputs, _ = random_instance(rng)
        occ = next(iter(enumerate_occupations(u.shape[0], len(inputs))))
        result = interference_orders(u, inputs, occ, Statistics.BOSON)
        assert 1 not in result.coefficients
        assert set(result.coefficients) == {0} | set(range(2, len(inputs) + 1))


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
            result = interference_orders(u, inputs, output, stats)
        assert per_tau.call_count == 0  # one sign-sum call, no per-tau build
        assert 1 not in result.coefficients
        assert set(result.coefficients) == {0, *range(2, n + 1)}
        for d, c in result.coefficients.items():
            assert abs(c - buckets[d].real / multiplicity) <= bound


def test_residues_beyond_tolerance_raise(monkeypatch):
    # a linear term or an imaginary part, which exact arithmetic never gives
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    for extra in (1e-9 * roots, np.full(4, 1e-9j)):
        def perturbed(*args, _extra=extra):
            totals, multiplicity = engine._signed_sum_table(*args)
            return totals + _extra[:, None] * multiplicity, multiplicity
        monkeypatch.setattr(decompose, "_signed_sum_table", perturbed)
        with pytest.raises(ConsistencyError):
            interference_orders(F9, (2, 5, 8), (1, 1, 1, 0, 0, 0, 0, 0, 0), Statistics.BOSON)


def test_polynomial_reproduces_uniform_overlap_probability():
    rng = np.random.default_rng(14)
    for _ in range(15):
        u, inputs, _ = random_instance(rng)
        for occ in enumerate_occupations(u.shape[0], len(inputs)):
            for stats in Statistics:
                result = interference_orders(u, inputs, occ, stats)
                for alpha in ALPHAS:
                    direct = event_probability(
                        u, inputs, occ, uniform_gram(len(inputs), alpha), stats
                    )
                    assert abs(transition_polynomial(result, alpha) - direct) <= 1e-10


def test_order_buckets_interpolate_fast_paths():
    rng = np.random.default_rng(15)
    for _ in range(15):
        u, inputs, _ = random_instance(rng)
        for occ in enumerate_occupations(u.shape[0], len(inputs)):
            for stats in Statistics:
                result = interference_orders(u, inputs, occ, stats)
                classical = classical_probability(u, inputs, occ)
                quantum = quantum_probability(u, inputs, occ, stats)
                assert abs(result.coefficients[0] - classical) <= 1e-10
                assert abs(sum(result.coefficients.values()) - quantum) <= 1e-10


def test_transition_polynomial_endpoints_and_midpoint():
    result = interference_orders(BS, (0, 1), (1, 1), Statistics.BOSON)
    assert np.isclose(transition_polynomial(result, 0.0), 0.5, atol=1e-12)
    assert np.isclose(transition_polynomial(result, 1.0), 0.0, atol=1e-12)
    assert np.isclose(transition_polynomial(result, 0.5), 0.375, atol=1e-12)
    with pytest.raises(DomainError):
        transition_polynomial(result, 1.5)


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
    for occ in enumerate_occupations(9, 3):
        if max(occ) > 1:
            continue
        result = interference_orders(F9, (2, 5, 8), occ, Statistics.FERMION)
        p_classical = result.coefficients[0]
        p_quantum = max(0.0, min(1.0, result.total_check))
        curve_scale = max(
            abs(transition_polynomial(result, a)) for a in np.linspace(0, 1, 101)
        )
        for alpha in np.linspace(0.0, 1.0, 101):
            blend = naive_interpolation(p_classical, p_quantum, alpha)
            exact = transition_polynomial(result, alpha)
            best = max(best, abs(blend - exact) / curve_scale)
    assert best > 0.1


def test_two_particle_transitions_are_monotonic():
    rng = np.random.default_rng(16)
    for _ in range(20):
        u, inputs, _ = random_instance(rng, max_modes=5, max_particles=2)
        for occ in enumerate_occupations(u.shape[0], len(inputs)):
            for stats in Statistics:
                result = interference_orders(u, inputs, occ, stats)
                values = [transition_polynomial(result, a) for a in ALPHAS]
                diffs = np.diff(values)
                assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def test_three_particle_transition_can_be_nonmonotonic():
    result = interference_orders(
        F9, (2, 5, 8), (1, 1, 1, 0, 0, 0, 0, 0, 0), Statistics.BOSON
    )
    values = [transition_polynomial(result, a) for a in np.linspace(0, 1, 201)]
    diffs = np.diff(values)
    signs = np.sign(np.where(np.abs(diffs) < 1e-12, 0.0, diffs))
    signs = signs[signs != 0]
    assert np.any(signs[:-1] * signs[1:] < 0)


def test_bunched_output_orders_are_non_negative_for_bosons():
    rng = np.random.default_rng(17)
    for _ in range(20):
        u, inputs, _ = random_instance(rng, max_modes=5, max_particles=3)
        bunched = (len(inputs),) + (0,) * (u.shape[0] - 1)
        result = interference_orders(u, inputs, bunched, Statistics.BOSON)
        assert min(result.coefficients.values()) >= -1e-12
        values = [transition_polynomial(result, a) for a in ALPHAS]
        assert np.all(np.diff(values) >= -1e-12)


def test_fit_recovers_hom_coefficients():
    result = interference_orders(BS, (0, 1), (1, 1), Statistics.BOSON)
    samples = [(a, transition_polynomial(result, a)) for a in (0.0, 0.5, 1.0)]
    fitted = fit_orders(samples)
    assert np.isclose(fitted.coefficients[0], 0.5, atol=1e-10)
    assert np.isclose(fitted.coefficients[2], -0.5, atol=1e-10)


def test_fit_constant_samples():
    fitted = fit_orders([(0.0, 0.25), (1.0, 0.25)])
    assert set(fitted.coefficients) == {0}
    assert np.isclose(fitted.coefficients[0], 0.25, atol=1e-12)


def test_fit_matches_direct_decomposition():
    occ = (1, 0, 0, 1, 0, 0, 1, 0, 0)
    for stats in Statistics:
        result = interference_orders(F9, (2, 5, 8), occ, stats)
        samples = [(a, transition_polynomial(result, a)) for a in np.linspace(0, 1, 4)]
        fitted = fit_orders(samples, degree=3)
        for d in result.coefficients:
            assert abs(fitted.coefficients[d] - result.coefficients[d]) <= 1e-8


def test_fit_round_trip_from_oversampled_curve():
    result = interference_orders(F9, (2, 5, 8), (0, 1, 1, 1, 0, 0, 0, 0, 0), Statistics.BOSON)
    samples = [(a, transition_polynomial(result, a)) for a in np.linspace(0, 1, 11)]
    fitted = fit_orders(samples, degree=3)
    for d in result.coefficients:
        assert abs(fitted.coefficients[d] - result.coefficients[d]) <= 1e-8


def test_fit_errors():
    with pytest.raises(FitError):
        fit_orders([])
    with pytest.raises(FitError):
        fit_orders([(0.5, 0.1), (0.5, 0.1), (0.5, 0.1)])
    with pytest.raises(DomainError):
        fit_orders([(1.5, 0.1), (0.0, 0.2)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            fit_orders([(0.0, 0.1), (1.0, bad)])
