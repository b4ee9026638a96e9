import numpy as np
import pytest
from hypothesis import given, strategies as st

from benj.invariants import c_pi, e_pi, i_pi, record_invariants
from benj.model import ModelParams, symbol_l
from benj.spectral import SpectralField, synth_values, translate
from benj.timestep import IntegratorConfig, evolve

from oracles import inner, periodic_trapezoid, rand_field


def mode_field(n_modes, entries, domain_scale=1.0):
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    for k, v in entries.items():
        c[k + n_modes] = v
    return SpectralField(n_modes, domain_scale, c)


def test_mass_examples():
    one_plus_cos = mode_field(4, {0: 1.0, 1: 0.5, -1: 0.5})
    assert c_pi(one_plus_cos) == pytest.approx(2 * np.pi, rel=1e-15)
    sin3 = mode_field(4, {3: -0.5j, -3: 0.5j})
    assert c_pi(sin3) == 0.0
    assert c_pi(mode_field(4, {})) == 0.0


def test_l2_functional_examples():
    sin = mode_field(3, {1: -0.5j, -1: 0.5j})
    assert i_pi(sin) == pytest.approx(np.pi, rel=1e-14)
    const = mode_field(3, {0: 1.7}, domain_scale=2.0)
    assert i_pi(const) == pytest.approx(2 * 2.0 * np.pi * 1.7**2, rel=1e-14)


@given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
def test_l2_functional_matches_quadrature(n, seed):
    u = rand_field(n, seed=seed)
    vals = synth_values(u.coeffs, n, 4 * n + 2)
    assert i_pi(u) == pytest.approx(periodic_trapezoid(vals**2, 1.0), rel=1e-12)


def test_l2_functional_is_self_inner_product():
    u = rand_field(12, seed=1)
    assert i_pi(u) == inner(u, u)


def test_energy_of_cosine():
    # integral u*Lu = pi for u = cos x with the kdv symbol; the cubic term
    # integrates to zero by odd symmetry.
    p = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1)
    u = mode_field(4, {1: 0.5, -1: 0.5})
    assert e_pi(u, p) == pytest.approx(np.pi, rel=1e-14)
    assert e_pi(mode_field(4, {}), p) == 0.0


@given(seed=st.integers(0, 10_000))
def test_energy_matches_quadrature(seed):
    p = ModelParams(m=1, r=0.5, gamma=0.8, delta=1.3, q=2)
    n = 12
    u = rand_field(n, seed=seed)
    m = 8 * n + 2
    uvals = synth_values(u.coeffs, n, m)
    lu = synth_values(symbol_l(p, u.kappa) * u.coeffs, n, m)
    big_f = uvals ** (p.q + 2) / ((p.q + 1) * (p.q + 2))  # F(u), the primitive of f
    integrand = uvals * lu - 2.0 * big_f
    assert e_pi(u, p) == pytest.approx(periodic_trapezoid(integrand, 1.0), rel=1e-10)


@given(seed=st.integers(0, 5_000), shift=st.floats(-3.0, 3.0))
def test_energy_translation_invariant(seed, shift):
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    u = rand_field(16, seed=seed)
    assert e_pi(translate(u, shift), p) == pytest.approx(e_pi(u, p), rel=1e-12)


def test_record_single_snapshot(benjamin_params):
    u = rand_field(8, seed=3)
    rec = record_invariants([(0.0, u)], benjamin_params)
    assert rec.rel_drift_C == 0.0
    assert rec.rel_drift_I == 0.0
    assert rec.rel_drift_E == 0.0


def test_record_empty_raises(benjamin_params):
    with pytest.raises(ValueError):
        record_invariants([], benjamin_params)


def test_linear_flow_conserves_l2_to_rounding(benjamin_params):
    # With the nonlinear term removed the flow is diagonal and unitary.
    u0 = rand_field(32, seed=9)
    config = IntegratorConfig("etdrk4", 1e-3, 5e-2, 5)
    result = evolve(u0, benjamin_params, config,
                    nonlinear=lambda c, t: np.zeros_like(c))
    rec = record_invariants([(0.0, u0)] + result.snapshots, benjamin_params)
    assert rec.rel_drift_I <= 1e-13
    assert rec.rel_drift_C == 0.0


def test_drift_floor_for_zero_invariants(benjamin_params):
    # sin x has zero mass; the relative drift must not divide by zero.
    u = mode_field(6, {1: -0.5j, -1: 0.5j})
    rec = record_invariants([(0.0, u), (1.0, u)], benjamin_params)
    assert rec.rel_drift_C == 0.0
