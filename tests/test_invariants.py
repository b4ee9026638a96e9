import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benj.errors import ParameterError, ShapeError
from benj.initdata import InitialDataSpec, build_field
from benj.invariants import (
    c_pi,
    e_pi,
    i_pi,
    invariant_row,
    record_invariants,
    record_rows,
)
from benj.model import ModelParams, symbol_l
from benj.semidiscrete import _mode_operator
from benj.spectral import (
    SpectralField,
    dealiased_grid,
    fold_half,
    synth_values,
    translate,
    unfold_half,
)
from benj.timestep import IntegratorConfig, evolve_rows

from oracles import energy_dealiased_power, full_kappa, inner, periodic_trapezoid, rand_field


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
    lu = synth_values(symbol_l(p, full_kappa(u)) * u.coeffs, n, m)
    big_f = uvals ** (p.q + 2) / ((p.q + 1) * (p.q + 2))  # F(u), the primitive of f
    integrand = uvals * lu - 2.0 * big_f
    assert e_pi(u, p) == pytest.approx(periodic_trapezoid(integrand, 1.0), rel=1e-10)


def test_energy_matches_full_analysis_on_solver_data(benjamin_params):
    # the grid mean of u^3 by multiplication against the zero mode of a full
    # analysis of u**3, on the data kind ``benj solve`` is benchmarked on
    for seed in range(8):
        spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=seed)
        u = build_field(spec, benjamin_params, 256)
        want = energy_dealiased_power(u, benjamin_params)
        assert abs(e_pi(u, benjamin_params) - want) <= 4e-16 * abs(want)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 64, 256])
def test_energy_matches_full_analysis(q, n):
    # E cancels its two terms on large data, so the rounding bound, a few
    # ulps, is taken relative to their magnitudes
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    for seed in range(6):
        u = rand_field(n, seed=seed, scale=(None, 0.3, 1.0)[seed % 3], decay=2.0)
        quad = np.sum(symbol_l(p, full_kappa(u)) * np.abs(u.coeffs) ** 2)
        vals = synth_values(u.coeffs, n, dealiased_grid(n, q + 2))
        f_abs = np.mean(np.abs(vals) ** (q + 2)) / ((q + 1) * (q + 2))
        size = 2.0 * np.pi * (abs(quad) + 2.0 * f_abs)
        assert abs(e_pi(u, p) - energy_dealiased_power(u, p)) <= 8 * np.finfo(float).eps * size


@given(seed=st.integers(0, 5_000), shift=st.floats(-3.0, 3.0))
def test_energy_translation_invariant(seed, shift):
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    u = rand_field(16, seed=seed)
    assert e_pi(translate(u, shift), p) == pytest.approx(e_pi(u, p), rel=1e-12)


def test_energy_symbol_is_cached_read_only(benjamin_params):
    # the operator's one owner, which the energy reads: the bits of kappa,
    # the symbol and Lambda at the field's kappa, shared by every snapshot of
    # one model and bandwidth, and by none of another; the model holds L
    params = replace(benjamin_params, domain_scale=0.7)
    u = mode_field(8, {1: 0.5, -1: 0.5}, domain_scale=0.7)
    modes = _mode_operator(params, 8)
    assert not any(arr.flags.writeable for arr in modes)
    assert modes.kappa.tobytes() == u.kappa.tobytes()
    assert modes.symbol.tobytes() == symbol_l(params, u.kappa).tobytes()
    assert modes.lam.tobytes() == (1j * u.kappa * symbol_l(params, u.kappa)).tobytes()
    assert _mode_operator(params, 8) is modes
    assert _mode_operator(benjamin_params, 8) is not modes
    other = replace(params, gamma=2.0)
    assert _mode_operator(other, 8).symbol.tobytes() == symbol_l(other, u.kappa).tobytes()


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
    snapshots = [(0.0, u0)]

    def keep(t, rows):
        snapshots.append((t, SpectralField(32, 1.0, unfold_half(rows[0]))))

    evolve_rows(fold_half(u0.coeffs, 32)[None], benjamin_params, config,
                lambda c, t: np.zeros_like(c), keep)
    rec = record_invariants(snapshots, benjamin_params)
    assert rec.rel_drift_I <= 1e-13
    assert rec.rel_drift_C == 0.0


def test_drift_floor_for_zero_invariants(benjamin_params):
    # sin x has zero mass; the relative drift must not divide by zero.
    u = mode_field(6, {1: -0.5j, -1: 0.5j})
    rec = record_invariants([(0.0, u), (1.0, u)], benjamin_params)
    assert rec.rel_drift_C == 0.0


def test_record_keeps_rows_not_fields(benjamin_params):
    # fields taken from an iterator are dropped once their row is evaluated
    # (only the latest may still be held), and the rows come out in time
    # order, as the record of the fields in that order
    times = (0.2, 0.0, 0.1)
    refs = []

    def snapshots():
        for i, t in enumerate(times):
            assert all(ref() is None for ref in refs[:-1])
            field = rand_field(8, seed=i)
            refs.append(weakref.ref(field))
            yield t, field
            del field

    record = record_invariants(snapshots(), benjamin_params)
    assert len(refs) == 3 and record.times.tolist() == [0.0, 0.1, 0.2]
    in_order = sorted(((t, rand_field(8, seed=i)) for i, t in enumerate(times)),
                      key=lambda snapshot: snapshot[0])
    expected = record_invariants(in_order, benjamin_params)
    assert repr(record) == repr(expected)
    rows = [invariant_row(t, f, benjamin_params) for t, f in in_order]
    assert repr(record_rows(rows[::-1])) == repr(expected)


def test_record_of_no_rows_is_refused():
    with pytest.raises(ValueError, match="at least one snapshot"):
        record_rows([])


def test_energy_of_an_overflowing_symbol_is_refused_before_a_grid(monkeypatch):
    # kappa^(2m) at m = 200 leaves the floating-point range: ``symbol_l``
    # refuses it, without a numpy warning, before u is put on a grid
    import benj.invariants

    grids = []
    monkeypatch.setattr(benj.invariants, "half_values", lambda *args: grids.append(args))
    p = ModelParams(m=200, r=0.5, gamma=1.0, delta=1.0, q=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="leaves the floating-point range"):
            e_pi(rand_field(64, seed=0), p)
    assert grids == []


def test_energy_refuses_another_domain_scale(benjamin_params):
    # the energy read the field's L, so an L = 1 and an L = 2 model gave
    # one E for the same snapshot
    u = rand_field(16, seed=4, domain_scale=2.0)
    message = "field domain scale 2.0 does not match model domain scale 1.0"
    with pytest.raises(ShapeError, match=message):
        e_pi(u, benjamin_params)
    with pytest.raises(ShapeError, match=message):
        record_invariants([(0.0, u), (1.0, u)], benjamin_params)
    assert np.isfinite(c_pi(u)) and i_pi(u) > 0.0  # C and I take no model
