import numpy as np
import pytest

from benj.errors import DivergenceError, ParameterError
from benj.initdata import gaussian
from benj.model import ModelParams
from benj.semidiscrete import LinearMultipliers
from benj.spectral import l2_norm
from benj.timestep import (
    IntegratorConfig,
    default_dt,
    etd_coefficients,
    evolve,
)

from oracles import etd_weights_highprec, evolve_full_range, rand_field


def fake_multipliers(values):
    lam = np.asarray(values, dtype=np.complex128)
    return LinearMultipliers((len(lam) - 1) // 2, lam)


def zero_term(c, t):
    return np.zeros_like(c)


# ------------------------------------------------------------- coefficients


def test_weights_at_zero_are_classical_rk4():
    k = etd_coefficients(fake_multipliers([0.0, 0.0, 0.0]), dt=0.3)
    assert np.allclose(k.e_full, 1.0)
    assert np.allclose(k.e_half, 1.0)
    assert np.allclose(k.q, 0.15)  # dt/2, i.e. phi1(0) = 1 on the half step
    for w in (k.f1, k.f2, k.f3):
        assert np.allclose(w, 0.3 / 6.0)  # dt/6


@pytest.mark.parametrize(
    "y",
    [1e-8, -1e-8, 1e-4, 0.05, 0.3, 0.499, 0.5, 0.7, 3.0, np.pi, 40.0, 1e3, 2e5],
)
def test_weights_match_extended_precision(y):
    # Purely imaginary z, the regime the dispersive symbol produces.
    dt = 1.0
    k = etd_coefficients(fake_multipliers([1j * y]), dt=dt)
    q_hp, f1_hp, f2_hp, f3_hp = etd_weights_highprec(1j * y)
    for got, want in ((k.q, q_hp), (k.f1, f1_hp), (k.f2, f2_hp), (k.f3, f3_hp)):
        assert abs(got[0] / dt - want) <= 1e-12 * max(abs(want), 1e-3)


def test_weights_finite_at_stiff_imaginary_mode():
    k = etd_coefficients(fake_multipliers([1j * np.pi]), dt=1.0)
    assert abs(k.e_full[0]) == pytest.approx(1.0, rel=1e-14)
    for w in (k.q, k.f1, k.f2, k.f3):
        assert np.all(np.isfinite(w))


def test_weights_out_of_range_are_a_parameter_error():
    # |z|**3 overflows, so the closed forms give inf/inf
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ParameterError, match="floating-point range"):
        etd_coefficients(fake_multipliers([1e300j]), dt=1.0)


def test_weights_scale_with_dt():
    lam = fake_multipliers([0.2j, -0.2j, 0.0])
    a = etd_coefficients(lam, dt=0.5)
    b = etd_coefficients(lam, dt=0.25)
    # e^z changes, but the phi-combinations at z -> z/2 stay finite and smooth
    assert np.all(np.isfinite(a.f1)) and np.all(np.isfinite(b.f1))
    assert a.dt == 0.5 and b.dt == 0.25


# ------------------------------------------------------------------- stepping


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_pure_linear_step_is_exact_diagonal_flow(method, benjamin_params):
    u = rand_field(24, seed=1)
    dt = 7e-3
    config = IntegratorConfig(method=method, dt=dt, t_end=dt, snapshot_stride=1)
    out = evolve(u, benjamin_params, config, nonlinear=zero_term).final
    from benj.semidiscrete import linear_multipliers

    lam = linear_multipliers(benjamin_params, 24).lam
    expect = np.exp(lam * dt) * u.coeffs
    assert np.max(np.abs(out.coeffs - expect)) < 1e-14 * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_step_of_zero_field_is_zero(method, benjamin_params):
    u = rand_field(8, seed=0).with_coeffs(np.zeros(17, dtype=np.complex128))
    config = IntegratorConfig(method=method, dt=1e-2, t_end=1e-2)
    out = evolve(u, benjamin_params, config).final
    assert np.all(out.coeffs == 0)


def test_methods_differ_at_fifth_order(benjamin_params):
    # Both schemes are 4th order, so their one-step difference is O(dt^5):
    # halving dt should shrink it by about 2^5 = 32.  Bandwidth and dt are
    # kept small enough that every |Lambda_k|*dt is in the asymptotic range.
    u = rand_field(4, seed=5, decay=1.0)
    diffs = []
    for dt in (4e-3, 2e-3):
        cfg_e = IntegratorConfig("etdrk4", dt, dt)
        cfg_i = IntegratorConfig("ifrk4", dt, dt)
        a = evolve(u, benjamin_params, cfg_e).final
        b = evolve(u, benjamin_params, cfg_i).final
        diffs.append(l2_norm(a.with_coeffs(a.coeffs - b.coeffs)))
    ratio = diffs[0] / diffs[1]
    assert 16.0 <= ratio <= 48.0


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_temporal_order_against_fine_reference(method, benjamin_params):
    u0 = gaussian(1.0, 0.5, 0.0, 64, 1.0)
    t_end = 0.25
    dts = [1e-3, 5e-4, 2.5e-4]
    ref = evolve(
        u0, benjamin_params, IntegratorConfig(method, dts[-1] / 8, t_end, 10_000)
    ).final
    errors = []
    for dt in dts:
        out = evolve(u0, benjamin_params, IntegratorConfig(method, dt, t_end, 10_000))
        errors.append(l2_norm(ref.with_coeffs(out.final.coeffs - ref.coeffs)))
    p = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 3.5 <= p <= 4.5


def test_evolve_dt_halving_fourth_order(benjamin_params):
    u0 = gaussian(1.0, 0.5, 0.0, 32, 1.0)
    t_end = 0.25
    ref = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3 / 8, t_end, 10_000)).final
    e = []
    for dt in (2e-3, 1e-3):
        out = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", dt, t_end, 10_000))
        e.append(l2_norm(ref.with_coeffs(out.final.coeffs - ref.coeffs)))
    assert 8.0 <= e[0] / e[1] <= 32.0


# --------------------------------------------------------------------- evolve


def test_single_step_horizon(benjamin_params):
    u0 = rand_field(16, seed=2)
    result = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-2, 1e-2, 1))
    assert result.n_steps == 1
    assert result.final_time == pytest.approx(1e-2, rel=1e-15)


def test_observer_count_and_snapshots(benjamin_params):
    u0 = rand_field(8, seed=3)
    seen = []
    config = IntegratorConfig("etdrk4", 1e-3, 10e-3, snapshot_stride=3)
    result = evolve(u0, benjamin_params, config, observer=lambda t, f: seen.append(t))
    assert len(seen) == 4  # ceil(10/3)
    assert result.snapshots == []  # an observer owns the states it is shown
    assert len(evolve(u0, benjamin_params, config).snapshots) == 4
    assert seen[-1] == pytest.approx(10e-3, rel=1e-12)


def test_shortened_final_step(benjamin_params):
    u0 = rand_field(8, seed=4)
    result = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 0.4e-2, 1.0e-2, 1))
    assert result.n_steps == 3
    assert result.final_time == pytest.approx(1.0e-2, rel=1e-15)


def test_evolve_deterministic_bit_identical(benjamin_params):
    u0 = gaussian(1.0, 0.5, 0.0, 32, 1.0)
    config = IntegratorConfig("etdrk4", 1e-3, 5e-2, 10)
    a = evolve(u0, benjamin_params, config).final
    b = evolve(u0, benjamin_params, config).final
    assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_mode_zero_conserved_exactly(benjamin_params):
    u0 = gaussian(1.0, 0.5, 0.3, 32, 1.0)
    out = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3, 5e-2, 50)).final
    assert out.coeffs[32] == u0.coeffs[32]  # bitwise


def test_hermitian_symmetry_after_evolution(benjamin_params):
    u0 = rand_field(16, seed=6)
    out = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3, 2e-2, 5)).final
    assert np.array_equal(out.coeffs, np.conj(out.coeffs[::-1]))


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [15, 16])
def test_half_layout_matches_full_range_stepper(method, q, n):
    # 10 full steps and a shortened one; the reference carries k = -N..N
    # and re-projects onto the Hermitian subspace after every step.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    u0 = rand_field(n, seed=10 * q + n, decay=1.0)
    config = IntegratorConfig(method, 1e-3, 10.4e-3, 4)
    got = evolve(u0, p, config)
    assert got.n_steps == 11
    want = evolve_full_range(u0, p, method, 1e-3, 10.4e-3)
    rel = np.linalg.norm(got.final.coeffs - want.coeffs) / np.linalg.norm(want.coeffs)
    assert rel <= 1e-13


def test_nonlinear_callable_gets_half_layout(benjamin_params):
    # The callable replaces the flux inside the loop: it sees and returns
    # the folded half layout, k = 0..N, so the folded default flux passed
    # explicitly reproduces the default run bit for bit.
    from benj.semidiscrete import folded_nonlinear_term

    n = 12
    u0 = rand_field(n, seed=11)
    term = folded_nonlinear_term(benjamin_params, n)
    lengths = set()

    def flux(c, t):
        lengths.add(c.shape)
        return term(c)

    config = IntegratorConfig("etdrk4", 1e-3, 5e-3, 5)
    a = evolve(u0, benjamin_params, config, nonlinear=flux).final
    b = evolve(u0, benjamin_params, config).final
    assert lengths == {(n + 1,)}
    assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_divergence_detection(benjamin_params):
    u0 = rand_field(8, seed=7)
    grow = lambda c, t: 30.0 * c
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1.0, 5.0, 1),
                   nonlinear=grow)
    assert info.value.time is not None


def test_nonfinite_detection(benjamin_params):
    u0 = rand_field(8, seed=8)
    blow = lambda c, t: np.full_like(c, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1.0, 2.0, 1),
                   nonlinear=blow)


def test_higher_dispersion_order_stable():
    # m=2 multiplier grows like kappa^5 (|z| ~ 1e5 here) and r=0 exercises
    # the |0|^0 = 1 branch of the symbol inside the dynamics.
    p = ModelParams(m=2, r=0.0, gamma=0.5, delta=1.0, q=1)
    u0 = gaussian(0.5, 0.5, 0.0, 64, 1.0)
    result = evolve(u0, p, IntegratorConfig("etdrk4", 1e-4, 0.02, 50))
    assert np.all(np.isfinite(result.final.coeffs))
    drop = abs(l2_norm(result.final) - l2_norm(u0)) / l2_norm(u0)
    assert drop < 1e-6


def test_cubic_nonlinearity_evolves():
    from benj.initdata import random_sobolev
    from benj.invariants import record_invariants

    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=3)
    u0 = random_sobolev(4.0, 0, 48, 1.0)
    result = evolve(u0, p, IntegratorConfig("etdrk4", 5e-4, 0.1, 100))
    rec = record_invariants([(0.0, u0)] + result.snapshots, p)
    assert rec.rel_drift_I < 1e-12
    assert rec.rel_drift_E < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-2, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-2, t_end=1.0, snapshot_stride=0)


def test_default_dt_scales(benjamin_params):
    assert default_dt(benjamin_params, 256) == pytest.approx(0.5 / 256)
    assert default_dt(benjamin_params, 16) == pytest.approx(5e-3)
    long_domain = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1, domain_scale=8.0)
    assert default_dt(long_domain, 256) == pytest.approx(5e-3)  # 1e-2 cap binds
