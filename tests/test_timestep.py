import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benj.timestep
from benj.errors import DivergenceError, ParameterError, ShapeError
from benj.initdata import gaussian
from benj.model import ModelParams
from benj.spectral import SpectralField, fold_half, l2_norm, unfold_half
from benj.timestep import (
    MAX_STEPS,
    IntegratorConfig,
    IntegratorPolicy,
    default_dt,
    etd_coefficients,
    evolve,
    evolve_rows,
)

from oracles import etd_weights_highprec, evolve_full_range, rand_field


def fake_multipliers(values):
    """Half-layout multipliers Lambda_k, k = 0..len(values) - 1."""
    return np.asarray(values, dtype=np.complex128)


def zero_term(c, t):
    return np.zeros_like(c)


def one_row(u):
    """A field as a stack of one folded half-layout row, as ``evolve_rows`` takes it."""
    return fold_half(u.coeffs, u.n_modes)[None]


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


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_step_weights_out_of_range_are_refused_under_either_method(method):
    # both methods take their weights from ``etd_coefficients``, which
    # refuses them without a numpy warning; IFRK4 its exponentials too
    from benj.timestep import _step_function

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="step weight .* floating-point range"):
            _step_function(fake_multipliers([0.0, 1e300j])[None], method, zero_term, 1.0)


@pytest.mark.parametrize("dt", [-1.0, 0.0, np.nan])
def test_weights_refuse_a_step_that_is_not_positive(dt):
    # NaN names the step, not a nonfinite weight, and numpy never sees it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^dt must be > 0, got {dt}"):
            etd_coefficients(fake_multipliers([0.0, 0.2j]), dt=dt)


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_symbol_times_dt_out_of_range_is_a_parameter_error(method):
    # Lambda is finite at N = 64 and Lambda*dt is not: refused where the
    # weights are built, under either method, before any step is taken
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1e302, q=1)
    config = IntegratorConfig(method, 10.0, 10.0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParameterError, match="times dt"):
            evolve(rand_field(64, seed=0), p, config)


def test_weights_scale_with_dt():
    lam = fake_multipliers([0.0, 0.2j, -0.2j])
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
    out = SpectralField(u.n_modes, u.domain_scale, unfold_half(
        evolve_rows(one_row(u), benjamin_params, config, zero_term).final[0]))
    from benj.semidiscrete import linear_multipliers

    lam = linear_multipliers(benjamin_params, 24)
    expect = unfold_half(np.exp(lam * dt) * fold_half(u.coeffs, 24))
    assert np.max(np.abs(out.coeffs - expect)) < 1e-14 * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_step_of_zero_field_is_zero(method, benjamin_params):
    u = SpectralField(8, 1.0, np.zeros(17, dtype=np.complex128))
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
        diffs.append(l2_norm(SpectralField(a.n_modes, a.domain_scale, a.coeffs - b.coeffs)))
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
        diff = out.final.coeffs - ref.coeffs
        errors.append(l2_norm(SpectralField(ref.n_modes, ref.domain_scale, diff)))
    p = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 3.5 <= p <= 4.5


def test_evolve_dt_halving_fourth_order(benjamin_params):
    u0 = gaussian(1.0, 0.5, 0.0, 32, 1.0)
    t_end = 0.25
    ref = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3 / 8, t_end, 10_000)).final
    e = []
    for dt in (2e-3, 1e-3):
        out = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", dt, t_end, 10_000))
        diff = out.final.coeffs - ref.coeffs
        e.append(l2_norm(SpectralField(ref.n_modes, ref.domain_scale, diff)))
    assert 8.0 <= e[0] / e[1] <= 32.0


# --------------------------------------------------------------------- evolve


def test_single_step_horizon(benjamin_params):
    u0 = rand_field(16, seed=2)
    seen = []
    result = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-2, 1e-2, 1),
                    observer=lambda t, f: seen.append(t))
    assert result.n_steps == 1
    assert seen[-1] == pytest.approx(1e-2, rel=1e-15)  # the final state's time


def test_observer_count_and_snapshots(benjamin_params):
    u0 = rand_field(8, seed=3)
    seen = []
    config = IntegratorConfig("etdrk4", 1e-3, 10e-3, snapshot_stride=3)
    result = evolve(u0, benjamin_params, config, observer=lambda t, f: seen.append(t))
    assert len(seen) == 5  # states 0, 3, 6, 9 and the last, 10
    assert result.snapshots == []  # an observer owns the states it is shown
    assert len(evolve(u0, benjamin_params, config).snapshots) == 5
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(10e-3, rel=1e-12)


def observed_run(stacked, params, config, calls, n=8):
    """Run ``evolve`` (one field) or ``evolve_rows`` (a stack of two rows),
    append the observer's (t, stack copy) calls to ``calls`` and return
    the initial stack."""
    from benj.semidiscrete import folded_nonlinear_term

    if stacked:
        rows = _rows(n, (30, 31))
        term = folded_nonlinear_term(params, [n, n])
        evolve_rows(rows, params, config, lambda c, t: term(c),
                    lambda t, c: calls.append((t, c.copy())))
        return rows
    u0 = rand_field(n, seed=30)
    evolve(u0, params, config, observer=lambda t, f: calls.append((t, f.half[None].copy())))
    return u0.half[None]


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("stacked", [False, True], ids=["evolve", "evolve_rows"])
@pytest.mark.parametrize("n_steps, stride, states", [
    (7, 3, [0, 3, 6, 7]), (6, 3, [0, 3, 6]), (2, 1000, [0, 2]),
])
def test_observer_sees_state_0_then_every_stride_th_state_and_the_last(
        method, stacked, n_steps, stride, states, benjamin_params):
    config = IntegratorConfig(method, 1e-3, n_steps * 1e-3, stride)
    calls, every = [], []
    initial = observed_run(stacked, benjamin_params, config, calls)
    observed_run(stacked, benjamin_params, replace(config, snapshot_stride=1), every)
    assert calls[0][0] == 0.0 and calls[0][1].tobytes() == initial.tobytes()
    assert len(every) == n_steps + 1
    assert [t for t, _ in calls] == [every[s][0] for s in states]
    assert all(c.tobytes() == every[s][1].tobytes() for (_, c), s in zip(calls, states))
    assert calls[-1][0] == config.t_end


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("stacked", [False, True], ids=["evolve", "evolve_rows"])
def test_a_refused_operator_observes_nothing(method, stacked):
    # Lambda*dt leaves the floating-point range at N = 64
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1e302, q=1)
    calls = []
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ParameterError, match="times dt"):
        observed_run(stacked, p, IntegratorConfig(method, 10.0, 10.0, 1), calls, n=64)
    assert calls == []


def test_shortened_final_step(benjamin_params):
    # a 0.4e-2 step over 1e-2 would leave a short last step; the grid spreads
    # it over 3 equal steps instead, and the final state's time is t_end
    u0 = rand_field(8, seed=4)
    seen = []
    result = evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 0.4e-2, 1.0e-2, 1),
                    observer=lambda t, f: seen.append(t))
    assert result.n_steps == 3
    assert seen[-1] == pytest.approx(1.0e-2, rel=1e-15)  # the final state's time


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_shortened_final_step_rebuilds_only_its_weights(method, benjamin_params, monkeypatch):
    # the nonlinear term is built once per run, whatever dt leaves over
    import benj.timestep

    real, built = benj.timestep.folded_nonlinear_term, []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(benj.timestep, "folded_nonlinear_term", counting)
    config = IntegratorConfig(method, 0.4e-2, 1.0e-2, 1)
    assert evolve(rand_field(8, seed=4), benjamin_params, config).n_steps == 3
    assert len(built) == 1


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_equal_steps_end_on_the_horizon(method, benjamin_params, monkeypatch):
    # dt does not divide t_end: the run takes ceil(2.5) = 3 equal steps of
    # t_end/3, the last ending exactly on t_end, with weights built once
    import benj.timestep

    real, built = benj.timestep._step_function, []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(benj.timestep, "_step_function", counting)
    config = IntegratorConfig(method, 0.4e-2, 1.0e-2, 1)
    seen = []
    result = evolve(rand_field(8, seed=4), benjamin_params, config,
                    observer=lambda t, f: seen.append(t))
    assert result.n_steps == 3
    assert seen[0] == 0.0
    assert seen[1:3] == pytest.approx([1.0e-2 / 3, 2.0e-2 / 3], rel=1e-15)
    assert seen[3] == 1.0e-2
    assert len(built) == 1


def test_config_step_snaps_to_the_grid():
    # a step that divides the horizon is kept bit for bit; one that does
    # not becomes t_end/n for the fewest steps n no longer than it
    for dt, t_end, n_steps in ((1e-3, 1.0, 1000), (5e-4, 0.5, 1000), (2e-3, 0.05, 25)):
        config = IntegratorConfig(dt=dt, t_end=t_end)
        assert (config.dt, config.n_steps) == (dt, n_steps)
    config = IntegratorConfig(dt=0.003, t_end=0.01)
    assert (config.dt, config.n_steps) == (0.01 / 4, 4)
    assert IntegratorConfig(dt=0.1, t_end=0.3).n_steps == 3


@settings(max_examples=300, deadline=None)
@given(t_end=st.floats(1e-6, 1e3), steps=st.floats(1.0, MAX_STEPS))
def test_config_snap_is_idempotent(t_end, steps):
    # the studies re-snap a snapped step (a quarter of it for the linearized
    # study's runs): the grid must come back bit for bit
    config = IntegratorConfig(dt=t_end / steps, t_end=t_end)
    assert config.dt <= t_end / steps * (1 + 1e-9)
    assert replace(config) == config
    if 4 * config.n_steps <= MAX_STEPS:
        quarter = IntegratorConfig(dt=config.dt / 4, t_end=t_end)
        assert (quarter.dt, quarter.n_steps) == (config.dt / 4, 4 * config.n_steps)


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
    # 11 equal steps of 10.4e-3/11; the reference carries k = -N..N and
    # re-projects onto the Hermitian subspace after every step.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    u0 = rand_field(n, seed=10 * q + n, decay=1.0)
    config = IntegratorConfig(method, 1e-3, 10.4e-3, 4)
    got = evolve(u0, p, config)
    assert got.n_steps == 11
    want = evolve_full_range(u0, p, method, 1e-3, 10.4e-3)
    rel = np.linalg.norm(got.final.coeffs - want.coeffs) / np.linalg.norm(want.coeffs)
    assert rel <= 1e-13


def test_nonlinear_callable_gets_half_layout(benjamin_params):
    # The callable is the flux inside the loop: it sees and returns a stack
    # of one row in the folded half layout, k = 0..N, so the folded default
    # flux passed to evolve_rows reproduces evolve's run bit for bit.
    from benj.semidiscrete import folded_nonlinear_term

    n = 12
    u0 = rand_field(n, seed=11)
    term = folded_nonlinear_term(benjamin_params, [n])
    lengths = set()

    def flux(c, t):
        lengths.add(c.shape)
        return term(c)

    config = IntegratorConfig("etdrk4", 1e-3, 5e-3, 5)
    a = unfold_half(evolve_rows(one_row(u0), benjamin_params, config, flux).final[0])
    b = evolve(u0, benjamin_params, config).final
    assert lengths == {(1, n + 1)}
    assert a.tobytes() == b.coeffs.tobytes()


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_hook_final_stage_runs_at_the_next_step_time(method, benjamin_params):
    # At dt = 1e-4, t + dt and (s + 1)*dt round apart on hundreds of steps.
    # A hook that caches by time needs each step's 4th call and the next
    # step's 1st call to get the same float: the step time evolve reports.
    dt, steps = 1e-4, 1000
    times, observed = [], []

    def hook(c, t):
        times.append(t)
        return np.zeros_like(c)

    config = IntegratorConfig(method, dt, steps * dt, 1)
    result = evolve_rows(one_row(rand_field(4, seed=12)), benjamin_params, config, hook,
                         observer=lambda t, rows: observed.append(t))
    assert result.n_steps == steps and len(times) == 4 * steps
    ends, starts = times[3::4], times[4::4]
    assert sum(a != b for a, b in zip(ends, starts)) == 0  # bitwise equal floats
    assert observed == [0.0] + ends
    assert times[1::4] == times[2::4] == [t + 0.5 * dt for t in times[0::4]]


def flux_of(monkeypatch, term):
    """Make ``evolve`` step the flux ``term(c)`` in place of the model's."""
    import benj.timestep

    monkeypatch.setattr(benj.timestep, "folded_nonlinear_term", lambda params, bandwidths: term)


def test_divergence_detection(benjamin_params, monkeypatch):
    u0 = rand_field(8, seed=7)
    flux_of(monkeypatch, lambda c: 30.0 * c)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1.0, 5.0, 1))
    assert info.value.time is not None


def test_nonfinite_detection(benjamin_params, monkeypatch):
    u0 = rand_field(8, seed=8)
    flux_of(monkeypatch, lambda c: np.full_like(c, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1.0, 2.0, 1))


def _rows(n, seeds):
    return np.stack([fold_half(rand_field(n, seed=s).coeffs, n) for s in seeds])


@pytest.mark.parametrize("kind", ["growth", "nonfinite"])
def test_a_diverging_row_is_zeroed_and_the_others_go_on(benjamin_params, kind):
    from benj.semidiscrete import folded_nonlinear_term

    n = 8
    rows = _rows(n, (20, 21, 22))
    term = folded_nonlinear_term(benjamin_params, [n, n, n])

    def bad_row_1(c, t):
        flux = term(c)
        if kind == "growth":  # vanishes on the zeroed row
            flux[1] += 1e6 * c[1]
        elif np.any(c[1] != 0):
            flux[1] = np.nan
        return flux

    config = IntegratorConfig("etdrk4", 1e-3, 1e-2, 1)
    seen = []
    with np.errstate(invalid="ignore"):
        bad = evolve_rows(rows, benjamin_params, config, bad_row_1,
                          lambda t, c: seen.append(c.copy()))
    clean = evolve_rows(rows, benjamin_params, config, lambda c, t: term(c))
    assert list(bad.failures) == [1]
    assert bad.failures[1].time == 1e-3
    message = "norm grew beyond 1e6x" if kind == "growth" else "nonfinite coefficients"
    assert str(bad.failures[1]).startswith(message)
    assert bad.n_steps == clean.n_steps == len(seen) - 1 == 10
    assert seen[0].tobytes() == rows.tobytes()
    assert all(np.all(c[1] == 0) for c in seen[1:])
    assert bad.final[[0, 2]].tobytes() == clean.final[[0, 2]].tobytes()


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("nan", [complex(np.nan, 0.0), complex(0.0, np.nan)], ids=["real", "imag"])
def test_one_nan_float_fails_its_row_at_the_step_it_appears(benjamin_params, method, nan):
    # the divergence check sums every float of the stack: one NaN part of one
    # coefficient, in the flux past t = 2 dt, fails that row at the third step
    from benj.semidiscrete import folded_nonlinear_term

    n, dt = 16, 1e-3
    rows = _rows(n, (27, 28))
    term = folded_nonlinear_term(benjamin_params, [n, n])

    def nan_in_row_0(c, t):
        flux = term(c)
        if t > 2 * dt and np.any(c[0] != 0):
            flux[0, n] += nan
        return flux

    config = IntegratorConfig(method, dt, 5 * dt, 1)
    with np.errstate(invalid="ignore"):
        bad = evolve_rows(rows, benjamin_params, config, nan_in_row_0)
    clean = evolve_rows(rows, benjamin_params, config, lambda c, t: term(c))
    assert list(bad.failures) == [0]
    assert bad.failures[0].time == 3 * dt
    assert str(bad.failures[0]) == f"nonfinite coefficients at t={3 * dt}"
    assert np.all(bad.final[0] == 0)
    assert bad.final[1].tobytes() == clean.final[1].tobytes()


def test_rows_stop_once_every_row_has_failed(benjamin_params):
    rows = _rows(8, (23, 24))
    grow = lambda c, t: 1e6 * c
    result = evolve_rows(rows, benjamin_params, IntegratorConfig("ifrk4", 1e-3, 1.0, 1), grow)
    assert sorted(result.failures) == [0, 1]
    assert result.n_steps < 1000
    assert np.all(result.final == 0)


def test_masked_row_is_the_run_at_its_own_bandwidth(benjamin_params):
    # a bandwidth-4 row posed at N = 8: its modes above 4 start at zero and
    # the masked flux keeps them there, so the row is the bandwidth-4 run up
    # to rounding; the unmasked row is the bandwidth-8 run bit for bit
    from benj.semidiscrete import folded_nonlinear_term
    from benj.spectral import project

    fields = [rand_field(8, seed=25), rand_field(8, seed=26)]
    config = IntegratorConfig("etdrk4", 1e-3, 2e-2, 5)
    rows = np.stack([fold_half(f.coeffs, 8) for f in fields])
    rows[0, 5:] = 0
    term = folded_nonlinear_term(benjamin_params, [4, 8])
    out = evolve_rows(rows, benjamin_params, config, lambda c, t: term(c)).final
    assert np.all(out[0, 5:] == 0)
    narrow = fold_half(evolve(project(fields[0], 4), benjamin_params, config).final.coeffs, 4)
    assert np.max(np.abs(out[0, :5] - narrow)) < 1e-14 * np.max(np.abs(narrow))
    wide = fold_half(evolve(fields[1], benjamin_params, config).final.coeffs, 8)
    assert out[1].tobytes() == wide.tobytes()


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
    rec = record_invariants(result.snapshots, p)
    assert rec.rel_drift_I < 1e-12
    assert rec.rel_drift_E < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4", dt=1e-2, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-2, t_end=1.0)
    # a step past the horizon is one step of t_end, not an error
    config = IntegratorConfig(dt=2.0, t_end=1.0)
    assert (config.dt, config.n_steps) == (1.0, 1)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-2, t_end=1.0, snapshot_stride=0)
    # NaN names its field, not "nan time steps exceed the bound"
    with pytest.raises(ValueError, match="^dt must be > 0, got nan"):
        IntegratorConfig(dt=np.nan, t_end=1.0)
    with pytest.raises(ValueError, match="^t_end must be > 0, got nan"):
        IntegratorConfig(dt=1e-2, t_end=np.nan)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, 0.5 / MAX_STEPS])
def test_config_rejects_step_counts_over_the_bound(dt):
    with pytest.raises(ValueError, match="exceed the bound"):
        IntegratorConfig(dt=dt, t_end=1.0)
    IntegratorConfig(dt=1.0 / MAX_STEPS, t_end=1.0)  # at the bound


@settings(max_examples=300, deadline=None)
@given(
    method=st.sampled_from(["etdrk4", "ifrk4", "IFRK4"]),
    t_end=st.floats(1e-3, 10.0),
    ratio=st.none() | st.floats(1e-6, 10.0),
    n_modes=st.integers(1, 4096),
    domain_scale=st.floats(0.1, 100.0),
)
def test_policy_grid_is_the_one_step_rule(method, t_end, ratio, n_modes, domain_scale):
    # the target step, or default_dt at the run's bandwidth, snapped by the
    # config (one step when it is past the horizon): the rule every run's
    # grid follows
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1, domain_scale=domain_scale)
    dt = None if ratio is None else ratio * t_end
    grid = IntegratorPolicy(method, dt).grid(p, n_modes, t_end)
    assert grid == IntegratorConfig(method, dt or default_dt(p, n_modes), t_end)


def test_default_dt_scales(benjamin_params):
    assert default_dt(benjamin_params, 256) == pytest.approx(0.5 / 256)
    assert default_dt(benjamin_params, 16) == pytest.approx(5e-3)
    long_domain = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1, domain_scale=8.0)
    assert default_dt(long_domain, 256) == pytest.approx(5e-3)  # 1e-2 cap binds


def test_evolve_refuses_another_domain_scale_before_anything_is_built(monkeypatch,
                                                                       benjamin_params):
    # stepped, an L = 2 Gaussian under an L = 1 model came back labelled
    # L = 2 and 72% (relative L2) away from the matched run at t = 0.01
    def never(*args, **kwargs):
        raise AssertionError("evolve built or stepped something")

    monkeypatch.setattr(benj.timestep, "folded_nonlinear_term", never)
    monkeypatch.setattr(benj.timestep, "evolve_rows", never)
    u0 = gaussian(1.0, 0.5, 0.0, 32, 2.0)
    with pytest.raises(ShapeError,
                       match="field domain scale 2.0 does not match model domain scale 1.0"):
        evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3, 0.01))
