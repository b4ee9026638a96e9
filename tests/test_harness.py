
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import benj.harness
import benj.spectral
import benj.timestep
from benj.errors import BandwidthError, ShapeError
from benj.harness import (
    IntegratorPolicy,
    _interpolate,
    _line_fit,
    estimate_rate,
    intermediate_problem_study,
    self_convergence,
    soliton_propagation_test,
)
from benj.initdata import InitialDataSpec, build_field, kdv_soliton, random_sobolev
from benj.model import ModelParams
from benj.snapshots import write_snapshot
from benj.spectral import SpectralField, fold_half, l2_norm, linf_norm, project, unfold_half
from benj.timestep import IntegratorConfig, default_dt, evolve, evolve_rows

from oracles import embed, intermediate_study_full_store

GAUSS = InitialDataSpec(kind="gaussian", amplitude=1.0, width=0.5, center=0.0)
ROUGH = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=0)

# -------------------------------------------------------------- rate fitting

def test_rate_exact_slope():
    rate, r2 = estimate_rate([16, 32], [1.0, 1.0 / 8.0])
    assert rate == pytest.approx(3.0, abs=1e-12)
    assert r2 == 1.0

def test_rate_constant_errors():
    rate, r2 = estimate_rate([8, 16, 32], [0.25, 0.25, 0.25])
    assert rate == pytest.approx(0.0, abs=1e-14)
    assert r2 == 1.0

def test_rate_synthetic_power_law():
    n = np.array([8, 16, 32, 64, 128])
    rate, r2 = estimate_rate(n, 3.7 * n ** (-2.5))
    assert rate == pytest.approx(2.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

def test_rate_invariant_under_error_rescaling():
    n = [8, 16, 32, 64]
    e = [0.3, 0.07, 0.011, 0.004]
    r1, _ = estimate_rate(n, e)
    r2_, _ = estimate_rate(n, [40.0 * x for x in e])
    assert r1 == pytest.approx(r2_, abs=1e-13)

def test_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_rate([16], [0.1])
    with pytest.raises(ValueError):
        estimate_rate([16, 32], [0.1, 0.0])
    with pytest.raises(ValueError):
        estimate_rate([16, 32], [0.1, -0.2])

def _polyfit_rate(n_values, errors):
    """The rate and r2 of a degree-1 np.polyfit, the reference fit."""
    x, y = np.log(np.asarray(n_values, dtype=float)), np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum((y - slope * x - intercept) ** 2)) / ss_tot
    return -float(slope), r2

# the plateau of a Gaussian study whose errors are the time-step floor
# (n_values 16, 32, 64 at t_end = 0.1): a slope of about 2e-6
PLATEAU = ([16, 32, 64], [5.7035409282558337e-05, 5.7035263761661233e-05,
                          5.7035263761662859e-05])

def test_rate_matches_polyfit():
    rng = np.random.default_rng(20)
    cases = [PLATEAU]
    for _ in range(20):
        size = int(rng.integers(2, 7))
        n_values = np.sort(rng.choice(np.arange(2, 4097), size, replace=False))
        errors = np.exp(rng.uniform(-30.0, 0.0)) * n_values ** -rng.uniform(0.0, 8.0) \
            * np.exp(rng.normal(0.0, 0.3, size))
        cases.append((n_values.tolist(), errors.tolist()))
    for n_values, errors in cases:
        rate, r2 = estimate_rate(n_values, errors)
        ref_rate, ref_r2 = _polyfit_rate(n_values, errors)
        assert abs(rate - ref_rate) <= 1e-12
        assert abs(r2 - ref_r2) <= 1e-12

def test_flat_fit_reads_positive_zero():
    rate, r2 = estimate_rate([8, 16], [0.5, 0.5])
    assert (rate, math.copysign(1.0, rate), r2) == (0.0, 1.0, 1.0)

def test_equal_errors_fit_exactly():
    # np.mean of equal values need not be one of them: fitted after
    # centring, this triple read a rate of 1.03e-31 and r2 = 0
    assert estimate_rate([16, 32, 64], [0.1652763562687633] * 3) == (0.0, 1.0)
    rng = np.random.default_rng(0)
    for size in (3, 4):
        for error in rng.uniform(1e-9, 10.0, 2000):
            rate, r2 = estimate_rate([16, 32, 64, 128][:size], [error] * size)
            assert (rate, math.copysign(1.0, rate), r2) == (0.0, 1.0, 1.0), error

@pytest.mark.parametrize("n_values, message", [
    ([16, 16], "must be distinct"),
    ([8, 16, 16], "must be distinct"),
    ([0, 16], "must be positive and finite"),
    ([-1, 16], "must be positive and finite"),
    ([np.inf, 16], "must be positive and finite"),
    ([np.nan, 16], "must be positive and finite"),
], ids=["repeated", "repeated-of-three", "zero", "negative", "inf", "nan"])
def test_rate_refuses_bad_bandwidths(n_values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"bandwidths N {message} to fit a rate"):
            estimate_rate(n_values, [0.1, 0.01, 0.001][: len(n_values)])

def test_line_fit_refuses_x_without_spread():
    with pytest.raises(ValueError, match="x must have spread"):
        _line_fit([0.25, 0.25, 0.25], [1.0, 2.0, 3.0])

def test_studies_and_soliton_fit_without_linear_algebra(monkeypatch, benjamin_params,
                                                        kdv_params):
    def never(*args, **kwargs):
        raise AssertionError("a fit called into numpy's linear algebra")

    monkeypatch.setattr(np, "polyfit", never)
    monkeypatch.setattr(np.linalg, "lstsq", never)
    policy = IntegratorPolicy(dt=2e-3)
    for study in (self_convergence, intermediate_problem_study):
        report = study(benjamin_params, GAUSS, [4, 8], 32, 0.01, policy)
        assert np.isfinite(report.fitted_rate) and np.isfinite(report.fit_r2)
    report = soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), 0.02, policy)
    assert report.speed_estimate == pytest.approx(0.5, abs=1e-2)

# ---------------------------------------------------------- self-convergence

def test_self_convergence_zero_data(benjamin_params):
    spec = InitialDataSpec(kind="gaussian", amplitude=0.0)
    report = self_convergence(
        benjamin_params, spec, [8, 16], 64, 0.05,
        IntegratorPolicy(dt=5e-3),
    )
    assert report.fitted_rate is None
    assert all(e == 0.0 for e in report.errors)

def test_self_convergence_requires_fine_reference(benjamin_params):
    with pytest.raises(ValueError, match="reference bandwidth"):
        self_convergence(benjamin_params, GAUSS, [8, 16], 32, 0.1)

def test_self_convergence_analytic_data_superalgebraic(benjamin_params):
    # window chosen above the temporal-error floor: the local rate climbs
    # with N, the superalgebraic signature of analytic data
    report = self_convergence(
        benjamin_params, GAUSS, [4, 8, 16], 64, 0.1,
        IntegratorPolicy(method="ifrk4", dt=5e-4),
    )
    e = report.errors
    assert all(b < 1.05 * a for a, b in zip(e, e[1:]))  # monotone, 5% slack
    low, _ = estimate_rate(report.n_values[:2], e[:2])
    high, _ = estimate_rate(report.n_values[-2:], e[-2:])
    assert high > low
    assert report.fitted_rate is not None
    assert report.fit_r2 is not None

# ------------------------------------------------------------ member failures

def _diverge_at(monkeypatch, study, row):
    """Make the stacked members' row ``row`` blow up: its flux gains a huge
    linear growth term, which the real per-row check catches at the first
    step.  The term vanishes on the zeroed row; the other rows see the
    real flux.  The linearized study's w-run flux comes from the
    ``frozen_nonlinear_term`` factory, the other study's through
    ``evolve_rows``."""
    def with_a_bad_row(nonlinear):
        def blow_up(c, t):
            flux = nonlinear(c, t)
            flux[row] += 1e6 * c[row]
            return flux

        return blow_up

    if study is intermediate_problem_study:
        factory = benj.harness.frozen_nonlinear_term
        monkeypatch.setattr(benj.harness, "frozen_nonlinear_term",
                            lambda *args: with_a_bad_row(factory(*args)))
        return
    real = benj.harness.evolve_rows

    def evolve_rows_with_a_bad_row(rows, params, config, nonlinear, observer=None):
        return real(rows, params, config, with_a_bad_row(nonlinear), observer)

    monkeypatch.setattr(benj.harness, "evolve_rows", evolve_rows_with_a_bad_row)


# rough data: on one grid the Gaussian's N = 32 error is rounding, which fits no rate
@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_diverged_member_reported_and_skipped(benjamin_params, monkeypatch, study):
    args = (benjamin_params, ROUGH, [8, 16, 32], 128, 0.05, IntegratorPolicy(dt=2e-3))
    clean = study(*args)
    _diverge_at(monkeypatch, study, 1)  # the member at N = 16
    report = study(*args)
    assert np.isnan(report.errors[1])
    assert list(report.failures) == [16]
    assert report.failures[16].startswith("diverged:")
    kept = [0, 2]
    assert [repr(report.errors[i]) for i in kept] == [repr(clean.errors[i]) for i in kept]
    rate, r2 = estimate_rate([8, 32], [clean.errors[i] for i in kept])
    assert (report.fitted_rate, report.fit_r2) == (rate, r2)
    if study is intermediate_problem_study:
        assert np.isnan(report.w_linf_max[1])
        assert [repr(report.w_linf_max[i]) for i in kept] == [
            repr(clean.w_linf_max[i]) for i in kept
        ]
    else:
        assert report.w_linf_max is None

# ------------------------------------------------------------ stacked members

@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
@pytest.mark.parametrize("spec", [GAUSS, ROUGH], ids=["gaussian", "rough"])
def test_stacked_members_match_runs_alone(benjamin_params, study, spec):
    # A study steps its members as one stack posed at the finest bandwidth;
    # a study of one member runs it alone at its own bandwidth against the
    # same reference.  The Galerkin systems agree, so only rounding may
    # differ: the bound is 17x the largest relative change (5.8e-10) seen
    # when the stacked rows were emulated one at a time before the stack
    # existed, or the study's rounding floor, as an error that has reached
    # rounding (the Gaussian's self-convergence errors) differs in its
    # leading digits.  The finest row, which no mask touches, matches bit
    # for bit.
    n_values, rest = [8, 16, 32, 64], (256, 0.05, IntegratorPolicy(dt=2e-3))
    rounding = benj.harness._ROUNDING * l2_norm(build_field(spec, benjamin_params, 256))
    stacked = study(benjamin_params, spec, n_values, *rest)
    again = study(benjamin_params, spec, n_values, *rest)
    assert {k: repr(v) for k, v in vars(stacked).items()} == {
        k: repr(v) for k, v in vars(again).items()
    }
    assert not stacked.failures
    for i, n in enumerate(n_values):
        alone = study(benjamin_params, spec, [n], *rest)
        pairs = [(alone.errors[0], stacked.errors[i])]
        if study is intermediate_problem_study:
            pairs.append((alone.w_linf_max[0], stacked.w_linf_max[i]))
        for a, b in pairs:
            assert b == pytest.approx(a, rel=1e-8, abs=rounding)
            if n == n_values[-1]:
                assert repr(a) == repr(b)


# ------------------------------------------------------- intermediate problem

def test_linear_flow_oracle_rate():
    # With the advection term removed entirely, the truncated flow is the
    # projection of the full flow, so the error is the (time-invariant)
    # spectral tail of the datum: rate mu + 1/2 for the rough generator.
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    mu, n_ref, t = 4.0, 256, 0.05
    u0 = random_sobolev(mu, 0, n_ref, 1.0)

    def linear_flow(u):
        row = fold_half(u.coeffs, u.n_modes)[None]
        final = evolve_rows(row, params, IntegratorConfig("etdrk4", 1e-3, t, 1000),
                            lambda c, t: np.zeros_like(c)).final
        return SpectralField(u.n_modes, u.domain_scale, unfold_half(final[0]))

    ref = linear_flow(u0)
    errors = []
    for n in (16, 32, 64):
        diff = ref.coeffs - embed(linear_flow(project(u0, n)), n_ref).coeffs
        errors.append(l2_norm(SpectralField(ref.n_modes, ref.domain_scale, diff)))
    rate, r2 = estimate_rate([16, 32, 64], errors)
    assert mu + 0.2 <= rate <= mu + 0.8
    assert r2 > 0.99

def test_intermediate_study_quadratic_degree():
    # q = 2 freezes the reference at bandwidth 3N; exercises the wider
    # product padding in the advection-frozen term.
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=2)
    spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=1)
    report = intermediate_problem_study(
        params, spec, [8, 16, 32], 128, 0.05, IntegratorPolicy(dt=2e-3)
    )
    assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
    assert report.fitted_rate > 2.5


def test_intermediate_study_smoke(benjamin_params):
    report = intermediate_problem_study(
        benjamin_params, ROUGH, [8, 16, 32], 128, 0.1,
        IntegratorPolicy(dt=2e-3),
    )
    assert len(report.errors) == 3
    assert all(np.isfinite(report.errors))
    assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
    assert report.w_linf_max is not None
    spread = max(report.w_linf_max) / min(report.w_linf_max)
    assert spread < 1.5
    assert report.fitted_rate is not None and report.fitted_rate > 1.5


def test_intermediate_study_sup_norm_includes_t_0(benjamin_params):
    # a narrow Gaussian disperses, so each w-run's sup norm is largest at
    # t = 0: the reported maximum is that of the projected datum
    spec = InitialDataSpec(kind="gaussian", amplitude=0.1, width=0.1)
    report = intermediate_problem_study(benjamin_params, spec, [16, 32], 128, 0.02,
                                        IntegratorPolicy(dt=2e-3))
    u0 = build_field(spec, benjamin_params, 128)
    assert report.w_linf_max == [linf_norm(u0.with_half(u0.half[: n + 1])) for n in (16, 32)]


@pytest.mark.parametrize("shift, error", [(-1, RuntimeError), (1, IndexError)],
                         ids=["fewer", "more"])
def test_intermediate_study_refuses_an_unplanned_step_count(
        monkeypatch, benjamin_params, shift, error):
    # the reference store has one row per planned step: a reference run
    # one step short or long must fail, never leave or overrun rows
    real = benj.harness.evolve

    def shifted(u0, params, config, observer=None, **kwargs):
        if observer is not None:
            config = IntegratorConfig(config.method, config.dt,
                                      config.t_end + shift * config.dt, 1)
        return real(u0, params, config, observer=observer, **kwargs)

    monkeypatch.setattr(benj.harness, "evolve", shifted)
    with pytest.raises(error):
        intermediate_problem_study(benjamin_params, ROUGH, [4, 8], 32, 0.01,
                                   IntegratorPolicy(dt=2e-3))


def test_intermediate_study_reference_reaches_the_frozen_bandwidth(monkeypatch):
    # q = 4 stores the reference at bandwidth (1+q)N = 5N, above the 4N
    # that every study asks for: N_ref = 4N is refused, naming the bound,
    # before the datum is built, and N_ref = 5N runs
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=4)
    policy = IntegratorPolicy(dt=2e-3)
    real = benj.harness.build_field

    def never(*args, **kwargs):
        raise AssertionError("the study built the datum")

    monkeypatch.setattr(benj.harness, "build_field", never)
    with pytest.raises(ValueError, match=r"at least 5x the finest .* 8, i\.e\. >= 40"):
        intermediate_problem_study(params, GAUSS, [4, 8], 32, 0.01, policy)
    monkeypatch.setattr(benj.harness, "build_field", real)
    report = intermediate_problem_study(params, GAUSS, [4, 8], 40, 0.01, policy)
    assert all(np.isfinite(report.errors)) and not report.failures


@pytest.mark.parametrize("dt", [None, 3e-3], ids=["derived", "snapped"])
@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_reference_steps_the_planners_reference(monkeypatch, benjamin_params, study, dt):
    # self_convergence steps its reference on the planner's grid, the
    # members'; the linearized study at a quarter of that step, four times
    # as often
    policy, ref_factor = IntegratorPolicy(dt=dt), max(4, 1 + benjamin_params.q)
    n_values, grid = benj.harness._prepare_study(benjamin_params, [8, 4], 32, 0.01, policy,
                                                 ref_factor)
    assert n_values == [4, 8]
    assert grid == policy.grid(benjamin_params, 8, 0.01)
    quarter = 4 if study is intermediate_problem_study else 1
    reference = (grid.dt / quarter, quarter * grid.n_steps)
    stepped, real = [], benj.harness.evolve

    def recording(u0, params, config, **kwargs):
        stepped.append((u0.n_modes, config.dt, config.n_steps))
        return real(u0, params, config, **kwargs)

    monkeypatch.setattr(benj.harness, "evolve", recording)
    study(benjamin_params, GAUSS, [4, 8], 32, 0.01, policy)
    assert stepped == [(32, *reference)]


@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_bandwidth_below_one_is_refused_before_any_run(monkeypatch, benjamin_params, study):
    def never(*args, **kwargs):
        raise AssertionError("the study built or ran something")

    monkeypatch.setattr(benj.harness, "build_field", never)
    monkeypatch.setattr(benj.harness, "evolve", never)
    for n_values in ([0, 8], [-4, 8], []):
        with pytest.raises(ValueError, match="n_values"):
            study(benjamin_params, GAUSS, n_values, 32, 0.01, IntegratorPolicy(dt=2e-3))


@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_unknown_method_is_refused_before_the_datum(monkeypatch, benjamin_params, study):
    def never(*args, **kwargs):
        raise AssertionError("the study built the datum")

    monkeypatch.setattr(benj.harness, "build_field", never)
    with pytest.raises(ValueError, match="method must be one of"):
        study(benjamin_params, GAUSS, [4, 8], 32, 0.01, IntegratorPolicy(method="bogus"))
    assert IntegratorPolicy("IFRK4").grid(benjamin_params, 8, 0.01).method == "ifrk4"


@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_study_step_over_the_bound_is_a_value_error(monkeypatch, benjamin_params, study):
    def never(*args, **kwargs):
        raise AssertionError("the study built the datum")

    monkeypatch.setattr(benj.harness, "build_field", never)
    # t*/dt is inf at 5e-324; it must not reach math.ceil.  At 4e-7 the
    # members' 1,250,000 steps are over the bound.  At 1e-6 their 500,000
    # steps are within it, and the linearized study's 2,000,000 at a
    # quarter of the step are not
    cases = [(5e-324, 0.01), (4e-7, 0.5)]
    if study is intermediate_problem_study:
        cases.append((1e-6, 0.5))
    for dt, t_star in cases:
        with pytest.raises(ValueError, match="exceed the bound"):
            study(benjamin_params, GAUSS, [4, 8], 32, t_star, IntegratorPolicy(dt=dt))


@pytest.mark.parametrize("dt", [-1.0, 0.0, np.nan])
@pytest.mark.parametrize("study", [self_convergence, intermediate_problem_study])
def test_study_step_not_positive_is_a_value_error(benjamin_params, study, dt):
    # not one step of t*, and not a ZeroDivisionError
    with pytest.raises(ValueError, match="dt must be > 0"):
        study(benjamin_params, GAUSS, [4, 8], 32, 0.01, IntegratorPolicy(dt=dt))


def test_projection_runs_once_per_outside_input(monkeypatch, benjamin_params):
    # a run builds its fields in the stored layout: the Hermitian projection
    # runs for the initial datum, not once per step or per observed state
    real, calls = benj.spectral.hermitian_part, []
    monkeypatch.setattr(benj.spectral, "hermitian_part", lambda c: calls.append(1) or real(c))
    u0 = random_sobolev(4.0, 0, 16, 1.0)
    runs = [
        lambda t: intermediate_problem_study(benjamin_params, GAUSS, [8, 16], 64, t,
                                             IntegratorPolicy(dt=1e-3)),
        lambda t: evolve(u0, benjamin_params, IntegratorConfig("etdrk4", 1e-3, t, 1),
                         observer=lambda t, f: None),
    ]
    for run in runs:
        counts = []
        for t_star in (0.01, 0.02):
            calls.clear()
            run(t_star)
            counts.append(len(calls))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("kind, projections", [
    ("gaussian", 0), ("cosine", 0), ("random_sobolev", 0), ("kdv_soliton", 0),
    ("petviashvili_wave", 0), ("file", 0),
])
def test_generators_project_only_outside_input(monkeypatch, tmp_path, kind, projections):
    # every generator fills the stored half, the solitary-wave iteration
    # included; a snapshot file benj wrote is read as it stands (a body it
    # never writes is projected once, see test_snapshots)
    gamma = 0.0 if kind == "kdv_soliton" else 0.5
    params = ModelParams(m=1, r=0.5, gamma=gamma, delta=1.0, q=1, domain_scale=8.0)
    path = tmp_path / "u0.txt"
    write_snapshot(path, random_sobolev(4.0, 3, 64, 8.0), 0.0)
    real, calls = benj.spectral.hermitian_part, []
    monkeypatch.setattr(benj.spectral, "hermitian_part", lambda c: calls.append(1) or real(c))
    build_field(InitialDataSpec(kind=kind, center=0.3, path=str(path)), params, 32)
    assert len(calls) == projections


def _lagrange_at_numpy_nodes(states, dt, t):
    """The interpolation weights computed over numpy nodes, as before."""
    pos = t / dt
    start = min(max(int(np.floor(pos + 1e-9)) - 1, 0), len(states) - 4)
    xi = pos - start
    nodes = np.arange(4.0)
    weights = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                weights[a] *= (xi - nodes[b]) / (nodes[a] - nodes[b])
    return np.tensordot(weights, states[start : start + 4], axes=1)


def _window_after(states, j):
    """The study's window of the trajectory ``states`` once states 0..j
    have arrived: state i at rows i % 4 and i % 4 + 4."""
    window = np.full((8, states.shape[1]), np.nan, dtype=states.dtype)
    for i in range(j + 1):
        window[i % 4] = window[i % 4 + 4] = states[i]
    return window


def test_trajectory_interpolation_bit_identical_to_numpy_weights():
    rng = np.random.default_rng(14)
    count, dt = 12, 2.5e-4
    last = count - 1
    states = rng.standard_normal((count, 9)) + 1j * rng.standard_normal((count, 9))
    # stage midpoints, as the linearized runs query them, plus arbitrary times
    times = [(i + 0.5) * dt for i in range(count - 1)]
    times += list(rng.uniform(0.0, (count - 1) * dt, 40))
    for t in times:
        expected = _lagrange_at_numpy_nodes(states, dt, t)
        # the window whose newest state closes t's stencil
        newest = min(max(math.floor(t / dt) + 2, 3), last)
        window = _window_after(states, newest)
        assert _interpolate(window, dt, t, last).tobytes() == expected.tobytes()
    for i in range(count):  # a step time gives its state from any window that holds it
        for j in range(i, min(i + 3, last) + 1):
            window = _window_after(states, j)
            assert _interpolate(window, dt, i * dt, last).tobytes() == states[i].tobytes()

@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_w_run_synthesises_each_frozen_state_once(monkeypatch, benjamin_params, method):
    # Per step the stacked w-run asks for u at t, t + dt/2 twice and at the
    # step's end, which is the next step's t: 2 syntheses of u^q (one
    # batched transform for the whole stack) per step plus the first, and
    # one interpolation per distinct time, for one member as for three.
    # The w-run runs inside the reference's observer, so its flux calls,
    # seen through the frozen-term factory, mark the w-run's transforms;
    # either method calls the flux 4 times a step.
    irfft, interpolate = np.fft.irfft, _interpolate
    factory = benj.harness.frozen_nonlinear_term
    for n_values, n_ref in (([8], 32), ([4, 8, 16], 64)):
        n_keep = 2 * max(n_values)  # q = 1 freezes u at bandwidth 2N
        counts = {"syntheses": 0, "interpolations": 0, "midpoints": 0, "flux_calls": 0,
                  "w_run": False}

        def counting_irfft(a, *args, **kwargs):
            if counts["w_run"] and np.shape(a)[-1] == n_keep + 1:
                counts["syntheses"] += 1
            return irfft(a, *args, **kwargs)

        def counting_interpolate(window, dt, t, last):
            counts["interpolations"] += 1
            pos = t / dt
            if abs(pos - round(pos)) > 1e-8:
                counts["midpoints"] += 1
            return interpolate(window, dt, t, last)

        def counting_factory(*args):
            term = factory(*args)

            def counted(w, t):
                counts["w_run"] = True
                counts["flux_calls"] += 1
                try:
                    return term(w, t)
                finally:
                    counts["w_run"] = False

            return counted

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        monkeypatch.setattr(benj.harness, "_interpolate", counting_interpolate)
        monkeypatch.setattr(benj.harness, "frozen_nonlinear_term", counting_factory)
        report = intermediate_problem_study(benjamin_params, ROUGH, n_values, n_ref, 0.02,
                                            IntegratorPolicy(method=method, dt=2e-3))
        assert len(report.errors) == len(n_values) and not report.failures
        assert counts["flux_calls"] % 4 == 0
        steps = counts["flux_calls"] // 4
        assert steps == 40
        assert counts["syntheses"] == counts["interpolations"] == 2 * steps + 1
        assert counts["midpoints"] == steps

@pytest.mark.parametrize("method, q", [("etdrk4", 1), ("ifrk4", 1), ("etdrk4", 2)],
                         ids=["etdrk4", "ifrk4", "q2"])
def test_lockstep_study_matches_the_full_store(method, q):
    # the reference and the w-run in lockstep, with a 4-state window, give
    # the report of the study that stores the whole reference first, every
    # field by repr
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=1)
    args = (params, spec, [8, 16, 32], 128, 0.05, IntegratorPolicy(method, 2e-3))
    lockstep, full_store = intermediate_problem_study(*args), intermediate_study_full_store(*args)
    assert {k: repr(v) for k, v in vars(lockstep).items()} == {
        k: repr(v) for k, v in vars(full_store).items()
    }
    assert not lockstep.failures


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
def test_intermediate_study_memory_does_not_grow_with_the_horizon(benjamin_params, method):
    # The study keeps 4 reference states, not the trajectory.  Measured
    # tracemalloc peaks from t* = 0.02 to 4t* = 0.08 (40 to 160 reference
    # steps): -112 and +176 B here, against +124,736 B (1,040 B a step)
    # when the whole trajectory was stored first.
    def peak(t_star):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            intermediate_problem_study(benjamin_params, ROUGH, [8, 16, 32], 128, t_star,
                                       IntegratorPolicy(method, 2e-3))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    peak(0.02)  # first-call allocations (plans, caches) out of the way
    short, long = peak(0.02), peak(0.08)
    assert long - short < 4096, (short, long)


def test_linearized_report_matches_fresh_frozen_closure(monkeypatch):
    # Criterion 6's configuration over the linearized benchmark's horizon:
    # the frozen term's cached u^q against a fresh closure, and so a fresh
    # interpolation and synthesis, at every call, every field by repr.
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=0)
    args = (params, spec, [32, 64, 128, 256], 1024, 0.1, IntegratorPolicy(method="ifrk4", dt=4e-4))
    cached = intermediate_problem_study(*args)

    factory = benj.harness.frozen_nonlinear_term

    def fresh_per_call(params, n_w, n_u, frozen):  # per-row bandwidths
        return lambda w, t: factory(params, n_w, n_u, frozen)(w, t)

    monkeypatch.setattr(benj.harness, "frozen_nonlinear_term", fresh_per_call)
    fresh = intermediate_problem_study(*args)
    assert {k: repr(v) for k, v in vars(cached).items()} == {
        k: repr(v) for k, v in vars(fresh).items()
    }
    assert not cached.failures

# ----------------------------------------------------------------- solitons

def kdv_wave(params, n_modes):
    """The closed-form solitary wave of speed 0.5, centred at 0."""
    return kdv_soliton(0.5, 0.0, params, n_modes)

def test_soliton_zero_horizon(kdv_params):
    # a wave that is not propagated has no speed to measure
    for t_star in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="t_end must be > 0"):
            soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), t_star)

@pytest.mark.parametrize("dt", [None, 5e-3], ids=["unset", "set"])
@pytest.mark.parametrize("n_modes", [0, -4])
def test_soliton_bandwidth_below_one_is_refused_before_any_run(monkeypatch, kdv_params,
                                                                n_modes, dt):
    # the wave's maker owns the rule N >= 1: no such wave is built, so none is stepped
    def never(*args, **kwargs):
        raise AssertionError("the soliton test ran something")

    monkeypatch.setattr(benj.harness, "evolve", never)
    with pytest.raises(BandwidthError, match=f"n_modes must be >= 1, got {n_modes}"):
        soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, n_modes), 0.01,
                                 IntegratorPolicy(dt=dt))

@pytest.mark.parametrize("dt", [None, 5e-3], ids=["unset", "set"])
def test_soliton_profile_of_another_bandwidth_is_refused_before_any_run(kdv_params, dt):
    # the run steps the grid planned at the profile's own bandwidth, the one
    # place a bandwidth is read from; on an L = 1 domain (a narrow wave, delta
    # = 1e-3) an unset step is 5e-3 at N = 4 and 64 but 1/512 at N = 256
    params, t_star = replace(kdv_params, domain_scale=1.0, delta=1e-3), 0.01
    policy = IntegratorPolicy(dt=dt)
    n_steps = set()
    for n_modes in (4, 64, 256):
        report = soliton_propagation_test(0.5, params, kdv_wave(params, n_modes), t_star, policy)
        grid = policy.grid(params, n_modes, t_star)
        assert report.times.tolist() == [s * grid.dt for s in range(grid.n_steps)] + [t_star]
        n_steps.add(grid.n_steps)
    assert n_steps == ({2, 6} if dt is None else {2})

def test_soliton_profile_of_another_domain_scale_is_refused_before_any_run(monkeypatch,
                                                                           kdv_params):
    # stepped, an L = 8 wave under an L = 16 model read a speed of 0.62 for c = 0.5
    profile = kdv_soliton(0.5, 0.0, kdv_params, 64)

    def never(*args, **kwargs):
        raise AssertionError("the soliton test stepped something")

    monkeypatch.setattr(benj.timestep, "evolve_rows", never)
    with pytest.raises(ShapeError,
                       match="profile domain scale 8.0 does not match model domain scale 16.0"):
        soliton_propagation_test(0.5, replace(kdv_params, domain_scale=16.0), profile, 0.5)

def test_soliton_short_propagation(kdv_params):
    report = soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 128), 1.0,
                                      IntegratorPolicy(dt=5e-3))
    assert report.speed_estimate == pytest.approx(0.5, abs=1e-3)
    assert report.shape_error_linf < 1e-4
    assert report.drifts.rel_drift_I < 1e-10

@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_soliton_step_over_the_bound_is_a_value_error(kdv_params, dt):
    with pytest.raises(ValueError, match="exceed the bound"):
        soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), 1.0,
                                 IntegratorPolicy(dt=dt))

@pytest.mark.parametrize("dt", [-1.0, 0.0, np.nan])
def test_soliton_step_not_positive_is_a_value_error(kdv_params, dt):
    with pytest.raises(ValueError, match="dt must be > 0"):
        soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), 1.0,
                                 IntegratorPolicy(dt=dt))

def test_non_soliton_contrast(kdv_params):
    # Doubling the amplitude breaks the traveling-wave balance: the shape
    # error must be far larger than the true soliton's.
    wave = kdv_wave(kdv_params, 128)
    clean = soliton_propagation_test(0.5, kdv_params, wave, 1.0, IntegratorPolicy(dt=5e-3))
    fat = SpectralField(wave.n_modes, wave.domain_scale, 2.0 * wave.coeffs)
    messy = soliton_propagation_test(0.5, kdv_params, fat, 1.0, IntegratorPolicy(dt=5e-3))
    assert messy.shape_error_linf > 1e3 * clean.shape_error_linf

def test_soliton_default_policy_steps_default_dt_to_the_horizon(kdv_params):
    # default_dt at N = 64 is 5e-3, which leaves a short step over 0.012:
    # the run takes 3 equal steps of 0.004 instead
    t_star = 0.012
    report = soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), t_star,
                                      IntegratorPolicy())
    n = math.ceil(t_star / default_dt(kdv_params, 64))
    assert n == 3
    assert report.times.tolist() == [s * (t_star / n) for s in range(n)] + [t_star]

def test_soliton_target_past_the_horizon_is_one_step(kdv_params):
    report = soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), 0.01,
                                      IntegratorPolicy(dt=1.0))
    assert report.times.tolist() == [0.0, 0.01]

def test_soliton_policy_method_is_the_run_method(kdv_params):
    etd, ifrk = (soliton_propagation_test(0.5, kdv_params, kdv_wave(kdv_params, 64), 0.05,
                                          IntegratorPolicy(method, 5e-3))
                 for method in ("etdrk4", "ifrk4"))
    assert ifrk.times.tolist() == etd.times.tolist()
    assert ifrk.shape_error_linf != etd.shape_error_linf
