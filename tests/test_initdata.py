import warnings

import numpy as np
import pytest

from benj.errors import IterationError, ParameterError, SpectrumError
from benj.initdata import (
    InitialDataSpec,
    build_field,
    cosine,
    gaussian,
    kdv_soliton,
    petviashvili,
    random_sobolev,
)
from benj.invariants import c_pi
from benj.model import ModelParams
from benj.semidiscrete import rhs
from benj.spectral import (
    derivative,
    l2_norm,
    linf_norm,
    peak_position,
    sobolev_norm,
    synth_values,
    translate,
)

from oracles import grid


def test_gaussian_zero_amplitude():
    f = gaussian(0.0, 0.5, 0.0, 16, 1.0)
    assert np.all(f.coeffs == 0)


def test_gaussian_mass_against_integral():
    # integral of a*exp(-((x-x0)/w)^2) over the line is a*w*sqrt(pi)
    a, w = 1.3, 0.4
    f = gaussian(a, w, 0.7, 64, 1.0)
    assert c_pi(f) == pytest.approx(a * w * np.sqrt(np.pi), rel=1e-8)


def test_gaussian_shift_theorem():
    base = gaussian(1.0, 0.5, 0.0, 48, 1.0)
    moved = gaussian(1.0, 0.5, 0.9, 48, 1.0)
    expected = translate(base, 0.9)
    assert np.max(np.abs(moved.coeffs - expected.coeffs)) < 1e-12


def test_gaussian_poor_decay_warns():
    with pytest.warns(UserWarning, match="tail"):
        gaussian(1.0, 3.0, 0.0, 16, 1.0)


def test_cosine_field():
    f = cosine(2.0, 0.0, 8, 1.0)
    vals = synth_values(f.coeffs, 8, 32)
    assert np.allclose(vals, 2.0 * np.cos(grid(32, 1.0)), atol=1e-14)


def test_soliton_peak_value(kdv_params):
    c = 0.5
    f = kdv_soliton(c, 0.0, kdv_params, 256)
    assert linf_norm(f) == pytest.approx(3 * c, rel=1e-6)
    assert peak_position(f) == pytest.approx(0.0, abs=1e-6)


def test_soliton_residual_against_equation(kdv_params):
    # A traveling wave satisfies du/dt = -c*u_x, so the full right-hand
    # side must reproduce -c times the derivative; this validates the
    # closed form against the discretized equation itself.
    c = 0.5
    f = kdv_soliton(c, 0.0, kdv_params, 256)
    drift = rhs(kdv_params, f)
    dx = derivative(f)
    resid = drift.with_coeffs(drift.coeffs - (-c) * dx.coeffs)
    assert l2_norm(resid) / l2_norm(dx) <= 1e-8


def test_soliton_amplitude_vanishes_with_speed(kdv_params):
    # amplitude 3c, so the field (periodization images included) -> 0
    with pytest.warns(UserWarning):
        coarse = linf_norm(kdv_soliton(1e-4, 0.0, kdv_params, 64))
        fine = linf_norm(kdv_soliton(1e-6, 0.0, kdv_params, 64))
    assert coarse < 2e-3
    assert fine / coarse == pytest.approx(1e-2, rel=0.5)


def test_soliton_requires_reduction(benjamin_params):
    with pytest.raises(ParameterError, match="gamma"):
        kdv_soliton(0.5, 0.0, benjamin_params, 64)


def test_soliton_warns_on_wide_profile(kdv_params):
    with pytest.warns(UserWarning, match="tail"):
        kdv_soliton(0.01, 0.0, kdv_params, 64)


def test_random_sobolev_deterministic():
    a = random_sobolev(4.0, 123, 128, 1.0)
    b = random_sobolev(4.0, 123, 128, 1.0)
    assert a.coeffs.tobytes() == b.coeffs.tobytes()
    c = random_sobolev(4.0, 124, 128, 1.0)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_sobolev_unit_norm_and_zero_mean():
    f = random_sobolev(4.0, 7, 256, 1.0)
    assert sobolev_norm(f, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert f.coeffs[256] == 0.0


def test_random_sobolev_regularity_cap():
    # One order above the target the norm must grow like sqrt(N).
    norms = [sobolev_norm(random_sobolev(4.0, 3, n, 1.0), 5.0) for n in (64, 128, 256)]
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    for r in ratios:
        assert r == pytest.approx(np.sqrt(2.0), rel=0.15)


def test_petviashvili_recovers_closed_form(kdv_params):
    c = 0.5
    guess = gaussian(1.0, 1.0, 0.0, 256, 8.0)
    wave, report = petviashvili(kdv_params, c, guess, tol=1e-12, max_iter=300)
    assert report.converged
    exact = kdv_soliton(c, 0.0, kdv_params, 256)
    mismatch = wave.with_coeffs(wave.coeffs - exact.coeffs)
    assert linf_norm(mismatch) <= 1e-8


def test_petviashvili_benjamin_wave():
    params = ModelParams(m=1, r=0.5, gamma=0.5, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1.0, 1.0, 0.0, 256, 8.0)
    wave, report = petviashvili(params, 0.75, guess, tol=1e-10, max_iter=400)
    assert report.converged
    assert report.final_residual <= 1e-10
    # stabilizer factors settle to 1, the fixed-point signature; monotone
    # in |s-1| until the sequence reaches the rounding floor
    assert abs(report.stabilizers[-1] - 1.0) < 1e-8
    gaps = [abs(s - 1.0) for s in report.stabilizers if abs(s - 1.0) > 1e-13]
    assert all(b <= a for a, b in zip(gaps[-5:], gaps[-4:]))


def test_petviashvili_spectrum_error():
    params = ModelParams(m=1, r=0.5, gamma=3.0, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1.0, 1.0, 0.0, 64, 8.0)
    with pytest.raises(SpectrumError) as info:
        petviashvili(params, 0.1, guess)
    assert info.value.mode is not None


def test_petviashvili_iteration_budget(kdv_params):
    guess = gaussian(1.0, 1.0, 0.0, 128, 8.0)
    with pytest.raises(IterationError) as info:
        petviashvili(kdv_params, 0.5, guess, tol=1e-13, max_iter=2)
    assert len(info.value.residuals) == 2


@pytest.mark.parametrize("max_iter", [0, -1])
def test_petviashvili_rejects_empty_budget(kdv_params, max_iter):
    guess = gaussian(1.0, 1.0, 0.0, 64, 8.0)
    with pytest.raises(ParameterError, match="max_iter"):
        petviashvili(kdv_params, 0.5, guess, max_iter=max_iter)


def test_petviashvili_overflowing_stabilizer(kdv_params):
    guess = gaussian(1.0, 1.0, 0.0, 64, 8.0)
    with np.errstate(over="ignore"), pytest.raises(IterationError, match="overflows"):
        petviashvili(kdv_params, 1e300, guess)


def test_gaussian_vanishing_width_has_no_tail():
    # (L*pi/w)**2 overflows a Python float here; the tail is exactly 0
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error", UserWarning)
        f = gaussian(1.0, 1e-300, 0.0, 16, 1.0)
    assert np.all(np.isfinite(f.coeffs))


def test_petviashvili_zero_guess(kdv_params):
    zero = gaussian(0.0, 1.0, 0.0, 64, 8.0)
    with pytest.raises(ParameterError, match="nonzero"):
        petviashvili(kdv_params, 0.5, zero)


def test_build_field_dispatch(kdv_params):
    spec = InitialDataSpec(kind="kdv_soliton", speed=0.5, center=0.0)
    f = build_field(spec, kdv_params, 128)
    assert linf_norm(f) == pytest.approx(1.5, rel=1e-6)
    spec2 = InitialDataSpec(kind="random_sobolev", regularity=3.0, seed=5)
    g = build_field(spec2, kdv_params, 64)
    assert sobolev_norm(g, 3.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        InitialDataSpec(kind="nope")
