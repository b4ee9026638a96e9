import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import benj.initdata
import benj.spectral
import benj.timestep
from benj.errors import BandwidthError, IterationError, ParameterError, ShapeError, SpectrumError
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
from benj.snapshots import write_snapshot
from benj.spectral import (
    SpectralField,
    derivative,
    l2_norm,
    linf_norm,
    peak_position,
    project,
    sobolev_norm,
    synth_values,
    translate,
)
from benj.timestep import default_dt

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
    resid = SpectralField(drift.n_modes, drift.domain_scale, drift.coeffs - (-c) * dx.coeffs)
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


SEEDS = {"0": 0, "1": 1, "14": 14, "4001": 4001, "2^32-1": 2**32 - 1, "2^32": 2**32,
         "2^64-1": 2**64 - 1, "2^128+1": 2**128 + 1, "2^200+7": 2**200 + 7}


@pytest.mark.parametrize("n", [0, 1, 513])
@pytest.mark.parametrize("seed", SEEDS.values(), ids=SEEDS.keys())
def test_uniform_stream_is_numpys_default_rng_bit_for_bit(seed, n):
    want = np.random.default_rng(seed).random(n)
    assert np.array(benj.initdata._uniforms(seed, n), dtype=float).tobytes() == want.tobytes()


def test_uniform_stream_of_seed_zero_is_pinned():
    # benj's own stream: these bits hold whichever numpy is installed
    assert [x.hex() for x in benj.initdata._uniforms(0, 3)] == [
        "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, "3", None],
                         ids=["-1", "-2^70", "1.5", "str", "None"])
def test_random_sobolev_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # a negative int never reaches 0 under >> 32: refused before any word is split
    message = f"^seed must be a non-negative integer, got {seed!r}$"
    with pytest.raises(ParameterError, match=message):
        random_sobolev(4.0, seed, 8, 1.0)


def test_random_sobolev_takes_a_numpy_integer_seed():
    a = random_sobolev(4.0, np.int64(5), 16, 1.0)
    assert a.coeffs.tobytes() == random_sobolev(4.0, 5, 16, 1.0).coeffs.tobytes()


NO_RANDOM_RUN = """
import sys
import numpy

def random_modules():
    return {m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")}

preloaded = random_modules()  # numpy 1.x imports numpy.random with numpy itself
if preloaded:
    numpy.random = None  # so there any use of it fails instead
from benj.harness import self_convergence
from benj.initdata import InitialDataSpec, random_sobolev
from benj.model import ModelParams

random_sobolev(4.0, 14, 64, 1.0)
self_convergence(ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1),
                 InitialDataSpec(kind="random_sobolev", seed=14), [8, 16], 64, 0.01)
print(sorted(random_modules() - preloaded))
"""


def test_a_rough_datum_and_its_study_import_no_numpy_random():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_RANDOM_RUN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    assert report.final_residual <= 1e-12  # a solve that does not converge raises
    exact = kdv_soliton(c, 0.0, kdv_params, 256)
    mismatch = SpectralField(wave.n_modes, wave.domain_scale, wave.coeffs - exact.coeffs)
    assert linf_norm(mismatch) <= 1e-8


def test_petviashvili_benjamin_wave():
    params = ModelParams(m=1, r=0.5, gamma=0.5, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1.0, 1.0, 0.0, 256, 8.0)
    wave, report = petviashvili(params, 0.75, guess, tol=1e-10, max_iter=400)
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


def test_petviashvili_overflowing_symbol_is_refused_before_a_sweep(monkeypatch):
    # kappa^(2m) at m = 200 leaves the floating-point range: ``symbol_l``
    # refuses it, without a numpy warning, before the first power is formed
    import benj.initdata

    powers = []
    monkeypatch.setattr(benj.initdata, "dealiased_power",
                        lambda *args: powers.append(args))
    params = ModelParams(m=200, r=0.5, gamma=1.0, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1.0, 1.0, 0.0, 64, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="leaves the floating-point range"):
            petviashvili(params, 0.75, guess)
    assert powers == []


def test_petviashvili_nan_stabilizer_stops_at_once():
    # an amplitude of 1e200 makes f(phi) overflow, so the stabilizer's
    # numerator is inf and its denominator NaN on the first sweep
    params = ModelParams(m=1, r=0.5, gamma=0.5, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1e200, 1.0, 0.0, 64, 8.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IterationError, match="stabilizer degenerated") as info:
        petviashvili(params, 0.75, guess)
    assert len(info.value.residuals) == 1


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


def test_guess_of_another_domain_scale_is_refused(kdv_params):
    guess = gaussian(1.0, 0.3, 0.0, 64, 1.0)
    with pytest.raises(ShapeError,
                       match="guess domain scale 1.0 does not match model domain scale 8.0"):
        petviashvili(kdv_params, 0.5, guess)


def test_snapshot_of_another_domain_scale_is_refused(tmp_path, benjamin_params):
    path = tmp_path / "snap.txt"
    write_snapshot(path, gaussian(1.0, 0.5, 0.0, 16, 2.0), 0.0)
    spec = InitialDataSpec(kind="file", path=str(path))
    with pytest.raises(ShapeError,
                       match="snapshot domain scale 2.0 does not match model domain scale 1.0"):
        build_field(spec, benjamin_params, 16)


def test_file_kind_requires_a_path(benjamin_params):
    with pytest.raises(ParameterError, match="file kind requires a path"):
        build_field(InitialDataSpec(kind="file"), benjamin_params, 16)


@pytest.mark.parametrize("make, message", [
    (lambda p: gaussian(1.0, np.nan, 0.0, 8, 8.0), "width must be > 0, got nan"),
    (lambda p: kdv_soliton(np.nan, 0.0, p, 64), "speed must be > 0, got nan"),
    (lambda p: random_sobolev(np.nan, 0, 8, 8.0), "mu must be >= 0, got nan"),
], ids=["gaussian", "kdv_soliton", "random_sobolev"])
def test_nan_parameter_fails_the_range_check(kdv_params, make, message):
    # each maker returned an all-NaN field
    with pytest.raises(ParameterError, match=message):
        make(kdv_params)


class _NoNumpy:
    """Stands in for numpy: any use of it is an AssertionError."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was reached before the bandwidth check")


def _makers(kdv_params):
    u16 = gaussian(1.0, 0.5, 0.0, 16, 8.0)
    return {
        "gaussian": lambda n: gaussian(1.0, 0.5, 0.0, n, 8.0),
        "cosine": lambda n: cosine(1.0, 0.0, n, 8.0),
        "kdv_soliton": lambda n: kdv_soliton(0.5, 0.0, kdv_params, n),
        "random_sobolev": lambda n: random_sobolev(4.0, 0, n, 8.0),
        "project": lambda n: project(u16, n),
        "default_dt": lambda n: default_dt(kdv_params, n),
    }


@pytest.mark.parametrize("n_modes", [0, -4])
@pytest.mark.parametrize("maker", ["gaussian", "cosine", "kdv_soliton", "random_sobolev",
                                   "project", "default_dt"])
def test_bandwidth_below_one_is_refused_where_fields_are_made(monkeypatch, kdv_params, maker,
                                                              n_modes):
    # spectral's one size check, before any numpy call: numpy's own errors
    # were raised at N = 0, default_dt divided by zero, and project(u16, -4)
    # returned a field of bandwidth 13
    make = _makers(kdv_params)[maker]
    for module in (benj.initdata, benj.spectral, benj.timestep):
        monkeypatch.setattr(module, "np", _NoNumpy())
    with pytest.raises(BandwidthError, match=f"^n_modes must be >= 1, got {n_modes}$"):
        make(n_modes)
