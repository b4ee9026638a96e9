import numpy as np
import pytest
from hypothesis import given, strategies as st

from benj.errors import BandwidthError
from benj.spectral import (
    SpectralField,
    analyze_coeffs,
    dealiased_power,
    derivative,
    embed,
    fold_half,
    l2_norm,
    linf_norm,
    next_fast_len,
    peak_position,
    project,
    sobolev_norm,
    synth_values,
    translate,
    unfold_half,
)

from oracles import grid, periodic_trapezoid, power_coeffs_direct, rand_field, sample_field


def mode_field(n_modes, entries, domain_scale=1.0):
    """Field with prescribed coefficients, e.g. {1: 0.5, -1: 0.5} for cos x."""
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    for k, v in entries.items():
        c[k + n_modes] = v
    return SpectralField(n_modes, domain_scale, c)


# ------------------------ transforms: synth_values (physical), analyze_coeffs (spectral)


def test_to_physical_constant():
    f = mode_field(4, {0: 2.0})
    assert np.allclose(synth_values(f.coeffs, 4, 16), 2.0)


def test_to_physical_cosine_on_four_points():
    f = mode_field(1, {1: 0.5, -1: 0.5})
    # x = (-pi, -pi/2, 0, pi/2)
    assert np.allclose(synth_values(f.coeffs, 1, 4), [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_round_trip_exact():
    f = rand_field(17, seed=3)
    back = analyze_coeffs(synth_values(f.coeffs, 17, 2 * 17 + 1), 17)
    assert np.max(np.abs(back - f.coeffs)) < 1e-14


def test_to_physical_matches_direct_series():
    f = rand_field(9, seed=11, domain_scale=2.5)
    assert np.allclose(synth_values(f.coeffs, 9, 41), sample_field(f, 41), atol=1e-12)


def test_half_layout_round_trip_and_grid_phase():
    u = rand_field(9, seed=13)
    half = fold_half(u.coeffs, 9)
    assert half.shape == (10,)
    assert np.array_equal(unfold_half(half), u.coeffs)
    # the folded layout is what irfft takes for the grid starting at -L*pi
    m = 24
    assert np.allclose(np.fft.irfft(half, n=m) * m, sample_field(u, m), atol=1e-13)
    # folding a wider vector truncates it: fold_half commutes with project
    assert np.array_equal(fold_half(u.coeffs, 4), fold_half(project(u, 4).coeffs, 4))


def test_to_spectral_constant_samples():
    c = analyze_coeffs(np.full(11, 3.25), 5)
    expected = np.zeros(11, dtype=np.complex128)
    expected[5] = 3.25
    assert np.allclose(c, expected, atol=1e-15)


def test_to_spectral_sine_mode():
    c = analyze_coeffs(np.sin(2 * grid(9, 1.0)), 3)
    assert c[3 + 2] == pytest.approx(-0.5j, abs=1e-15)
    assert c[3 - 2] == pytest.approx(0.5j, abs=1e-15)


def test_to_spectral_aliasing_folds_high_mode():
    # cos((N+1)x) sampled on M = 2N+1 points folds onto k = -N and k = N;
    # on the grid starting at -L*pi the fold carries the factor (-1)^M = -1.
    n = 6
    m = 2 * n + 1
    c = analyze_coeffs(np.cos((n + 1) * grid(m, 1.0)), n)
    assert c[0] == pytest.approx(-0.5, abs=1e-14)
    assert c[-1] == pytest.approx(-0.5, abs=1e-14)


def test_bandwidth_errors():
    # both transforms need at least 2N points; 2N - 1 is refused
    f = rand_field(8, seed=0)
    with pytest.raises(BandwidthError, match="at least 2N=16"):
        synth_values(f.coeffs, 8, 2 * 8 - 1)
    with pytest.raises(BandwidthError, match="at least 2N=16"):
        analyze_coeffs(np.zeros(2 * 8 - 1), 8)
    assert synth_values(f.coeffs, 8, 2 * 8).shape == (16,)
    assert analyze_coeffs(np.zeros(2 * 8), 8).shape == (17,)


# ------------------------------------------------------- projection / embed


def test_project_identity_and_truncation():
    f = rand_field(12, seed=5)
    assert np.array_equal(project(f, 12).coeffs, f.coeffs)
    g = mode_field(6, {6: 0.5, -6: 0.5})
    assert np.all(project(g, 5).coeffs == 0)


def test_projection_is_contraction():
    f = rand_field(20, seed=7)
    for n in (3, 9, 15):
        tail = f.coeffs - embed(project(f, n), 20).coeffs
        assert l2_norm(f.with_coeffs(tail)) <= l2_norm(f) + 1e-15


def test_project_embed_errors():
    f = rand_field(8, seed=1)
    with pytest.raises(BandwidthError):
        project(f, 9)
    with pytest.raises(BandwidthError):
        embed(f, 7)
    assert np.array_equal(project(embed(f, 20), 8).coeffs, f.coeffs)


def test_projection_error_superalgebraic_for_analytic_function():
    # 1/(a - cos x) has geometrically decaying coefficients, so the
    # projection error ratio e(2N)/e(N) must itself shrink with N.
    a = 1.05
    m = 2048
    ref = SpectralField(256, 1.0, analyze_coeffs(1.0 / (a - np.cos(grid(m, 1.0))), 256))
    errors = []
    for n in (8, 16, 32, 64):
        tail = ref.coeffs - embed(project(ref, n), 256).coeffs
        errors.append(l2_norm(ref.with_coeffs(tail)))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    ratios = [e2 / e1 for e1, e2 in zip(errors, errors[1:])]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1 * ratios[0]


# ------------------------------------------------------------ dealiasing


def test_dealiased_power_identity():
    f = rand_field(10, seed=2)
    assert np.array_equal(dealiased_power(f, 1).coeffs, f.coeffs)


def test_dealiased_square_of_cosine():
    f = mode_field(4, {1: 0.5, -1: 0.5})
    sq = dealiased_power(f, 2)
    expected = np.zeros(9, dtype=np.complex128)
    expected[4] = 0.5
    expected[4 + 2] = 0.25
    expected[4 - 2] = 0.25
    assert np.allclose(sq.coeffs, expected, atol=1e-15)


def test_dealiased_cube_of_top_mode_vs_convolution():
    n = 12
    f = mode_field(n, {n: 0.5, -n: 0.5})
    got = dealiased_power(f, 3)
    want = power_coeffs_direct(f, 3)
    assert np.max(np.abs(got.coeffs - want)) < 1e-13


@given(
    n=st.integers(1, 16),
    p=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_dealiased_power_matches_direct_convolution(n, p, seed):
    f = rand_field(n, seed=seed)
    got = dealiased_power(f, p)
    want = power_coeffs_direct(f, p)
    assert np.max(np.abs(got.coeffs - want)) < 1e-12


def test_next_fast_len():
    assert next_fast_len(1) == 1
    assert next_fast_len(7) == 8
    assert next_fast_len(3073) == 3125
    assert next_fast_len(120) == 120


# ------------------------------------------------------------------- norms


def test_l2_norm_of_sine():
    f = mode_field(3, {1: -0.5j, -1: 0.5j})  # sin x
    assert l2_norm(f) == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_sobolev_norm_of_mean_mode():
    f = mode_field(5, {0: 1.0})
    for mu in (0.0, 1.0, 2.5):
        assert sobolev_norm(f, mu) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)


def test_sobolev_zero_order_is_l2():
    f = rand_field(14, seed=9, domain_scale=3.0)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)


def test_linf_norm_of_cosine():
    f = mode_field(4, {1: 0.5, -1: 0.5})
    assert linf_norm(f) == pytest.approx(1.0, abs=1e-3)


@given(n=st.integers(2, 24), seed=st.integers(0, 10_000))
def test_parseval_against_quadrature(n, seed):
    f = rand_field(n, seed=seed)
    m = 4 * n + 2  # resolves the bandwidth-2N square exactly
    vals = synth_values(f.coeffs, n, m)
    quad = periodic_trapezoid(vals**2, f.domain_scale)
    assert l2_norm(f) ** 2 == pytest.approx(quad, rel=1e-12)


@given(n=st.integers(1, 32), seed=st.integers(0, 10_000))
def test_inverse_inequality_sanity(n, seed):
    psi = rand_field(n, seed=seed)
    assert sobolev_norm(psi, 1.0) <= 2.0 * n * sobolev_norm(psi, 0.0) + 1e-15


# ------------------------------------------------------- field operations


def test_hermitian_enforced_on_construction():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = SpectralField(4, 1.0, raw)
    assert np.allclose(f.coeffs, np.conj(f.coeffs[::-1]))
    assert f.coeffs[4].imag == 0.0
    vals = synth_values(f.coeffs, 4, 32)
    assert np.all(np.isreal(vals))


def test_translate_shift_theorem():
    f = rand_field(12, seed=4)
    s = 0.73
    shifted = translate(f, s)
    x = grid(64, f.domain_scale)
    direct = sample_field(f, 64)
    moved = synth_values(shifted.coeffs, 12, 64)
    # u(x - s) at x equals u at x - s: check against dense interpolation
    k = f.wavenumbers
    expect = np.real(f.coeffs @ np.exp(1j * np.outer(k, x - s)))
    assert np.allclose(moved, expect, atol=1e-12)
    assert np.allclose(direct, synth_values(f.coeffs, 12, 64), atol=1e-12)


def test_derivative_of_cosine():
    f = mode_field(3, {1: 0.5, -1: 0.5})
    d = derivative(f)
    expected = mode_field(3, {1: 0.5j, -1: -0.5j})  # -sin x
    assert np.allclose(d.coeffs, expected.coeffs, atol=1e-16)


def test_peak_position_of_shifted_bump():
    # narrow positive bump centered at x0
    n = 48
    x0 = 1.234
    m = 4 * n
    bump = np.exp(-(((grid(m, 1.0) - x0) / 0.4) ** 2))
    f = SpectralField(n, 1.0, analyze_coeffs(bump, n))
    assert peak_position(f) == pytest.approx(x0, abs=1e-4)
