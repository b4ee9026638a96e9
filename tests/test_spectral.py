import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import benj.spectral
from benj.errors import BandwidthError, ShapeError
from benj.invariants import e_pi, i_pi
from benj.model import ModelParams, symbol_l
from benj.spectral import (
    SpectralField,
    analyze_coeffs,
    dealiased_grid,
    dealiased_power,
    derivative,
    fold_half,
    half_values,
    hermitian_part,
    l2_norm,
    linf_norm,
    mode_sum,
    next_fast_len,
    peak_position,
    power_in_place,
    project,
    sobolev_norm,
    synth_values,
    translate,
    unfold_half,
)

from oracles import (embed, grid, periodic_trapezoid, power_coeffs_direct, rand_field,
                     sample_field)


def mode_field(n_modes, entries, domain_scale=1.0):
    """Field with prescribed coefficients, e.g. {1: 0.5, -1: 0.5} for cos x."""
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    for k, v in entries.items():
        c[k + n_modes] = v
    return SpectralField(n_modes, domain_scale, c)


def test_sizes_are_checked_once_per_construction(monkeypatch):
    real, calls = benj.spectral._check_sizes, []
    monkeypatch.setattr(benj.spectral, "_check_sizes",
                        lambda n, scale: calls.append(n) or real(n, scale))
    f = SpectralField(4, 1.0, np.zeros(9))
    assert calls == [4]
    SpectralField.from_half(f.half, 2.0)
    assert calls == [4, 4]
    with pytest.raises(BandwidthError):
        SpectralField(0, 1.0, np.zeros(1))
    with pytest.raises(ShapeError):
        SpectralField(4, 0.0, np.zeros(9))
    with pytest.raises(BandwidthError):
        SpectralField.from_half(np.zeros(1), 1.0)
    with pytest.raises(ShapeError):
        SpectralField.from_half(np.zeros(5), np.inf)


# ------------------------ transforms: synth_values (physical), analyze_coeffs (spectral)


def test_synth_values_constant():
    f = mode_field(4, {0: 2.0})
    assert np.allclose(synth_values(f.coeffs, 4, 16), 2.0)


def test_synth_values_cosine_on_four_points():
    f = mode_field(1, {1: 0.5, -1: 0.5})
    # x = (-pi, -pi/2, 0, pi/2)
    assert np.allclose(synth_values(f.coeffs, 1, 4), [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_round_trip_exact():
    f = rand_field(17, seed=3)
    back = analyze_coeffs(synth_values(f.coeffs, 17, 2 * 17 + 1), 17)
    assert np.max(np.abs(back - f.coeffs)) < 1e-14


def test_synth_values_matches_direct_series():
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


def test_analyze_coeffs_constant_samples():
    c = analyze_coeffs(np.full(11, 3.25), 5)
    expected = np.zeros(11, dtype=np.complex128)
    expected[5] = 3.25
    assert np.allclose(c, expected, atol=1e-15)


def test_analyze_coeffs_sine_mode():
    c = analyze_coeffs(np.sin(2 * grid(9, 1.0)), 3)
    assert c[3 + 2] == pytest.approx(-0.5j, abs=1e-15)
    assert c[3 - 2] == pytest.approx(0.5j, abs=1e-15)


def test_analyze_coeffs_aliasing_folds_high_mode():
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
        assert l2_norm(SpectralField(f.n_modes, f.domain_scale, tail)) <= l2_norm(f) + 1e-15


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
        errors.append(l2_norm(SpectralField(ref.n_modes, ref.domain_scale, tail)))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    ratios = [e2 / e1 for e1, e2 in zip(errors, errors[1:])]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1 * ratios[0]


# ------------------------------------------------------------ dealiasing


def test_power_in_place_matches_numpy_power():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(997) * 10.0 ** rng.integers(-30, 30, 997),
                        [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-100, -3.5]])
    one = x.copy()
    assert power_in_place(one, 1) is one and one.tobytes() == x.tobytes()
    two = x.copy()
    assert power_in_place(two, 2) is two and two.tobytes() == (x * x).tobytes()
    for p in range(3, 7):
        got, want = power_in_place(x.copy(), p), x**p
        assert np.all(np.abs(got - want) <= p * np.spacing(np.abs(want))), p
    rows = rng.standard_normal((3, 40))
    assert power_in_place(rows.copy(), 3).tobytes() == (rows * rows * rows).tobytes()


@pytest.mark.parametrize("p", [0, -1])
def test_dealiased_power_below_one_is_refused(p):
    with pytest.raises(ValueError, match=f"power must be >= 1, got {p}"):
        dealiased_power(SpectralField(2, 1.0, np.zeros(5)), p)


def test_coefficient_vector_of_another_length_is_refused():
    for length in (4, 6, 9):
        with pytest.raises(ShapeError, match=f"length 2N\\+1=5, got shape \\({length},\\)"):
            SpectralField(2, 1.0, np.zeros(length))


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
    # 1 is the smallest 5-smooth integer: a grid bound may size any N
    assert next_fast_len(0) == next_fast_len(-15) == 1


# ------------------------------------------------------------------- norms


def test_l2_norm_of_sine():
    f = mode_field(3, {1: -0.5j, -1: 0.5j})  # sin x
    assert l2_norm(f) == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_sobolev_norm_of_nan_order_is_refused():
    # a NaN order returned a NaN norm
    with pytest.raises(ValueError, match="mu must be >= 0, got nan"):
        sobolev_norm(SpectralField(1, 1.0, [0.0, 1.0, 0.0]), np.nan)


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


def _fields_for_sums():
    """Random fields at N = 1, 16 and 257, a field holding only mode 0, and
    fields holding signed zeros, among other modes and alone."""
    fields = [rand_field(n, seed=n, domain_scale=0.7, decay=1.0) for n in (1, 16, 257)]
    fields.append(mode_field(5, {0: -1.25}, domain_scale=0.7))
    c = rand_field(16, seed=2, domain_scale=0.7).coeffs.copy()
    values = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
              complex(-1.5, -0.0), complex(-0.0, -2.0)]
    for k, v in enumerate(values, start=1):
        c[16 + k], c[16 - k] = v, v.conjugate()
    fields.append(SpectralField(16, 0.7, c))
    fields.append(SpectralField.from_half(np.full(9, complex(-0.0, -0.0)), 0.7))
    return fields


def test_mode_sums_match_exact_full_range_sums():
    # the half-layout sums against math.fsum over the full range k = -N..N,
    # within a few ulps of the sum (of its magnitudes, where terms cancel)
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1, domain_scale=0.7)
    tol = 4 * np.finfo(float).eps
    for u in _fields_for_sums():
        c = u.coeffs
        square = c.real**2 + c.imag**2
        kappa = np.arange(-u.n_modes, u.n_modes + 1) / u.domain_scale
        two_pi_l = 2.0 * u.domain_scale * np.pi

        exact = two_pi_l * math.fsum(square.tolist())
        assert abs(i_pi(u) - exact) <= tol * exact
        assert abs(l2_norm(u) - math.sqrt(exact)) <= tol * math.sqrt(exact)
        exact = math.sqrt(two_pi_l * math.fsum(((1.0 + kappa**2) ** 2.5 * square).tolist()))
        assert abs(sobolev_norm(u, 2.5) - exact) <= tol * exact

        # E: the quadratic part summed exactly, u^3's grid mean as e_pi forms it
        terms = symbol_l(params, kappa) * square
        vals = half_values(u.half, dealiased_grid(u.n_modes, 3))
        f_mean = float(np.mean(power_in_place(vals, 3))) / 6.0
        exact = two_pi_l * (math.fsum(terms.tolist()) - 2.0 * f_mean)
        size = two_pi_l * (math.fsum(np.abs(terms).tolist()) + 2.0 * abs(f_mean))
        assert abs(e_pi(u, params) - exact) <= tol * size

        # the cross sum sum_k Re(u_hat_k conj(v_hat_k)) of the solitary-wave iteration
        v = translate(u, 0.3)
        terms = (c * np.conj(v.coeffs)).real
        size = math.fsum(np.abs(terms).tolist())
        assert abs(mode_sum(u.half, other=v.half) - math.fsum(terms.tolist())) <= tol * size


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


def test_stored_half_is_the_folded_projection():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    raw[[1, 10, 15]] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -2.0)]
    f = SpectralField(8, 1.0, raw)
    assert f.half.tobytes() == fold_half(hermitian_part(raw), 8).tobytes()
    assert not f.half.flags.writeable


def test_hermitian_part_keeps_every_finite_magnitude():
    # a Hermitian vector comes back bit for bit, from the subnormals to the
    # top of the double range, and a mean past the range's half stays finite
    big = np.finfo(np.float64).max
    c = np.zeros(7, dtype=np.complex128)
    for k, (x, y) in enumerate([(big, -big), (5e-324, -0.0), (-1e308, 1e308)], start=1):
        c.real[3 + k] = c.real[3 - k] = x
        c.imag[3 + k], c.imag[3 - k] = y, -y
    c.real[3] = -big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermitian_part(c).tobytes() == c.tobytes()
        c.real[2] = big / 2
        assert hermitian_part(c).real[4] == 0.75 * big


def test_hermitian_part_refuses_opposite_infinities():
    # inf at k and -inf at the conjugate place have no midpoint: a ValueError
    # and no numpy warning; a NaN part still comes out NaN, and mode 0's
    # imaginary part is dropped whatever it holds
    inf, nan = float("inf"), float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi, match in ((complex(-inf, 0), complex(inf, 0), "real parts -inf and inf"),
                              (complex(0, -inf), complex(0, -inf), "imaginary parts -inf and -inf")):
            c = np.zeros(5, dtype=np.complex128)
            c[1], c[3] = lo, hi
            with pytest.raises(ValueError, match=f"modes -1 and 1 .*{match}"):
                hermitian_part(c)
            with pytest.raises(ValueError, match="no Hermitian part"):
                SpectralField(2, 1.0, c)
        c = np.zeros(5, dtype=np.complex128)
        c[0], c[2], c[3], c[4] = complex(nan, inf), complex(1.0, inf), complex(inf, nan), 2.0
        sym = hermitian_part(c)
        assert np.isnan(sym.real[[0, 4]]).all() and np.isnan(sym.imag[[1, 3]]).all()
        assert sym[2] == 1.0 and sym.real[1] == sym.real[3] == inf
        assert sym.imag[0] == inf and sym.imag[4] == -inf


def test_translate_shift_theorem():
    f = rand_field(12, seed=4)
    s = 0.73
    shifted = translate(f, s)
    x = grid(64, f.domain_scale)
    direct = sample_field(f, 64)
    moved = synth_values(shifted.coeffs, 12, 64)
    # u(x - s) at x equals u at x - s: check against dense interpolation
    k = np.arange(-12, 13)
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


@pytest.mark.parametrize("m", [50, 100, 200, 400, 800, 1600, 3125, 135, 270, 540, 1080])
def test_batched_fft_rows_equal_single_calls(m):
    # The stepper transforms (B, N+1) stacks along the last axis, and
    # evolve's single field is the stack of one row: each row of a batched
    # irfft/rfft must equal the 1-D call bit for bit.  The lengths are the
    # flux grids (N = 16..1024: 50..3125) and frozen-term grids (N = 32..256:
    # 135..1080) of the acceptance configurations.
    rng = np.random.default_rng(m)
    half = rng.standard_normal((4, m // 2 + 1)) + 1j * rng.standard_normal((4, m // 2 + 1))
    vals = np.fft.irfft(half, n=m)
    spectra = np.fft.rfft(vals)
    for stack in (half[:1], half):
        assert np.fft.irfft(stack, n=m).tobytes() == vals[: len(stack)].tobytes()
    for i in range(4):
        assert vals[i].tobytes() == np.fft.irfft(half[i], n=m).tobytes()
        assert spectra[i].tobytes() == np.fft.rfft(vals[i]).tobytes()
