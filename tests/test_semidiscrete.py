import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benj.errors import ParameterError, ShapeError
from benj.model import ModelParams, symbol_l
from benj.semidiscrete import (
    folded_nonlinear_term,
    frozen_nonlinear_term,
    linear_multipliers,
    nonlinear_term,
    rhs,
)
from benj.spectral import SpectralField, fold_half, project, unfold_half

from oracles import embed, frozen_term_direct, inner, rand_field, rhs_direct


def mode_field(n_modes, entries, domain_scale=1.0):
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    for k, v in entries.items():
        c[k + n_modes] = v
    return SpectralField(n_modes, domain_scale, c)


def linearized_rhs(params, w, u_frozen):
    """Full-range time derivative of w with advection frozen at u_frozen,
    through the half-layout multipliers and folded closure the linearized
    study steps with."""
    n_w, n_u = w.n_modes, u_frozen.n_modes
    u_half = fold_half(u_frozen.coeffs, n_u)
    w_half = fold_half(w.coeffs, n_w)
    flux = frozen_nonlinear_term(params, [n_w], [n_u], lambda t: u_half)(w_half[None], 0.0)
    return unfold_half(linear_multipliers(params, n_w) * w_half + flux[0])


def linear_part(params, w):
    """Full-range Lambda_k * w_hat_k from the half-layout multipliers."""
    return unfold_half(linear_multipliers(params, w.n_modes) * fold_half(w.coeffs, w.n_modes))


def test_multipliers_benjamin_values(benjamin_params):
    lam = linear_multipliers(benjamin_params, 4)
    assert lam.shape == (5,)  # k = 0..N
    assert lam[0] == 0.0
    assert lam[1] == pytest.approx(0.0, abs=1e-15)  # symbol zero at kappa=1
    assert lam[2] == pytest.approx(4.0j, abs=1e-14)


def test_multipliers_invariants(benjamin_params):
    lam = linear_multipliers(benjamin_params, 16)
    assert not lam.flags.writeable
    assert np.all(lam.real == 0.0)
    assert lam[0] == 0.0
    # the k >= 0 half of the odd, purely imaginary full-range operator
    kappa = np.arange(-16, 17)
    full = 1j * kappa * symbol_l(benjamin_params, kappa)
    assert np.allclose(full, np.conj(full[::-1]))
    assert np.array_equal(lam, full[16:])


def test_rhs_two_mode_hand_convolution():
    # u = cos x, gamma = 0: d/dt u_hat_1 = i/2 and d/dt u_hat_2 = -i/4.
    p = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1)
    u = mode_field(4, {1: 0.5, -1: 0.5})
    out = rhs(p, u)
    assert out.coeffs[4 + 1] == pytest.approx(0.5j, abs=1e-15)
    assert out.coeffs[4 + 2] == pytest.approx(-0.25j, abs=1e-15)


def test_rhs_of_zero_field(benjamin_params):
    u = mode_field(8, {})
    assert np.all(rhs(benjamin_params, u).coeffs == 0)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 24), q=st.integers(1, 3))
def test_rhs_mean_mode_exactly_zero(seed, n, q):
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    u = rand_field(n, seed=seed)
    assert rhs(p, u).coeffs[n] == 0.0


@given(seed=st.integers(0, 10_000), n=st.integers(1, 16), q=st.integers(1, 3))
def test_rhs_matches_direct_convolution(seed, n, q):
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    u = rand_field(n, seed=seed)
    got = rhs(p, u).coeffs
    want = rhs_direct(p, u)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_full_range_flux_is_the_unfolded_folded_flux(q):
    # the view the benchmark calls is the hot loop's term, bit for bit
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q, domain_scale=2.0)
    u = rand_field(16, seed=q, domain_scale=2.0)
    folded = folded_nonlinear_term(params, [16])(u.half[None])[0]
    got = nonlinear_term(params, 16)(u.coeffs)
    assert got.dtype == np.complex128 and got.tobytes() == unfold_half(folded).tobytes()


@given(seed=st.integers(0, 10_000))
def test_linear_part_skew_symmetric(seed):
    # (Lv_x, v) = 0; measured against the mass the pairwise sum cancels,
    # since |Lambda| reaches ~8e3 at this bandwidth
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    v = rand_field(20, seed=seed)
    lv = SpectralField(v.n_modes, v.domain_scale, linear_part(params, v))
    mass = 2 * np.pi * np.sum(np.abs(lv.coeffs * np.conj(v.coeffs)))
    assert abs(inner(lv, v)) < 1e-14 * max(mass, 1.0)


@given(seed=st.integers(0, 10_000), q=st.integers(1, 3))
def test_rhs_orthogonal_to_state(seed, q):
    # (du/dt, u) = 0 is the semidiscrete mechanism conserving the L2 norm.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    u = rand_field(16, seed=seed)
    assert abs(inner(rhs(p, u), u)) < 1e-11


def test_linearized_pure_linear_when_frozen_zero(benjamin_params):
    w = rand_field(12, seed=3)
    zero = mode_field(12, {})
    out = linearized_rhs(benjamin_params, w, zero)
    assert np.allclose(out, linear_part(benjamin_params, w), atol=1e-15)
    assert np.all(frozen_term_direct(benjamin_params, w, zero) == 0)


def test_linearized_matches_full_rhs_for_q1(benjamin_params):
    # For q = 1, f'(u)u_x = (u^2/2)_x = f(u)_x, so both right-hand sides agree.
    u = rand_field(16, seed=8)
    full = rhs(benjamin_params, u)
    lin = linearized_rhs(benjamin_params, u, u)
    assert np.max(np.abs(full.coeffs - lin)) < 1e-12


def test_linearized_zero_for_constant_w(benjamin_params):
    w = mode_field(8, {0: 2.5})
    u = rand_field(8, seed=5)
    out = linearized_rhs(benjamin_params, w, u)
    assert np.max(np.abs(out)) < 1e-15


def test_linearized_accepts_wider_frozen_field(benjamin_params):
    # Embedding the frozen coefficient at a higher bandwidth must not
    # change the result: the product is dealiased either way.
    w = rand_field(8, seed=2)
    u = rand_field(8, seed=9)
    narrow = linearized_rhs(benjamin_params, w, u)
    wide = linearized_rhs(benjamin_params, w, embed(u, 24))
    assert np.max(np.abs(narrow - wide)) < 1e-13
    flux = narrow - linear_part(benjamin_params, w)
    assert np.max(np.abs(flux - frozen_term_direct(benjamin_params, w, u))) < 1e-13


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n_w", [7, 8])
def test_half_layout_frozen_term_matches_linearized_rhs(q, n_w):
    # The closure takes and returns the folded half layout k = 0..N.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    n_u = (1 + q) * n_w
    w = rand_field(n_w, seed=q + n_w)
    u = rand_field(n_u, seed=20 + q + n_w, decay=1.0)
    u_half = fold_half(u.coeffs, n_u)
    w_half = fold_half(w.coeffs, n_w)[None]
    half = frozen_nonlinear_term(p, [n_w], [n_u], lambda t: u_half)(w_half, 0.0)
    assert half.shape == (1, n_w + 1)
    assert np.max(np.abs(unfold_half(half[0]) - frozen_term_direct(p, w, u))) < 1e-13


@pytest.mark.parametrize("q", [1, 2, 3])
def test_stacked_terms_match_each_row_alone(q):
    # Rows of bandwidths 4, 7 and 8 posed at N = 8: the flux of each row is
    # the single-row flux at its own bandwidth, and the frozen term of each
    # row is the direct convolution with u projected to the row's own
    # (1+q)*n, both up to rounding; every row is zero above its bandwidth.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    n_w = [4, 7, 8]
    n_u = [(1 + q) * n for n in n_w]
    u = rand_field(n_u[-1], seed=70 + q, decay=1.0)
    u_half = fold_half(u.coeffs, n_u[-1])
    fields = [rand_field(n, seed=80 + n) for n in n_w]
    rows = np.zeros((3, 9), dtype=np.complex128)
    for row, w in zip(rows, fields):
        row[: w.n_modes + 1] = fold_half(w.coeffs, w.n_modes)
    flux = folded_nonlinear_term(p, n_w)(rows)
    frozen = frozen_nonlinear_term(p, n_w, n_u, lambda t: u_half)(rows, 0.0)
    for i, (n, w) in enumerate(zip(n_w, fields)):
        assert np.all(flux[i, n + 1:] == 0) and np.all(frozen[i, n + 1:] == 0)
        alone = folded_nonlinear_term(p, [n])(rows[i : i + 1, : n + 1])[0]
        assert np.max(np.abs(flux[i, : n + 1] - alone)) < 1e-13
        direct = frozen_term_direct(p, w, project(u, n_u[i]))
        assert np.max(np.abs(unfold_half(frozen[i, : n + 1]) - direct)) < 1e-13


@pytest.mark.parametrize("q", [1, 2])
def test_frozen_term_memo_matches_fresh_closure(q):
    # An interleaved sequence of times, with repeats and revisits, against
    # one closure: every output must equal a fresh closure's, and frozen(t)
    # is asked again only when t differs from the previous call's.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    n_w, n_u = 8, (1 + q) * 8
    states = {t: fold_half(rand_field(n_u, seed=40 + i).coeffs, n_u)
              for i, t in enumerate([0.0, 0.05, 0.1])}
    asked = []

    def frozen(t):
        asked.append(t)
        return states[t]

    times = [0.0, 0.0, 0.05, 0.05, 0.1, 0.05, 0.0, 0.1, 0.1, 0.1, 0.0]
    term = frozen_nonlinear_term(p, [n_w], [n_u], frozen)
    for i, t in enumerate(times):
        w = fold_half(rand_field(n_w, seed=60 + i).coeffs, n_w)[None]
        expected = frozen_nonlinear_term(p, [n_w], [n_u], states.get)(w, t)
        assert term(w, t).tobytes() == expected.tobytes()
    assert asked == [0.0, 0.05, 0.1, 0.05, 0.0, 0.1, 0.0]


def test_overflowing_symbol_is_a_parameter_error():
    # kappa^(2m) at m = 200 overflows long before N = 64: ``symbol_l``
    # refuses it, for either integrator, ahead of any weight or exponential
    # and without a numpy warning
    p = ModelParams(m=200, r=0.5, gamma=1.0, delta=1.0, q=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="leaves the floating-point range"):
            linear_multipliers(p, 64)


def test_large_q_is_a_parameter_error():
    # M^q for the padded grid M overflows a double: 1000^120 at N = 8
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=120)
    with pytest.raises(ParameterError, match="model.q is too large"):
        folded_nonlinear_term(p, [8])
    with pytest.raises(ParameterError, match="model.q is too large"):
        frozen_nonlinear_term(p, [8], [8], None)
    # q = 100 (864^99 at N = 8) still fits
    folded_nonlinear_term(ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=100), [8])


def test_rhs_refuses_another_domain_scale(benjamin_params):
    # the multipliers and the flux read the model's L; before, an L = 2
    # field under an L = 1 model got a derivative several times too large
    u = rand_field(32, seed=5, domain_scale=2.0)
    with pytest.raises(ShapeError,
                       match="field domain scale 2.0 does not match model domain scale 1.0"):
        rhs(benjamin_params, u)
