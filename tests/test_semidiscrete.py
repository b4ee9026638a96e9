import numpy as np
import pytest
from hypothesis import given, strategies as st

from benj.errors import ParameterError
from benj.model import ModelParams
from benj.semidiscrete import (
    folded_nonlinear_term,
    frozen_nonlinear_term,
    linear_multipliers,
    rhs,
)
from benj.spectral import SpectralField, embed, fold_half, unfold_half

from oracles import frozen_term_direct, inner, rand_field, rhs_direct


def mode_field(n_modes, entries, domain_scale=1.0):
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    for k, v in entries.items():
        c[k + n_modes] = v
    return SpectralField(n_modes, domain_scale, c)


def linearized_rhs(params, w, u_frozen):
    """Full-range time derivative of w with advection frozen at u_frozen,
    through the folded closure the linearized study steps with."""
    n_w, n_u = w.n_modes, u_frozen.n_modes
    term = frozen_nonlinear_term(params, n_w, n_u)
    flux = unfold_half(term(fold_half(u_frozen.coeffs, n_u), fold_half(w.coeffs, n_w)))
    return linear_multipliers(params, n_w).lam * w.coeffs + flux


def test_multipliers_benjamin_values(benjamin_params):
    mult = linear_multipliers(benjamin_params, 4)
    n = 4
    assert mult.lam[n + 0] == 0.0
    assert mult.lam[n + 1] == pytest.approx(0.0, abs=1e-15)  # symbol zero at kappa=1
    assert mult.lam[n + 2] == pytest.approx(4.0j, abs=1e-14)


def test_multipliers_invariants(benjamin_params):
    mult = linear_multipliers(benjamin_params, 16)
    assert np.allclose(mult.lam, np.conj(mult.lam[::-1]))
    assert np.all(mult.lam.real == 0.0)
    assert mult.lam[16] == 0.0


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


@given(seed=st.integers(0, 10_000))
def test_linear_part_skew_symmetric(seed):
    # (Lv_x, v) = 0; measured against the mass the pairwise sum cancels,
    # since |Lambda| reaches ~8e3 at this bandwidth
    params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
    v = rand_field(20, seed=seed)
    mult = linear_multipliers(params, 20)
    lv = v.with_coeffs(mult.lam * v.coeffs)
    mass = 2 * np.pi * np.sum(np.abs(mult.lam) * np.abs(v.coeffs) ** 2)
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
    mult = linear_multipliers(benjamin_params, 12)
    out = linearized_rhs(benjamin_params, w, zero)
    assert np.allclose(out, mult.lam * w.coeffs, atol=1e-15)
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
    flux = narrow - linear_multipliers(benjamin_params, 8).lam * w.coeffs
    assert np.max(np.abs(flux - frozen_term_direct(benjamin_params, w, u))) < 1e-13


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n_w", [7, 8])
def test_half_layout_frozen_term_matches_linearized_rhs(q, n_w):
    # The closure takes and returns the folded half layout k = 0..N.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    n_u = (1 + q) * n_w
    w = rand_field(n_w, seed=q + n_w)
    u = rand_field(n_u, seed=20 + q + n_w, decay=1.0)
    half = frozen_nonlinear_term(p, n_w, n_u)(fold_half(u.coeffs, n_u), fold_half(w.coeffs, n_w))
    assert half.shape == (n_w + 1,)
    assert np.max(np.abs(unfold_half(half) - frozen_term_direct(p, w, u))) < 1e-13


@pytest.mark.parametrize("q", [1, 2])
def test_frozen_term_memo_matches_fresh_closure(q):
    # An interleaved sequence of frozen states evicts and revisits the
    # closure's two cached u^q; every output must equal a fresh closure's.
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
    n_w, n_u = 8, (1 + q) * 8
    us = [fold_half(rand_field(n_u, seed=40 + i).coeffs, n_u) for i in range(3)]
    sequence = [us[0], us[0], us[1], us[0], us[2], us[1], us[1].copy(), us[2], us[0]]
    moving = us[2].copy()
    sequence += [moving] * 3  # mutated in place between the calls below
    term = frozen_nonlinear_term(p, n_w, n_u)
    for i, u in enumerate(sequence):
        w = fold_half(rand_field(n_w, seed=60 + i).coeffs, n_w)
        expected = frozen_nonlinear_term(p, n_w, n_u)(u, w)
        assert term(u, w).tobytes() == expected.tobytes()
        moving[3] += 1e-3


def test_large_q_is_a_parameter_error():
    # M^q for the padded grid M overflows a double: 1000^120 at N = 8
    p = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=120)
    with pytest.raises(ParameterError, match="model.q is too large"):
        folded_nonlinear_term(p, 8)
    with pytest.raises(ParameterError, match="model.q is too large"):
        frozen_nonlinear_term(p, 8, 8)
    # q = 100 (864^99 at N = 8) still fits
    folded_nonlinear_term(ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=100), 8)
