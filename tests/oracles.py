"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: direct convolution sums instead of
padded transforms, trapezoid quadrature instead of Parseval, extended
precision instead of contour tricks.  None of it shares code with the
library paths it checks.
"""

import numpy as np

from benj.model import ModelParams, symbol_l
from benj.spectral import SpectralField


def rand_field(n_modes, seed, domain_scale=1.0, scale=None, decay=0.0):
    """Random Hermitian field; default scale gives unit-order l2 norm."""
    rng = np.random.default_rng(seed)
    if scale is None:
        scale = 1.0 / np.sqrt(2 * n_modes + 1)
    k = np.arange(-n_modes, n_modes + 1)
    mags = scale * (1.0 + np.abs(k)) ** (-decay)
    c = mags * (rng.standard_normal(2 * n_modes + 1)
                + 1j * rng.standard_normal(2 * n_modes + 1))
    return SpectralField(n_modes, domain_scale, c)


def convolve_coeffs(a, b):
    """Full convolution of centered coefficient vectors by direct summation."""
    na, nb = (len(a) - 1) // 2, (len(b) - 1) // 2
    nc = na + nb
    out = np.zeros(2 * nc + 1, dtype=np.complex128)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out  # index k + nc, k = -(na+nb)..(na+nb)


def power_coeffs_direct(field: SpectralField, p: int):
    """Coefficients of u^p on |k| <= N via repeated direct convolution."""
    acc = field.coeffs.copy()
    for _ in range(p - 1):
        acc = convolve_coeffs(acc, field.coeffs)
    half = (len(acc) - 1) // 2
    lo = half - field.n_modes
    return acc[lo : lo + 2 * field.n_modes + 1]


def rhs_direct(params: ModelParams, field: SpectralField):
    """Coefficient time derivatives assembled without any padding tricks."""
    kappa = field.kappa
    lam = 1j * kappa * symbol_l(params, kappa)
    fhat = power_coeffs_direct(field, params.q + 1) / (params.q + 1)
    return lam * field.coeffs - 1j * kappa * fhat


def periodic_trapezoid(values, domain_scale):
    """Integral over the period of equispaced periodic samples."""
    return 2.0 * domain_scale * np.pi * float(np.mean(values))


def inner(u: SpectralField, v: SpectralField):
    """L2 inner product over the period, 2*L*pi * sum_k u_hat_k conj(v_hat_k)."""
    return 2.0 * u.domain_scale * np.pi * float(np.sum(u.coeffs * np.conj(v.coeffs)).real)


def grid(n_points, domain_scale):
    half = domain_scale * np.pi
    return -half + 2.0 * half * np.arange(n_points) / n_points


def sample_field(field: SpectralField, n_points):
    """Evaluate the field by direct summation of the Fourier series."""
    x = grid(n_points, field.domain_scale)
    vals = np.zeros(n_points, dtype=np.complex128)
    for k, c in zip(field.wavenumbers, field.coeffs):
        vals += c * np.exp(1j * (k / field.domain_scale) * x)
    assert np.max(np.abs(vals.imag)) < 1e-12 * (1.0 + np.max(np.abs(vals.real)))
    return vals.real


def etd_weights_highprec(z):
    """Stage and update weights of the exponential scheme at working
    precision 60, per unit step (multiply by dt for the integrator's)."""
    import mpmath as mp

    with mp.workdps(60):
        zz = mp.mpc(z)
        ez, eh = mp.exp(zz), mp.exp(zz / 2)
        q = (eh - 1) / zz
        f1 = (-4 - zz + ez * (4 - 3 * zz + zz**2)) / zz**3
        f2 = (2 + zz + ez * (zz - 2)) / zz**3
        f3 = (-4 - 3 * zz - zz**2 + ez * (4 - zz)) / zz**3
        return complex(q), complex(f1), complex(f2), complex(f3)


def frozen_term_direct(params: ModelParams, w: SpectralField, u: SpectralField):
    """-P_N[u^q w_x] on |k| <= N_w by direct convolution."""
    acc = u.coeffs.copy()
    for _ in range(params.q - 1):
        acc = convolve_coeffs(acc, u.coeffs)
    prod = convolve_coeffs(acc, 1j * w.kappa * w.coeffs)
    half = (len(prod) - 1) // 2
    lo = half - w.n_modes
    return -prod[lo : lo + 2 * w.n_modes + 1]


def _flux_full_range(params: ModelParams, n_modes: int):
    """-i*kappa*P_N[f(u)] over k = -N..N with complex FFTs on the padded grid
    x_j = -L*pi + 2*L*pi*j/M; shares no transform code with the library."""
    p = params.q + 1
    m = (p + 1) * n_modes + 1
    k = np.arange(-n_modes, n_modes + 1)
    phase = (-1.0) ** k  # e^{i k x_0 / L} at the grid origin x_0 = -L*pi
    factor = -1j * k / params.domain_scale

    def term(c):
        spec = np.zeros(m, dtype=np.complex128)
        spec[k % m] = c * phase
        vals = (np.fft.ifft(spec) * m).real
        fhat = np.fft.fft(vals**p)[k % m] / m * phase
        return factor * fhat / p

    return term


def evolve_full_range(u0: SpectralField, params: ModelParams, method, dt, t_end):
    """Final state of a fixed-step run carrying all modes k = -N..N, with the
    full-range ETDRK4/IFRK4 update formulas and a Hermitian projection after
    every step; the last step is shortened to land on t_end.

    It takes the library's multipliers and ETD weights (checked on their
    own elsewhere), so it checks the stepper's half layout, not the weights.
    """
    from benj.semidiscrete import linear_multipliers
    from benj.spectral import hermitian_part
    from benj.timestep import etd_coefficients

    lam = linear_multipliers(params, u0.n_modes).lam
    flux = _flux_full_range(params, u0.n_modes)
    n_full = int(np.floor(t_end / dt + 1e-9))
    steps = [dt] * n_full
    if t_end - n_full * dt > 1e-9 * dt:
        steps.append(t_end - n_full * dt)
    c = u0.coeffs.copy()
    for h in steps:
        if method == "etdrk4":
            k = etd_coefficients(linear_multipliers(params, u0.n_modes), h)
            na = flux(c)
            a = k.e_half * c + k.q * na
            nb = flux(a)
            b = k.e_half * c + k.q * nb
            nc = flux(b)
            cstage = k.e_half * a + k.q * (2.0 * nc - na)
            nd = flux(cstage)
            c = k.e_full * c + k.f1 * na + 2.0 * k.f2 * (nb + nc) + k.f3 * nd
        else:
            e_full, e_half = np.exp(lam * h), np.exp(lam * h / 2.0)
            k1 = flux(c)
            k2 = flux(e_half * (c + 0.5 * h * k1))
            k3 = flux(e_half * c + 0.5 * h * k2)
            k4 = flux(e_full * c + h * e_half * k3)
            c = e_full * c + (h / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        c = hermitian_part(c)
    return u0.with_coeffs(c)


def write_snapshot_per_line(path, field: SpectralField, t: float):
    """The snapshot writer as one f-string per line: the byte-level oracle
    for the library's single-format writer."""
    n = field.n_modes
    lines = [
        "benj-snapshot 1",
        f"N {n}",
        f"L {field.domain_scale:.17g}",
        f"t {t:.17g}",
    ]
    for k, c in zip(range(-n, n + 1), field.coeffs):
        lines.append(f"{k} {c.real:.17g} {c.imag:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
