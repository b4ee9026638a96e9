"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: direct convolution sums instead of
padded transforms, trapezoid quadrature instead of Parseval, extended
precision instead of contour tricks.  None of it shares code with the
library paths it checks, except the three oracles at the end, which keep
the library's earlier forms of a path it has since made faster or
leaner: the per-line snapshot reader, the energy from a full analysis of
u^(q+2), whose quadratic part is summed exactly (``math.fsum``), and the
linearized study that stores the whole reference trajectory before its
w-run starts.
"""

import math

import numpy as np

from benj.errors import BandwidthError
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


def embed(field: SpectralField, n_modes: int) -> SpectralField:
    """Zero-extend the coefficient vector to a larger bandwidth."""
    if n_modes < field.n_modes:
        raise BandwidthError(f"cannot embed bandwidth {field.n_modes} into {n_modes}")
    return field.with_half(np.pad(field.half, (0, n_modes - field.n_modes)))


def full_kappa(field: SpectralField):
    """Physical wavenumbers k/L of the full range k = -N..N (index k+N)."""
    return np.arange(-field.n_modes, field.n_modes + 1) / field.domain_scale


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
    kappa = full_kappa(field)
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
    for k, c in zip(range(-field.n_modes, field.n_modes + 1), field.coeffs):
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
    prod = convolve_coeffs(acc, 1j * full_kappa(w) * w.coeffs)
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
    """Final state of a run carrying all modes k = -N..N, with the
    full-range ETDRK4/IFRK4 update formulas and a Hermitian projection after
    every step, over n = max(1, ceil(t_end/dt - 1e-9)) equal steps of t_end/n.

    It takes the library's half-range multipliers, mirrored here to
    k = -N..N, and its ETD weights (both checked on their own elsewhere),
    so it checks the stepper's half layout, not the weights.
    """
    from benj.semidiscrete import linear_multipliers
    from benj.spectral import hermitian_part
    from benj.timestep import etd_coefficients

    half = linear_multipliers(params, u0.n_modes)
    lam = np.concatenate([np.conj(half[:0:-1]), half])  # Lambda_{-k} = conj(Lambda_k)
    flux = _flux_full_range(params, u0.n_modes)
    n = max(1, math.ceil(t_end / dt - 1e-9))
    h = t_end / n
    k = etd_coefficients(lam, h)
    e_full, e_half = np.exp(lam * h), np.exp(lam * h / 2.0)
    c = u0.coeffs.copy()
    for _ in range(n):
        if method == "etdrk4":
            na = flux(c)
            a = k.e_half * c + k.q * na
            nb = flux(a)
            b = k.e_half * c + k.q * nb
            nc = flux(b)
            cstage = k.e_half * a + k.q * (2.0 * nc - na)
            nd = flux(cstage)
            c = k.e_full * c + k.f1 * na + 2.0 * k.f2 * (nb + nc) + k.f3 * nd
        else:
            k1 = flux(c)
            k2 = flux(e_half * (c + 0.5 * h * k1))
            k3 = flux(e_half * c + 0.5 * h * k2)
            k4 = flux(e_full * c + h * e_half * k3)
            c = e_full * c + (h / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        c = hermitian_part(c)
    return SpectralField(u0.n_modes, u0.domain_scale, c)


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


def read_snapshot_per_line(path):
    """The snapshot reader that converts line by line, one complex per line:
    the oracle for the library's reader on either of its paths, with the
    same checks and messages."""
    from benj.snapshots import SnapshotFormatError

    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise SnapshotFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "benj-snapshot":
        raise SnapshotFormatError(f"{path}: not a benj-snapshot file")
    if not head[1].isdecimal() or int(head[1]) != 1:
        raise SnapshotFormatError(f"{path}: unsupported version {head[1]}")
    try:
        header = dict(ln.split(maxsplit=1) for ln in lines[1:4])
        n = int(header["N"])
        scale = float(header["L"])
        t = float(header["t"])
        if not math.isfinite(t):
            raise ValueError(f"time t {header['t']} is not finite")
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header: {exc}") from exc
    body = lines[4:]
    if len(body) != 2 * n + 1:
        raise SnapshotFormatError(
            f"{path}: expected {2 * n + 1} coefficient lines, found {len(body)}"
        )
    coeffs = np.empty(2 * n + 1, dtype=np.complex128)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise SnapshotFormatError(f"{path}: bad coefficient line {ln!r}")
        try:
            k = int(parts[0])
            coeffs[i] = complex(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: bad coefficient line {ln!r}: {exc}") from exc
        if k != i - n:
            raise SnapshotFormatError(f"{path}: modes out of order at line {ln!r}")
    try:
        return SpectralField(n, scale, coeffs), t
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def energy_dealiased_power(u: SpectralField, params: ModelParams):
    """E(u) as the library evaluated it before its grid-mean form: the zero
    mode of u^(q+2) from a full analysis of the power on the dealiased grid,
    with numpy's ``**`` (libm ``pow`` above 2) for the power."""
    from benj.spectral import analyze_coeffs, dealiased_grid, synth_values

    p = params.q + 2
    vals = synth_values(u.coeffs, u.n_modes, dealiased_grid(u.n_modes, p))
    zero_mode = analyze_coeffs(vals**p, u.n_modes)[u.n_modes].real
    c = u.coeffs
    quad = math.fsum((symbol_l(params, full_kappa(u)) * (c.real**2 + c.imag**2)).tolist())
    f_mean = float(zero_mode) / ((params.q + 1) * (params.q + 2))
    return 2.0 * u.domain_scale * np.pi * (quad - 2.0 * f_mean)


def _interpolate_stored(states, dt, t):
    """Cubic-in-time interpolant at t of ``states``, stored at every step of
    size dt: the stored state within 1e-8 steps of a step time, else the
    Lagrange polynomial through the 4 rows around t."""
    pos = t / dt
    nearest = round(pos)
    if abs(pos - nearest) < 1e-8:
        return states[min(max(nearest, 0), len(states) - 1)]
    start = min(max(math.floor(pos) - 1, 0), len(states) - 4)
    xi = pos - start
    weights = []
    for a in range(4):
        w = 1.0
        for b in range(4):
            if a != b:
                w *= (xi - b) / (a - b)
        weights.append(w)
    return np.dot(np.array([weights]), states[start : start + 4])[0]


def intermediate_study_full_store(params, data_spec, n_values, n_ref, t_star, integrator_policy):
    """``harness.intermediate_problem_study`` as it was before it ran in
    lockstep: the reference stored at every step, (n_steps+1) x ((1+q)N+1)
    complex, then the stacked w-run on the stored trajectory.  It shares
    the study's set-up, stack, error and report helpers, so a difference
    can only come from the order of the runs and the store."""
    from dataclasses import replace

    from benj.harness import _error, _prepare_study, _report, _stack
    from benj.initdata import build_field
    from benj.semidiscrete import frozen_nonlinear_term
    from benj.spectral import linf_norm
    from benj.timestep import IntegratorConfig, evolve, evolve_rows

    n_values, grid = _prepare_study(
        params, n_values, n_ref, t_star, integrator_policy, max(4, 1 + params.q)
    )
    ref_config = IntegratorConfig(grid.method, grid.dt / 4.0, t_star, 1)
    u0_ref = build_field(data_spec, params, n_ref)
    dt, n_steps = ref_config.dt, ref_config.n_steps
    n_keep = (1 + params.q) * max(n_values)
    stored = np.empty((n_steps + 1, n_keep + 1), dtype=np.complex128)
    filled = -1  # the observer sees state 0 first

    def keep(t, f):
        nonlocal filled
        filled += 1
        stored[filled] = f.half[: n_keep + 1]

    u_ref_final = evolve(u0_ref, params, ref_config, observer=keep).final
    assert filled == n_steps

    n_u = [(1 + params.q) * n for n in n_values]
    term = frozen_nonlinear_term(
        params, n_values, n_u, lambda t: _interpolate_stored(stored, dt, t)
    )
    w0 = _stack(u0_ref, n_values)
    linf_max = [linf_norm(u0_ref.with_half(row[: n + 1])) for row, n in zip(w0, n_values)]

    def watch(t, rows):
        for i, n in enumerate(n_values):
            linf_max[i] = max(linf_max[i], linf_norm(u0_ref.with_half(rows[i, : n + 1])))

    config = replace(ref_config, snapshot_stride=max(1, n_steps // 128))
    result = evolve_rows(w0, params, config, term, watch)
    errors = [_error(u_ref_final, row, n) for row, n in zip(result.final, n_values)]
    return _report(n_values, errors, result.failures, n_ref, t_star, dt, linf_max)
