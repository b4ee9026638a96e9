"""Truncated Fourier series: fields, transforms, dealiased products, norms.

A field of bandwidth N is the real trigonometric polynomial

    u(x) = sum_{|k| <= N} u_hat_k exp(i*kappa_k*x),   kappa_k = k/L,

on [-L*pi, L*pi].  Coefficients are stored over the full symmetric index
range k = -N..N (position k+N) and Hermitian symmetry
u_hat(-k) = conj(u_hat(k)) is enforced whenever a field is constructed, so
every ``SpectralField`` represents a real function.

Transform normalization: analysis divides by the number of samples,
synthesis does not.  Collocation grids start at the left endpoint,
x_j = -L*pi + 2*L*pi*j/M.

Two coefficient layouts are in use.  ``SpectralField``, snapshots and every
public function take the full range above.  The time stepper's inner loop
carries the folded half layout instead: the nonnegative modes k = 0..N
only, each multiplied by the grid phase (-1)^k, which is exactly the
vector ``np.fft.irfft`` takes for the grid above.  Hermitian symmetry then
holds by construction, and a transform is one real FFT with no sign
passes.  ``fold_half`` and ``unfold_half`` convert between the two; the
stepper calls them only at its boundary (start, snapshot/observer cadence,
final state).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthError, ShapeError

_OVERSAMPLE = 8  # grid refinement of linf_norm and peak_position


@dataclass(frozen=True)
class SpectralField:
    """Real-valued element of the bandwidth-N trigonometric space."""

    n_modes: int
    domain_scale: float
    coeffs: np.ndarray  # complex128, length 2N+1, index k+N

    def __post_init__(self):
        if self.n_modes < 1:
            raise BandwidthError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.domain_scale <= 0:
            raise ShapeError(f"domain_scale must be > 0, got {self.domain_scale}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.n_modes + 1,):
            raise ShapeError(
                f"coefficient vector must have length 2N+1={2 * self.n_modes + 1}, "
                f"got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", hermitian_part(c))
        self.coeffs.setflags(write=False)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Integer mode indices k = -N..N."""
        return np.arange(-self.n_modes, self.n_modes + 1)

    @property
    def kappa(self) -> np.ndarray:
        """Physical wavenumbers k/L."""
        return self.wavenumbers / self.domain_scale

    def with_coeffs(self, coeffs) -> "SpectralField":
        return SpectralField(self.n_modes, self.domain_scale, coeffs)


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project a full-range coefficient vector onto the Hermitian subspace."""
    c = np.asarray(coeffs, dtype=np.complex128)
    sym = 0.5 * (c + np.conj(c[::-1]))
    sym[len(c) // 2] = sym[len(c) // 2].real
    return sym


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps FFT sizes cheap)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=None)
def _alternating_signs(n_modes: int) -> np.ndarray:
    """(-1)^k for k = 0..N; converts between grid phase and centered-domain phase."""
    signs = np.ones(n_modes + 1)
    signs[1::2] = -1.0
    signs.setflags(write=False)
    return signs


def fold_half(coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Folded half layout (-1)^k * u_hat_k, k = 0..n_modes, of a full-range
    vector of any bandwidth >= n_modes (higher modes are dropped)."""
    center = len(coeffs) // 2
    return coeffs[center : center + n_modes + 1] * _alternating_signs(n_modes)


def unfold_half(half: np.ndarray) -> np.ndarray:
    """Full-range vector k = -N..N of a folded half-layout vector."""
    pos = half * _alternating_signs(len(half) - 1)
    return np.concatenate([np.conj(pos[:0:-1]), pos])


def synth_values(coeffs: np.ndarray, n_modes: int, n_points: int) -> np.ndarray:
    """Evaluate a Hermitian coefficient vector on the M-point grid (array level)."""
    if n_points < 2 * n_modes:
        raise BandwidthError(f"need at least 2N={2 * n_modes} points, got {n_points}")
    return np.fft.irfft(fold_half(coeffs, n_modes), n=n_points) * n_points


def analyze_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Truncated Fourier coefficients of real grid samples (array level)."""
    if len(values) < 2 * n_modes:
        raise BandwidthError(f"need at least 2N={2 * n_modes} points, got {len(values)}")
    half = np.fft.rfft(values)[: n_modes + 1] / len(values)
    half[0] = half[0].real
    return unfold_half(half)


def project(field: SpectralField, n_modes: int) -> SpectralField:
    """L2-orthogonal projection: truncate coefficients to |k| <= N'."""
    if n_modes > field.n_modes:
        raise BandwidthError(
            f"cannot project bandwidth {field.n_modes} up to {n_modes}; use embed"
        )
    lo = field.n_modes - n_modes
    return SpectralField(
        n_modes, field.domain_scale, field.coeffs[lo : lo + 2 * n_modes + 1]
    )


def embed(field: SpectralField, n_modes: int) -> SpectralField:
    """Zero-extend the coefficient vector to a larger bandwidth."""
    if n_modes < field.n_modes:
        raise BandwidthError(
            f"cannot embed bandwidth {field.n_modes} into {n_modes}; use project"
        )
    pad = n_modes - field.n_modes
    return SpectralField(
        n_modes, field.domain_scale, np.pad(field.coeffs, (pad, pad))
    )


def dealiased_power(field: SpectralField, p: int) -> SpectralField:
    """Exact truncated coefficients of the pointwise power u^p.

    The power of a bandwidth-N series has bandwidth p*N; synthesizing on a
    padded grid of M >= (p+1)N + 1 points keeps every alias image p*N +- M
    outside |k| <= N, so the returned coefficients carry no aliasing error
    beyond rounding.  This makes pseudospectral products coincide with the
    Galerkin ones.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    if p == 1:
        return field
    n = field.n_modes
    m = next_fast_len((p + 1) * n + 1)
    vals = synth_values(field.coeffs, n, m)
    return field.with_coeffs(analyze_coeffs(vals**p, n))


def derivative(field: SpectralField, order: int = 1) -> SpectralField:
    """Spatial derivative via the (i*kappa)^order multiplier."""
    return field.with_coeffs(field.coeffs * (1j * field.kappa) ** order)


def translate(field: SpectralField, shift: float) -> SpectralField:
    """Field of u(x - shift); multiplies mode k by exp(-i*kappa_k*shift)."""
    return field.with_coeffs(field.coeffs * np.exp(-1j * field.kappa * shift))


def l2_norm(field: SpectralField) -> float:
    s = np.sum(np.abs(field.coeffs) ** 2)
    return float(np.sqrt(2.0 * field.domain_scale * np.pi * s))


def sobolev_norm(field: SpectralField, mu: float) -> float:
    """Norm of order mu, (2*L*pi * sum (1+kappa^2)^mu |u_hat|^2)^(1/2)."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    w = (1.0 + field.kappa**2) ** mu
    s = np.sum(w * np.abs(field.coeffs) ** 2)
    return float(np.sqrt(2.0 * field.domain_scale * np.pi * s))


def linf_norm(field: SpectralField) -> float:
    """Max of |u| on an oversampled grid of 8*(2N+1) points.

    Approximate: the true maximum of a trigonometric polynomial generally
    falls between collocation points; 8x oversampling leaves a relative gap
    of order (pi/16)^2 / 2 at a smooth peak.
    """
    m = _OVERSAMPLE * (2 * field.n_modes + 1)
    return float(np.max(np.abs(synth_values(field.coeffs, field.n_modes, m))))


def peak_position(field: SpectralField) -> float:
    """Location of the global maximum of u, refined by local parabolic fit."""
    m = _OVERSAMPLE * (2 * field.n_modes + 1)
    vals = synth_values(field.coeffs, field.n_modes, m)
    j = int(np.argmax(vals))
    vm, v0, vp = vals[(j - 1) % m], vals[j], vals[(j + 1) % m]
    denom = vm - 2.0 * v0 + vp
    offset = 0.0 if denom == 0.0 else 0.5 * (vm - vp) / denom
    dx = 2.0 * field.domain_scale * np.pi / m
    half = field.domain_scale * np.pi
    return float(-half + (j + offset) * dx)
