"""Truncated Fourier series: fields, transforms, dealiased products, norms.

A field of bandwidth N is the real trigonometric polynomial

    u(x) = sum_{|k| <= N} u_hat_k exp(i*kappa_k*x),   kappa_k = k/L,

on [-L*pi, L*pi].  Transform normalization: analysis divides by the
number of samples, synthesis does not.  Collocation grids start at the
left endpoint, x_j = -L*pi + 2*L*pi*j/M.

A ``SpectralField`` stores one layout, the folded half ``half``: modes
k = 0..N times the grid phase (-1)^k, exactly the vector ``np.fft.irfft``
takes for that grid; Hermitian symmetry supplies k < 0, so every field is
real.  The library computes on it alone: ``kappa`` is k/L for k = 0..N,
``SpectralField.from_half`` builds a field as it stands, and ``mode_sum``
forms every full-range sum as w_0|h_0|^2 + 2*sum_{k>=1} w_k|h_k|^2.  The
full range k = -N..N (index k+N) is left at the boundary: snapshot files,
the constructor ``SpectralField(n, L, coeffs)``, which projects an outside
vector once, where it enters, and the view ``coeffs`` with the array
helpers ``synth_values``/``analyze_coeffs``, which the benchmark calls.
``fold_half``/``unfold_half`` negate the odd modes, which keeps the sign
of a zero, and the view's negative modes are the exact conjugates of the
stored ones, so a field read back from its view is stored bit for bit.

Every integer power of grid values (the flux u^(q+1), the frozen term's
u^q, the energy's u^(q+2) and ``dealiased_power``) goes through
``power_in_place``, which multiplies instead of calling libm ``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthError, ShapeError

_OVERSAMPLE = 8  # grid refinement of linf_norm and peak_position


def _check_sizes(n_modes: int, domain_scale: float) -> None:
    if n_modes < 1:
        raise BandwidthError(f"n_modes must be >= 1, got {n_modes}")
    if not 0 < domain_scale < np.inf:
        raise ShapeError(f"domain_scale must satisfy 0 < L < inf, got {domain_scale}")


@dataclass(frozen=True, init=False)
class SpectralField:
    """Real-valued element of the bandwidth-N trigonometric space, built
    from a full-range vector, which is projected onto the Hermitian
    subspace, or ``from_half`` from a folded half vector as it stands."""

    n_modes: int
    domain_scale: float
    half: np.ndarray  # complex128, (-1)^k u_hat_k for k = 0..N, read-only, mode 0 real

    def __init__(self, n_modes: int, domain_scale: float, coeffs):
        _check_sizes(n_modes, domain_scale)
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (2 * n_modes + 1,):
            raise ShapeError(
                f"coefficient vector must have length 2N+1={2 * n_modes + 1}, "
                f"got shape {c.shape}"
            )
        self._store(domain_scale, fold_half(hermitian_part(c), n_modes))

    def _store(self, domain_scale: float, half: np.ndarray) -> None:
        half[0] = half[0].real
        half.setflags(write=False)
        object.__setattr__(self, "n_modes", len(half) - 1)
        object.__setattr__(self, "domain_scale", domain_scale)
        object.__setattr__(self, "half", half)

    @classmethod
    def from_half(cls, half, domain_scale: float) -> "SpectralField":
        """Field of a copy of the folded half vector ``half``, mode 0 made real."""
        half = np.array(half, dtype=np.complex128)
        _check_sizes(len(half) - 1, domain_scale)
        out = object.__new__(cls)
        out._store(domain_scale, half)
        return out

    def with_half(self, half) -> "SpectralField":
        return SpectralField.from_half(half, self.domain_scale)

    @property
    def coeffs(self) -> np.ndarray:
        """Full-range view u_hat_k, k = -N..N (index k+N), a fresh array."""
        return unfold_half(self.half)

    @property
    def kappa(self) -> np.ndarray:
        """k/L for the stored modes k = 0..N."""
        return np.arange(self.n_modes + 1) / self.domain_scale


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project a full-range coefficient vector onto the Hermitian subspace,
    averaging the parts as reals (a complex multiply by 0.5 can flip the
    sign of a zero), so that a Hermitian vector comes back bit for bit.
    A NaN part stays NaN; a part whose two values are opposite infinities
    has no midpoint, a ValueError."""
    c = np.asarray(coeffs, dtype=np.complex128)
    mirror = np.conj(c[::-1])
    sym = np.empty_like(c)
    sym.real = _midpoint(c.real, mirror.real)
    sym.imag = _midpoint(c.imag, mirror.imag)
    center = len(c) // 2
    sym[center] = sym[center].real
    for part, x, y in (("real", c.real, sym.real), ("imaginary", c.imag, sym.imag)):
        k = np.flatnonzero(np.isnan(y) & ~np.isnan(x) & ~np.isnan(x[::-1])) - center
        if k.size:  # NaN out of opposite infinities at modes k[0] < 0 and -k[0]
            raise ValueError(f"modes {k[0]} and {-k[0]} have no Hermitian part: "
                             f"{part} parts {x[center + k[0]]} and {x[center - k[0]]}")
    return sym


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2, which is a itself where b == a at every finite magnitude:
    the sum is halved, which keeps signed zeros and subnormals, except where
    it overflows, and there the halves are added.  Opposite infinities
    give NaN, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (a + b) * 0.5
    over = np.isinf(mid) & np.isfinite(a) & np.isfinite(b)
    mid[over] = a[over] * 0.5 + b[over] * 0.5
    return mid


@lru_cache(maxsize=None)
def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (keeps FFT sizes cheap); memoised,
    since every padded grid asks for one of a few lengths."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dealiased_grid(n_modes: int, p: int) -> int:
    """Padded grid size M = next_fast_len((p+1)N + 1), on which the power
    u^p of a bandwidth-N field keeps every alias image outside |k| <= N."""
    return next_fast_len((p + 1) * n_modes + 1)


def power_in_place(values: np.ndarray, p: int) -> np.ndarray:
    """Raise ``values`` to the integer power p >= 1 in place, by repeated
    multiplication, and return it: numpy sends an integer power above 2
    through libm ``pow``, at many times the cost of a multiply.  At p = 2
    this is ``x**2`` bit for bit; above, each of the p - 1 products rounds
    once, so the result is within p ulps of ``x**p``."""
    base = values.copy() if p > 2 else values
    for _ in range(p - 1):
        values *= base
    return values


def fold_half(coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Folded half layout (-1)^k * u_hat_k, k = 0..n_modes, of a full-range
    vector of any bandwidth >= n_modes (higher modes are dropped)."""
    center = len(coeffs) // 2
    half = np.array(coeffs[center : center + n_modes + 1], dtype=np.complex128)
    half[1::2] = -half[1::2]
    return half


def unfold_half(half: np.ndarray) -> np.ndarray:
    """Full-range vector k = -N..N of a folded half-layout vector."""
    pos = np.array(half, dtype=np.complex128)
    pos[1::2] = -pos[1::2]
    return np.concatenate([np.conj(pos[:0:-1]), pos])


def half_values(half: np.ndarray, n_points: int) -> np.ndarray:
    """Values on the M-point grid of a folded half-layout vector."""
    if n_points < 2 * (len(half) - 1):
        raise BandwidthError(f"need at least 2N={2 * (len(half) - 1)} points, got {n_points}")
    return np.fft.irfft(half, n=n_points) * n_points


def synth_values(coeffs: np.ndarray, n_modes: int, n_points: int) -> np.ndarray:
    """Evaluate a Hermitian full-range coefficient vector on the M-point grid."""
    return half_values(fold_half(coeffs, n_modes), n_points)


def analyze_coeffs(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Full-range truncated Fourier coefficients of real grid samples."""
    if len(values) < 2 * n_modes:
        raise BandwidthError(f"need at least 2N={2 * n_modes} points, got {len(values)}")
    return unfold_half(np.fft.rfft(values)[: n_modes + 1] / len(values))


def project(field: SpectralField, n_modes: int) -> SpectralField:
    """L2-orthogonal projection: truncate coefficients to |k| <= N' (1 <= N' <= N)."""
    _check_sizes(n_modes, field.domain_scale)
    if n_modes > field.n_modes:
        raise BandwidthError(
            f"cannot project bandwidth {field.n_modes} up to {n_modes}"
        )
    return field.with_half(field.half[: n_modes + 1])


def dealiased_power(field: SpectralField, p: int) -> SpectralField:
    """Exact truncated coefficients of the pointwise power u^p.

    The power of a bandwidth-N series has bandwidth p*N; synthesizing on
    the ``dealiased_grid`` of M >= (p+1)N + 1 points keeps every alias
    image p*N +- M outside |k| <= N, so the returned coefficients carry no
    aliasing error beyond rounding.  This makes pseudospectral products
    coincide with the Galerkin ones.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    if p == 1:
        return field
    vals = power_in_place(half_values(field.half, dealiased_grid(field.n_modes, p)), p)
    return field.with_half(np.fft.rfft(vals)[: field.n_modes + 1] / len(vals))


def derivative(field: SpectralField, order: int = 1) -> SpectralField:
    """Spatial derivative via the (i*kappa)^order multiplier."""
    return field.with_half(field.half * (1j * field.kappa) ** order)


def translate(field: SpectralField, shift: float) -> SpectralField:
    """Field of u(x - shift); multiplies mode k by exp(-i*kappa_k*shift)."""
    return field.with_half(field.half * np.exp(-1j * field.kappa * shift))


def mode_sum(half: np.ndarray, weights=1.0, other=None) -> np.ndarray:
    """Full-range sum over k = -N..N of w_|k| |u_hat_k|^2 from folded half
    vectors, w_0|h_0|^2 + 2*sum_{k>=1} w_k|h_k|^2 along the last axis, or
    of w_|k| Re(u_hat_k conj(v_hat_k)) with ``other`` = v.  The weights are
    real and even in k; the fold's signs cancel in each term."""
    terms = weights * (half * np.conj(half if other is None else other)).real
    return terms[..., 0] + 2.0 * np.sum(terms[..., 1:], axis=-1)


def l2_norm(field: SpectralField) -> float:
    return float(np.sqrt(2.0 * field.domain_scale * np.pi * mode_sum(field.half)))


def sobolev_norm(field: SpectralField, mu: float) -> float:
    """Norm of order mu, (2*L*pi * sum (1+kappa^2)^mu |u_hat|^2)^(1/2)."""
    if not mu >= 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    s = mode_sum(field.half, (1.0 + field.kappa**2) ** mu)
    return float(np.sqrt(2.0 * field.domain_scale * np.pi * s))


def linf_norm(field: SpectralField) -> float:
    """Max of |u| on an oversampled grid of 8*(2N+1) points.

    Approximate: the true maximum of a trigonometric polynomial generally
    falls between collocation points; 8x oversampling leaves a relative gap
    of order (pi/16)^2 / 2 at a smooth peak.
    """
    m = _OVERSAMPLE * (2 * field.n_modes + 1)
    return float(np.max(np.abs(half_values(field.half, m))))


def peak_position(field: SpectralField) -> float:
    """Location of the global maximum of u, refined by local parabolic fit."""
    m = _OVERSAMPLE * (2 * field.n_modes + 1)
    vals = half_values(field.half, m)
    j = int(np.argmax(vals))
    vm, v0, vp = vals[(j - 1) % m], vals[j], vals[(j + 1) % m]
    denom = vm - 2.0 * v0 + vp
    offset = 0.0 if denom == 0.0 else 0.5 * (vm - vp) / denom
    dx = 2.0 * field.domain_scale * np.pi / m
    half = field.domain_scale * np.pi
    return float(-half + (j + offset) * dx)
