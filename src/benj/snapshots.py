"""Plain-text snapshot files for spectral fields.

Format (version 1):

    benj-snapshot 1
    N 128
    L 1
    t 0.5
    <2N+1 lines of "k re im">

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so write -> read reproduces the coefficients bit for bit
and repeated runs with the same configuration produce identical files.
"""

from __future__ import annotations

import numpy as np

from .spectral import SpectralField

FORMAT_NAME = "benj-snapshot"
FORMAT_VERSION = 1


class SnapshotFormatError(ValueError):
    """The file does not parse as a snapshot of a supported version."""


def write_snapshot(path, field: SpectralField, t: float) -> None:
    n = field.n_modes
    header = (
        f"{FORMAT_NAME} {FORMAT_VERSION}\n"
        f"N {n}\n"
        f"L {field.domain_scale:.17g}\n"
        f"t {t:.17g}\n"
    )
    rows = zip(range(-n, n + 1), field.coeffs.real.tolist(), field.coeffs.imag.tolist())
    body = "%d %.17g %.17g\n" * (2 * n + 1) % tuple(v for row in rows for v in row)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + body)


def read_snapshot(path) -> tuple[SpectralField, float]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise SnapshotFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise SnapshotFormatError(f"{path}: not a {FORMAT_NAME} file")
    if not head[1].isdigit() or int(head[1]) != FORMAT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {head[1]}")

    try:
        header = dict(ln.split(maxsplit=1) for ln in lines[1:4])
        n = int(header["N"])
        scale = float(header["L"])
        t = float(header["t"])
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
    except ValueError as exc:  # N < 1 or L <= 0
        raise SnapshotFormatError(f"{path}: {exc}") from exc
