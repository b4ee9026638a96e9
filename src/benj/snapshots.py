"""Plain-text snapshot files for spectral fields.

Format (version 1):

    benj-snapshot 1
    N 128
    L 1
    t 0.5
    <2N+1 lines of "k re im">

The body is the field's full-range view, whose negative modes are the
exact conjugates of the stored ones.  All floats are written with 17
significant digits, which round-trips IEEE doubles exactly, so write ->
read stores the field bit for bit, the sign of a zero included, and
repeated runs with the same configuration produce identical files.
Blank lines are skipped.  The reader splits each line once and converts
every re/im token in one ``float`` pass into one float64 array, viewed as
complex128; only a body that fails a check is walked line by line, to
name its first bad line.
"""

from __future__ import annotations

from itertools import chain

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
        text = fh.read()
    rows = [parts for parts in map(str.split, text.split("\n")) if parts]
    if not rows:
        raise SnapshotFormatError(f"{path}: empty file")
    head = rows[0]
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise SnapshotFormatError(f"{path}: not a {FORMAT_NAME} file")
    if not head[1].isdigit() or int(head[1]) != FORMAT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {head[1]}")

    try:
        header = dict(rows[1:4])  # a line that is not "key value" is a ValueError
        n = int(header["N"])
        scale = float(header["L"])
        t = float(header["t"])
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header: {exc}") from exc

    body = rows[4:]
    if len(body) != 2 * n + 1:
        raise SnapshotFormatError(
            f"{path}: expected {2 * n + 1} coefficient lines, found {len(body)}"
        )
    coeffs = _body_coeffs(path, text, body, n)
    try:
        return SpectralField(n, scale, coeffs), t
    except ValueError as exc:  # N < 1 or L <= 0
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def _body_coeffs(path, text: str, body: list, n: int) -> np.ndarray:
    """Coefficients k = -n..n of the 2n+1 split body lines "k re im".

    The mode tokens are checked as ints in order, and the re/im tokens,
    left interleaved, are converted in one pass and viewed as complex128.
    A body that fails is walked again line by line, from ``text``, so the
    error names its first bad line.
    """
    if all(len(parts) == 3 for parts in body):
        tokens = list(chain.from_iterable(body))
        try:
            if list(map(int, tokens[::3])) == list(range(-n, n + 1)):
                del tokens[::3]
                return np.array(list(map(float, tokens))).view(np.complex128)
        except ValueError:
            pass
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    for i, ln in enumerate(lines[4:]):
        parts = ln.split()
        if len(parts) != 3:
            raise SnapshotFormatError(f"{path}: bad coefficient line {ln!r}")
        try:
            k = int(parts[0])
            float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: bad coefficient line {ln!r}: {exc}") from exc
        if k != i - n:
            raise SnapshotFormatError(f"{path}: modes out of order at line {ln!r}")
    raise AssertionError("a body that failed the bulk checks passed the line checks")
