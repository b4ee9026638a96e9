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

The writer formats each stored float, modes k = 0..N of ``field.half``,
once; line -k repeats line k's re text and flips the sign of its im text
("nan" stays unsigned, as %.17g prints it).  The reader splits each line
once.  When the mode tokens read -N..N exactly as the writer spells them
and each line -k mirrors line k that way, it converts only the N+1
stored pairs and builds the field as it stands; any other body takes the
general path, which converts every re/im token in one ``float`` pass and
projects the full-range vector.  Only a body that fails a check is walked
line by line, to name its first bad line.  Blank lines are skipped.
"""

from __future__ import annotations

from functools import lru_cache
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
    pos = field.half.copy()
    pos[1::2] = -pos[1::2]  # u_hat_k, k = 0..n
    parts = ("%.17g " * (2 * n + 2) % tuple(pos.view(np.float64).tolist())).split()
    re, im = parts[0::2], parts[1::2]
    cells = [None] * (3 * (2 * n + 1))
    cells[0::3] = _mode_tokens(n)
    cells[1::3] = re[:0:-1] + re
    cells[2::3] = _negated(im[:0:-1]) + im
    body = "%s %s %s\n" * (2 * n + 1) % tuple(cells)
    with open(path, "wb") as fh:
        fh.write((header + body).encode("ascii"))


@lru_cache(maxsize=16)
def _mode_tokens(n: int) -> tuple:
    """The mode column "-n" .. "n" as the writer spells it."""
    return tuple(map(str, range(-n, n + 1)))


def _negated(tokens: list) -> list:
    """The spelling of -x for each spelling of x: a leading sign flipped,
    "nan" kept as %.17g prints it, unsigned.  A token that parses has a
    negation that parses."""
    return [s[1:] if s[0] == "-" else s if s == "nan" else "-" + s.removeprefix("+")
            for s in tokens]


def read_snapshot(path) -> tuple[SpectralField, float]:
    with open(path) as fh:
        text = fh.read()
    rows = list(filter(None, map(str.split, text.split("\n"))))
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
    half = _mirrored_half(body, n)
    coeffs = None if half is not None else _body_coeffs(path, text, body, n)
    try:
        if coeffs is None:
            return SpectralField.from_half(half, scale), t
        return SpectralField(n, scale, coeffs), t
    except ValueError as exc:  # N < 1 or L <= 0
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def _mirrored_half(body: list, n: int):
    """Folded half of a body the writer could have written, or None.

    Such a body has the mode tokens of ``_mode_tokens(n)``, and each line
    -k repeats line k's re token and negates its im token as ``_negated``
    spells it.  Then its negative modes are the exact conjugates of the
    stored ones and every token parses if the stored ones do, so only the
    n+1 stored pairs are converted, and the projection, the identity on
    such a vector, is skipped.
    """
    if set(map(len, body)) != {3}:
        return None
    tokens = list(chain.from_iterable(body))
    re, im = tokens[1::3], tokens[2::3]
    if (tuple(tokens[::3]) != _mode_tokens(n) or re[:n] != re[:n:-1]
            or im[:n] != _negated(im[:n:-1])):
        return None
    stored = tokens[3 * n :]
    del stored[::3]
    try:
        half = np.array(list(map(float, stored))).view(np.complex128)
    except ValueError:
        return None
    half[1::2] = -half[1::2]
    return half


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
