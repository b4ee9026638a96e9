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
once, and reads a body on one of two paths.  When the mode tokens read
-N..N exactly as the writer spells them and each line -k mirrors line k
that way, it converts only the N+1 stored pairs and builds the field as
it stands.  Any other body is walked once, line by line: each line is
checked, and a bad one named, as its values are collected; the
full-range vector is then projected.  Blank lines are skipped.  A
header whose t is not finite, or whose L is not in (0, inf), is a
``SnapshotFormatError``.
"""

from __future__ import annotations

import math
from contextlib import suppress
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
    if not head[1].isdecimal() or int(head[1]) != FORMAT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {head[1]}")

    try:
        header = dict(rows[1:4])  # a line that is not "key value" is a ValueError
        n = int(header["N"])
        scale = float(header["L"])
        t = float(header["t"])
        if not math.isfinite(t):
            raise ValueError(f"time t {header['t']} is not finite")
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header: {exc}") from exc

    body = rows[4:]
    if len(body) != 2 * n + 1:
        raise SnapshotFormatError(
            f"{path}: expected {2 * n + 1} coefficient lines, found {len(body)}"
        )
    values, as_stored = _body_values(path, text, body, n)
    try:
        if as_stored:
            return SpectralField.from_half(values, scale), t
        return SpectralField(n, scale, values), t
    except ValueError as exc:  # N < 1, L outside (0, inf) or a mode with no Hermitian part
        raise SnapshotFormatError(f"{path}: {exc}") from exc


def _body_values(path, text: str, body: list, n: int) -> tuple:
    """(folded half, True) of a body the writer could have written, else
    (coefficients k = -n..n, False), from the 2n+1 split lines "k re im".

    A writer's body spells modes -n..n as ``_mode_tokens(n)``, and line -k
    repeats line k's re token and its im token ``_negated``: every token
    then parses if the n+1 stored pairs do, and only those are converted.
    Any other body is walked once over the lines of ``text``, each checked
    as its values are collected, so the first bad line is named.
    """
    if set(map(len, body)) == {3}:
        tokens = list(chain.from_iterable(body))
        re, im = tokens[1::3], tokens[2::3]
        if (tuple(tokens[::3]) == _mode_tokens(n) and re[:n] == re[:n:-1]
                and im[:n] == _negated(im[:n:-1])):
            stored = tokens[3 * n :]
            del stored[::3]
            with suppress(ValueError):  # a bad stored token: the walk names it
                half = np.array(list(map(float, stored))).view(np.complex128)
                half[1::2] = -half[1::2]
                return half, True
    coeffs = np.empty(2 * n + 1, dtype=np.complex128)
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    for i, ln in enumerate(lines[4:]):
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
    return coeffs, False
