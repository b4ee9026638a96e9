import numpy as np
import pytest

from benj import spectral
from benj.errors import ShapeError
from benj.initdata import InitialDataSpec, build_field
from benj.snapshots import SnapshotFormatError, read_snapshot, write_snapshot
from benj.spectral import SpectralField, fold_half

from oracles import rand_field, read_snapshot_per_line, write_snapshot_per_line


def _written(tmp_path, field, t=0.5) -> str:
    path = tmp_path / "written.txt"
    write_snapshot(path, field, t)
    return path.read_text()


def _same_bits(a, b) -> bool:
    """Equal bit for bit, a NaN matching any NaN."""
    x, y = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


def _foreign_bodies(tmp_path, n=8) -> dict:
    """Snapshot texts the writer never writes, each a few tokens away from
    a file it wrote at bandwidth n >= 6: the line walk's cases."""
    c = rand_field(n, seed=3).coeffs.copy()
    for k, (x, y) in {1: (1.0, -0.0), 2: (float("nan"), 0.0), 3: (2.0, float("nan"))}.items():
        c.real[n + k] = c.real[n - k] = x
        c.imag[n + k], c.imag[n - k] = y, -y
    lines = _written(tmp_path, SpectralField(n, 0.75, c), 1.0 / 3.0).split("\n")
    row = {int(ln.split()[0]): i for i, ln in enumerate(lines[4:-1], start=4)}

    def edit(*changes):
        out = list(lines)
        for k, col, token in changes:
            parts = out[row[k]].split()
            assert parts[col] != token
            parts[col] = token
            out[row[k]] = " ".join(parts)
        return "\n".join(out)

    # special parts in the pairs -6/6 and -5/5, which are not conjugate
    odd = np.zeros(4, dtype=np.complex128)  # modes -6, -5, 5, 6
    odd.real = [-1e308, -0.0, -0.0, 1e308]
    odd.imag = [float("nan"), 5e-324, 5e-324, -1e308]
    specials = [(k, col, "%.17g" % v) for k, z in zip((-6, -5, 5, 6), odd)
                for col, v in ((1, z.real), (2, z.imag))]
    return {
        "not-conjugate": edit((-4, 1, "0.25")),
        "zero-for-minus-zero": edit((-2, 2, "0")),  # the conjugate of 0 is -0
        "minus-zero-for-zero": edit((-1, 2, "-0")),  # the conjugate of -0 is 0
        "plus-mode": edit((1, 0, "+1")),
        "padded-mode": edit((1, 0, "01")),
        "re-exponent": edit((1, 1, "1e0")),
        "special-parts": edit(*specials),
    }


def test_round_trip_bit_exact(tmp_path):
    f = rand_field(37, seed=11, domain_scale=2.0)
    path = tmp_path / "snap.txt"
    write_snapshot(path, f, t=0.375)
    g, t = read_snapshot(path)
    assert t == 0.375
    assert g.n_modes == 37
    assert g.domain_scale == 2.0
    assert g.coeffs.tobytes() == f.coeffs.tobytes()


def test_write_is_deterministic(tmp_path):
    f = rand_field(8, seed=1)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_snapshot(a, f, t=1.0 / 3.0)
    write_snapshot(b, f, t=1.0 / 3.0)
    assert a.read_bytes() == b.read_bytes()


def test_writer_bytes_match_per_line_oracle(tmp_path):
    f = rand_field(20, seed=5, domain_scale=1.0 / 3.0)
    c = f.coeffs.copy()
    n = f.n_modes
    # Hermitian pairs, so the field keeps them exactly
    nan, inf = float("nan"), float("inf")
    for k, v in {1: complex(-0.0, 0.0), 2: complex(5e-324, -5e-324),
                 3: complex(1e300, -1e300), 4: complex(2.2250738585072014e-308, 0.1),
                 5: complex(-1.5, -0.0), 6: complex(nan, 1.0), 7: complex(2.0, nan),
                 8: complex(inf, -inf), 9: complex(-inf, inf), 10: complex(1e308, -1e308),
                 11: complex(nan, -nan)}.items():
        c[n + k], c[n - k] = v, v.conjugate()
    g = SpectralField(f.n_modes, f.domain_scale, c)
    assert np.signbit(g.coeffs[n + 1].real) and np.signbit(g.coeffs[n + 5].imag)
    assert g.coeffs[n + 2].real == 5e-324 and g.coeffs[n + 3].real == 1e300
    assert np.isnan(g.coeffs[n + 7].imag) and g.coeffs[n + 8].imag == -inf
    assert g.coeffs[n + 10].real == 1e308
    # %.17g prints a NaN unsigned, so a mirrored "nan" stays "nan"
    assert "\n-7 2 nan\n" in _written(tmp_path, g)
    for field, t in ((f, 1.0 / 3.0), (g, 1.0 / 3.0), (g, -0.0), (rand_field(1, seed=0), 1e300)):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_snapshot(a, field, t)
        write_snapshot_per_line(b, field, t)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", [1, 16, 257])
def test_signed_zeros_survive_a_round_trip(tmp_path, n):
    # the file's negative modes are the exact conjugates of the stored ones,
    # so reading changes no bit, the sign of a zero included, down to the
    # subnormals and up to the top of the double range, for a constructed
    # field and for one built as it stands, as a run builds them
    c = rand_field(n, seed=n).coeffs.copy()
    values = [complex(1e308, -1e308), complex(-0.0, 0.0), complex(5e-324, -5e-324),
              complex(1e300, -1e300), complex(-1.5, -0.0), complex(-0.0, -2.0),
              complex(0.0, -0.0), complex(-0.0, -0.0), complex(-1e308, 1e308)]
    for k, v in enumerate(values[:n], start=1):
        c[n + k], c[n - k] = v, v.conjugate()
    f = SpectralField(n, 1.0, c)
    assert f.coeffs.tobytes() == c.tobytes()
    for field in (f, f.with_half(fold_half(c, n))):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_snapshot(a, field, 0.5)
        g, _ = read_snapshot(a)
        assert g.half.tobytes() == field.half.tobytes()
        write_snapshot(b, g, 0.5)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("text, match", [
    ("benj-snapshot x\nN 1\nL 1\nt 0\n-1 0 0\n0 0 0\n1 0 0\n", "version"),
    ("benj-snapshot 1\nN\nL 1\nt 0\n-1 0 0\n0 0 0\n1 0 0\n", "header"),
    ("benj-snapshot 1\nN 1\nL 1\nt 0\n-1 0 0\n0 x 0\n1 0 0\n", "coefficient line"),
    ("benj-snapshot 1\nN 1\nL 1\nt 0\n-1 0 0\n0 0 0\n1 0 1j\n", "coefficient line"),
    ("benj-snapshot 1\nN 1\nL 1\nt 0\nk 0 0\n0 0 0\n1 0 0\n", "coefficient line"),
    ("benj-snapshot 1\nN 0\nL 1\nt 0\n0 0 0\n", "n_modes"),
    ("benj-snapshot 1\nN 1\nL -1\nt 0\n-1 0 0\n0 0 0\n1 0 0\n", "domain_scale"),
    ("benj-snapshot 1\nN 1\nL 1\nt 0\n-1 -inf 0\n0 0 0\n1 inf 0\n", "no Hermitian part"),
    ("benj-snapshot 1\nN 1\nL nan\nt 0\n-1 0 0\n0 1 0\n1 0 0\n", "domain_scale"),
    ("benj-snapshot 1\nN 1\nL inf\nt 0\n-1 0 0\n0 1 0\n1 0 0\n", "domain_scale"),
    ("benj-snapshot 1\nN 1\nL 1\nt nan\n-1 0 0\n0 1 0\n1 0 0\n", "header: time t nan"),
    ("benj-snapshot 1\nN 1\nL 1\nt inf\n-1 0 0\n0 1 0\n1 0 0\n", "header: time t inf"),
], ids=["version", "header", "re", "im", "mode", "n-zero", "negative-scale",
        "opposite-infinities", "nan-scale", "inf-scale", "nan-time", "inf-time"])
def test_rejects_malformed_tokens(tmp_path, text, match):
    # with the message of the per-line oracle, which names the same first bad line
    path = tmp_path / "bad.txt"
    path.write_text(text)
    messages = []
    for reader in (read_snapshot, read_snapshot_per_line):
        with pytest.raises(SnapshotFormatError, match=match) as info:
            reader(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("body, match", [
    # the total token count is right, the lines are not
    ("-1 0\n0 0 0 0\n1 0 0\n", "coefficient line '-1 0'"),
    ("-1 0 0\n0 0 0\n1 0 0 0\n", "coefficient line '1 0 0 0'"),
    # each line has three tokens, the first bad one is named
    ("-1 0 0\n1 0 0\n0 x 0\n", "out of order at line '1 0 0'"),
    ("-1 0 0\n0 x 0\n2 0 0\n", "coefficient line '0 x 0'"),
    ("-1 0 0\n0 0 0\n1.0 0 0\n", "coefficient line '1.0 0 0'"),
    # line -1 prefixes a sign to line 1's "+1", which does not parse
    ("-1 0 -+1\n0 0 0\n1 0 +1\n", "coefficient line '-1 0 -\\+1'"),
], ids=["two-then-four", "four-last", "order-first", "token-first", "float-mode",
        "signed-mirror"])
def test_rejects_bad_body_lines(tmp_path, body, match):
    path = tmp_path / "bad.txt"
    path.write_text("benj-snapshot 1\nN 1\nL 1\nt 0\n" + body)
    for reader in (read_snapshot, read_snapshot_per_line):
        with pytest.raises(SnapshotFormatError, match=match):
            reader(path)


def test_reader_matches_per_line_oracle(tmp_path):
    # bit-equal coefficients and t, signed zeros, subnormals and huge
    # magnitudes included; blank and indented lines are skipped
    path = tmp_path / "snap.txt"
    for seed, n in ((0, 1), (1, 16), (2, 257)):
        f = rand_field(n, seed=seed, domain_scale=0.75)
        c = f.coeffs.copy()
        specials = [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e300, -1e300),
                    complex(-1.5, -0.0)]
        for k, v in zip(range(1, n + 1), specials):
            c[n + k], c[n - k] = v, v.conjugate()
        g = SpectralField(f.n_modes, f.domain_scale, c)
        for t in (0.0, -0.0, 1.0 / 3.0, 1e300):
            write_snapshot(path, g, t)
            text = path.read_text()
            for variant in (text, "\n" + text.replace("\n0 ", "\n\n  \t0 ", 1) + "\n \n"):
                path.write_text(variant)
                (a, ta), (b, tb) = read_snapshot(path), read_snapshot_per_line(path)
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
                assert np.array_equal(a.coeffs, g.coeffs)
                assert np.float64(ta).tobytes() == np.float64(tb).tobytes()
                assert (a.n_modes, a.domain_scale) == (b.n_modes, b.domain_scale) == (n, 0.75)
    # bodies the writer never writes take the line walk, as the oracle reads them
    for n in (8, 257):
        for name, text in _foreign_bodies(tmp_path, n).items():
            path.write_text(text)
            (a, ta), (b, tb) = read_snapshot(path), read_snapshot_per_line(path)
            assert _same_bits(a.half, b.half), (n, name)
            assert (np.float64(ta).tobytes() == np.float64(tb).tobytes()
                    == np.float64(1 / 3).tobytes())


def test_only_a_body_the_writer_never_writes_is_projected(monkeypatch, tmp_path):
    # a file benj wrote is read as it stands; any other body is projected once
    real, calls = spectral.hermitian_part, []
    monkeypatch.setattr(spectral, "hermitian_part", lambda c: calls.append(1) or real(c))
    path = tmp_path / "snap.txt"
    write_snapshot(path, rand_field(16, seed=4), 0.0)
    calls.clear()
    read_snapshot(path)
    assert calls == []
    for name, text in _foreign_bodies(tmp_path).items():
        path.write_text(text)
        calls.clear()
        read_snapshot(path)
        assert calls == [1], name


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("something else entirely\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.txt"
    path.write_text("benj-snapshot 9\nN 1\nL 1\nt 0\n-1 0 0\n0 0 0\n1 0 0\n")
    with pytest.raises(SnapshotFormatError, match="version"):
        read_snapshot(path)


def test_rejects_truncated_body(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("benj-snapshot 1\nN 2\nL 1\nt 0\n-2 0 0\n-1 0 0\n")
    with pytest.raises(SnapshotFormatError, match="coefficient lines"):
        read_snapshot(path)


def test_file_initial_data_kind(tmp_path, kdv_params):
    f = rand_field(64, seed=3, domain_scale=8.0)
    path = tmp_path / "u0.txt"
    write_snapshot(path, f, t=0.0)
    spec = InitialDataSpec(kind="file", path=str(path))
    loaded = build_field(spec, kdv_params, 64)
    assert np.array_equal(loaded.coeffs, f.coeffs)
    projected = build_field(spec, kdv_params, 32)
    assert projected.n_modes == 32
    with pytest.raises(ShapeError):
        build_field(spec, kdv_params, 128)
