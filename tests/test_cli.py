import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benj.cli
import benj.harness
from benj.cli import _SCHEMA, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main, parse_config
from benj.errors import ConfigError, DivergenceError, ParameterError
from benj.initdata import KINDS
from benj.snapshots import read_snapshot

BASE = """
model.m = 1
model.r = 0.5
model.gamma = 1.0
model.delta = 1.0
model.q = 1
n_modes = 32
integrator.dt = 2e-3
integrator.t_end = 0.05
integrator.snapshot_stride = 5
"""


def write_config(tmp_path, text=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------ parsing


def test_minimal_config_defaults():
    config = parse_config("n_modes = 64\n")
    assert config.integrator.method == "etdrk4"
    assert config.integrator.t_end == 1.0
    assert config.integrator.dt > 0  # derived from the step-size policy
    assert config.initial.kind == "gaussian"
    assert config.seed == 0


def test_config_rejects_negative_gamma():
    with pytest.raises(ParameterError, match="gamma"):
        parse_config("n_modes = 16\nmodel.gamma = -1\n")


def test_config_rejects_r_equal_m():
    with pytest.raises(ParameterError, match="r must"):
        parse_config("n_modes = 16\nmodel.r = 1\nmodel.m = 1\n")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("n_modes = 16\nmodel.viscosity = 1\n")


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n_modes = 16\nn_modes = 32\n")


def test_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("n_modes 16\n")


def test_config_requires_n_modes():
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config("model.m = 1\n")


def test_config_comments_and_overrides():
    text = "# a comment\nn_modes = 16  # trailing note\n"
    config = parse_config(text, overrides=["integrator.dt=1e-3", "seed=7"])
    assert config.n_modes == 16
    assert config.integrator.dt == 1e-3
    assert config.seed == 7
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config(text, overrides=["nope=1"])


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config("n_modes = sixteen\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [k for k, (parse, _) in _SCHEMA.items() if parse is not str])
def test_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(ConfigError) as info:
        parse_config("n_modes = 16\n", overrides=[f"{key}={value}"])
    assert info.value.key == key


# ------------------------------------------------------------------- solve


def run_solve(tmp_path, outdir, extra=()):
    cfg = write_config(tmp_path)
    args = ["solve", "--config", str(cfg), "--quiet",
            "--override", f"outputs={outdir}"]
    for item in extra:
        args += ["--override", item]
    return main(args)


def test_solve_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert run_solve(tmp_path, out) == EXIT_OK
    snaps = sorted(out.glob("snap_*.txt"))
    assert len(snaps) == 6  # t=0 plus ceil(25/5) snapshots
    csv = (out / "invariants.csv").read_text().splitlines()
    assert csv[0] == "t,C,I,E"
    assert len(csv) == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["exit_code"] == 0
    assert manifest["config"]["n_modes"] == 32
    assert manifest["results"]["rel_drift_C"] == 0.0


def test_solve_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_solve(tmp_path, out1) == EXIT_OK
    assert run_solve(tmp_path, out2) == EXIT_OK
    assert (out1 / "invariants.csv").read_bytes() == (out2 / "invariants.csv").read_bytes()
    for snap in sorted(out1.glob("snap_*.txt")):
        assert snap.read_bytes() == (out2 / snap.name).read_bytes()


def test_solve_validation_exit_code(tmp_path):
    out = tmp_path / "out"
    code = run_solve(tmp_path, out, extra=["model.gamma=-1"])
    assert code == EXIT_CONFIG


def test_solve_divergence_exit_code(tmp_path):
    # violently under-resolved explicit advection: the growth guard trips
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_solve(
            tmp_path,
            out,
            extra=[
                "initial.amplitude=80",
                "model.q=2",
                "integrator.method=ifrk4",
                "integrator.dt=0.5",
                "integrator.t_end=5",
            ],
        )
    assert code == EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "divergence"
    assert manifest["exit_code"] == EXIT_DIVERGED


def test_solve_rerun_removes_stale_snapshots(tmp_path):
    out = tmp_path / "out"
    assert run_solve(tmp_path, out) == EXIT_OK
    assert run_solve(tmp_path, out, extra=["integrator.t_end=0.01"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(list(out.glob("snap_*.txt"))) == manifest["results"]["snapshots"] == 2


@pytest.mark.parametrize("command, extra", [
    ("solve", ["initial.kind=petviashvili_wave"]),
    ("converge", ["initial.kind=petviashvili_wave", "converge.n_values=4,8"]),
    ("soliton", []),  # gamma = 1: the profile comes from the fixed-point solver
    ("converge", ["initial.kind=file", "initial.path=/nonexistent/datum.txt",
                  "converge.n_values=4,8"]),
], ids=["solve", "converge", "soliton", "converge-missing-file"])
def test_datum_failure_exit_code(tmp_path, command, extra):
    out = tmp_path / "out"
    args = [command, "--config", str(write_config(tmp_path)), "--quiet",
            "--override", f"outputs={out}", "--override", "initial.max_iter=1"]
    for item in extra:
        args += ["--override", item]
    assert main(args) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "validation-error"
    assert manifest["exit_code"] == EXIT_CONFIG


def test_solve_failure_removes_stale_invariants(tmp_path):
    out = tmp_path / "out"
    assert run_solve(tmp_path, out) == EXIT_OK
    assert (out / "invariants.csv").exists()
    code = run_solve(tmp_path, out, extra=["initial.kind=petviashvili_wave",
                                            "initial.max_iter=1"])
    assert code == EXIT_CONFIG
    assert json.loads((out / "manifest.json").read_text())["status"] == "validation-error"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


BAD_TOKEN_SNAPSHOT = "benj-snapshot 1\nN 1\nL 1\nt 0\n-1 0 0\n0 x 0\n1 0 0\n"


def test_solve_malformed_file_datum_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(BAD_TOKEN_SNAPSHOT)
    out = tmp_path / "out"
    code = run_solve(tmp_path, out, extra=["initial.kind=file", f"initial.path={bad}"])
    assert code == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "validation-error"
    assert manifest["exit_code"] == EXIT_CONFIG


# --------------------------------------------------------------- invariants


def test_invariants_malformed_snapshot_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(BAD_TOKEN_SNAPSHOT)
    cfg = write_config(tmp_path)
    assert main(["invariants", "--config", str(cfg), "--quiet", str(bad)]) == EXIT_CONFIG
    assert "bad coefficient line" in capsys.readouterr().err


def test_invariants_table_matches_run_csv(tmp_path, capsys):
    out = tmp_path / "out"
    run_solve(tmp_path, out)
    cfg = write_config(tmp_path)
    snaps = sorted(str(p) for p in out.glob("snap_*.txt"))
    code = main(["invariants", "--config", str(cfg), "--quiet"] + snaps)
    assert code == EXIT_OK
    table = capsys.readouterr().out.strip().splitlines()
    csv = (out / "invariants.csv").read_text().strip().splitlines()
    assert table == csv


def test_invariants_requires_files(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["invariants", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG


# ----------------------------------------------------------------- converge


def test_converge_report_structure(tmp_path):
    out = tmp_path / "conv"
    cfg = write_config(
        tmp_path,
        BASE + "converge.n_values = 4, 8\nconverge.n_ref = 32\nconverge.t_star = 0.02\n",
    )
    code = main(["converge", "--config", str(cfg), "--quiet",
                 "--override", f"outputs={out}"])
    assert code == EXIT_OK
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "N,error"
    assert lines[1].startswith("4,")
    assert lines[2].startswith("8,")
    assert lines[3].startswith("rate,")
    assert len(lines[3].split(",")) == 3  # rate plus fit quality
    manifest = json.loads((out / "manifest.json").read_text())
    assert "fitted_rate" in manifest["results"]


def test_converge_requires_n_values(tmp_path):
    out = tmp_path / "conv"
    cfg = write_config(tmp_path)
    code = main(["converge", "--config", str(cfg), "--quiet",
                 "--override", f"outputs={out}"])
    assert code == EXIT_CONFIG


DIVERGING_REFERENCE = ("converge.n_values=8,16", "initial.amplitude=80", "model.q=2",
                       "integrator.method=ifrk4", "integrator.dt=0.5", "integrator.t_end=5")


def test_converge_reference_divergence_exit_code(tmp_path):
    out = tmp_path / "conv"
    cfg = write_config(tmp_path)
    args = ["converge", "--config", str(cfg), "--quiet", "--override", f"outputs={out}"]
    for item in DIVERGING_REFERENCE:
        args += ["--override", item]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(args)
    assert code == EXIT_DIVERGED
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "divergence"
    assert manifest["exit_code"] == EXIT_DIVERGED
    assert manifest["results"]["failed_at"] > 0


def test_converge_failure_removes_stale_csv(tmp_path):
    out = tmp_path / "conv"
    cfg = write_config(
        tmp_path,
        BASE + "converge.n_values = 4, 8\nconverge.n_ref = 32\nconverge.t_star = 0.02\n",
    )
    args = ["converge", "--config", str(cfg), "--quiet", "--override", f"outputs={out}"]
    assert main(args) == EXIT_OK
    assert (out / "convergence.csv").exists()
    for item in DIVERGING_REFERENCE + ("converge.n_ref=64",):
        args += ["--override", item]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == EXIT_DIVERGED
    assert json.loads((out / "manifest.json").read_text())["status"] == "divergence"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


# ------------------------------------------------------------------ soliton


def test_soliton_command(tmp_path):
    out = tmp_path / "sol"
    cfg = write_config(
        tmp_path,
        "model.m = 1\nmodel.r = 0.5\nmodel.gamma = 0\nmodel.delta = 1\nmodel.q = 1\n"
        "model.domain_scale = 8\nn_modes = 128\nsoliton.c = 0.5\nsoliton.t_star = 1\n"
        "soliton.dt = 5e-3\n",
    )
    code = main(["soliton", "--config", str(cfg), "--quiet",
                 "--override", f"outputs={out}"])
    assert code == EXIT_OK
    profile, t = read_snapshot(out / "profile.txt")
    assert profile.n_modes == 128
    lines = (out / "soliton_report.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    assert float(values["speed_error"]) < 1e-3
    assert float(values["shape_error_linf"]) < 1e-4


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_unwritable_output_directory(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(0o555)
    try:
        probe = blocked / "probe"
        try:
            probe.write_text("x")
            probe.unlink()
            pytest.skip("privileged process: directory modes not enforced")
        except PermissionError:
            pass
        code = run_solve(tmp_path, blocked / "out")
        assert code == EXIT_CONFIG
    finally:
        blocked.chmod(0o755)


# ------------------------------------------------------------ failure paths


def run_command(tmp_path, command, extra=(), text=BASE):
    """Run ``command`` into tmp_path/out; its exit code and manifest (or None)."""
    out = tmp_path / "out"
    args = [command, "--config", str(write_config(tmp_path, text)), "--quiet",
            "--override", f"outputs={out}"]
    for item in extra:
        args += ["--override", item]
    code = main(args)
    manifest = out / "manifest.json"
    return code, json.loads(manifest.read_text()) if manifest.exists() else None


@pytest.mark.parametrize("command, extra", [
    ("solve", ["initial.kind=petviashvili_wave"]),
    ("converge", ["initial.kind=petviashvili_wave", "converge.n_values=4,8"]),
    ("soliton", []),
], ids=["solve", "converge", "soliton"])
def test_empty_fixed_point_budget_exit_code(tmp_path, command, extra):
    code, manifest = run_command(tmp_path, command, ["initial.max_iter=0", *extra])
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_large_q_exit_code(tmp_path, command):
    # the padded grid size to the power q leaves the floating-point range
    text = "n_modes = 8\nintegrator.t_end = 0.01\nconverge.n_values = 4, 8\nmodel.q = 120\n"
    code, manifest = run_command(tmp_path, command, text=text)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"


def test_solve_vanishing_width(tmp_path):
    with np.errstate(over="ignore"):
        code, manifest = run_command(tmp_path, "solve", ["initial.width=1e-300"])
    assert code == manifest["exit_code"] == EXIT_OK


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_negative_random_seed_exit_code(tmp_path, command):
    extra = ["initial.kind=random_sobolev", "seed=-1", "converge.n_values=4,8"]
    code, manifest = run_command(tmp_path, command, extra)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_output_path_through_a_file(tmp_path, command):
    # neither the results nor the manifest can be written, even by root
    (tmp_path / "out").write_text("")
    code, _ = run_command(tmp_path, command, ["outputs=" + str(tmp_path / "out" / "sub"),
                                              "converge.n_values=4,8"])
    assert code == EXIT_CONFIG


def test_internal_error_leaves_incomplete_manifest(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(benj.cli, "evolve", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        run_command(tmp_path, "solve")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["exit_code"] is None
    assert manifest["finished_utc"] is not None


def test_converge_member_divergence_exit_code(tmp_path, monkeypatch):
    real = benj.harness.evolve

    def evolve_or_diverge(u0, *args, **kwargs):
        if u0.n_modes == 8:
            raise DivergenceError("norm grew beyond 1e6x initial at t=0.01", time=0.01)
        return real(u0, *args, **kwargs)

    monkeypatch.setattr(benj.harness, "evolve", evolve_or_diverge)
    code, manifest = run_command(tmp_path, "converge", ["converge.n_values=4,8",
                                                        "converge.t_star=0.02"])
    assert code == manifest["exit_code"] == EXIT_DIVERGED
    assert manifest["status"] == "divergence"
    assert list(manifest["results"]["failures"]) == ["8"]
    assert (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("dt_line, expected", [
    ("", 2.0**-8),  # default_dt at the finest measured N = 128
    ("integrator.dt = 1.953125e-3\n", 2.0**-9),
], ids=["derived", "configured"])
def test_converge_step_policy(tmp_path, monkeypatch, dt_line, expected):
    reports = []

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    real = benj.cli.self_convergence
    monkeypatch.setattr(benj.cli, "self_convergence", recording)
    # n_modes = 8 alone would give dt = 5e-3, which snaps to 7 steps over t*
    text = "n_modes = 8\nconverge.n_values = 8, 16, 128\nconverge.t_star = 0.03125\n"
    code, _ = run_command(tmp_path, "converge", text=text + dt_line)
    assert code == EXIT_OK
    assert reports[0].dt == expected


def test_soliton_builds_closed_form_once(tmp_path):
    # a short domain leaves a visible tail, so building the profile warns
    text = ("model.gamma = 0\nmodel.domain_scale = 1\nn_modes = 32\nsoliton.c = 0.5\n"
            "soliton.t_star = 0.01\nsoliton.dt = 5e-3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_command(tmp_path, "soliton", text=text)
    assert code == EXIT_OK
    assert sum("soliton tail" in str(w.message) for w in caught) == 1


# Overrides drawn per key.  Bandwidths stay <= 8 and horizons <= 0.01 so a
# run is cheap; steps are never tiny positive numbers, and integers never
# huge, since either only asks for a long or a large run.  q = 400 is the
# exception: M^q for its padded grid M overflows, which must exit 2.
_TIME_VALUES = ["0", "-1", "1e-3", "0.01", "nan", "inf", "-inf", "x"]
_NUMBER_VALUES = ["0", "-1", "-0.5", "0.5", "2", "1e-300", "1e300", "nan", "inf", "-inf",
                  "abc", ""]
_FUZZ_POOLS = {
    "n_modes": ["0", "-1", "1", "4", "8", "x", "nan"],
    "integrator.dt": _TIME_VALUES,
    "integrator.t_end": _TIME_VALUES,
    "converge.t_star": _TIME_VALUES,
    "soliton.t_star": _TIME_VALUES,
    "soliton.dt": _TIME_VALUES,
    "converge.n_values": ["4,8", "8", "0,8", "-4,8", "4,4", "", "x"],
    "converge.n_ref": ["0", "-1", "16", "32", "x"],
    "converge.track_max": ["true", "maybe"],
    "initial.kind": [*KINDS, "bogus"],
    "initial.path": ["/nonexistent/datum.txt", str(Path(__file__).parent)],
    "integrator.method": ["etdrk4", "ifrk4", "bogus"],
    "model.q": ["0", "-1", "2", "3", "400", "nan", "x"],
}
_FUZZ_KEYS = [k for k in _SCHEMA if k != "outputs"]
FUZZ_BASE = "n_modes = 8\nintegrator.t_end = 0.01\nconverge.n_values = 4, 8\n"


@st.composite
def _overrides(draw):
    keys = draw(st.lists(st.sampled_from(_FUZZ_KEYS), min_size=1, max_size=4, unique=True))
    return [f"{k}={draw(st.sampled_from(_FUZZ_POOLS.get(k, _NUMBER_VALUES)))}" for k in keys]


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["solve", "converge", "soliton"]), overrides=_overrides())
def test_fuzzed_overrides_end_in_documented_exit_code(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(FUZZ_BASE)
        overrides = [*overrides, f"outputs={Path(tmp) / 'out'}"]
        args = [command, "--config", str(cfg), "--quiet"]
        for item in overrides:
            args += ["--override", item]
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main(args)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        try:
            parse_config(FUZZ_BASE, overrides)
        except ValueError:
            return  # rejected before any output
        manifest = json.loads((Path(tmp) / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == code
