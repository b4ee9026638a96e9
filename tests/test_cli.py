import json
import tempfile
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benj.cli
import benj.harness
import benj.initdata
import benj.invariants
import benj.model
import benj.semidiscrete
from benj.cli import _SCHEMA, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main, parse_config
from benj.errors import ConfigError, ParameterError
from benj.initdata import KINDS, InitialDataSpec, build_field
from benj.model import ModelParams
from benj.snapshots import read_snapshot
from benj.spectral import l2_norm
from benj.timestep import IntegratorConfig, IntegratorPolicy

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
    assert config.initial.seed == 0  # the top-level seed


@pytest.mark.parametrize("dt", [None, 2e-3, 1.0], ids=["unset", "set", "past-horizon"])
def test_config_integrator_is_the_policy_grid(dt):
    # the parser derives no step of its own: its grid is the policy's, with
    # the config's stride
    text = "n_modes = 32\nmodel.domain_scale = 2\nintegrator.method = IFRK4\n" \
           "integrator.t_end = 0.03\nintegrator.snapshot_stride = 3\n"
    config = parse_config(text + ("" if dt is None else f"integrator.dt = {dt}\n"))
    grid = IntegratorPolicy("ifrk4", dt).grid(config.model, 32, 0.03)
    assert config.integrator == replace(grid, snapshot_stride=3)
    assert config.raw["integrator.dt"] == dt


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
    assert config.initial.seed == 7  # the top-level seed
    with pytest.raises(ConfigError, match="override 'nope=1': unknown key 'nope'"):
        parse_config(text, overrides=["nope=1"])


@pytest.mark.parametrize("text", [
    "n_modes = 16 # bandwidth", "outputs = a#b", "integrator.t_end = 0.02 # horizon",
    "  seed=7#", "initial.kind = cosine  # one mode", "outputs = #",
])
def test_a_line_and_an_override_share_one_grammar(text):
    # an override's trailing comment was part of its value: 16 # bandwidth
    # was refused, and a#b kept its '#'
    base = "" if text.startswith("n_modes") else "n_modes = 8\n"
    try:
        as_line = parse_config(base + text + "\n")
    except ConfigError as exc:
        as_line = str(exc)
    try:
        as_override = parse_config(base, [text])
    except ConfigError as exc:
        as_override = str(exc)
    assert as_line == as_override


@pytest.mark.parametrize("text, message", [
    ("n_modes 16", "expected 'key = value', got 'n_modes 16'"),
    ("nope = 1 # note", "unknown key 'nope'"),
    ("= 1", "unknown key ''"),
])
def test_a_line_and_an_override_share_one_refusal(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(f"# first\n{text}\n")
    assert str(info.value) == f"line 2: {message}"
    with pytest.raises(ConfigError) as info:
        parse_config("n_modes = 8\n", ["seed=1", text])
    assert str(info.value) == f"override {text!r}: {message}"


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config("n_modes = sixteen\n")


def test_unknown_kind_is_refused_before_the_output_directory(tmp_path, capsys):
    # ``InitialDataSpec`` checks the kind while the config parses
    code, manifest = run_command(tmp_path, "solve", ["initial.kind=bogus"])
    assert code == EXIT_CONFIG
    assert manifest is None
    err = capsys.readouterr().err
    assert all(repr(kind) in err for kind in KINDS)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, cls", [
    ("model", ModelParams), ("initial", InitialDataSpec), ("integrator", IntegratorConfig)])
def test_config_sections_name_the_dataclass_fields(section, cls):
    keys = {k.split(".", 1)[1] for k in _SCHEMA if k.startswith(section + ".")}
    if section == "initial":
        keys.add("seed")  # filled by the top-level seed
    assert keys == {f.name for f in fields(cls)}


# the aliases of integrator.t_end, integrator.dt, initial.speed and seed,
# and the unused track_max: one key per value
REMOVED_KEYS = ("converge.t_star", "soliton.t_star", "soliton.dt", "soliton.c",
                "initial.seed", "converge.track_max")


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"n_modes = 16\noutputs = {out}\n{key} = 1\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err
    cfg = write_config(tmp_path, f"n_modes = 16\noutputs = {out}\n")
    assert main(["solve", "--config", str(cfg), "--quiet", "--override", f"{key}=1"]) == EXIT_CONFIG
    assert f"override '{key}=1': unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, command", [
    ("n_modes = 8\nmodel.q = 1000000\n", "solve"),
    ("n_modes = 1000000000\n", "solve"),
    ("n_modes = 1000000000000000000000000\n", "solve"),
    ("converge.n_values = 8, 1000000\n", "converge"),
    ("converge.n_values = 4, 8\nconverge.n_ref = 1000000\n", "converge"),
], ids=["q", "n_modes", "n_modes-huge", "n_values", "n_ref"])
def test_config_rejects_oversized_grids(text, command):
    # checked from the sizes alone: no grid of that size is ever built
    with pytest.raises(ConfigError, match="needs a grid of more than"):
        parse_config(text, None, command)
    parse_config("converge.n_values = 4, 8\nmodel.q = 100\nconverge.n_ref = 4096\n", None,
                 "converge")


def test_converge_keys_do_not_bound_a_solve_config():
    # solve reads neither key: a reference grid past the bound, or a
    # reference bandwidth no study could use, does not refuse it
    for converge in ("converge.n_values = 8, 1000000\n", "converge.n_ref = 0\n"):
        config = parse_config("n_modes = 8\n" + converge)
        assert (config.n_modes, config.integrator.dt) == (8, 5e-3)


# converge reads no n_modes: unset, or past the grid bound, it changes nothing
@pytest.mark.parametrize("n_modes_line", ["", "n_modes = 900000\n"], ids=["unset", "huge"])
def test_converge_ignores_n_modes(tmp_path, n_modes_line):
    text = n_modes_line + "converge.n_values = 4, 8\nintegrator.t_end = 0.01\n"
    code, manifest = run_command(tmp_path, "converge", text=text)
    assert code == manifest["exit_code"] == EXIT_OK
    assert manifest["status"] == "ok"
    assert parse_config(text, None, "converge").n_modes is None


def test_converge_step_is_planned_at_the_finest_measured_bandwidth():
    # n_modes = 4096 would plan dt = 1.2e-4, 1.64e6 steps past the bound; the
    # study steps 5e-3 at N = 8, 40,000 steps
    text = "n_modes = 4096\nconverge.n_values = 4, 8\nintegrator.t_end = 200\n"
    config = parse_config(text, None, "converge")
    grid = config.integrator
    assert (grid.dt, grid.n_steps) == (5e-3, 40_000)
    assert grid == IntegratorPolicy().grid(config.model, 8, 200.0)


def test_converge_over_bound_step_is_refused_at_parse_time(tmp_path, benjamin_params):
    # the finest measured bandwidth N = 4096 plans 1.64e6 steps, and a step
    # of 4e-7 to 0.5 plans 1.25e6 steps for the members and the reference:
    # exit 2 at once, with no manifest and no output directory
    texts = ["n_modes = 8\nconverge.n_values = 4, 4096\nintegrator.t_end = 200\n",
             "converge.n_values = 4, 8\nintegrator.dt = 4e-7\nintegrator.t_end = 0.5\n"]
    for text in texts:
        start = time.perf_counter()
        code, manifest = run_command(tmp_path, "converge", text=text)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG
        assert manifest is None
        assert not (tmp_path / "out").exists()
    # the parser refuses the study's grid with the study's own message
    with pytest.raises(ValueError) as library:
        benj.harness.self_convergence(benjamin_params, InitialDataSpec("gaussian"), [4, 8], 32,
                                      0.5, IntegratorPolicy(dt=4e-7))
    with pytest.raises(ValueError) as parser:
        parse_config(texts[1], None, "converge")
    assert str(parser.value) == str(library.value)
    assert str(parser.value) == "1.25e+06 time steps exceed the bound of 1000000"


# the entries are split on commas only: "4 8" is not the bandwidth 48
@pytest.mark.parametrize("value", ["", "0", "-4, 8", "4 8", "1 6, 32", "-8, -4"],
                         ids=["empty", "zero", "negative", "space-inside", "space-inside-first",
                              "all-negative"])
def test_converge_n_values_are_checked_at_parse_time(tmp_path, value):
    code, manifest = run_command(tmp_path, "converge", [f"converge.n_values={value}"],
                                 text="integrator.t_end = 0.01\n")
    assert code == EXIT_CONFIG
    assert manifest is None
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as info:
        parse_config(f"converge.n_values = {value}\n", None, "converge")
    assert info.value.key == "converge.n_values"


@pytest.mark.parametrize("value", ["4, 8", "4,8", "4,,8", " 4 ,8 ", "8, 4"])
def test_converge_n_values_are_comma_separated_and_sorted(value):
    config = parse_config(f"converge.n_values = {value}\n", None, "converge")
    assert config.raw["converge.n_values"] in ([4, 8], [8, 4])
    assert (config.n_values, config.n_ref) == ([4, 8], 32)  # n_ref: 4x the finest


# one integer grammar for every integer key and each converge.n_values
# entry: ASCII digits after at most one leading '-'.  Python's int would
# also read digit-group underscores, a '+' and other scripts' digits.
INT_KEYS = ["model.m", "model.q", "n_modes", "seed", "integrator.snapshot_stride",
            "initial.max_iter", "converge.n_ref"]


@pytest.mark.parametrize("command, key, value", [
    ("converge", "converge.n_values", "1_6, +3_2"),
    ("solve", "n_modes", "1_28"),
    ("solve", "seed", "+5"),
    ("solve", "model.q", "\u0661"),  # ARABIC-INDIC DIGIT ONE
], ids=["n_values", "n_modes", "seed", "q"])
def test_integer_grammar_refusal_exits_at_parse_time(tmp_path, command, key, value):
    text = "n_modes = 8\nintegrator.t_end = 0.01\n"
    with pytest.raises(ConfigError, match="expected ASCII digits") as info:
        parse_config(text, [f"{key}={value}"], command)
    assert info.value.key == key
    code, manifest = run_command(tmp_path, command, [f"{key}={value}"], text=text)
    assert (code, manifest) == (EXIT_CONFIG, None)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1_6", "+5", "\u0661", "\uff11", "\u00b2", "--1", "-+1",
                                   "- 1", "1 6", "1.0", "-"])
@pytest.mark.parametrize("key", INT_KEYS + ["converge.n_values"])
def test_integer_grammar_refuses_all_but_ascii_digits(key, value):
    with pytest.raises(ConfigError, match="expected ASCII digits") as info:
        parse_config("", [f"{key}={value}"], "invariants")  # every given key is parsed
    assert info.value.key == key


def test_integer_grammar_keeps_a_leading_minus():
    # a negative value parses, so the range checks and their messages see it
    for key in INT_KEYS:
        assert [_SCHEMA[key][0](v) for v in ("-1", "0", "007", "-12")] == [-1, 0, 7, -12]
    assert _SCHEMA["converge.n_values"][0]("-4, 8") == [-4, 8]
    # refused by the owner of N >= 1, spectral._check_sizes, keyed
    with pytest.raises(ConfigError, match="^n_modes must be >= 1, got -1$") as info:
        parse_config("n_modes = -1\n")
    assert info.value.key == "n_modes"


# a study's bandwidth rule broken: not distinct, a reference below four
# times the finest, and a bandwidth below 1 (the rule owns N >= 1 for
# converge.n_values)
STUDY_RULE_BROKEN = [(["converge.n_values=4,4"], [4, 4], 16),
                     (["converge.n_values=4,8", "converge.n_ref=16"], [4, 8], 16),
                     (["converge.n_values=0"], [0], 0),
                     (["converge.n_values=-8,-4"], [-8, -4], -16)]


@pytest.mark.parametrize("overrides, n_values, n_ref", STUDY_RULE_BROKEN,
                         ids=["repeated", "coarse-reference", "zero", "all-negative"])
def test_converge_bandwidth_rule_is_the_harness_rule(tmp_path, benjamin_params, overrides,
                                                     n_values, n_ref):
    # the parser refuses what the library refuses, with the same message,
    # before the output directory or a manifest exists
    spec = InitialDataSpec("gaussian")
    with pytest.raises(ValueError) as library:
        benj.harness.self_convergence(benjamin_params, spec, n_values, n_ref, 0.01)
    with pytest.raises(ValueError) as parser:
        parse_config("integrator.t_end = 0.01\n", overrides, "converge")
    assert str(parser.value) == str(library.value)
    code, manifest = run_command(tmp_path, "converge", overrides,
                                 text="integrator.t_end = 0.01\n")
    assert (code, manifest) == (EXIT_CONFIG, None)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_ref", ["-1", "0"])
def test_non_positive_n_ref_is_refused_by_the_study_rule_at_once(tmp_path, n_ref):
    # the rule runs before the grid bound, which would size a grid at n_ref
    with pytest.raises(ValueError, match=f"reference bandwidth {n_ref} must be at least 4x"):
        parse_config(f"converge.n_values = 4, 8\nconverge.n_ref = {n_ref}\n", None, "converge")
    start = time.perf_counter()
    code, manifest = run_command(tmp_path, "converge", ["converge.n_values=4,8",
                                                        f"converge.n_ref={n_ref}"],
                                 text="integrator.t_end = 0.01\n")
    assert time.perf_counter() - start < 1.0
    assert (code, manifest) == (EXIT_CONFIG, None)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "converge", "soliton"])
def test_empty_outputs_is_refused(tmp_path, monkeypatch, command):
    # an empty value would name the current directory, and the run would
    # remove this command's earlier results there
    monkeypatch.chdir(tmp_path)
    foreign = tmp_path / "snap_9999.txt"
    foreign.write_text("not ours\n")
    cfg = write_config(tmp_path, BASE + "converge.n_values = 4, 8\noutputs =\n")
    assert main([command, "--config", str(cfg), "--quiet"]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "snap_9999.txt"]
    assert foreign.read_text() == "not ours\n"
    with pytest.raises(ConfigError) as info:
        parse_config(cfg.read_text(), None, command)
    assert info.value.key == "outputs"
    assert parse_config("n_modes = 8\noutputs = .\n").outputs == Path(".")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key", [k for k, (parse, _) in _SCHEMA.items() if parse is not str] + list(REMOVED_KEYS))
def test_config_rejects_non_finite_numbers(key, value):
    # a removed key is still refused with a non-finite value: as unknown
    with pytest.raises(ConfigError) as info:
        parse_config("n_modes = 16\n", overrides=[f"{key}={value}"])
    assert info.value.key == key
    assert (f"unknown key {key!r}" in str(info.value)) == (key in REMOVED_KEYS)


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


def test_solve_takes_equal_steps_to_the_horizon(tmp_path):
    # dt = 0.003 does not divide t_end = 0.01: four equal steps of 0.01/4
    out = tmp_path / "out"
    extra = ["integrator.dt=0.003", "integrator.t_end=0.01", "integrator.snapshot_stride=1"]
    assert run_solve(tmp_path, out, extra) == EXIT_OK
    headers = [snap.read_text().splitlines()[3] for snap in sorted(out.glob("snap_*.txt"))]
    assert headers == [f"t {t:.17g}" for t in (0.0, 0.01 / 4, 2 * 0.01 / 4, 3 * 0.01 / 4, 0.01)]
    assert headers[1] == "t 0.0025000000000000001"
    assert headers[-1] == "t 0.01"
    # the manifest records the step the run took, not the target step
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert (results["dt"], results["n_steps"]) == (0.0025, 4)


def test_solve_evaluates_the_energy_symbol_once(tmp_path, monkeypatch):
    # a Petviashvili wave, its run and six snapshots' energies, all of one
    # model at one bandwidth and scale: one evaluation of the symbol on the
    # 33 stored modes, whichever of these modules would call it
    calls, real = [], benj.model.symbol_l

    def counting(params, kappa):
        calls.append(len(kappa))
        return real(params, kappa)

    for module in (benj.semidiscrete, benj.invariants, benj.initdata):
        monkeypatch.setattr(module, "symbol_l", counting, raising=False)
    benj.semidiscrete._mode_operator.cache_clear()
    out = tmp_path / "out"
    assert run_solve(tmp_path, out, ["initial.kind=petviashvili_wave"]) == EXIT_OK
    assert len(list(out.glob("snap_*.txt"))) == 6
    assert calls == [33]


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
# a body with no Hermitian part: the projection would average inf with -inf
OPPOSITE_INFINITIES_SNAPSHOT = (
    "benj-snapshot 1\nN 2\nL 1\nt 0\n-2 0 0\n-1 -inf 0\n0 0 0\n1 inf 0\n2 0 0\n")
# a header scale or time outside the finite range
NON_FINITE_HEADER_SNAPSHOT = "benj-snapshot 1\nN 1\nL {L}\nt {t}\n-1 0 0\n0 1 0\n1 0 0\n"
MALFORMED_SNAPSHOTS = pytest.mark.parametrize("text, message", [
    (BAD_TOKEN_SNAPSHOT, "bad coefficient line '0 x 0'"),
    (OPPOSITE_INFINITIES_SNAPSHOT, "modes -1 and 1 have no Hermitian part: real parts -inf and inf"),
    (NON_FINITE_HEADER_SNAPSHOT.format(L="nan", t=0), "domain_scale must satisfy 0 < L < inf"),
    (NON_FINITE_HEADER_SNAPSHOT.format(L="inf", t=0), "domain_scale must satisfy 0 < L < inf"),
    (NON_FINITE_HEADER_SNAPSHOT.format(L=1, t="nan"), "malformed header: time t nan"),
    (NON_FINITE_HEADER_SNAPSHOT.format(L=1, t="inf"), "malformed header: time t inf"),
], ids=["bad-token", "opposite-infinities", "nan-scale", "inf-scale", "nan-time", "inf-time"])


@MALFORMED_SNAPSHOTS
def test_solve_malformed_file_datum_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    code = run_solve(tmp_path, out, extra=["initial.kind=file", f"initial.path={bad}",
                                           "n_modes=2"])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "validation-error"
    assert manifest["exit_code"] == EXIT_CONFIG
    assert not (out / "snap_0000.txt").exists()


def test_solve_file_datum_above_its_bandwidth_exit_code(tmp_path, capsys):
    # the projection refuses a snapshot asked for at a higher bandwidth
    src = tmp_path / "src"
    assert run_solve(tmp_path, src, extra=["n_modes=16"]) == EXIT_OK
    out = tmp_path / "out"
    code = run_solve(tmp_path, out, extra=["initial.kind=file",
                                           f"initial.path={src / 'snap_0000.txt'}"])
    assert code == EXIT_CONFIG
    assert "error: cannot project bandwidth 16 up to 32" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "validation-error"
    assert not (out / "snap_0000.txt").exists()


# --------------------------------------------------------------- invariants


@MALFORMED_SNAPSHOTS
def test_invariants_malformed_snapshot_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    cfg = write_config(tmp_path)
    assert main(["invariants", "--config", str(cfg), "--quiet", str(bad)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


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


def test_invariants_table_sorts_the_files_by_time(tmp_path, capsys):
    out = tmp_path / "out"
    run_solve(tmp_path, out)
    cfg = write_config(tmp_path)
    snaps = sorted((str(p) for p in out.glob("snap_*.txt")), reverse=True)
    assert main(["invariants", "--config", str(cfg), "--quiet"] + snaps) == EXIT_OK
    assert capsys.readouterr().out == (out / "invariants.csv").read_text()


def test_diverged_solve_keeps_the_rows_of_the_snapshots_it_wrote(tmp_path, capsys):
    # the growth guard trips after some snapshots: invariants.csv has one
    # row per snapshot written, the table ``benj invariants`` prints for them
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_solve(tmp_path, out, extra=[
            "initial.amplitude=4", "model.q=2", "integrator.method=ifrk4",
            "integrator.dt=0.02", "integrator.t_end=2", "integrator.snapshot_stride=1",
        ])
    assert code == EXIT_DIVERGED
    snaps = sorted(str(p) for p in out.glob("snap_*.txt"))
    csv = (out / "invariants.csv").read_text()
    assert 1 < len(snaps) == len(csv.splitlines()) - 1
    cfg = write_config(tmp_path)
    args = ["invariants", "--config", str(cfg), "--quiet", "--override", "model.q=2"]
    assert main(args + snaps) == EXIT_OK
    assert capsys.readouterr().out == csv


def test_solve_diverging_on_its_first_step_keeps_the_initial_snapshot(tmp_path, monkeypatch):
    # the flux is nonfinite from its first call, so the run fails on step 1:
    # only the initial state was observed, and its snapshot and row stay
    import benj.timestep

    nan_flux = lambda c: np.full_like(c, np.nan)
    monkeypatch.setattr(benj.timestep, "folded_nonlinear_term", lambda *args: nan_flux)
    with np.errstate(invalid="ignore"):
        code, manifest = run_command(tmp_path, "solve")
    assert code == manifest["exit_code"] == EXIT_DIVERGED
    assert manifest["status"] == "divergence"
    grid = parse_config(BASE).integrator
    assert manifest["results"] == {"dt": grid.dt, "n_steps": grid.n_steps, "failed_at": grid.dt}
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "invariants.csv", "manifest.json", "snap_0000.txt"]
    assert read_snapshot(out / "snap_0000.txt")[1] == 0.0
    csv = (out / "invariants.csv").read_text().splitlines()
    assert csv[0] == "t,C,I,E" and len(csv) == 2 and csv[1].startswith("0,")


def test_invariants_of_an_overflowing_symbol_exit_code(tmp_path, capsys):
    # the energy's symbol leaves the floating-point range at m = 200: exit 2
    # with the range message, no table and no numpy warning
    out = tmp_path / "out"
    assert run_solve(tmp_path, out) == EXIT_OK
    capsys.readouterr()
    snaps = sorted(str(p) for p in out.glob("snap_*.txt"))
    args = ["invariants", "--config", str(write_config(tmp_path)), "--quiet",
            "--override", "model.m=200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + snaps) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaves the floating-point range" in captured.err


@pytest.mark.parametrize("override", [None, "integrator.t_end=0", "initial.kind=bogus"],
                         ids=["model-only", "zero-horizon", "unknown-kind"])
def test_invariants_reads_the_model_section_alone(tmp_path, capsys, override):
    out = tmp_path / "out"
    assert run_solve(tmp_path, out, extra=["model.q=2"]) == EXIT_OK
    cfg = write_config(tmp_path, "model.q = 2\n", name="model.cfg")
    args = ["invariants", "--config", str(cfg), "--quiet"]
    if override is not None:
        args += ["--override", override]
    assert main(args + sorted(str(p) for p in out.glob("snap_*.txt"))) == EXIT_OK
    assert capsys.readouterr().out == (out / "invariants.csv").read_text()
    assert parse_config("model.q = 2\n", None, "invariants").integrator is None


def test_invariants_requires_files(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["invariants", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG


# ----------------------------------------------------------------- converge


CONVERGE_TEXT = (BASE.replace("integrator.t_end = 0.05", "integrator.t_end = 0.02")
                 + "converge.n_values = 4, 8\nconverge.n_ref = 32\n")


def test_converge_report_structure(tmp_path):
    out = tmp_path / "conv"
    cfg = write_config(tmp_path, CONVERGE_TEXT)
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
    # the members' step: the 2e-3 target divides t_end = 0.02
    assert (manifest["results"]["dt"], manifest["results"]["n_steps"]) == (0.02 / 10, 10)


@pytest.mark.parametrize("n_values", ["8", "4,8"], ids=["one-bandwidth", "two-bandwidths"])
def test_convergence_csv_bytes(tmp_path, monkeypatch, n_values):
    reports = record_returns(monkeypatch, "self_convergence")
    code, _ = run_command(tmp_path, "converge",
                          [f"converge.n_values={n_values}", "integrator.t_end=0.02"])
    assert code == EXIT_OK
    (report,) = reports
    nan = float("nan")
    rate = nan if report.fitted_rate is None else report.fitted_rate
    r2 = nan if report.fit_r2 is None else report.fit_r2
    # the format, one f-string per line
    expected = "N,error\n"
    for n, err in zip(report.n_values, report.errors):
        expected += f"{n},{err:.17g}\n"
    expected += f"rate,{rate:.17g},{r2:.17g}\n"
    written = (tmp_path / "out" / "convergence.csv").read_bytes()
    assert written == expected.encode()
    if n_values == "8":  # one bandwidth leaves nothing to fit a rate to
        assert written.endswith(b"\nrate,nan,nan\n")


def test_converge_plateau_at_rounding_fits_no_rate(tmp_path, monkeypatch):
    # Gaussian data reach rounding by N = 32 on the members' grid: one
    # error is above the rounding floor, so the study fits no rate
    reports = record_returns(monkeypatch, "self_convergence")
    text = "converge.n_values = 16, 32, 64\nintegrator.t_end = 0.1\n"
    code, manifest = run_command(tmp_path, "converge", text=text)
    assert code == manifest["exit_code"] == EXIT_OK
    assert manifest["status"] == "no-rate"
    assert (manifest["results"]["fitted_rate"], manifest["results"]["fit_r2"]) == (None, None)
    (report,) = reports
    config = parse_config(text, None, "converge")
    ref_norm = l2_norm(build_field(config.initial, config.model, config.n_ref))
    assert report.errors[0] > benj.harness._ROUNDING * ref_norm > max(report.errors[1:])
    written = (tmp_path / "out" / "convergence.csv").read_text()
    assert written.endswith("\nrate,nan,nan\n")


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
    cfg = write_config(tmp_path, CONVERGE_TEXT)
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
        "model.domain_scale = 8\nn_modes = 128\ninitial.speed = 0.5\nintegrator.t_end = 1\n"
        "integrator.dt = 5e-3\n",
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


@pytest.mark.parametrize("dt_line", ["integrator.dt = 5e-3\n", ""], ids=["set", "unset"])
def test_soliton_manifest_records_the_stepped_grid(tmp_path, monkeypatch, dt_line):
    # an unset step is derived at N = 64, L = 16: the 5e-3 that is set
    grids = []
    real = benj.harness.evolve

    def recording(u0, params, config, observer=None):
        grids.append(config)
        return real(u0, params, config, observer)

    monkeypatch.setattr(benj.harness, "evolve", recording)
    text = "model.gamma = 0\nmodel.domain_scale = 16\nn_modes = 64\nintegrator.t_end = 0.01\n"
    code, manifest = run_command(tmp_path, "soliton", text=text + dt_line)
    assert code == manifest["exit_code"] == EXIT_OK
    (grid,) = grids
    results = manifest["results"]
    assert (results["dt"], results["n_steps"]) == (0.005, 2) == (grid.dt, grid.n_steps)


def test_soliton_report_csv_bytes(tmp_path, monkeypatch):
    reports = record_returns(monkeypatch, "soliton_propagation_test")
    text = ("model.gamma = 0\nmodel.domain_scale = 16\nn_modes = 64\n"
            "integrator.t_end = 0.01\nintegrator.dt = 5e-3\n")
    code, _ = run_command(tmp_path, "soliton", text=text)
    assert code == EXIT_OK
    (report,) = reports
    c, drifts = 0.5, report.drifts  # the default initial.speed
    # the format, one f-string per line
    expected = ("c,speed_estimate,speed_error,shape_error_linf,"
                "rel_drift_C,rel_drift_I,rel_drift_E\n")
    expected += (f"{c:.17g},{report.speed_estimate:.17g},{abs(report.speed_estimate - c):.17g},"
                 f"{report.shape_error_linf:.17g},{drifts.rel_drift_C:.17g},"
                 f"{drifts.rel_drift_I:.17g},{drifts.rel_drift_E:.17g}\n")
    assert (tmp_path / "out" / "soliton_report.csv").read_bytes() == expected.encode()


def test_soliton_failure_removes_stale_results(tmp_path):
    text = ("model.gamma = 0\nmodel.domain_scale = 16\nn_modes = 64\n"
            "integrator.t_end = 0.01\nintegrator.dt = 5e-3\n")
    code, _ = run_command(tmp_path, "soliton", text=text)
    assert code == EXIT_OK
    assert (tmp_path / "out" / "profile.txt").exists()
    # gamma > 0 needs the fixed-point solver, which one sweep cannot converge
    code, manifest = run_command(tmp_path, "soliton", ["model.gamma=0.5", "initial.max_iter=1"],
                                 text=text)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]


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


def test_progress_lines_without_quiet(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_config(tmp_path)),
                 "--override", f"outputs={out}"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "solve: N=32, dt=0.002, t_end=0.05", f"solve: wrote 6 snapshots to {out}"]


def test_unwritable_manifest_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert run_solve(tmp_path, out) == EXIT_CONFIG
    assert "error: cannot write the manifest" in capsys.readouterr().err
    assert (out / "manifest.json").is_dir()


@pytest.mark.parametrize("text", ["not json\n", "[\"solve\"]\n"], ids=["not-json", "json-list"])
def test_unreadable_manifest_is_another_runs(tmp_path, capsys, text):
    # no command can be read from it, so it is not this command's
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert run_solve(tmp_path, out) == EXIT_CONFIG
    assert "holds another command's results (manifest.json)" in capsys.readouterr().err
    assert _listing(out) == {"manifest.json": text.encode()}


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


def record_returns(monkeypatch, name):
    """Wrap ``benj.cli.<name>``; the list it returns collects each call's result."""
    results, real = [], getattr(benj.cli, name)

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(benj.cli, name, recording)
    return results


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


@pytest.mark.parametrize("command, extra", [
    ("solve", ["integrator.dt=1e-300"]),
    ("converge", ["integrator.dt=5e-324"]),
    ("soliton", ["integrator.dt=5e-324"]),
    ("soliton", ["integrator.dt=1e-300"]),
    ("solve", ["model.q=1000000"]),
], ids=["solve-1e-300", "converge-5e-324", "soliton-5e-324", "soliton-1e-300", "solve-q"])
def test_over_bound_run_exit_code(tmp_path, command, extra):
    text = "n_modes = 8\nintegrator.t_end = 0.01\nconverge.n_values = 4, 8\n"
    start = time.perf_counter()
    code, manifest = run_command(tmp_path, command, extra, text=text)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    assert manifest is None  # refused at parse time


@pytest.mark.parametrize("command, override", [
    ("soliton", "integrator.dt=-1"),
    ("soliton", "integrator.dt=0"),
    ("soliton", "integrator.t_end=0"),
    ("converge", "integrator.t_end=0"),
    ("converge", "converge.n_ref=0"),
])
def test_non_positive_value_is_a_config_error(tmp_path, command, override):
    # a step, horizon or reference bandwidth no run can use is refused at
    # parse time, before the manifest could echo it
    text = ("model.gamma = 0\nmodel.domain_scale = 16\nn_modes = 64\n"
            "integrator.t_end = 0.01\nconverge.n_values = 4, 8\n")
    code, manifest = run_command(tmp_path, command, [override], text=text)
    assert code == EXIT_CONFIG
    assert manifest is None


def test_solve_vanishing_width(tmp_path):
    with np.errstate(over="ignore"):
        code, manifest = run_command(tmp_path, "solve", ["initial.width=1e-300"])
    assert code == manifest["exit_code"] == EXIT_OK


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_negative_random_seed_exit_code(tmp_path, capsys, command):
    # refused by benj's own generator before it draws
    extra = ["initial.kind=random_sobolev", "seed=-1", "converge.n_values=4,8"]
    code, manifest = run_command(tmp_path, command, extra)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"
    assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_output_path_through_a_file(tmp_path, command):
    # neither the results nor the manifest can be written, even by root
    (tmp_path / "out").write_text("")
    code, _ = run_command(tmp_path, command, ["outputs=" + str(tmp_path / "out" / "sub"),
                                              "converge.n_values=4,8"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["converge", "soliton"])
def test_unclaimable_outputs_fail_before_any_compute(tmp_path, monkeypatch, capsys, command):
    # the output directory is claimed first: a path that cannot be created
    # fails once, before the study or the wave is computed
    def never(*args, **kwargs):
        raise AssertionError(f"{command} computed before claiming its output directory")

    monkeypatch.setattr(benj.cli, "self_convergence", never)
    monkeypatch.setattr(benj.cli, "build_field", never)
    (tmp_path / "out").write_text("")
    code, _ = run_command(tmp_path, command, ["outputs=" + str(tmp_path / "out" / "sub"),
                                              "converge.n_values=4,8"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("command, override", [
    ("solve", "model.m=200"), ("converge", "model.delta=1e308"),
])
def test_overflowing_symbol_exit_code(tmp_path, command, override, method):
    # a dispersive symbol outside the floating-point range is a bad config
    # under either method, not a divergence of the run
    text = ("n_modes = 64\nintegrator.dt = 1e-3\nintegrator.t_end = 0.01\n"
            "converge.n_values = 8, 16\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, manifest = run_command(tmp_path, command,
                                     [override, f"integrator.method={method}"], text=text)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"


@pytest.mark.parametrize("method", ["etdrk4", "ifrk4"])
@pytest.mark.parametrize("overrides", [
    ["model.m=200"],
    ["model.delta=1e302", "integrator.dt=10", "integrator.t_end=10"],
    ["model.m=200", "initial.kind=petviashvili_wave"],
], ids=["symbol", "symbol-times-dt", "symbol-in-the-datum"])
def test_refused_operator_leaves_only_the_manifest(tmp_path, capsys, overrides, method):
    # solve's stepping loop checks the multipliers and the step weights
    # before it observes the initial state, so no snapshot is written; a
    # finite symbol whose product with dt overflows is refused there under
    # either method, not run into a divergence, and the error names it.  A
    # solitary-wave datum meets the symbol's refusal first, before a sweep.
    # No refusal emits a numpy warning.
    text = "n_modes = 64\nintegrator.t_end = 0.01\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, manifest = run_command(tmp_path, "solve",
                                     [*overrides, f"integrator.method={method}"], text=text)
    assert code == manifest["exit_code"] == EXIT_CONFIG
    assert manifest["status"] == "validation-error"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]
    assert "leaves the floating-point range" in capsys.readouterr().err


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


MANIFEST_KEYS = {"tool", "version", "command", "config", "started_utc", "finished_utc",
                 "status", "exit_code", "results"}


@pytest.mark.parametrize("extra, status", [
    ([], "ok"),
    (["initial.kind=petviashvili_wave", "initial.max_iter=0"], "validation-error"),
], ids=["ok", "validation-error"])
def test_manifest_keys_and_timestamps(tmp_path, extra, status):
    code, manifest = run_command(tmp_path, "solve", extra)
    assert manifest["status"] == status
    assert manifest["exit_code"] == code
    assert set(manifest) == MANIFEST_KEYS
    started, finished = (time.strptime(manifest[k], "%Y-%m-%dT%H:%M:%SZ")
                         for k in ("started_utc", "finished_utc"))
    assert started <= finished


def test_converge_member_divergence_exit_code(tmp_path, monkeypatch):
    # the members run as one stack; the row of N = 8 gets a flux that
    # blows up at the first step, and the per-row check fails that row only
    real = benj.harness.evolve_rows

    def evolve_rows_with_a_bad_row(rows, params, config, nonlinear, observer=None):
        def blow_up(c, t):
            flux = nonlinear(c, t)
            flux[1] += 1e6 * c[1]
            return flux

        return real(rows, params, config, blow_up, observer)

    monkeypatch.setattr(benj.harness, "evolve_rows", evolve_rows_with_a_bad_row)
    code, manifest = run_command(tmp_path, "converge", ["converge.n_values=4,8",
                                                        "integrator.t_end=0.02"])
    assert code == manifest["exit_code"] == EXIT_DIVERGED
    assert manifest["status"] == "divergence"
    assert list(manifest["results"]["failures"]) == ["8"]
    assert (tmp_path / "out" / "convergence.csv").exists()


GRID_TEXT = ("n_modes = 16\nintegrator.dt = 0.01\nintegrator.t_end = 0.05\n"
             "converge.n_values = 4, 8\n")


@pytest.mark.parametrize("command, overrides, status, outcome", [
    ("solve", ["initial.amplitude=1e8", "initial.width=0.3"], "divergence",
     {"failed_at": 0.01}),
    ("converge", [], "divergence", {"failures": {"8": "diverged: norm grew beyond 1e6x "
                                                      "initial at t=0.01"}}),
    ("solve", ["model.m=200"], "validation-error", {}),
], ids=["diverged-run", "diverged-member", "refused-operator"])
def test_every_outcome_records_the_planned_grid(tmp_path, monkeypatch, command, overrides,
                                                status, outcome):
    # five steps of 0.01: a diverged run's failure time reads as its step,
    # and a failed study or a refused operator still names its grid (a
    # study's reference steps it too, so no other grid is recorded)
    real = benj.harness.evolve_rows

    def evolve_rows_with_a_bad_row(rows, params, config, nonlinear, observer=None):
        def blow_up(c, t):
            flux = nonlinear(c, t)
            flux[1] += 1e9 * c[1]
            return flux

        return real(rows, params, config, blow_up, observer)

    monkeypatch.setattr(benj.harness, "evolve_rows", evolve_rows_with_a_bad_row)
    with np.errstate(over="ignore", invalid="ignore"):
        code, manifest = run_command(tmp_path, command, overrides, text=GRID_TEXT)
    assert manifest["status"] == status
    assert manifest["results"] == {"dt": 0.01, "n_steps": 5, **outcome}


@pytest.mark.parametrize("extra, status", [
    ([], "ok"),
    (["initial.amplitude=1e8", "initial.width=0.3"], "divergence"),
    (["initial.kind=file", "initial.path=missing.txt"], "validation-error"),
], ids=["ok", "diverged-reference", "refused-datum"])
def test_converge_manifest_records_the_planned_reference(tmp_path, monkeypatch, extra, status):
    # CI's tiny study: members and reference take 4 steps of 0.005.  The
    # manifest records the one grid the parser planned, which is the grid
    # the reference steps, whatever the outcome, and no grid of its own
    text = "n_modes = 16\nintegrator.t_end = 0.02\nconverge.n_values = 8, 16\n"
    stepped, real = [], benj.harness.evolve

    def recording(u0, params, config, **kwargs):
        stepped.append((config.dt, config.n_steps))
        return real(u0, params, config, **kwargs)

    monkeypatch.setattr(benj.harness, "evolve", recording)
    with np.errstate(over="ignore", invalid="ignore"):
        code, manifest = run_command(tmp_path, "converge", extra, text=text)
    assert manifest["status"] == status
    results = manifest["results"]
    assert (results["dt"], results["n_steps"]) == (0.005, 4)
    assert not {"reference_dt", "reference_n_steps"} & set(results)
    planned = parse_config(text, extra, "converge").integrator
    assert (planned.dt, planned.n_steps) == (0.005, 4)
    assert stepped == ([] if status == "validation-error" else [(0.005, 4)])


def test_invariants_refuses_snapshots_of_another_domain_scale(tmp_path, capsys):
    # the energy read each snapshot's L, so an L = 1 model printed a table
    # of L = 2 snapshots and exited 0
    out = tmp_path / "out"
    assert run_solve(tmp_path, out, extra=["model.domain_scale=2"]) == EXIT_OK
    capsys.readouterr()
    cfg = write_config(tmp_path, "model.domain_scale = 1\n", name="model.cfg")
    snaps = sorted(str(p) for p in out.glob("snap_*.txt"))
    assert main(["invariants", "--config", str(cfg), "--quiet", *snaps]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"snapshot {snaps[0]} domain scale 2.0 does not match model domain scale 1.0" \
        in captured.err


def test_invariants_names_the_snapshot_of_another_domain_scale(tmp_path, capsys):
    # the refusal named a "field", not which of the files it was
    assert run_solve(tmp_path, tmp_path / "one") == EXIT_OK
    assert run_solve(tmp_path, tmp_path / "two", extra=["model.domain_scale=2"]) == EXIT_OK
    capsys.readouterr()
    odd = str(tmp_path / "two" / "snap_0003.txt")
    snaps = sorted(str(p) for p in (tmp_path / "one").glob("snap_*.txt"))
    snaps.insert(2, odd)
    cfg = write_config(tmp_path, "model.q = 1\n", name="model.cfg")
    assert main(["invariants", "--config", str(cfg), "--quiet", *snaps]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: snapshot {odd} domain scale 2.0 does not match "
                            "model domain scale 1.0\n")


def _listing(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("first, second", [
    ("solve", "converge"), ("converge", "solve"), ("solve", "soliton"), ("soliton", "converge"),
])
def test_foreign_outputs_directory_is_refused(tmp_path, first, second):
    # a second command into the first one's directory exits 2 before it
    # removes or writes anything, its manifest included
    texts = {"soliton": "model.gamma = 0\nmodel.domain_scale = 16\nn_modes = 64\n"}
    extra = ["converge.n_values=4,8", "integrator.t_end=0.02"]
    code, _ = run_command(tmp_path, first, extra, texts.get(first, BASE))
    assert code == EXIT_OK
    before = _listing(tmp_path / "out")
    code, manifest = run_command(tmp_path, second, extra, texts.get(second, BASE))
    assert code == EXIT_CONFIG
    assert manifest["command"] == first
    assert _listing(tmp_path / "out") == before
    # the first command still reruns into its own directory
    assert run_command(tmp_path, first, extra, texts.get(first, BASE))[0] == EXIT_OK


def test_foreign_manifest_alone_is_refused(tmp_path):
    # a failed converge run leaves only its manifest; solve must not overwrite it
    code, _ = run_command(tmp_path, "converge", ["converge.n_values=4,8",
                                                 "initial.kind=petviashvili_wave",
                                                 "initial.max_iter=1"])
    assert code == EXIT_CONFIG
    before = _listing(tmp_path / "out")
    assert list(before) == ["manifest.json"]
    assert run_command(tmp_path, "solve")[0] == EXIT_CONFIG
    assert _listing(tmp_path / "out") == before


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
    text = "n_modes = 8\nconverge.n_values = 8, 16, 128\nintegrator.t_end = 0.03125\n"
    code, manifest = run_command(tmp_path, "converge", text=text + dt_line)
    assert code == EXIT_OK
    assert reports[0].dt == expected == manifest["results"]["dt"]
    assert manifest["results"]["n_steps"] == round(0.03125 / expected)


def test_soliton_builds_closed_form_once(tmp_path):
    # a short domain leaves a visible tail, so building the profile warns
    text = ("model.gamma = 0\nmodel.domain_scale = 1\nn_modes = 32\ninitial.speed = 0.5\n"
            "integrator.t_end = 0.01\nintegrator.dt = 5e-3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_command(tmp_path, "soliton", text=text)
    assert code == EXIT_OK
    assert sum("soliton tail" in str(w.message) for w in caught) == 1


# Overrides drawn per key.  Bandwidths stay <= 8 and horizons <= 0.01 so a
# run is cheap.  Tiny steps (1e-300, 5e-324) plan more than the step bound
# and q = 1000000 a grid wider than the grid bound, so both exit 2 before
# any long or large run; at q = 400, M^q for the padded grid M overflows,
# which must exit 2 too.  Other integers are never huge.
_TIME_VALUES = ["0", "-1", "1e-3", "0.01", "1e-300", "5e-324", "nan", "inf", "-inf", "x"]
_NUMBER_VALUES = ["0", "-1", "-0.5", "0.5", "2", "1e-300", "1e300", "nan", "inf", "-inf",
                  "abc", ""]
_FUZZ_POOLS = {
    "n_modes": ["0", "-1", "1", "4", "8", "x", "nan"],
    "integrator.dt": _TIME_VALUES,
    "integrator.t_end": _TIME_VALUES,
    "converge.n_values": ["4,8", "8", "0,8", "-4,8", "4,4", "", "x"],
    "converge.n_ref": ["0", "-1", "16", "32", "x"],
    "initial.kind": [*KINDS, "bogus"],
    "initial.path": ["/nonexistent/datum.txt", str(Path(__file__).parent)],
    "integrator.method": ["etdrk4", "ifrk4", "bogus"],
    "model.q": ["0", "-1", "2", "3", "400", "1000000", "nan", "x"],
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
            parse_config(FUZZ_BASE, overrides, command)
        except ValueError:
            return  # rejected before any output
        manifest = json.loads((Path(tmp) / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == code


# Lines a config document may hold besides schema keys: ones the parser
# skips, and ones it must reject (unknown and empty keys, no '=').
_SKIPPED_LINES = ["# a comment", "   # an indented comment", "#", "", "   "]
_BAD_LINES = ["model.viscosity = 1", "= 1", " = ", "=", "n_modes 8", "n_modes"]


def _rarely(draw) -> bool:
    """True one draw in four, so most documents still parse and run."""
    return draw(st.integers(0, 3)) == 0


@st.composite
def _config_text(draw, outputs):
    """A config document, its lines shuffled: an integrator.t_end line,
    always there so that no parsed run outlasts a horizon of 0.01; the
    outputs line; the two other lines of ``FUZZ_BASE``, each mostly kept;
    schema keys with values from the fuzz pools (a key drawn twice is a
    duplicate, and a value is rarely 'a = b'); skipped lines, rarely a bad
    line, and trailing comments."""
    t_end = draw(st.one_of(st.just("0.01"), st.sampled_from(_TIME_VALUES)))
    lines = [f"integrator.t_end = {t_end}", f"outputs = {outputs}"]
    lines += [line for line in ("n_modes = 8", "converge.n_values = 4, 8") if not _rarely(draw)]
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=3)):
        pool = st.sampled_from(_FUZZ_POOLS.get(key, _NUMBER_VALUES))
        value = draw(pool) + (f" = {draw(pool)}" if _rarely(draw) else "")
        lines.append(f"{key} = {value}")
    lines += draw(st.lists(st.sampled_from(_SKIPPED_LINES), max_size=3))
    if _rarely(draw):
        lines.append(draw(st.sampled_from(_BAD_LINES)))
    lines = [line + draw(st.sampled_from(["", "  # note", "#"])) for line in lines]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["solve", "converge", "soliton"]), data=st.data())
def test_fuzzed_config_text_ends_in_documented_exit_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        text = data.draw(_config_text(out))
        try:
            parse_config(text, None, command)  # raises nothing but a ValueError
            parses = True
        except ValueError:
            parses = False
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(cfg), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        if parses:
            assert json.loads((out / "manifest.json").read_text())["exit_code"] == code
        else:
            assert code == EXIT_CONFIG
            assert not out.exists()
