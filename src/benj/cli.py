"""Command-line front end.

Configuration is a flat key-value document with dotted section keys::

    model.m = 1
    model.r = 0.5
    model.gamma = 1.0
    model.delta = 1.0
    model.q = 1
    n_modes = 128
    initial.kind = gaussian
    integrator.dt = 1e-3
    integrator.t_end = 1.0
    outputs = out

Lines starting with '#' are comments; unknown or duplicate keys are
rejected.  Subcommands: solve, converge, soliton, invariants.  Values can
be overridden on the command line with repeated ``--override key=value``,
in the grammar of a line (``_split_pair``); a later override wins.

Exit codes: 0 success, 2 configuration or validation error (a non-finite
number counts as one), 3 divergence of a time integration.  Each command
raises on failure, and ``main`` maps the exception to a status and an exit
code through one table.  Diagnostics go to stderr; results go to files in
the output directory (plus stdout for the ``invariants`` table).  Once the
configuration parses, ``solve``, ``converge`` and ``soliton`` write a run
manifest exactly once, last, even when the run fails, its results holding
the planned ``dt`` and ``n_steps``; an exception outside the table is a
bug, whose traceback propagates after a manifest with status
``incomplete`` is written.  Before anything is computed, ``main`` claims
the output directory: one that holds another command's result files
(``_COMMANDS``) or manifest is a validation error, so no manifest is
written over the other run's; otherwise the directory is created and
this command's earlier result files are removed.  A directory that cannot
be claimed gets no manifest.  ``solve`` writes every snapshot from the
stepping loop's observer, which a refused operator (its multipliers or
step weights) never reaches, so that leaves only the manifest.  Every
table, the three CSV files and the ``invariants`` table on stdout, has
one format (``_table``): a header line, then one line of ``%.17g``
values per row; ``convergence.csv`` ends with a ``rate`` line of the
fitted rate and r2 in that format.
Every integer key, and each ``converge.n_values`` entry, is ASCII digits
after at most one leading '-' (``_parse_int``): no '+', '_' or other
scripts' digits.
``parse_config`` requires, bounds and plans only what its command reads
(every key given is still parsed to its type): ``invariants`` the
``model`` section alone; ``solve`` and ``soliton`` a grid at ``n_modes``;
``converge`` the study's bandwidth rule (``harness._check_bandwidths``)
on ``converge.n_values`` (comma-separated integers) and ``converge.n_ref``
(unset: ``harness._REF_FACTOR`` times the finest), then a grid bound at
that reference, a step at the finest, and the reference's time grid
(``harness._reference_grid``, four times the members' steps).  A broken
rule, more than ``timestep.MAX_STEPS`` steps in a time grid, a padded
grid over ``MAX_GRID`` points or an empty ``outputs`` is a validation
error there.  Every value has one key: a run steps the grid that
``timestep.IntegratorPolicy.grid`` plans of ``integrator.method``,
``integrator.dt`` (unset: derived at that bandwidth) and
``integrator.t_end``; ``soliton`` sends a wave of speed ``initial.speed``,
and ``seed`` seeds ``random_sobolev`` data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, DivergenceError, IterationError
from .harness import (_REF_FACTOR, _check_bandwidths, _reference_grid, self_convergence,
                      soliton_propagation_test)
from .initdata import InitialDataSpec, build_field
from .invariants import invariant_row, record_invariants, record_rows
from .model import ModelParams, check_domain_scale
from .snapshots import read_snapshot, write_snapshot
from .spectral import dealiased_grid
from .timestep import IntegratorConfig, IntegratorPolicy, evolve

# Re-exported: perfbench's tracer patches this name on this module.
from .invariants import e_pi  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
MAX_GRID = 2**21  # points of the widest padded grid a config may ask for

# A failed run's exception types -> (manifest status, exit code).  Any other
# exception is a bug: its traceback propagates.
_FAILURES = {
    DivergenceError: ("divergence", EXIT_DIVERGED),
    ValueError: ("validation-error", EXIT_CONFIG),
    OSError: ("validation-error", EXIT_CONFIG),
    IterationError: ("validation-error", EXIT_CONFIG),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_int(s: str) -> int:
    """ASCII digits after at most one leading '-': no '+', '_', space or other digits."""
    digits = s.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected ASCII digits with at most a leading '-', got {s!r}")
    return int(s)


def _parse_int_list(s: str) -> list:
    """Comma-separated ``_parse_int`` integers; an empty entry is skipped."""
    return [_parse_int(p) for p in map(str.strip, s.split(",")) if p]


# Schema: key -> (parser, default); a None default is unset: derived, or
# required by the commands that read it.
_SCHEMA = {
    "model.m": (_parse_int, 1),
    "model.r": (_parse_float, 0.5),
    "model.gamma": (_parse_float, 1.0),
    "model.delta": (_parse_float, 1.0),
    "model.q": (_parse_int, 1),
    "model.domain_scale": (_parse_float, 1.0),
    "n_modes": (_parse_int, None),
    "seed": (_parse_int, 0),
    "outputs": (str, "out"),
    "initial.kind": (str, "gaussian"),
    "initial.amplitude": (_parse_float, 1.0),
    "initial.width": (_parse_float, 0.5),
    "initial.center": (_parse_float, 0.0),
    "initial.speed": (_parse_float, 0.5),
    "initial.regularity": (_parse_float, 4.0),
    "initial.path": (str, None),
    "initial.tol": (_parse_float, 1e-10),
    "initial.max_iter": (_parse_int, 500),
    "integrator.method": (str, "etdrk4"),
    "integrator.dt": (_parse_float, None),
    "integrator.t_end": (_parse_float, 1.0),
    "integrator.snapshot_stride": (_parse_int, 10),
    "converge.n_values": (_parse_int_list, None),
    "converge.n_ref": (_parse_int, None),
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    raw: dict  # resolved key -> value, echoed into the manifest
    # None where the command does not read it (see parse_config)
    initial: InitialDataSpec | None = None
    integrator: IntegratorConfig | None = None  # the planned grid
    n_modes: int | None = None
    outputs: Path | None = None
    n_values: list | None = None  # converge: the checked bandwidths, sorted
    n_ref: int | None = None  # converge: the reference bandwidth


def _split_pair(text: str, where: str) -> tuple:
    """Key and value of a config line or an override; '#' starts a comment."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, value = text.split("=", 1)
    key, value = key.strip(), value.split("#", 1)[0].strip()
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}", key=key)
    return key, value


def _read_pairs(text: str) -> dict:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = _split_pair(stripped, f"line {lineno}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        pairs[key] = value
    return pairs


def _resolve(pairs: dict) -> dict:
    resolved = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in pairs:
            try:
                resolved[key] = parser(pairs[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}", key=key) from exc
        else:
            resolved[key] = default
    return resolved


def _section(resolved: dict, name: str) -> dict:
    """The keys of one section, ``name.field``, by field name."""
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in resolved.items() if k.startswith(prefix)}


def _check_grid(model: ModelParams, n: int):
    """Reject a run whose widest grid, the energy's dealiased grid for u^(q+2)
    at its largest bandwidth n, exceeds MAX_GRID points.  Its lower bound
    (q+3)n+1 is tested first: a huge n needs no next_fast_len search."""
    p = model.q + 2
    if (p + 1) * n + 1 > MAX_GRID or dealiased_grid(n, p) > MAX_GRID:
        raise ConfigError(f"model.q={model.q} at bandwidth {n} needs a grid of "
                          f"more than {MAX_GRID} points")


def parse_config(text: str, overrides=None, command: str = "solve") -> RunConfig:
    """Parse a configuration document, and validate and plan what ``command``
    reads (see the module docstring): the model alone for ``invariants``;
    else also the output directory, the bandwidths, the initial data and
    the time grid, planned at the bandwidth the run steps at."""
    pairs = _read_pairs(text)
    pairs.update(_split_pair(item, f"override {item!r}") for item in overrides or [])
    r = _resolve(pairs)
    model = ModelParams(**_section(r, "model"))
    if command == "invariants":
        return RunConfig(model, r)
    if not r["outputs"]:
        raise ConfigError("outputs must not be empty ('.' is this directory)", key="outputs")
    if command == "converge":
        key, n_values = "converge.n_values", r["converge.n_values"] or [None]
    else:
        key, n_values = "n_modes", [r["n_modes"]]
    if None in n_values:
        raise ConfigError(f"missing required key {key!r} for {command}", key=key)
    if min(n_values) < 1:
        raise ConfigError(f"{key} must satisfy N >= 1, got {r[key]}", key=key)
    n = max(n_values)  # the bandwidth the run steps at
    study = {}  # converge: its checked bandwidths and its reference bandwidth
    if command == "converge":  # the rule refuses an n_ref < 1 before a grid is sized at it
        n_ref = _REF_FACTOR * n if r["converge.n_ref"] is None else r["converge.n_ref"]
        study = {"n_values": _check_bandwidths(n_values, n_ref), "n_ref": n_ref}
    _check_grid(model, study.get("n_ref", n))

    integrator = _section(r, "integrator")
    grid = IntegratorPolicy(integrator["method"], integrator["dt"]).grid(
        model, n, integrator["t_end"])
    if study:  # the reference of a self-convergence study steps its own, finer grid
        _reference_grid(grid)
    return RunConfig(
        model, r,
        initial=InitialDataSpec(**_section(r, "initial"), seed=r["seed"]),
        integrator=replace(grid, snapshot_stride=integrator["snapshot_stride"]),
        n_modes=None if study else n,
        outputs=Path(r["outputs"]),
        **study,
    )


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_manifest(outdir: Path, manifest: dict) -> int:
    """Stamp ``finished_utc``, write manifest.json and return the recorded
    exit code, or EXIT_CONFIG when the output directory refuses the manifest."""
    manifest["finished_utc"] = _utc_now()
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (outdir / "manifest.json").write_text(text)
    except OSError as exc:
        print(f"error: cannot write the manifest: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return manifest["exit_code"]


def _progress(quiet: bool, message: str):
    if not quiet:
        print(message, file=sys.stderr)


def _row(values) -> str:
    return ",".join(map(_fmt, values)) + "\n"


def _table(header: str, rows) -> str:
    """The CSV text of every table benj writes: a header line, then one
    line of ``_fmt`` values per row."""
    return header + "\n" + "".join(map(_row, rows))


def _invariants_table(record) -> str:
    """The ``t,C,I,E`` table of ``invariants.csv`` and of ``benj invariants``."""
    return _table("t,C,I,E", zip(record.times, record.C, record.I, record.E))


def _cmd_solve(config: RunConfig, quiet: bool) -> tuple:
    outdir = config.outputs
    u0 = build_field(config.initial, config.model, config.n_modes)
    # each snapshot's invariants are evaluated as it is written; no field is kept
    rows = []

    def observer(t, field):
        rows.append(invariant_row(t, field, config.model))
        write_snapshot(outdir / f"snap_{len(rows) - 1:04d}.txt", field, t)

    _progress(quiet, f"solve: N={config.n_modes}, dt={config.integrator.dt:g}, "
                     f"t_end={config.integrator.t_end:g}")
    try:
        evolve(u0, config.model, config.integrator, observer=observer)
    finally:  # a diverged run still reports the snapshots it wrote; a refused one wrote none
        if rows:
            record = record_rows(rows)
            (outdir / "invariants.csv").write_text(_invariants_table(record), newline="\n")
    _progress(quiet, f"solve: wrote {len(rows)} snapshots to {outdir}")
    return "ok", EXIT_OK, {"snapshots": len(rows), "rel_drift_C": record.rel_drift_C,
                           "rel_drift_I": record.rel_drift_I, "rel_drift_E": record.rel_drift_E}


def _cmd_converge(config: RunConfig, quiet: bool) -> tuple:
    n_values, n_ref, grid = config.n_values, config.n_ref, config.integrator
    _progress(quiet, f"converge: N in {n_values}, reference N={n_ref}, t*={grid.t_end:g}")
    # members that diverge are reported in ``failures``; a DivergenceError
    # raised here comes from the reference run
    report = self_convergence(config.model, config.initial, n_values, n_ref, grid.t_end,
                              IntegratorPolicy(grid.method, grid.dt))

    fit = [float("nan") if v is None else v for v in (report.fitted_rate, report.fit_r2)]
    table = _table("N,error", zip(report.n_values, report.errors)) + "rate," + _row(fit)
    (config.outputs / "convergence.csv").write_text(table, newline="\n")

    if report.failures:
        print(f"error: {len(report.failures)} member run(s) diverged", file=sys.stderr)
        return "divergence", EXIT_DIVERGED, {"failures": report.failures}
    _progress(quiet, f"converge: fitted rate {report.fitted_rate}")
    return "ok", EXIT_OK, {"fitted_rate": report.fitted_rate, "fit_r2": report.fit_r2}


def _cmd_soliton(config: RunConfig, quiet: bool) -> tuple:
    model, speed, grid = config.model, config.initial.speed, config.integrator
    closed_form = model.gamma == 0.0 and model.m == 1 and model.q == 1
    spec = replace(config.initial, kind="kdv_soliton" if closed_form else "petviashvili_wave",
                   center=0.0)
    profile = build_field(spec, model, config.n_modes)
    _progress(quiet, f"soliton: c={speed:g}, N={config.n_modes}, t*={grid.t_end:g}")
    report = soliton_propagation_test(speed, model, profile, grid.t_end,
                                      IntegratorPolicy(grid.method, grid.dt))

    write_snapshot(config.outputs / "profile.txt", profile, 0.0)
    speed_est, drifts = report.speed_estimate, report.drifts
    header = "c,speed_estimate,speed_error,shape_error_linf,rel_drift_C,rel_drift_I,rel_drift_E"
    row = (speed, speed_est, abs(speed_est - speed), report.shape_error_linf,
           drifts.rel_drift_C, drifts.rel_drift_I, drifts.rel_drift_E)
    (config.outputs / "soliton_report.csv").write_text(_table(header, [row]), newline="\n")
    _progress(quiet, f"soliton: measured speed {speed_est:.6g} "
                     f"(target {speed:g}), shape error {report.shape_error_linf:.3g}")
    return "ok", EXIT_OK, {"speed_estimate": speed_est, "shape_error_linf": report.shape_error_linf}


# command -> (runner, glob patterns of the result files it writes)
_COMMANDS = {
    "solve": (_cmd_solve, ("snap_*.txt", "invariants.csv")),
    "converge": (_cmd_converge, ("convergence.csv",)),
    "soliton": (_cmd_soliton, ("profile.txt", "soliton_report.csv")),
}


def _claim_outputs(command: str, outdir: Path) -> None:
    """Claim ``outdir`` for ``command``: refuse it if it holds another
    command's results (files matching another command's ``_COMMANDS``
    patterns, or a manifest that another command, or nothing readable,
    wrote); else create it and remove this command's earlier results, which
    must not outlive a failure of this run."""
    own, foreign = [], []
    for other, (_, patterns) in _COMMANDS.items():
        for pattern in patterns:
            (own if other == command else foreign).extend(outdir.glob(pattern))
    manifest = outdir / "manifest.json"
    if manifest.is_file():
        try:
            owner = json.loads(manifest.read_text()).get("command")
        except (ValueError, AttributeError):
            owner = None
        if owner != command:
            foreign.append(manifest)
    if foreign:
        names = sorted(path.name for path in foreign)
        shown = ", ".join(names[:3]) + (", ..." if len(names) > 3 else "")
        raise ConfigError(f"outputs directory {outdir} holds another command's results "
                          f"({shown}); choose another directory", key="outputs")
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in own:
        stale.unlink()


def _cmd_invariants(config: RunConfig, files) -> int:
    if not files:
        raise ConfigError("invariants command needs at least one snapshot file")

    def read(path):  # one file's field at a time, refused by name; the record sorts by t
        field, t = read_snapshot(path)
        check_domain_scale(config.model, field.domain_scale, f"snapshot {path}")
        return t, field

    print(_invariants_table(record_invariants(map(read, files), config.model)), end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benj",
        description="Pseudospectral solver and verification harness for "
                    "Benjamin-type dispersive equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "evolve an initial condition; write snapshots and invariants"),
        ("converge", "bandwidth self-convergence study; write a rate report"),
        ("soliton", "propagate a solitary wave; write profile and report"),
        ("invariants", "recompute invariants from snapshot files"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config document")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "invariants":
            p.add_argument("files", nargs="*", help="snapshot files to evaluate")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest, code = None, None
    try:
        config = parse_config(Path(args.config).read_text(), args.override, args.command)
        if args.command == "invariants":  # writes no files, so no manifest
            return _cmd_invariants(config, args.files)
        _claim_outputs(args.command, config.outputs)  # no manifest: the directory is not ours
        results = {"dt": config.integrator.dt, "n_steps": config.integrator.n_steps}
        manifest = {"tool": "benj", "version": __version__, "command": args.command,
                    "config": dict(config.raw), "started_utc": _utc_now(),
                    "finished_utc": None, "status": "incomplete", "exit_code": None,
                    "results": results}
        status, code, outcome = _COMMANDS[args.command][0](config, args.quiet)
        results.update(outcome)
        manifest.update(status=status, exit_code=code)
    except tuple(_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        if manifest is not None:
            results.update({"failed_at": exc.time} if code == EXIT_DIVERGED else {})
            manifest.update(status=status, exit_code=code)
    finally:
        if manifest is not None:  # written once, last; a bug leaves it "incomplete"
            code = _write_manifest(config.outputs, manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
