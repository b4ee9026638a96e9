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
be overridden on the command line with repeated ``--override key=value``.

Exit codes: 0 success, 2 configuration or validation error (a non-finite
number counts as one), 3 divergence of a time integration.  Each command
raises on failure, and ``main`` maps the exception to a status and an exit
code through one table.  Diagnostics go to stderr; results go to files in
the output directory (plus stdout for the ``invariants`` table).  Once the
configuration parses, ``solve``, ``converge`` and ``soliton`` write a run
manifest exactly once, last, even when the run fails; an exception outside
the table is a bug, whose traceback propagates after a manifest with status
``incomplete`` is written.  Before anything is computed, ``main`` claims
the output directory: one that holds another command's result files
(``_COMMANDS``) or manifest is a validation error, so no manifest is
written over the other run's; otherwise the directory is created and
this command's earlier result files are removed.  A directory that cannot
be claimed gets no manifest.  ``solve`` then checks the operator (the
multipliers and step weights, with ``timestep.check_operator``) before
it writes its first snapshot, so a refused operator leaves only the
manifest.  The ``invariants`` table on stdout is formatted as ``solve``
formats ``invariants.csv``.
A config that plans more than ``timestep.MAX_STEPS`` steps, or a padded
grid of more than ``MAX_GRID`` points, is a validation error, and so is a
set ``converge.n_ref`` that is not positive (an unset one is four times
the finest of ``converge.n_values``).  Every value has one key: ``converge``
and ``soliton`` run to ``integrator.t_end`` with ``integrator.dt``,
``soliton`` sends a wave of speed ``initial.speed``, and the top-level
``seed`` seeds ``random_sobolev`` data.
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
from .harness import IntegratorPolicy, self_convergence, soliton_propagation_test
from .initdata import KINDS, InitialDataSpec, build_field
from .invariants import record_invariants
from .model import ModelParams
from .snapshots import read_snapshot, write_snapshot
from .spectral import dealiased_grid
from .timestep import IntegratorConfig, check_operator, default_dt, evolve

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


# Schema: key -> (parser, default).  REQUIRED marks keys with no default;
# None defaults mean "derived later".
_REQUIRED = object()


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_int_list(s: str) -> list:
    return [int(p) for p in s.replace(" ", "").split(",") if p]


_SCHEMA = {
    "model.m": (int, 1),
    "model.r": (_parse_float, 0.5),
    "model.gamma": (_parse_float, 1.0),
    "model.delta": (_parse_float, 1.0),
    "model.q": (int, 1),
    "model.domain_scale": (_parse_float, 1.0),
    "n_modes": (int, _REQUIRED),
    "seed": (int, 0),
    "outputs": (str, "out"),
    "initial.kind": (str, "gaussian"),
    "initial.amplitude": (_parse_float, 1.0),
    "initial.width": (_parse_float, 0.5),
    "initial.center": (_parse_float, 0.0),
    "initial.speed": (_parse_float, 0.5),
    "initial.regularity": (_parse_float, 4.0),
    "initial.path": (str, None),
    "initial.tol": (_parse_float, 1e-10),
    "initial.max_iter": (int, 500),
    "integrator.method": (str, "etdrk4"),
    "integrator.dt": (_parse_float, None),
    "integrator.t_end": (_parse_float, 1.0),
    "integrator.snapshot_stride": (int, 10),
    "converge.n_values": (_parse_int_list, None),
    "converge.n_ref": (int, None),
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    initial: InitialDataSpec
    integrator: IntegratorConfig
    n_modes: int
    outputs: Path
    raw: dict  # resolved key -> value, echoed into the manifest


def _read_pairs(text: str) -> dict:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {stripped!r}", line=lineno
            )
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.split("#", 1)[0].strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key, line=lineno)
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key, line=lineno)
        pairs[key] = value
    return pairs


def _apply_overrides(pairs: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown override key {key!r}", key=key)
        pairs[key] = value.strip()
    return pairs


def _resolve(pairs: dict) -> dict:
    resolved = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in pairs:
            try:
                resolved[key] = parser(pairs[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}", key=key) from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}", key=key)
        else:
            resolved[key] = default
    return resolved


def _section(resolved: dict, name: str) -> dict:
    """The keys of one section, ``name.field``, by field name."""
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in resolved.items() if k.startswith(prefix)}


def _reference_n(r: dict) -> int:
    """``converge.n_ref``, or four times the finest measured bandwidth when unset."""
    n_ref = r["converge.n_ref"]
    return 4 * max(r["converge.n_values"] or [0]) if n_ref is None else n_ref


def _check_grid(model: ModelParams, r: dict):
    """Reject a config whose widest grid, the energy's dealiased grid for
    u^(q+2) at the largest bandwidth (n_modes, or converge's reference),
    exceeds MAX_GRID points.  Its lower bound (q+3)n+1 is tested first, so
    a huge n is rejected without a next_fast_len search or any array."""
    n = max(r["n_modes"], _reference_n(r))
    p = model.q + 2
    if (p + 1) * n + 1 > MAX_GRID or dealiased_grid(n, p) > MAX_GRID:
        raise ConfigError(f"model.q={model.q} at bandwidth {n} needs a grid of "
                          f"more than {MAX_GRID} points")


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse and fully validate a configuration document."""
    pairs = _apply_overrides(_read_pairs(text), overrides)
    r = _resolve(pairs)

    model = ModelParams(**_section(r, "model"))
    n_modes = r["n_modes"]
    if n_modes < 1:
        raise ConfigError(f"n_modes must satisfy N >= 1, got {n_modes}", key="n_modes")
    if r["converge.n_ref"] is not None and r["converge.n_ref"] < 1:
        raise ConfigError(f"converge.n_ref must be > 0, got {r['converge.n_ref']}",
                          key="converge.n_ref")
    _check_grid(model, r)

    if r["initial.kind"] not in KINDS:
        raise ConfigError(
            f"initial.kind must be one of {KINDS}, got {r['initial.kind']!r}",
            key="initial.kind",
        )

    # an unset integrator.dt stays None in ``raw``: each command derives its own
    integrator = _section(r, "integrator")
    if integrator["dt"] is None:
        integrator["dt"] = min(default_dt(model, n_modes), integrator["t_end"])

    return RunConfig(
        model=model,
        initial=InitialDataSpec(**_section(r, "initial"), seed=r["seed"]),
        integrator=IntegratorConfig(**integrator),
        n_modes=n_modes,
        outputs=Path(r["outputs"]),
        raw=r,
    )


class _Manifest:
    """Run metadata; ``main`` writes it exactly once, as the last output."""

    def __init__(self, command: str, config: RunConfig):
        self.payload = {
            "tool": "benj",
            "version": __version__,
            "command": command,
            "config": dict(config.raw),
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "finished_utc": None,
            "status": "incomplete",
            "exit_code": None,
            "results": {},
        }
        self.outdir = config.outputs

    def record(self, status: str, exit_code: int, results: dict):
        self.payload.update(status=status, exit_code=exit_code, results=results)

    def finish(self) -> int:
        """Write manifest.json and return the recorded exit code, or
        EXIT_CONFIG when the output directory refuses the manifest."""
        self.payload["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        try:
            with open(self.outdir / "manifest.json", "w") as fh:
                json.dump(self.payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write the manifest: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return self.payload["exit_code"]


def _progress(quiet: bool, message: str):
    if not quiet:
        print(message, file=sys.stderr)


def _invariants_table(record) -> str:
    """The ``t,C,I,E`` table of ``invariants.csv`` and of ``benj invariants``."""
    rows = zip(record.times, record.C, record.I, record.E)
    return "t,C,I,E\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _cmd_solve(config: RunConfig, quiet: bool) -> tuple:
    outdir = config.outputs
    check_operator(config.model, config.n_modes, config.integrator)
    u0 = build_field(config.initial, config.model, config.n_modes)
    written = [(0.0, u0)]
    write_snapshot(outdir / "snap_0000.txt", u0, 0.0)

    def observer(t, field):
        written.append((t, field))
        write_snapshot(outdir / f"snap_{len(written) - 1:04d}.txt", field, t)

    _progress(quiet, f"solve: N={config.n_modes}, dt={config.integrator.dt:g}, "
                     f"t_end={config.integrator.t_end:g}")
    try:
        evolve(u0, config.model, config.integrator, observer=observer)
    finally:  # a diverged run still reports the snapshots it wrote
        record = record_invariants(written, config.model)
        (outdir / "invariants.csv").write_text(_invariants_table(record), newline="\n")
    _progress(quiet, f"solve: wrote {len(written)} snapshots to {outdir}")
    return "ok", EXIT_OK, {
        "snapshots": len(written),
        "rel_drift_C": record.rel_drift_C,
        "rel_drift_I": record.rel_drift_I,
        "rel_drift_E": record.rel_drift_E,
    }


def _cmd_converge(config: RunConfig, quiet: bool) -> tuple:
    n_values = config.raw["converge.n_values"]
    if not n_values:
        raise ConfigError("converge.n_values is required for the converge command",
                          key="converge.n_values")
    n_ref = _reference_n(config.raw)
    t_star = config.integrator.t_end
    # an unset dt is derived by the study from the finest measured bandwidth
    policy = IntegratorPolicy(method=config.integrator.method, dt=config.raw["integrator.dt"])
    _progress(quiet, f"converge: N in {n_values}, reference N={n_ref}, t*={t_star:g}")
    # members that diverge are reported in ``failures``; a DivergenceError
    # raised here comes from the reference run
    report = self_convergence(config.model, config.initial, n_values, n_ref, t_star, policy)

    with open(config.outputs / "convergence.csv", "w", newline="\n") as fh:
        fh.write("N,error\n")
        for n, err in zip(report.n_values, report.errors):
            fh.write(f"{n},{_fmt(err)}\n")
        rate = report.fitted_rate if report.fitted_rate is not None else float("nan")
        r2 = report.fit_r2 if report.fit_r2 is not None else float("nan")
        fh.write(f"rate,{_fmt(rate)},{_fmt(r2)}\n")

    if report.failures:
        print(f"error: {len(report.failures)} member run(s) diverged", file=sys.stderr)
        return "divergence", EXIT_DIVERGED, {"failures": report.failures}
    _progress(quiet, f"converge: fitted rate {report.fitted_rate}")
    return "ok", EXIT_OK, {"fitted_rate": report.fitted_rate, "fit_r2": report.fit_r2}


def _cmd_soliton(config: RunConfig, quiet: bool) -> tuple:
    model, speed, t_star = config.model, config.initial.speed, config.integrator.t_end
    closed_form = model.gamma == 0.0 and model.m == 1 and model.q == 1
    spec = replace(config.initial, kind="kdv_soliton" if closed_form else "petviashvili_wave",
                   center=0.0)
    profile = build_field(spec, model, config.n_modes)
    _progress(quiet, f"soliton: c={speed:g}, N={config.n_modes}, t*={t_star:g}")
    report = soliton_propagation_test(speed, model, config.n_modes, t_star, config.integrator.dt,
                                      profile, config.integrator.method)

    write_snapshot(config.outputs / "profile.txt", profile, 0.0)
    speed_est = report.speed_estimate
    with open(config.outputs / "soliton_report.csv", "w", newline="\n") as fh:
        fh.write("c,speed_estimate,speed_error,shape_error_linf,"
                 "rel_drift_C,rel_drift_I,rel_drift_E\n")
        fh.write(
            f"{_fmt(speed)},{_fmt(speed_est)},{_fmt(abs(speed_est - speed))},"
            f"{_fmt(report.shape_error_linf)},{_fmt(report.drifts.rel_drift_C)},"
            f"{_fmt(report.drifts.rel_drift_I)},{_fmt(report.drifts.rel_drift_E)}\n"
        )
    _progress(quiet, f"soliton: measured speed {speed_est:.6g} "
                     f"(target {speed:g}), shape error {report.shape_error_linf:.3g}")
    return "ok", EXIT_OK, {"speed_estimate": speed_est,
                           "shape_error_linf": report.shape_error_linf}


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
    snapshots = sorted(((t, field) for field, t in map(read_snapshot, files)),
                       key=lambda snapshot: snapshot[0])
    print(_invariants_table(record_invariants(snapshots, config.model)), end="")
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
        config = parse_config(Path(args.config).read_text(), args.override)
        if args.command == "invariants":  # writes no files, so no manifest
            return _cmd_invariants(config, args.files)
        _claim_outputs(args.command, config.outputs)  # no manifest: the directory is not ours
        manifest = _Manifest(args.command, config)
        manifest.record(*_COMMANDS[args.command][0](config, args.quiet))
    except tuple(_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        if manifest is not None:
            failed_at = {"failed_at": exc.time} if code == EXIT_DIVERGED else {}
            manifest.record(status, code, failed_at)
    finally:
        if manifest is not None:
            code = manifest.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
