"""In-memory span tracer and the per-layer metrics derived from it.

The tracer wraps benj's public functions at the module attributes where
their callers look them up (``benj.cli.evolve``, ``benj.harness.evolve``,
``benj.semidiscrete.synth_values``, ...), so no file of the program is
touched.  Every wrapped call records one span: name, start, end, parent
span, thread, plus a size and, for evolves, the thread CPU time.  Spans
stay in memory and are written out once the traced run ends.

A span opened on a thread whose own stack is empty (a harness pool
worker) takes the innermost span open on the thread that created the
tracer as its parent, which is the enclosing study span.

Self time is a span's duration minus the union of its children's
intervals; children on other threads overlap each other, hence the union.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import threading
import time
from collections import defaultdict

import benj.cli
import benj.harness
import benj.invariants
import benj.semidiscrete
import benj.spectral
import benj.timestep
from benj.errors import DivergenceError


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "size", "attrs")

    def __init__(self, id, name, parent, thread, start, end=None, cpu=None, size=0, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.cpu = cpu
        self.size = size
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._ids = 0

    def open(self, name: str, size: int = 0, cpu: bool = False, attrs=None) -> Span:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home and ident != self._home else None
        with self._lock:
            self._ids += 1
            span = Span(self._ids, name, parent, ident, 0.0, size=size, attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        if cpu:
            span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.cpu is not None:
            span.cpu = time.thread_time() - span.cpu
        self._stacks[threading.get_ident()].pop()

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def wrap(self, fn, name, size=None, cpu=False, attrs=None, on_result=None):
        """Return ``fn`` recording one span per call.

        ``size(args, kwargs)`` gives the span's size field, ``attrs(args,
        kwargs)`` its attribute dict, and ``on_result(span, result, args)``
        runs after the span closes.  A DivergenceError marks the span failed.
        """

        def wrapped(*args, **kwargs):
            span = self.open(
                name,
                size(args, kwargs) if size else 0,
                cpu,
                attrs(args, kwargs) if attrs else None,
            )
            try:
                result = fn(*args, **kwargs)
            except DivergenceError:
                span.attrs = dict(span.attrs or {}, failed=True)
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result, args)
            return result

        return wrapped

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


# --------------------------------------------------------------------------
# Installation at the call sites

def _fft_size_synth(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["n_points"]


def _fft_size_analyze(args, kwargs):
    return len(args[0] if args else kwargs["values"])


def _file_bytes(span, result, args):
    span.size = os.path.getsize(args[0])


def _evolve_attrs(caller):
    def attrs(args, kwargs):
        return {"caller": caller, "n": args[0].n_modes}

    return attrs


def _evolve_steps(span, result, args):
    span.attrs["steps"] = result.n_steps


def _study_attrs(args, kwargs):
    params, n_values = args[0], args[2]
    return {"n_keep": (1 + params.q) * max(n_values)}


class Installation:
    """Replaces the traced attributes in place; ``remove`` restores them."""

    def __init__(self, t: Tracer):
        self._saved = []

        def closure_factory(factory, name):
            def make(*args, **kwargs):
                return t.wrap(factory(*args, **kwargs), name)

            return make

        def harness_evolve(fn):
            inner = t.wrap(fn, "timestep.evolve", cpu=True,
                           attrs=_evolve_attrs("harness"), on_result=_evolve_steps)

            def call(u0, params, config, *args, **kwargs):
                nl = kwargs.get("nonlinear")
                if nl is not None:
                    kwargs["nonlinear"] = t.wrap(nl, "harness.nonlinear")
                return inner(u0, params, config, *args, **kwargs)

            return call

        def counted(fn, name):
            def call(*args, **kwargs):
                t.count(name)
                return fn(*args, **kwargs)

            return call

        synth = lambda fn: t.wrap(fn, "spectral.synth_values", size=_fft_size_synth)
        analyze = lambda fn: t.wrap(fn, "spectral.analyze_coeffs", size=_fft_size_analyze)
        plan = [
            (benj.cli, "main", lambda fn: t.wrap(fn, "cli.main")),
            (benj.cli, "parse_config", lambda fn: t.wrap(fn, "cli.parse_config")),
            (benj.cli, "evolve", lambda fn: t.wrap(
                fn, "timestep.evolve", cpu=True, attrs=_evolve_attrs("cli"),
                on_result=_evolve_steps)),
            (benj.cli, "build_field", lambda fn: t.wrap(fn, "initdata.build_field")),
            (benj.cli, "write_snapshot", lambda fn: t.wrap(
                fn, "snapshots.write_snapshot", on_result=_file_bytes)),
            (benj.cli, "read_snapshot", lambda fn: t.wrap(
                fn, "snapshots.read_snapshot", on_result=_file_bytes)),
            (benj.cli, "record_invariants", lambda fn: t.wrap(
                fn, "invariants.record_invariants")),
            (benj.cli, "e_pi", lambda fn: t.wrap(fn, "invariants.e_pi")),
            (benj.harness, "self_convergence", lambda fn: t.wrap(
                fn, "harness.self_convergence", attrs=_study_attrs)),
            (benj.harness, "intermediate_problem_study", lambda fn: t.wrap(
                fn, "harness.intermediate_problem_study", attrs=_study_attrs)),
            (benj.harness, "evolve", harness_evolve),
            (benj.harness, "build_field", lambda fn: t.wrap(fn, "initdata.build_field")),
            (benj.harness, "frozen_nonlinear_term", lambda fn: closure_factory(
                fn, "semidiscrete.frozen_nonlinear_term")),
            (benj.harness, "record_invariants", lambda fn: t.wrap(
                fn, "invariants.record_invariants")),
            (benj.timestep, "nonlinear_term", lambda fn: closure_factory(
                fn, "semidiscrete.nonlinear_term")),
            (benj.timestep, "etd_coefficients", lambda fn: t.wrap(
                fn, "timestep.etd_coefficients")),
            (benj.timestep, "hermitian_part", lambda fn: counted(
                fn, "spectral.hermitian_part.calls")),
            (benj.semidiscrete, "synth_values", synth),
            (benj.semidiscrete, "analyze_coeffs", analyze),
            (benj.spectral, "synth_values", synth),
            (benj.spectral, "analyze_coeffs", analyze),
            (benj.invariants, "e_pi", lambda fn: t.wrap(fn, "invariants.e_pi")),
        ]
        try:
            for module, attr, make in plan:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics

def _fft_flops(m: int) -> float:
    """Conventional real-FFT operation count, 2.5 M log2 M."""
    return 2.5 * m * math.log2(m) if m > 1 else 0.0


def _fft_bytes(m: int) -> int:
    """Real samples in plus half-spectrum out (or the reverse), float64."""
    return 8 * m + 16 * (m // 2 + 1)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation, keyed by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    ffts = by_name["spectral.synth_values"] + by_name["spectral.analyze_coeffs"]
    evolves = by_name["timestep.evolve"]

    ref_busy = member_busy = member_wait = member_wall = 0.0
    members = failed_members = 0
    store_bytes = 0
    for study in by_name["harness.self_convergence"] + by_name["harness.intermediate_problem_study"]:
        runs = [s for s in evolves
                if s.attrs["caller"] == "harness" and _ancestor(s, study.id, by_id)]
        if not runs:
            continue
        n_ref = max(s.attrs["n"] for s in runs)
        ref = [s for s in runs if s.attrs["n"] == n_ref]
        mem = [s for s in runs if s.attrs["n"] != n_ref]
        ref_busy += sum(s.duration for s in ref)
        if study.name == "harness.intermediate_problem_study":
            steps = sum(s.attrs.get("steps", 0) for s in ref)
            store_bytes += (steps + len(ref)) * (2 * study.attrs["n_keep"] + 1) * 16
        if mem:
            members += len(mem)
            failed_members += sum(1 for s in mem if s.attrs.get("failed"))
            member_busy += sum(s.duration for s in mem)
            member_wait += sum(s.duration - s.cpu for s in mem)
            member_wall += max(s.end for s in mem) - min(s.start for s in mem)
    study_busy = busy("harness.self_convergence") + busy("harness.intermediate_problem_study")

    return {
        "spectral.synth_values.calls": calls("spectral.synth_values"),
        "spectral.synth_values.busy_s": busy("spectral.synth_values"),
        "spectral.analyze_coeffs.calls": calls("spectral.analyze_coeffs"),
        "spectral.analyze_coeffs.busy_s": busy("spectral.analyze_coeffs"),
        "spectral.hermitian_part.calls": tracer.counts["spectral.hermitian_part.calls"],
        "spectral.fft_flops_computed": sum(_fft_flops(s.size) for s in ffts),
        "spectral.fft_bytes_computed": sum(_fft_bytes(s.size) for s in ffts),
        "semidiscrete.nonlinear_term.evals": calls("semidiscrete.nonlinear_term"),
        "semidiscrete.nonlinear_term.busy_s": busy("semidiscrete.nonlinear_term"),
        "semidiscrete.nonlinear_term.self_s": self_s("semidiscrete.nonlinear_term"),
        "semidiscrete.frozen_nonlinear_term.evals": calls("semidiscrete.frozen_nonlinear_term"),
        "semidiscrete.frozen_nonlinear_term.busy_s": busy("semidiscrete.frozen_nonlinear_term"),
        "semidiscrete.frozen_nonlinear_term.self_s": self_s("semidiscrete.frozen_nonlinear_term"),
        "timestep.evolve.calls": len(evolves),
        "timestep.evolve.busy_s": busy("timestep.evolve"),
        "timestep.evolve.self_s": self_s("timestep.evolve"),
        "timestep.steps": sum(s.attrs.get("steps", 0) for s in evolves),
        "timestep.etd_coefficients.calls": calls("timestep.etd_coefficients"),
        "timestep.etd_coefficients.busy_s": busy("timestep.etd_coefficients"),
        "timestep.etd_coefficients.per_evolve": (
            calls("timestep.etd_coefficients") / len(evolves) if evolves else 0.0),
        "invariants.record_invariants.busy_s": busy("invariants.record_invariants"),
        "invariants.e_pi.calls": calls("invariants.e_pi"),
        "invariants.e_pi.busy_s": busy("invariants.e_pi"),
        "snapshots.write_snapshot.calls": calls("snapshots.write_snapshot"),
        "snapshots.write_snapshot.busy_s": busy("snapshots.write_snapshot"),
        "snapshots.write_snapshot.bytes": sum(s.size for s in by_name["snapshots.write_snapshot"]),
        "snapshots.read_snapshot.calls": calls("snapshots.read_snapshot"),
        "snapshots.read_snapshot.busy_s": busy("snapshots.read_snapshot"),
        "snapshots.read_snapshot.bytes": sum(s.size for s in by_name["snapshots.read_snapshot"]),
        "initdata.build_field.busy_s": busy("initdata.build_field"),
        "harness.self_convergence.busy_s": busy("harness.self_convergence"),
        "harness.reference_share": ref_busy / study_busy if study_busy else 0.0,
        "harness.members.wait_s": member_wait,
        "harness.members.overlap": member_busy / member_wall if member_wall else 0.0,
        "harness.members.fail_ratio": failed_members / members if members else 0.0,
        "harness.intermediate_problem_study.busy_s": busy("harness.intermediate_problem_study"),
        "harness.trajectory_interp_s": self_s("harness.nonlinear"),
        "harness.trajectory_store_bytes": store_bytes,
        "cli.parse_config.busy_s": busy("cli.parse_config"),
        "cli.main.self_s": self_s("cli.main"),
    }


def _ancestor(span: Span, ancestor_id: int, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = by_id[parent].parent
    return False
