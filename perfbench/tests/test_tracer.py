"""Span bookkeeping: parents across threads and self-time arithmetic."""

import threading

import pytest

import benj.cli
import benj.timestep
import tracer
from tracer import Span, Tracer, self_times


def test_self_time_nested_and_cross_thread():
    spans = [
        Span(1, "study", None, 1, 0.0, 10.0),
        Span(2, "member", 1, 1, 1.0, 4.0),        # home thread
        Span(3, "member", 1, 2, 3.0, 6.0),        # pool thread, overlaps span 2
        Span(4, "term", 2, 1, 2.0, 3.0),          # grandchild of the study
        Span(5, "member", 1, 2, 9.0, 12.0),       # runs past its parent's end
    ]
    selfs = self_times(spans)
    # study: 10 minus the union [1, 6] and the clipped [9, 10]
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_pool_thread_spans_take_the_enclosing_study_as_parent():
    tr = Tracer()
    study = tr.open("study")
    seen = []

    def member():
        outer = tr.open("member")
        inner = tr.open("term")
        tr.close(inner)
        tr.close(outer)
        seen.append((outer, inner))

    workers = [threading.Thread(target=member) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    tr.close(study)

    assert len(seen) == 2
    for outer, inner in seen:
        assert outer.parent == study.id
        assert inner.parent == outer.id
        assert outer.thread != study.thread
    assert study.parent is None


def test_wrap_marks_divergence_and_keeps_the_result():
    tr = Tracer()

    def diverge():
        raise benj.DivergenceError("boom", time=0.5)

    wrapped = tr.wrap(diverge, "timestep.evolve", attrs=lambda a, k: {"n": 8})
    with pytest.raises(benj.DivergenceError):
        wrapped()
    assert tr.spans[0].attrs == {"n": 8, "failed": True}
    assert tr.wrap(lambda x: 2 * x, "double")(21) == 42
    assert tr.spans[1].end >= tr.spans[1].start


def test_installation_restores_every_attribute():
    before = (benj.cli.evolve, benj.timestep.hermitian_part, benj.cli.main)
    installed = tracer.Installation(Tracer())
    assert benj.cli.evolve is not before[0]
    installed.remove()
    assert (benj.cli.evolve, benj.timestep.hermitian_part, benj.cli.main) == before
