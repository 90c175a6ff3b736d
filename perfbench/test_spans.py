"""Checks of the span recorder: python3 -m pytest perfbench/test_spans.py"""

import time

import pytest

from spans import SpanRecorder


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _recorder():
    rec = SpanRecorder("test")
    rec.enabled = True
    return rec


def test_self_time_excludes_children():
    rec = _recorder()
    inner = rec.wrap("b.inner", lambda: _busy(0.02))

    def outer():
        _busy(0.01)
        inner()

    rec.wrap("a.outer", outer)()
    assert rec.total("a.outer") >= rec.total("b.inner") >= 0.02
    assert rec.self_time("a.outer") == pytest.approx(
        rec.total("a.outer") - rec.total("b.inner"))
    assert rec.layer_self("a") + rec.layer_self("b") == pytest.approx(
        rec.total("a.outer"))
    (sid_b, name_b, _s, _e, parent_b), (sid_a, name_a, _s2, _e2, parent_a) = \
        rec.spans
    assert (name_b, name_a) == ("b.inner", "a.outer")
    assert parent_b == sid_a and parent_a == 0


def test_generator_time_is_sum_of_slices_not_lifetime():
    rec = _recorder()

    def body():
        _busy(0.01)
        got = yield "first"
        _busy(0.01)
        return got * 2

    gen = rec.wrap("g.body", body)()
    assert next(gen) == "first"
    _busy(0.05)                      # suspended: not the span's time
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert rec.calls("g.body") == 1
    assert rec.totals["g.body"][1] == 3     # call + two resume slices
    assert 0.02 <= rec.total("g.body") < 0.05


def test_generator_forwards_throw_and_close():
    rec = _recorder()
    seen = []

    def body():
        try:
            yield 1
        except KeyError:
            seen.append("caught")
        try:
            yield 2
        finally:
            seen.append("closed")

    gen = rec.wrap("g.body", body)()
    next(gen)
    assert gen.throw(KeyError()) == 2
    gen.close()
    assert seen == ["caught", "closed"]
    assert rec._stack == []


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder("test")
    assert rec.wrap("a.f", lambda x: x + 1)(1) == 2
    assert rec.totals == {} and rec.spans == []
