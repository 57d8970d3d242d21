"""Span arithmetic and wrapper lifetime of the traced run."""

import tracing
from workloads import TableShape, build_table, drive_table, table_inputs


def test_self_time_subtracts_direct_children():
    # outer [0, 10] -> mid [1, 9] -> inner [2, 5] and inner [6, 7]
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)

    def mid_body():
        inner()
        inner()

    mid = recorder.wrap("mid", mid_body)
    outer = recorder.wrap("outer", lambda: mid())
    outer()

    assert recorder.parents == [-1, 0, 1, 1]
    stats = recorder.summary()
    assert (stats["outer"].total_s, stats["outer"].self_s) == (10.0, 2.0)
    assert (stats["mid"].total_s, stats["mid"].self_s) == (8.0, 4.0)
    assert stats["inner"].calls == 2
    assert stats["inner"].total_s == stats["inner"].self_s == 4.0
    assert sum(s.self_s for s in stats.values()) == 10.0


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 3.0, 4.0, 5.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(ticks))

    def boom():
        raise ValueError("boom")

    failing = recorder.wrap("failing", boom)
    try:
        failing()
    except ValueError:
        pass
    after = recorder.wrap("after", lambda: None)
    after()
    assert recorder.parents == [-1, -1]
    assert recorder.summary()["failing"].total_s == 3.0


def _entry_points():
    return {point: getattr(*tracing._resolve(*point))
            for point in tracing.entry_points()}


def _drive_small_table():
    shape = TableShape(flows=300)
    sim, table = build_table(shape)
    return drive_table(sim, table, shape, table_inputs(shape, seed=5))


def test_no_wrapper_survives_into_an_untraced_run():
    originals = _entry_points()
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert len(tracing.installed_wrappers()) == len(originals)
        traced = _drive_small_table()
    finally:
        installation.remove()

    assert tracing.installed_wrappers() == []
    assert _entry_points() == originals
    unit = tracing.close_unit(recorder, sum(traced.segments))
    assert unit.counts["sidecar.flowtable.admits"] == \
        traced.stats["flows_admitted"]

    recorder.clear()
    untraced = _drive_small_table()
    assert recorder.names == [] and recorder.instances["FlowTable"] == []
    assert untraced.stats == traced.stats
