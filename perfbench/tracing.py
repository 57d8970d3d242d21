"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's entry points: no program file carries instrumentation.  The
recorder patches each name where the caller looks it up -- a method on
its class, or a function in the module that calls it -- so it must be
installed before any program object is built: handlers the program binds
at construction (link timers, host packet handlers) capture whatever the
class held at that moment.

Untraced runs never install it; :func:`installed_wrappers` lets a run
prove that no wrapper survived from an earlier traced run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Attribute set on every wrapper this module creates.
MARK = "__perfbench_span__"

#: The span whose results are also counted by their ``ok`` flag.
ON_QUACK = "sidecar.consumer.on_quack"

#: (module, attribute path, span name): one span per call of the entry
#: point.  Several entry points may share a span name; their times add.
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.netsim.core", "Simulator.run", "netsim.run"),
    ("repro.netsim.link", "Link.send", "netsim.link_send"),
    ("repro.netsim.link", "Link._finish_transmission", "netsim.link_tx"),
    ("repro.netsim.node", "Host.receive", "netsim.node_rx"),
    ("repro.netsim.node", "Router.receive", "netsim.node_rx"),
    ("repro.transport.connection", "SenderConnection._on_ack_packet",
     "transport.ack_rx"),
    ("repro.transport.connection", "SenderConnection._detect_losses",
     "transport.loss_detect"),
    ("repro.transport.connection", "ReceiverConnection._on_data_packet",
     "transport.data_rx"),
    ("repro.sidecar.consumer", "QuackConsumer.on_quack", ON_QUACK),
    ("repro.sidecar.consumer", "decode_delta", "quack.decode"),
    ("repro.quack.decoder", "polynomial_from_power_sums", "arith.newton"),
    ("repro.quack.decoder", "find_all_roots", "arith.rootfind"),
    ("repro.quack.decoder", "roots_among_candidates", "arith.rootfind"),
    ("repro.quack.power_sum", "PowerSumQuack.insert", "quack.insert"),
    ("repro.quack.power_sum", "PowerSumQuack.remove", "quack.remove"),
    ("repro.quack.wire", "encode", "quack.wire_encode"),
    ("repro.quack.wire", "decode", "quack.wire_decode"),
    ("repro.sidecar.emitter", "QuackEmitter.note", "sidecar.emitter.note"),
    ("repro.sidecar.emitter", "QuackEmitter.emit", "sidecar.emitter.emit"),
    ("repro.sidecar.flowtable", "FlowTable.admit",
     "sidecar.flowtable.admit"),
    ("repro.sidecar.flowtable", "FlowTable.observe",
     "sidecar.flowtable.observe"),
    ("repro.sidecar.flowtable", "FlowTable.flush",
     "sidecar.flowtable.flush"),
    ("repro.sidecar.flowtable", "FlowTable.close_flow",
     "sidecar.flowtable.close"),
    ("repro.sidecar.flowtable", "FlowTable.close",
     "sidecar.flowtable.close"),
)

#: Classes whose instances a traced unit collects, so the layer counters
#: the program already keeps (events, drops, retransmissions, evictions)
#: can be read when the unit ends.
INSTANCE_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.netsim.core", "Simulator"),
    ("repro.netsim.link", "Link"),
    ("repro.transport.connection", "SenderConnection"),
    ("repro.sidecar.flowtable", "FlowTable"),
)


def entry_points() -> list[tuple[str, str]]:
    """(module, attribute path) of everything :func:`install` patches."""
    return ([(module, path) for module, path, _ in SPAN_POINTS]
            + [(module, cls + ".__init__") for module, cls in INSTANCE_POINTS])


def nearest_rank(samples: Iterable[float], q: float) -> float:
    """Nearest-rank quantile of a sample (0.0 when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _resolve(module: str, path: str) -> tuple[Any, str]:
    """The object holding the last attribute of ``path``, and its name."""
    owner: Any = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


@dataclass
class SpanStats:
    """One span name's totals over one unit."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class SpanRecorder:
    """In-memory spans with parent links: name, start, end, parent index.

    Spans are appended to parallel lists in call order; a stack of open
    span indices gives each new span its parent (-1 at top level).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.instances: dict[str, list[Any]] = {}
        self.ok: dict[str, int] = {}
        self._stack = [-1]

    def clear(self) -> None:
        """Drop every span and collected instance (between units)."""
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        for bucket in self.instances.values():
            bucket.clear()
        self.ok.clear()
        del self._stack[1:]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(span, MARK, name)
        return span

    def wrap_ok(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, also counting results whose ``ok`` is true."""
        traced = self.wrap(name, fn)
        ok = self.ok

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            if result.ok:
                ok[name] = ok.get(name, 0) + 1
            return result

        setattr(counted, MARK, name)
        return counted

    def collect(self, kind: str, init: Callable) -> Callable:
        """``init`` that also keeps each constructed instance."""
        bucket = self.instances.setdefault(kind, [])

        @functools.wraps(init)
        def __init__(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            bucket.append(self_)

        setattr(__init__, MARK, kind)
        return __init__

    def summary(self) -> dict[str, SpanStats]:
        """Per-name calls, inclusive time, self time and durations.

        A span's self time is its duration minus the durations of its
        direct children, so self times partition the covered wall time.
        """
        child_time = [0.0] * len(self.names)
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        stats: dict[str, SpanStats] = {}
        for name, duration, children in zip(self.names, durations,
                                            child_time):
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = SpanStats()
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - children
            entry.durations.append(duration)
        return stats

    def write(self, path: str) -> None:
        """Write the recorded spans as gzipped JSON.

        ``spans`` rows are ``[name index, start, duration, parent]`` with
        start relative to the first span, in seconds.
        """
        index: dict[str, int] = {}
        origin = self.starts[0] if self.starts else 0.0
        rows = []
        for name, start, end, parent in zip(self.names, self.starts,
                                            self.ends, self.parents):
            rows.append([index.setdefault(name, len(index)),
                         start - origin, end - start, parent])
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"names": list(index), "spans": rows}, handle)


class Installation:
    """The patches of one traced run; :meth:`remove` restores originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name),
                           name in vars(owner)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, name, original, own = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def install(recorder: SpanRecorder) -> Installation:
    """Patch every span and instance point to record into ``recorder``."""
    installation = Installation()
    try:
        for module, path, name in SPAN_POINTS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrap = recorder.wrap_ok if name == ON_QUACK else recorder.wrap
            installation.patch(owner, attr, wrap(name, original))
        for module, cls_name in INSTANCE_POINTS:
            cls, _ = _resolve(module, cls_name + ".__init__")
            installation.patch(cls, "__init__",
                               recorder.collect(cls_name, cls.__init__))
    except BaseException:
        installation.remove()
        raise
    return installation


def installed_wrappers() -> list[str]:
    """Entry points that currently hold a wrapper from this module."""
    return [f"{module}.{path}" for module, path in entry_points()
            if hasattr(getattr(*_resolve(module, path)), MARK)]


# -- per-layer metrics ---------------------------------------------------------

#: Per-layer metric -> unit.  Times are per unit of the workload's work,
#: inclusive of child spans unless the name says ``self``.
LAYER_UNITS: dict[str, str] = {
    "quack.decode_s": "s",
    "quack.decodes": "count",
    "quack.decode_us_p50": "us",
    "quack.decode_us_p99": "us",
    "quack.remove_s": "s",
    "arith.newton_s": "s",
    "arith.rootfind_s": "s",
    "sidecar.consumer.on_quack_s": "s",
    "sidecar.consumer.quacks": "count",
    "sidecar.consumer.decode_ok_ratio": "ratio",
    "transport.ack_rx": "count",
    "transport.ack_rx_s": "s",
    "transport.loss_detect_s": "s",
    "transport.data_rx_s": "s",
    "transport.retransmissions": "count",
    "sidecar.flowtable.admits": "count",
    "sidecar.flowtable.admit_s": "s",
    "sidecar.flowtable.admit_us_p50": "us",
    "sidecar.flowtable.admit_us_p99": "us",
    "sidecar.flowtable.evictions": "count",
    "sidecar.flowtable.observe_s": "s",
    "sidecar.flowtable.flush_s": "s",
    "sidecar.flowtable.close_s": "s",
    "sidecar.flowtable.frames": "count",
    "sidecar.emitter.notes": "count",
    "sidecar.emitter.note_s": "s",
    "sidecar.emitter.emit_s": "s",
    "quack.inserts": "count",
    "quack.insert_s": "s",
    "netsim.events": "count",
    "netsim.host_us_per_event": "us",
    "netsim.run_self_s": "s",
    "netsim.node_rx_self_s": "s",
    "netsim.link_sends": "count",
    "netsim.link_send_s": "s",
    "netsim.link_tx_s": "s",
    "netsim.link_drops": "count",
    "netsim.sim_s_per_wall_s": "s/s",
    "quack.wire_encode_s": "s",
    "quack.wire_decode_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

#: Metric -> span name whose per-unit inclusive time it reports.
_TIMES = {
    "quack.decode_s": "quack.decode",
    "quack.remove_s": "quack.remove",
    "arith.newton_s": "arith.newton",
    "arith.rootfind_s": "arith.rootfind",
    "sidecar.consumer.on_quack_s": "sidecar.consumer.on_quack",
    "transport.ack_rx_s": "transport.ack_rx",
    "transport.loss_detect_s": "transport.loss_detect",
    "transport.data_rx_s": "transport.data_rx",
    "sidecar.flowtable.admit_s": "sidecar.flowtable.admit",
    "sidecar.flowtable.observe_s": "sidecar.flowtable.observe",
    "sidecar.flowtable.flush_s": "sidecar.flowtable.flush",
    "sidecar.flowtable.close_s": "sidecar.flowtable.close",
    "sidecar.emitter.note_s": "sidecar.emitter.note",
    "sidecar.emitter.emit_s": "sidecar.emitter.emit",
    "quack.insert_s": "quack.insert",
    "netsim.link_send_s": "netsim.link_send",
    "netsim.link_tx_s": "netsim.link_tx",
    "quack.wire_encode_s": "quack.wire_encode",
    "quack.wire_decode_s": "quack.wire_decode",
}

#: Metric -> span name whose per-unit self time it reports.
_SELF_TIMES = {
    "netsim.run_self_s": "netsim.run",
    "netsim.node_rx_self_s": "netsim.node_rx",
}

#: Metric -> span name whose per-unit call count it reports.
_CALLS = {
    "quack.decodes": "quack.decode",
    "sidecar.consumer.quacks": "sidecar.consumer.on_quack",
    "transport.ack_rx": "transport.ack_rx",
    "sidecar.flowtable.admits": "sidecar.flowtable.admit",
    "sidecar.emitter.notes": "sidecar.emitter.note",
    "quack.inserts": "quack.insert",
    "netsim.link_sends": "netsim.link_send",
}


@dataclass
class TracedUnit:
    """What one traced unit leaves behind once its spans are summarised."""

    wall_s: float
    spans: dict[str, SpanStats]
    counts: dict[str, int]
    sim_seconds: float


def close_unit(recorder: SpanRecorder, wall_s: float) -> TracedUnit:
    """Summarise the unit just run; the recorder keeps its raw spans."""
    spans = recorder.summary()
    instances = recorder.instances
    sims = instances.get("Simulator", [])
    links = instances.get("Link", [])
    counts = {
        "netsim.events": sum(sim.events_dispatched for sim in sims),
        "netsim.link_drops": sum(
            link.stats.dropped_queue + link.stats.dropped_loss
            + link.stats.dropped_fault for link in links),
        "transport.retransmissions": sum(
            conn.stats.retransmitted_packets
            for conn in instances.get("SenderConnection", [])),
        "sidecar.flowtable.evictions": sum(
            table.stats.flows_evicted
            for table in instances.get("FlowTable", [])),
        "sidecar.flowtable.frames": sum(
            table.stats.frames_batched
            for table in instances.get("FlowTable", [])),
        "decode_ok": recorder.ok.get(ON_QUACK, 0),
    }
    for metric, span in _CALLS.items():
        counts[metric] = spans[span].calls if span in spans else 0
    return TracedUnit(wall_s=wall_s, spans=spans, counts=counts,
                      sim_seconds=sum(sim.now for sim in sims))


def layer_metrics(traced: list[TracedUnit], plain_wall: float,
                  overhead: float) -> dict[str, float]:
    """Every per-layer metric from the traced and untraced units of a run.

    Times are medians over traced units; counts come from one unit (the
    caller checks they repeat); host-rate metrics divide by
    ``plain_wall``, the untraced seconds of one unit, so tracing
    overhead does not distort them.  ``overhead`` is traced over
    untraced cost, which the caller measures.
    """
    def per_unit(span: str, attr: str) -> float:
        return statistics.median(
            getattr(unit.spans[span], attr) if span in unit.spans else 0.0
            for unit in traced)

    def all_durations(span: str) -> list[float]:
        return [d for unit in traced if span in unit.spans
                for d in unit.spans[span].durations]

    counts = traced[-1].counts
    metrics: dict[str, float] = {}
    for metric, span in _TIMES.items():
        metrics[metric] = per_unit(span, "total_s")
    for metric, span in _SELF_TIMES.items():
        metrics[metric] = per_unit(span, "self_s")
    metrics.update((name, count) for name, count in counts.items()
                   if name in LAYER_UNITS)
    decodes = all_durations("quack.decode")
    metrics["quack.decode_us_p50"] = nearest_rank(decodes, 0.50) * 1e6
    metrics["quack.decode_us_p99"] = nearest_rank(decodes, 0.99) * 1e6
    admits = all_durations("sidecar.flowtable.admit")
    metrics["sidecar.flowtable.admit_us_p50"] = nearest_rank(admits, 0.50) * 1e6
    metrics["sidecar.flowtable.admit_us_p99"] = nearest_rank(admits, 0.99) * 1e6
    quacks = counts["sidecar.consumer.quacks"]
    metrics["sidecar.consumer.decode_ok_ratio"] = (
        counts["decode_ok"] / quacks if quacks else 0.0)
    events = counts["netsim.events"]
    metrics["netsim.host_us_per_event"] = (
        plain_wall / events * 1e6 if events else 0.0)
    metrics["netsim.sim_s_per_wall_s"] = traced[-1].sim_seconds / plain_wall
    metrics["trace.overhead"] = overhead
    metrics["trace.coverage"] = statistics.median(
        sum(stats.self_s for name, stats in unit.spans.items()
            if name != "netsim.run") / unit.wall_s
        for unit in traced)
    return {name: metrics[name] for name in LAYER_UNITS}
