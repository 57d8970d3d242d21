"""Run one scenario with observability enabled; collect trace + metrics.

This is the engine behind ``python -m repro trace <scenario>``: it turns
the global observability switchboard on, runs a scenario from the
registry (:mod:`repro.scenarios`) by name, and hands back the captured
trace events, the metrics snapshot, and a rendered summary.

The runner owns the enable/disable lifecycle so callers can never leak
an enabled tracer into code that did not ask for one; metrics and the
ring buffer are reset on entry so each run's data stands alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.trace import TraceEvent, component_tally, format_component_tally
from repro.scenarios import lookup


@dataclass
class TraceRunResult:
    """One traced run: the events, the metrics, and the scenario output."""

    scenario: str
    seed: int
    events: list[TraceEvent]
    events_emitted: int
    events_dropped: int
    metrics: dict
    metrics_text: str
    outcome: dict
    #: Components the scenario must produce events from.
    expected: tuple[str, ...]

    def components(self) -> dict[str, int]:
        """Event counts by component prefix (link/transport/quack/...)."""
        return component_tally(self.events)

    def missing_core_components(self) -> list[str]:
        """Expected components that produced no events (should be empty)."""
        present = self.components()
        return [name for name in self.expected if not present.get(name)]


def run_traced(scenario: str, *, seed: int = 1,
               total_bytes: int = 200_000, loss: float = 0.02,
               capacity: int = 65536,
               profile: bool = True,
               allocations: bool = False) -> TraceRunResult:
    """Run ``scenario`` with tracing/metrics/profiling enabled.

    ``scenario`` is any name in :data:`repro.scenarios.SCENARIOS`.
    ``total_bytes`` and ``loss`` reach only the scenarios that take a
    ``total_bytes`` / ``loss_rate`` param.  ``allocations`` additionally
    tracks per-span allocation deltas via ``tracemalloc`` (slow; only
    for ``repro profile --alloc``).  Observability is switched off
    again before returning, whatever happens inside the scenario.
    """
    entry = lookup(scenario, ObservabilityError)
    params = {"seed": seed}
    for name, value in (("total_bytes", total_bytes), ("loss_rate", loss)):
        if entry.takes(name):
            params[name] = value

    obs.reset()
    sink = obs.enable(capacity=capacity, profile=profile,
                      allocations=allocations)
    try:
        outcome = entry.run(params)
    finally:
        obs.disable()
    return TraceRunResult(
        scenario=scenario,
        seed=seed,
        events=sink.events,
        events_emitted=sink.emitted,
        events_dropped=sink.dropped,
        metrics=obs.METRICS.snapshot(),
        metrics_text=obs.METRICS.render_text(),
        outcome=outcome,
        expected=entry.components,
    )


def summarize(result: TraceRunResult) -> str:
    """The ``--summary`` text: trace tallies above the metrics table."""
    ratio = (result.events_dropped / result.events_emitted
             if result.events_emitted else 0.0)
    lines = [
        f"scenario: {result.scenario} (seed {result.seed})",
        f"trace: {len(result.events)} events buffered "
        f"({result.events_emitted} emitted, {result.events_dropped} "
        f"dropped by the ring, drop ratio {ratio:.4f})",
    ]
    if result.events_dropped:
        lines.append(
            f"WARNING: ring buffer truncated the trace -- dropped/emitted "
            f"= {result.events_dropped}/{result.events_emitted} "
            f"({ratio:.1%}); the oldest events are gone and analyses of "
            f"this trace are incomplete (raise --capacity)")
    components = result.components()
    if components:
        lines.append("events by component: "
                     + format_component_tally(components))
    missing = result.missing_core_components()
    if missing:
        lines.append(f"WARNING: no events from: {', '.join(missing)}")
    lines.append("")
    lines.append("metrics:")
    lines.append(result.metrics_text)
    return "\n".join(lines)
