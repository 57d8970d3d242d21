"""The benchmark's seeded workloads: inputs, one unit of work, its checks.

Every workload is a closed loop with one caller.  Its inputs are made
from the benchmark seed before anything is timed; a *unit* is the fixed
work those inputs describe, and a run repeats the unit.  Because the
simulator is deterministic, every unit of one seed must reproduce the
same simulated outcome, which the run checks by digest.

Transfer workloads call the experiments' public entry points.  Table
workloads drive :class:`~repro.sidecar.flowtable.FlowTable` from a
``sim.timer`` tick shaped like :func:`~repro.sidecar.flowtable.run_scale`,
with identifiers, per-tick observation order and churn schedule generated
up front, so the driver's own random draws and list shuffling are not
timed as flow-table cost.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.netsim.core import Simulator
from repro.netsim.packet import reset_packet_uids
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.flowtable import FlowTable, FlowTableConfig
from repro.sidecar.retransmission import run_retransmission
from tracing import nearest_rank

TRANSFER_BYTES = 1_500_000


@dataclass
class UnitResult:
    """One unit of a workload: its step times and what it produced.

    The steps (a transfer, or a table tick) are the same in every unit
    of one seed, so a run can take each step's median across units.
    """

    segments: list[float]    # host seconds of each step, in order
    outcome: dict            # simulated, JSON-safe; repeats for a seed
    attempted: int
    failed: int
    problems: list[str]      # failed correctness checks
    info: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Factor to nominal host speed, from the reference timed around it.
    scale: float = 1.0


def digest(outcome: Any) -> str:
    """Stable hash of a JSON-safe simulated outcome."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- transfers -----------------------------------------------------------------

#: Experiment -> (entry point call, name of its mean completion time).
EXPERIMENTS: dict[str, tuple[Callable[[int], Any], str]] = {
    "cc_division": (
        lambda seed: run_cc_division(total_bytes=TRANSFER_BYTES,
                                     sidecar=True, seed=seed),
        "cc_division_completion_s"),
    "ack_reduction": (
        lambda seed: run_ack_reduction(total_bytes=TRANSFER_BYTES,
                                       ack_every=32, sidecar=True,
                                       seed=seed),
        "ack_reduction_completion_s"),
    "retransmission": (
        lambda seed: run_retransmission(total_bytes=TRANSFER_BYTES,
                                        innet_retx=True, loss_rate=0.05,
                                        seed=seed),
        "retransmission_completion_s"),
}


def transfer_inputs(experiments: tuple[str, ...], rounds: int,
                    seed: int) -> list[tuple[str, int]]:
    """``rounds`` loss seeds derived from ``seed``, each run by every
    experiment in ``experiments``."""
    rng = random.Random(seed)
    return [(name, sub_seed)
            for sub_seed in (rng.randrange(1, 1 << 31)
                             for _ in range(rounds))
            for name in experiments]


def run_transfers(_objects: None,
                  plan: list[tuple[str, int]]) -> UnitResult:
    """Run every planned transfer; one transfer is one operation."""
    clock = time.perf_counter
    results, segments = [], []
    for name, sub_seed in plan:
        started = clock()
        results.append(EXPERIMENTS[name][0](sub_seed))
        segments.append(clock() - started)

    outcome = []
    problems = []
    failed = 0
    completion: dict[str, list[float]] = {}
    client_acks = []
    for (name, sub_seed), result in zip(plan, results):
        record = asdict(result)
        outcome.append({"experiment": name, "seed": sub_seed, **record})
        delivered = (round(result.goodput_bps * result.completion_time / 8)
                     if result.completed else 0)
        if not result.completed or delivered != TRANSFER_BYTES:
            failed += 1
            problems.append(f"{name} seed {sub_seed}: delivered "
                            f"{delivered} of {TRANSFER_BYTES} bytes")
            continue
        completion.setdefault(name, []).append(result.completion_time)
        if name == "ack_reduction":
            client_acks.append(result.client_acks_sent)
    info: dict[str, tuple[float, str]] = {}
    for name, times in completion.items():
        info[EXPERIMENTS[name][1]] = (sum(times) / len(times), "s")
    if client_acks:
        info["ack_reduction_client_acks"] = (
            sum(client_acks) / len(client_acks), "count")
    return UnitResult(segments=segments, outcome={"transfers": outcome},
                      attempted=len(plan), failed=failed, problems=problems,
                      info=info)


# -- flow table ----------------------------------------------------------------

@dataclass(frozen=True)
class TableShape:
    """A flow-table population, in :func:`run_scale`'s terms."""

    flows: int = 20_000
    tenants: int = 8
    packets_per_flow: int = 4
    churn_rate: float = 0.2
    duration_s: float = 1.0
    tick_s: float = 0.0073
    batch_interval_s: float = 0.005
    threshold: int = 4
    bits: int = 32
    #: Per-tenant bytes; 90,000 is run_scale's default at 20k flows over
    #: 8 tenants (twice an even share), 22,500 a quarter of it.
    tenant_budget_bytes: int = 90_000


@dataclass
class TableInputs:
    """Everything a table unit needs, generated from the seed."""

    tenant_names: list[str]       # by flow sequence number
    flow_names: list[str]         # by flow sequence number
    tick_records: list[list[int]]  # record index of each observation
    tick_ids: list[list[int]]      # identifier of each observation
    tick_churn: list[int]          # flows replaced at the end of the tick
    offered: int


def table_inputs(shape: TableShape, seed: int) -> TableInputs:
    """Identifiers, observation order and churn schedule for one seed.

    Observations walk the record list round-robin as :func:`run_scale`
    does (``cursor % len(records)``, with the list growing by one record
    per churn admission), and each tick's batch is then shuffled, so the
    seed picks both the identifiers and the order flows are seen in.
    """
    rng = random.Random(seed)
    ticks = max(1, int(round(shape.duration_s / shape.tick_s)))
    total = shape.flows * shape.packets_per_flow
    per_tick = -(-total // ticks) if total else 0
    churn = []
    carry = 0.0
    for _ in range(ticks):
        carry += shape.churn_rate * shape.flows * shape.tick_s
        replace = int(carry)
        carry -= replace
        churn.append(replace)
    identifiers = [rng.randrange(1, 1 << shape.bits) for _ in range(total)]
    tick_records: list[list[int]] = []
    tick_ids: list[list[int]] = []
    records = shape.flows
    for tick in range(ticks):
        cursors = range(min(tick * per_tick, total),
                        min((tick + 1) * per_tick, total))
        batch = [(cursor % records, identifiers[cursor])
                 for cursor in cursors]
        rng.shuffle(batch)
        tick_records.append([index for index, _ in batch])
        tick_ids.append([identifier for _, identifier in batch])
        records += churn[tick]
    flows_total = shape.flows + sum(churn)
    return TableInputs(
        tenant_names=[f"t{seq % shape.tenants}" for seq in range(flows_total)],
        flow_names=[f"f{seq}" for seq in range(flows_total)],
        tick_records=tick_records, tick_ids=tick_ids, tick_churn=churn,
        offered=total)


def build_table(shape: TableShape) -> tuple[Simulator, FlowTable]:
    """The program objects a table unit drives, built before timing."""
    reset_packet_uids()
    sim = Simulator()
    config = FlowTableConfig(
        shards=16, max_flows=max(2 * shape.flows, 16),
        tenant_budget_bytes=shape.tenant_budget_bytes,
        batch_interval_s=shape.batch_interval_s,
        threshold=shape.threshold, bits=shape.bits)
    return sim, FlowTable(sim, config)


#: Initial admissions per timed step: steps short enough that a burst of
#: interference from other processes spoils few of them.
ADMIT_STEP = 500


class _Rejected:
    """Stands in the record list for a rejected admission."""

    __slots__ = ()
    live = False


@dataclass
class TableRun:
    """Raw result of driving one table through one population."""

    segments: list[float]    # admission steps, ticks, final close
    stats: dict
    resident_before_close: int
    admit_durations: list[float]
    rejected: int


def drive_table(sim: Simulator, table: FlowTable, shape: TableShape,
                inputs: TableInputs) -> TableRun:
    """Admit, observe, churn and close one population in virtual time."""
    clock = time.perf_counter
    admit = table.admit
    observe = table.observe
    close_flow = table.close_flow
    tenant_names, flow_names = inputs.tenant_names, inputs.flow_names
    records: list[Any] = []
    live: deque = deque()
    admit_durations: list[float] = []
    marks: list[float] = []
    state = {"seq": 0, "tick": 0, "rejected": 0, "resident": 0}
    ticks = len(inputs.tick_churn)

    def admit_one() -> None:
        seq = state["seq"]
        state["seq"] = seq + 1
        started = clock()
        record = admit(tenant_names[seq], flow_names[seq])
        admit_durations.append(clock() - started)
        if record is None:
            state["rejected"] += 1
            records.append(_Rejected())
        else:
            records.append(record)
            live.append(record)

    def step() -> None:
        tick = state["tick"]
        for index, identifier in zip(inputs.tick_records[tick],
                                     inputs.tick_ids[tick]):
            observe(records[index], identifier)
        for _ in range(inputs.tick_churn[tick]):
            while live and not live[0].live:
                live.popleft()
            if not live:
                break
            close_flow(live.popleft())
            admit_one()
        state["tick"] = tick + 1
        if tick + 1 < ticks:
            timer.rearm(shape.tick_s)
        else:
            state["resident"] = table.flows
            table.close()
        marks.append(clock())

    marks.append(clock())
    for first in range(0, shape.flows, ADMIT_STEP):
        for _ in range(min(ADMIT_STEP, shape.flows - first)):
            admit_one()
        marks.append(clock())
    timer = sim.timer(step)
    timer.rearm(shape.tick_s)
    sim.run(until=shape.duration_s + 1.0)
    table.close()
    marks.append(clock())
    segments = [end - start for start, end in zip(marks, marks[1:])]
    return TableRun(segments=segments, stats=table.stats_dict(),
                    resident_before_close=state["resident"],
                    admit_durations=admit_durations,
                    rejected=state["rejected"])


def table_unit(shape: TableShape, evicts: bool
               ) -> Callable[[tuple[Simulator, FlowTable], TableInputs],
                             UnitResult]:
    """A unit runner for ``shape``; ``evicts`` is whether it must evict."""

    def run(objects: tuple[Simulator, FlowTable],
            inputs: TableInputs) -> UnitResult:
        sim, table = objects
        result = drive_table(sim, table, shape, inputs)
        stats = result.stats
        problems = []
        resident = (stats["flows_admitted"] - stats["flows_closed"]
                    - stats["flows_evicted"] - stats["flows_shed"])
        if resident != result.resident_before_close:
            problems.append(f"admitted - closed - evicted - shed = "
                            f"{resident}, resident flows "
                            f"{result.resident_before_close}")
        if stats["frames_batched"] != stats["emissions"]:
            problems.append(f"frames batched {stats['frames_batched']} != "
                            f"emissions {stats['emissions']}")
        if evicts and stats["flows_evicted"] == 0:
            problems.append("the pressured table evicted no flow")
        if not evicts and (stats["flows_evicted"] or stats["flows_rejected"]):
            problems.append(
                f"the unpressured table evicted {stats['flows_evicted']} "
                f"and rejected {stats['flows_rejected']} flows")
        outcome = dict(stats, offered=inputs.offered,
                       resident_before_close=result.resident_before_close)
        driven = stats["flows_admitted"] + stats["flows_closed"]
        info = {
            "flows_per_sec": (driven / sum(result.segments), "1/s"),
            "admit_us_p99": (nearest_rank(result.admit_durations, 0.99) * 1e6,
                             "us"),
            "emission_latency_p99_s": (stats["emission_latency_p99_s"], "s"),
            "peak_bank_bytes": (stats["peak_bank_bytes"], "bytes"),
            "assisted_ratio": (stats["observations"] / inputs.offered,
                               "ratio"),
        }
        return UnitResult(segments=result.segments, outcome=outcome,
                          attempted=len(result.admit_durations),
                          failed=result.rejected, problems=problems,
                          info=info)

    return run


# -- the registry --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named workload: seed -> inputs, set-up objects, one timed unit."""

    name: str
    make_inputs: Callable[[int], Any]
    build: Callable[[], Any]
    run: Callable[[Any, Any], UnitResult]


#: E9 transfers per unit: enough loss seeds that one seed's luck moves
#: the unit's wall time by a few percent at most.
RETX_ROUNDS = 16
#: E7+E8 pairs per unit of the quack-transfers workload.
QUACK_ROUNDS = 2

UNPRESSURED = TableShape()
PRESSURED = TableShape(tenant_budget_bytes=22_500)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("quack-transfers",
                 lambda seed: transfer_inputs(
                     ("cc_division", "ack_reduction"), QUACK_ROUNDS, seed),
                 lambda: None, run_transfers),
        Workload("lossy-retx",
                 lambda seed: transfer_inputs(
                     ("retransmission",), RETX_ROUNDS, seed),
                 lambda: None, run_transfers),
        Workload("table-churn",
                 lambda seed: table_inputs(UNPRESSURED, seed),
                 lambda: build_table(UNPRESSURED),
                 table_unit(UNPRESSURED, evicts=False)),
        Workload("table-pressured",
                 lambda seed: table_inputs(PRESSURED, seed),
                 lambda: build_table(PRESSURED),
                 table_unit(PRESSURED, evicts=True)),
    )
}
