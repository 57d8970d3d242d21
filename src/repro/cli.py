"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``quack encode``  -- build a power-sum quACK from received identifiers
  and print the wire frame as hex;
* ``quack decode``  -- decode a hex frame against a sent-identifier log;
* ``tables``        -- regenerate a paper table/figure (table2, table3,
  fig5, fig6);
* ``sizing``        -- the Section 4.3 frequency/size envelopes;
* ``experiment``    -- run one of the E7-E9 protocol scenarios;
* ``chaos``         -- run a fault-injection scenario and check the
  robustness invariants (exit status 1 if any is violated);
* ``trace``         -- run a scenario with the :mod:`repro.obs` layer
  enabled, exporting the structured trace as JSONL and/or printing a
  metrics summary;
* ``analyze``       -- derive per-connection timelines, loss-recovery
  attribution, quACK decode health, and health-ladder dwell times from
  an exported JSONL trace;
* ``bench``         -- record benchmark snapshots (``BENCH_<area>.json``)
  or compare a snapshot directory against a baseline with a
  threshold-based regression verdict (exit status 1 on regression);
* ``sweep``         -- expand a scenario-matrix spec into seeded cells,
  shard them across worker processes, and write one aggregate artifact
  (exit status 1 if any cell exhausted its retries); ``--telemetry``
  merges every worker's metrics into a sweep-wide telemetry block;
* ``slo``           -- evaluate declarative tail-latency budgets
  (``benchmarks/slo/*.json``) against freshly run scenarios or a saved
  telemetry snapshot (exit status 1 when a budget is violated);
* ``vectors``       -- regenerate or validate the checked-in wire-format
  conformance vectors (``tests/vectors/*.json``; exit status 1 when a
  vector is stale or fails against the implementation);
* ``profile``       -- run a scenario under the hierarchical profiler
  and print the heaviest call paths, optionally exporting a collapsed-
  stack flamegraph (``--flame``) and a JSON profile snapshot
  (``--json``) plus the per-flow middlebox resource table;
* ``diff``          -- differential analysis of two snapshot files
  (bench / profile / telemetry / sweep aggregate), ranking series by
  magnitude of relative change (exit status 1 when any series moved
  past the threshold).

Examples::

    python -m repro quack encode --ids 11,22,33 --threshold 4
    python -m repro quack decode --frame <hex> --log 11,22,33,44
    python -m repro tables table3
    python -m repro sizing retransmission --loss 0.05
    python -m repro experiment cc-division --loss 0.02 --total 500000
    python -m repro chaos blackout --seed 1
    python -m repro chaos all
    python -m repro trace cc-division --jsonl trace.jsonl --summary
    python -m repro analyze trace.jsonl
    python -m repro bench record --quick --dir /tmp/bench
    python -m repro bench compare --current /tmp/bench \\
        --baseline benchmarks/baselines
    python -m repro sweep examples/sweeps/retx_loss_delay.json \\
        --workers 4 --output sweep.json
    python -m repro sweep examples/sweeps/retx_loss_delay.json \\
        --resume sweep.json --output sweep.json
    python -m repro chaos all --flight-dir /tmp/flight
    python -m repro trace retransmission --filter sidecar. --summary
    python -m repro analyze trace.jsonl --spans
    python -m repro slo benchmarks/slo/seed_scenarios.json
    python -m repro vectors generate
    python -m repro vectors check
    python -m repro profile retransmission --flame out.folded --top 15
    python -m repro diff benchmarks/baselines/BENCH_quack.json \\
        /tmp/bench/BENCH_quack.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.quack import wire
from repro.quack.power_sum import PowerSumQuack


def _parse_ids(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part, 0) for part in text.split(",") if part]
    except ValueError as exc:
        raise SystemExit(f"error: bad identifier list {text!r}: {exc}")


# -- quack ---------------------------------------------------------------------

def cmd_quack_encode(args: argparse.Namespace) -> int:
    quack = PowerSumQuack(threshold=args.threshold, bits=args.bits,
                          count_bits=args.count_bits)
    quack.insert_many(_parse_ids(args.ids))
    frame = wire.encode(quack)
    print(frame.hex())
    print(f"# {quack.count} identifiers folded, "
          f"{quack.wire_size_bits()} payload bits "
          f"({len(frame)} framed bytes)", file=sys.stderr)
    return 0


def cmd_quack_decode(args: argparse.Namespace) -> int:
    try:
        frame = bytes.fromhex(args.frame)
    except ValueError as exc:
        raise SystemExit(f"error: frame is not valid hex: {exc}")
    quack = wire.decode(frame)
    if not isinstance(quack, PowerSumQuack):
        raise SystemExit("error: frame does not hold a power-sum quACK")
    log = _parse_ids(args.log)
    result = quack.decode(log, method=args.method)
    if not result.ok:
        print(f"decode failed: {result.status.value} "
              f"({result.num_missing} packets reported missing)")
        return 1
    print(f"missing ({len(result.missing)}): "
          f"{','.join(str(x) for x in result.missing) or '-'}")
    for group, count in result.indeterminate:
        print(f"indeterminate: {count} of "
              f"{','.join(str(x) for x in group)}")
    return 0


# -- tables ----------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import tables

    if args.which == "table2":
        print(tables.format_table2(tables.table2_report(trials=args.trials)))
    elif args.which == "table3":
        for bits, row in tables.table3_report().items():
            print(f"{bits:>3d} bits: ours {row['ours']:.3g}   "
                  f"paper {row['paper']:.3g}")
    elif args.which == "fig5":
        print(tables.format_series(
            tables.fig5_series(trials=max(3, args.trials // 10)),
            x_label="threshold"))
    else:  # fig6
        print(tables.format_series(
            tables.fig6_series(trials=max(5, args.trials // 5)),
            x_label="missing"))
    return 0


# -- sizing -----------------------------------------------------------------------

def cmd_sizing(args: argparse.Namespace) -> int:
    from repro.bench import frequency

    if args.which == "cc-division":
        sizing = frequency.cc_division_sizing(
            rtt_s=args.rtt, link_bps=args.mbps * 1e6, loss_rate=args.loss)
        print(f"packets/RTT: {sizing.packets_per_rtt}")
        print(f"expected missing/RTT: {sizing.expected_missing_per_rtt}")
        print(f"threshold t: {sizing.threshold}")
        print(f"quACK bytes: {sizing.quack_bytes} "
              f"(strawman-1 echo: {sizing.strawman1_bytes})")
        print(f"overhead: {sizing.quack_overhead_bps / 1e3:.2f} kbps "
              f"(echo: {sizing.strawman1_overhead_bps / 1e3:.1f} kbps)")
    elif args.which == "ack-reduction":
        sizing = frequency.ack_reduction_sizing(every_n=args.every,
                                                threshold=args.threshold)
        print(f"quACK every {sizing.every_n} packets, t={sizing.threshold}")
        print(f"quACK bytes: {sizing.quack_bytes} "
              f"(strawman-1: {sizing.strawman1_bytes})")
        print(f"bandwidth saving: {sizing.bandwidth_saving_factor:.2f}x")
    else:  # retransmission
        cadence = frequency.retransmission_cadence(args.loss)
        print(f"loss ratio {args.loss:.1%} -> quACK every "
              f"{cadence} packets (targeting 20 missing per quACK)")
    return 0


# -- experiments --------------------------------------------------------------------

def cmd_experiment(args: argparse.Namespace) -> int:
    if args.which == "cc-division":
        from repro.sidecar.cc_division import run_cc_division
        result = run_cc_division(total_bytes=args.total,
                                 loss_rate=args.loss,
                                 sidecar=not args.no_sidecar,
                                 seed=args.seed)
        print(f"sidecar: {result.sidecar_enabled}")
        print(f"completed: {result.completed} "
              f"in {result.completion_time:.3f} s" if result.completed
              else "completed: False")
        print(f"goodput: {result.goodput_bps / 1e6:.2f} Mbps")
        print(f"server packets: {result.server_packets_sent} "
              f"({result.server_retransmissions} retransmitted)")
        if result.proxy_stats is not None:
            print(f"proxy: forwarded {result.proxy_stats.forwarded}, "
                  f"max buffer {result.proxy_stats.max_buffer_depth}, "
                  f"decode failures {result.proxy_stats.decode_failures}")
    elif args.which == "ack-reduction":
        from repro.sidecar.ack_reduction import run_ack_reduction
        result = run_ack_reduction(total_bytes=args.total,
                                   loss_rate=args.loss,
                                   ack_every=args.every,
                                   sidecar=not args.no_sidecar,
                                   seed=args.seed)
        print(f"sidecar: {result.sidecar_enabled}, "
              f"client ACK cadence: every {result.ack_every}")
        print(f"completed: {result.completed} "
              f"in {result.completion_time:.3f} s" if result.completed
              else "completed: False")
        print(f"client ACKs: {result.client_acks_sent} "
              f"({result.client_ack_bytes} bytes)")
        print(f"proxy quACKs: {result.proxy_quacks_sent} "
              f"({result.quack_bytes} bytes)")
    else:  # retransmission
        from repro.sidecar.retransmission import run_retransmission
        result = run_retransmission(total_bytes=args.total,
                                    loss_rate=args.loss,
                                    innet_retx=not args.no_sidecar,
                                    reorder_threshold=args.reorder_threshold,
                                    seed=args.seed)
        print(f"in-network retransmission: {result.innet_retx_enabled}")
        print(f"completed: {result.completed} "
              f"in {result.completion_time:.3f} s" if result.completed
              else "completed: False")
        print(f"server retransmissions: {result.server_retransmissions}, "
              f"proxy retransmissions: {result.proxy_retransmissions}")
        print(f"congestion events: {result.server_congestion_events}")
    return 0


# -- chaos ----------------------------------------------------------------------

def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import PLANS, format_result, run_plan

    if args.list_plans:
        width = max(len(name) for name in PLANS)
        for name in sorted(PLANS):
            marker = "*" if PLANS[name].adversarial else " "
            print(f"{name:<{width}} {marker} {PLANS[name].description}")
        print("(* = adversarial plan, runs with the plausibility defense)")
        return 0
    if args.which is None:
        print("error: name a chaos plan, 'all', 'adversarial', or "
              "'overload' (--list-plans shows them)", file=sys.stderr)
        sys.exit(2)
    if args.which == "all":
        plans = tuple(sorted(PLANS))
    elif args.which == "adversarial":
        plans = tuple(sorted(name for name, plan in PLANS.items()
                             if plan.adversarial))
    elif args.which == "overload":
        plans = tuple(sorted(name for name, plan in PLANS.items()
                             if plan.overload))
    elif args.which in PLANS:
        plans = (args.which,)
    else:
        print(f"error: unknown chaos plan {args.which!r} "
              f"(--list-plans shows them)", file=sys.stderr)
        sys.exit(2)
    flight = bool(args.flight_dir)
    if flight:
        from repro import obs

        # Arm the black box: trace every plan so an invariant failure
        # dumps the ring plus the implicated packet's span tree.
        obs.FLIGHT.configure(args.flight_dir, last_n=args.flight_events)
        obs.reset()
        obs.enable(profile=False)
    failures = 0
    try:
        for name in plans:
            if flight:
                obs.reset()
            result = run_plan(name, seed=args.seed, total_bytes=args.total)
            print(format_result(result))
            if len(plans) > 1:
                print("-" * 60)
            if not result.ok:
                failures += 1
    finally:
        if flight:
            obs.disable()
            obs.FLIGHT.disarm()
            for path in obs.FLIGHT.dumps:
                print(f"flight recorder: wrote {path}", file=sys.stderr)
    if failures:
        print(f"error: {failures} of {len(plans)} chaos plans violated "
              f"invariants", file=sys.stderr)
        return 1
    return 0


# -- trace ----------------------------------------------------------------------

def cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.runner import run_traced, summarize

    result = run_traced(args.which, seed=args.seed, total_bytes=args.total,
                        loss=args.loss, capacity=args.capacity)
    if args.filter:
        prefixes = tuple(args.filter)
        result.events = [event for event in result.events
                         if event.type.startswith(prefixes)]
    if args.jsonl:
        obs.export_jsonl(result.events, args.jsonl)
        print(f"wrote {len(result.events)} events to {args.jsonl}",
              file=sys.stderr)
    if args.summary or not args.jsonl:
        print(summarize(result))
    if not args.filter:
        # A filtered view legitimately silences components; the
        # everything-instrumented check only applies to full traces.
        missing = result.missing_core_components()
        if missing:
            print(f"error: no trace events from: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
    return 0


# -- profile --------------------------------------------------------------------

def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import PROFILER, perf
    from repro.obs.runner import run_traced
    from repro.sidecar.accounting import FLOW_ACCOUNTS

    FLOW_ACCOUNTS.reset()
    FLOW_ACCOUNTS.arm()
    try:
        run_traced(args.which, seed=args.seed, total_bytes=args.total,
                   loss=args.loss, allocations=args.alloc)
    finally:
        FLOW_ACCOUNTS.disarm()
    snapshot = perf.profile_snapshot(
        PROFILER, scenario=args.which, seed=args.seed,
        flows=FLOW_ACCOUNTS.snapshot() if FLOW_ACCOUNTS.flows else None)
    print(perf.format_profile(snapshot, top=args.top))
    if args.flame:
        path = perf.write_folded(snapshot, args.flame)
        print(f"wrote collapsed stacks to {path}", file=sys.stderr)
    if args.json:
        path = perf.write_profile(snapshot, args.json)
        print(f"wrote profile snapshot to {path}", file=sys.stderr)
    PROFILER.reset()
    return 0


# -- diff -----------------------------------------------------------------------

def cmd_diff(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs import perf

    try:
        report = perf.diff_files(args.baseline, args.current,
                                 threshold=args.threshold,
                                 min_abs=args.min)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(perf.format_diff(report, threshold=args.threshold, top=args.top))
    return 0 if report.ok else 1


# -- analyze --------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analyze import analyze, load_trace

    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.filter:
        prefixes = tuple(args.filter)
        trace.records = [record for record in trace.records
                         if str(record.get("type", "")).startswith(prefixes)]
    if args.spans:
        from repro.obs.causal import build_span_trees, format_causal_summary

        print(format_causal_summary(build_span_trees(trace.records)))
        if trace.malformed:
            print(f"warning: skipped {trace.malformed} malformed lines",
                  file=sys.stderr)
        return 0
    analysis = analyze(trace)
    flows = args.flow if args.flow else None
    if flows:
        unknown = [flow for flow in flows
                   if flow not in analysis.connections]
        if unknown:
            print(f"error: no such flow(s): {', '.join(unknown)} "
                  f"(trace has: "
                  f"{', '.join(sorted(analysis.connections)) or 'none'})",
                  file=sys.stderr)
            return 2
    if args.markdown:
        print(analysis.render_markdown(flows=flows))
    else:
        print(analysis.render_text(width=args.width, flows=flows))
    if analysis.malformed:
        print(f"warning: skipped {analysis.malformed} malformed lines",
              file=sys.stderr)
    return 0


# -- slo ------------------------------------------------------------------------

def _load_slo_snapshot(path: str) -> dict:
    """Read a saved telemetry snapshot (or a sweep aggregate's block)."""
    import json

    from repro.errors import ObservabilityError
    from repro.obs.aggregate import merge_snapshots

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservabilityError(f"cannot read snapshot {path}: {exc}") \
            from exc
    if isinstance(doc, dict) and doc.get("kind") == "sweep-aggregate":
        telemetry = doc.get("telemetry")
        if not telemetry:
            raise ObservabilityError(
                f"{path}: sweep aggregate carries no telemetry block "
                f"(re-run the sweep with --telemetry)")
        doc = telemetry
    # merge_snapshots validates the kind/schema markers on the way through.
    return merge_snapshots([doc])


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.slo import (
        evaluate_budgets,
        format_verdicts,
        load_budget_file,
        run_scenarios,
    )

    say = (lambda message: None) if args.quiet \
        else (lambda message: print(message, file=sys.stderr))
    violated = False
    try:
        snapshot = _load_slo_snapshot(args.snapshot) if args.snapshot \
            else None
        for path in args.budgets:
            doc = load_budget_file(path)
            current = snapshot if snapshot is not None \
                else run_scenarios(doc, progress=say)
            verdicts = evaluate_budgets(doc["budgets"], current)
            print(format_verdicts(path, verdicts))
            if any(not verdict.ok for verdict in verdicts):
                violated = True
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


# -- bench ----------------------------------------------------------------------

def cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.bench.store import record, snapshot_path
    from repro.errors import BenchStoreError

    areas = args.areas.split(",") if args.areas else None
    try:
        snapshots = record(args.dir, areas=areas, quick=args.quick,
                           progress=lambda m: print(m, file=sys.stderr))
    except BenchStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for area in sorted(snapshots):
        print(f"wrote {snapshot_path(args.dir, area)} "
              f"({len(snapshots[area].metrics)} metrics)")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.store import compare_dirs, format_comparison
    from repro.errors import BenchStoreError

    try:
        comparisons = compare_dirs(args.current, args.baseline,
                                   threshold=args.threshold)
    except BenchStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_comparison(comparisons, threshold=args.threshold))
    failed = [comparison.area for comparison in comparisons
              if not comparison.ok]
    if failed:
        # Best-effort span attribution: which call paths moved in the
        # regressed areas' PROFILE_<area>.json snapshots.
        from repro.obs import perf

        hints = perf.span_regression_hints(args.current, args.baseline,
                                           failed)
        if hints:
            print()
            print(hints)
        return 1
    return 0


# -- sweep ----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import SweepError
    from repro.sweep import (
        SweepSpec,
        format_aggregate,
        load_aggregate_dict,
        run_sweep,
    )

    try:
        spec = SweepSpec.from_json_file(args.spec)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resume = None
    if args.resume:
        try:
            resume = load_aggregate_dict(args.resume)
        except SweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        aggregate = run_sweep(spec, workers=args.workers, resume=resume,
                              progress=lambda m: print(m, file=sys.stderr),
                              telemetry=args.telemetry)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = aggregate.to_dict()
    if args.output:
        aggregate.save(args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.bench_dir:
        from repro.bench.store import snapshot_from_sweep, write_snapshot

        path = write_snapshot(snapshot_from_sweep(record), args.bench_dir)
        print(f"wrote {path}", file=sys.stderr)
    print(format_aggregate(record))
    return 0 if aggregate.ok else 1


# -- vectors --------------------------------------------------------------------

def cmd_vectors(args: argparse.Namespace) -> int:
    from repro import vectors

    if args.vectors_command == "generate":
        for path in vectors.generate(args.dir):
            print(f"wrote {path}")
        return 0
    flight = bool(getattr(args, "flight_dir", None))
    if flight:
        from repro import obs

        # Vector execution decodes hostile/corrupt wire bytes; arm the
        # flight recorder so any WireFormatError raised mid-check dumps
        # its evidence for the CI artifact upload.
        obs.FLIGHT.configure(args.flight_dir,
                             last_n=getattr(args, "flight_events", 512))
    try:
        problems = vectors.check(args.dir)
    finally:
        if flight:
            obs.FLIGHT.disarm()
            for path in obs.FLIGHT.dumps:
                print(f"flight recorder: wrote {path}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"error: {len(problems)} conformance-vector problem(s)",
              file=sys.stderr)
        return 1
    counts = {name: len(suite)
              for name, suite in vectors.build_vectors().items()}
    print(f"{sum(counts.values())} vectors pass "
          + "(" + ", ".join(f"{name}: {count}"
                            for name, count in sorted(counts.items())) + ")")
    return 0


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sidecar/quACK reproduction toolkit (HotNets '22)")
    sub = parser.add_subparsers(dest="command", required=True)

    quack = sub.add_parser("quack", help="encode/decode quACK frames")
    quack_sub = quack.add_subparsers(dest="quack_command", required=True)

    enc = quack_sub.add_parser("encode", help="received ids -> hex frame")
    enc.add_argument("--ids", default="", help="comma-separated identifiers")
    enc.add_argument("--threshold", type=int, default=20)
    enc.add_argument("--bits", type=int, default=32)
    enc.add_argument("--count-bits", type=int, default=16)
    enc.set_defaults(func=cmd_quack_encode)

    dec = quack_sub.add_parser("decode", help="hex frame + log -> missing")
    dec.add_argument("--frame", required=True, help="hex-encoded frame")
    dec.add_argument("--log", required=True,
                     help="comma-separated sent identifiers")
    dec.add_argument("--method", default="auto",
                     choices=("auto", "candidates", "factor"))
    dec.set_defaults(func=cmd_quack_decode)

    tables = sub.add_parser("tables", help="regenerate a paper table/figure")
    tables.add_argument("which",
                        choices=("table2", "table3", "fig5", "fig6"))
    tables.add_argument("--trials", type=int, default=30)
    tables.set_defaults(func=cmd_tables)

    sizing = sub.add_parser("sizing", help="Section 4.3 envelopes")
    sizing.add_argument("which", choices=("cc-division", "ack-reduction",
                                          "retransmission"))
    sizing.add_argument("--rtt", type=float, default=0.060)
    sizing.add_argument("--mbps", type=float, default=200.0)
    sizing.add_argument("--loss", type=float, default=0.02)
    sizing.add_argument("--every", type=int, default=32)
    sizing.add_argument("--threshold", type=int, default=20)
    sizing.set_defaults(func=cmd_sizing)

    experiment = sub.add_parser("experiment",
                                help="run a protocol scenario (E7-E9)")
    experiment.add_argument("which", choices=("cc-division", "ack-reduction",
                                              "retransmission"))
    experiment.add_argument("--total", type=int, default=1_000_000)
    experiment.add_argument("--loss", type=float, default=0.02)
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--every", type=int, default=32,
                            help="client ACK cadence (ack-reduction)")
    experiment.add_argument("--reorder-threshold", type=int, default=64,
                            help="server loss tolerance (retransmission)")
    experiment.add_argument("--no-sidecar", action="store_true",
                            help="run the baseline without assistance")
    experiment.set_defaults(func=cmd_experiment)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection scenario (robustness)")
    chaos.add_argument("which", nargs="?",
                       help="a plan name, 'all', 'adversarial', or "
                            "'overload' (see --list-plans)")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the chaos plans with descriptions")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--total", type=int, default=1460 * 600,
                       help="transfer size in bytes")
    chaos.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="arm the flight recorder: run traced and dump "
                            "the last trace events plus the implicated "
                            "packet's span tree to DIR on any invariant "
                            "failure")
    chaos.add_argument("--flight-events", type=int, default=512, metavar="N",
                       help="flight-recorder ring capacity: keep the last "
                            "N trace events in each crash dump")
    chaos.set_defaults(func=cmd_chaos)

    from repro.scenarios import SCENARIOS

    trace = sub.add_parser(
        "trace", help="run a scenario with tracing/metrics enabled")
    trace.add_argument("which", choices=SCENARIOS)
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="export the trace events as JSON lines")
    trace.add_argument("--summary", action="store_true",
                       help="print trace tallies and the metrics table "
                            "(default when --jsonl is not given)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--total", type=int, default=200_000,
                       help="transfer size in bytes")
    trace.add_argument("--loss", type=float, default=0.02,
                       help="loss rate (scenarios with a loss_rate param)")
    trace.add_argument("--capacity", type=int, default=65536,
                       help="trace ring-buffer capacity in events")
    trace.add_argument("--filter", action="append", default=[],
                       metavar="PREFIX",
                       help="keep only events whose type starts with "
                            "PREFIX, e.g. 'sidecar.' or 'link.drop' "
                            "(repeatable; ORed together)")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile", help="run a scenario under the hierarchical profiler")
    profile.add_argument("which", choices=SCENARIOS)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--total", type=int, default=200_000,
                         help="transfer size in bytes")
    profile.add_argument("--loss", type=float, default=0.02,
                         help="loss rate (scenarios with a loss_rate param)")
    profile.add_argument("--flame", default=None, metavar="PATH",
                         help="write collapsed-stack text (flamegraph.pl "
                              "/ speedscope input) to PATH")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write the JSON profile snapshot to PATH "
                              "(diffable with 'repro diff')")
    profile.add_argument("--alloc", action="store_true",
                         help="also track per-span allocation deltas via "
                              "tracemalloc (slow)")
    profile.add_argument("--top", type=int, default=20,
                         help="call paths to print (by self time)")
    profile.set_defaults(func=cmd_profile)

    diff = sub.add_parser(
        "diff", help="rank series movements between two snapshot files "
                     "(exit 1 past threshold)")
    diff.add_argument("baseline", help="baseline snapshot JSON (bench / "
                                       "profile / telemetry / sweep)")
    diff.add_argument("current", help="current snapshot JSON (same kind)")
    diff.add_argument("--threshold", type=float, default=2.0,
                      help="ratio past which a series counts as moved "
                           "(must be > 1.0)")
    diff.add_argument("--min", type=float, default=1e-9, metavar="ABS",
                      help="noise floor: ignore series where both sides "
                           "are below ABS")
    diff.add_argument("--top", type=int, default=20,
                      help="ranked series to print")
    diff.set_defaults(func=cmd_diff)

    analyze = sub.add_parser(
        "analyze", help="derive timelines/attribution from a JSONL trace")
    analyze.add_argument("trace", help="trace file written by "
                                       "'repro trace --jsonl'")
    analyze.add_argument("--markdown", action="store_true",
                         help="emit a markdown document instead of the "
                              "terminal report")
    analyze.add_argument("--flow", action="append", default=[],
                         metavar="FLOW",
                         help="restrict connection sections to this flow "
                              "(repeatable)")
    analyze.add_argument("--width", type=int, default=72,
                         help="chart width in characters")
    analyze.add_argument("--filter", action="append", default=[],
                         metavar="PREFIX",
                         help="keep only events whose type starts with "
                              "PREFIX (repeatable; ORed together)")
    analyze.add_argument("--spans", action="store_true",
                         help="print the causal packet-lifecycle span "
                              "summary instead of the timeline report")
    analyze.set_defaults(func=cmd_analyze)

    bench = sub.add_parser(
        "bench", help="record/compare benchmark snapshots")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_record = bench_sub.add_parser(
        "record", help="run collectors, write BENCH_<area>.json files")
    bench_record.add_argument("--dir", default="benchmarks/baselines",
                              help="output directory for snapshot files")
    bench_record.add_argument("--areas", default="",
                              help="comma-separated areas "
                                   "(default: all: obs,protocols,quack)")
    bench_record.add_argument("--quick", action="store_true",
                              help="smaller instances / fewer trials (CI)")
    bench_record.set_defaults(func=cmd_bench_record)

    bench_compare = bench_sub.add_parser(
        "compare", help="diff snapshots against a baseline (exit 1 on "
                        "regression)")
    bench_compare.add_argument("--current", required=True,
                               help="directory of freshly recorded "
                                    "snapshots")
    bench_compare.add_argument("--baseline", default="benchmarks/baselines",
                               help="directory of baseline snapshots")
    bench_compare.add_argument("--threshold", type=float, default=2.0,
                               help="regression ratio (must be > 1.0)")
    bench_compare.set_defaults(func=cmd_bench_compare)

    sweep = sub.add_parser(
        "sweep", help="run a scenario matrix across worker processes")
    sweep.add_argument("spec", help="sweep spec JSON file (see "
                                    "examples/sweeps/)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (default: spec override, "
                            "else one per CPU; 1 = serial)")
    sweep.add_argument("--resume", default=None, metavar="PARTIAL",
                       help="previously written aggregate; its completed "
                            "cells are carried over instead of re-run")
    sweep.add_argument("--output", default=None, metavar="PATH",
                       help="write the aggregate artifact here (a partial "
                            "sweep's output can seed --resume)")
    sweep.add_argument("--bench-dir", default=None, metavar="DIR",
                       help="also flatten the aggregate into a "
                            "BENCH_sweep_<name>.json snapshot in DIR")
    sweep.add_argument("--telemetry", action="store_true",
                       help="collect per-cell metrics in the workers and "
                            "merge them into the aggregate's sweep-wide "
                            "telemetry block")
    sweep.set_defaults(func=cmd_sweep)

    slo = sub.add_parser(
        "slo", help="evaluate tail-latency budgets against telemetry "
                    "(exit 1 on violation)")
    slo.add_argument("budgets", nargs="+", metavar="BUDGET",
                     help="slo-budgets JSON file(s), e.g. "
                          "benchmarks/slo/*.json")
    slo.add_argument("--snapshot", default=None, metavar="PATH",
                     help="evaluate against a saved telemetry snapshot or "
                          "a sweep aggregate with a telemetry block, "
                          "instead of running the budget's scenarios")
    slo.add_argument("--quiet", action="store_true",
                     help="suppress per-scenario progress on stderr")
    slo.set_defaults(func=cmd_slo)

    vectors = sub.add_parser(
        "vectors", help="regenerate/validate wire-format conformance "
                        "vectors")
    vectors_sub = vectors.add_subparsers(dest="vectors_command",
                                         required=True)
    vectors_generate = vectors_sub.add_parser(
        "generate", help="derive the suites from the implementation and "
                         "(re)write tests/vectors/*.json")
    vectors_generate.add_argument("--dir", default="tests/vectors",
                                  help="vector directory")
    vectors_generate.set_defaults(func=cmd_vectors)
    vectors_check = vectors_sub.add_parser(
        "check", help="fail if any checked-in vector is stale or the "
                      "implementation no longer conforms to it")
    vectors_check.add_argument("--flight-dir", default=None, metavar="DIR",
                               help="arm the flight recorder: dump ring "
                                    "evidence to DIR on WireFormatError")
    vectors_check.add_argument("--flight-events", type=int, default=512,
                               metavar="N",
                               help="flight-recorder ring capacity: keep "
                                    "the last N trace events in each dump")
    vectors_check.add_argument("--dir", default="tests/vectors",
                               help="vector directory")
    vectors_check.set_defaults(func=cmd_vectors)

    headroom = sub.add_parser(
        "headroom", help="threshold survival vs loss burstiness (E11)")
    headroom.add_argument("--loss", type=float, default=0.02)
    headroom.add_argument("--trials", type=int, default=10)
    headroom.add_argument("--packets", type=int, default=3000)
    headroom.add_argument("--quack-every", type=int, default=32)
    headroom.set_defaults(func=cmd_headroom)

    report = sub.add_parser("report",
                            help="generate a full markdown experiment report")
    report.add_argument("--quick", action="store_true",
                        help="fewer trials and smaller transfers")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    report.set_defaults(func=cmd_report)
    return parser


def cmd_headroom(args: argparse.Namespace) -> int:
    from repro.bench.traces import survival_probability

    print(f"session survival at {args.loss:.1%} average loss "
          f"({args.packets} packets, quACK every {args.quack_every}):")
    print(f"{'t':>5s} {'random':>8s} {'bursty':>8s}")
    for threshold in (5, 10, 20, 40):
        p_random = survival_probability(
            threshold, args.loss, "random", trials=args.trials,
            n=args.packets, quack_every=args.quack_every)
        p_bursty = survival_probability(
            threshold, args.loss, "bursty", trials=args.trials,
            n=args.packets, quack_every=args.quack_every)
        print(f"{threshold:>5d} {p_random:>8.2f} {p_bursty:>8.2f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import ReportOptions, full_report

    options = ReportOptions(trials=5, protocol_bytes=200_000,
                            headroom_trials=3) if args.quick \
        else ReportOptions()
    text = full_report(options, progress=lambda m: print(m, file=sys.stderr))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.  Detach
        # stdout first so the interpreter's shutdown flush cannot raise
        # the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
