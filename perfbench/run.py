"""Run one benchmark workload for one seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table-churn --seed 1 --seconds 45 --trace 0

The program is imported from ``src/`` next to this directory.  The run
repeats the workload's unit of work until ``--seconds`` have passed and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` the run first times untraced units,
then installs the span recorder and reports the per-layer metrics.  The
line before it describes the simulated outcome, with its digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Child processes whose start-to-first-timed-call times give setup_s.
SETUP_SAMPLES = 5
#: Fewest units a run measures, whatever ``--seconds`` says.
MIN_UNITS = 3
#: Share of a traced run's seconds spent on untraced units.
UNTRACED_SHARE = 1 / 3
CHILD_TIMEOUT_S = 60


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_user_defaults() -> None:
    """Refuse to measure unless the program's switches are as users run it.

    Tracing, profiling and the flow ledger off, the built-in scheduler
    choice, the garbage collector on, and no span wrapper left in place.
    """
    from repro import obs
    from repro.sidecar.accounting import FLOW_ACCOUNTS

    import tracing

    problems = []
    if obs.TRACER.enabled:
        problems.append("the obs tracer is enabled")
    if obs.PROFILER.enabled:
        problems.append("the obs profiler is enabled")
    if FLOW_ACCOUNTS.armed:
        problems.append("FLOW_ACCOUNTS is armed")
    if os.environ.get("REPRO_SCHEDULER", "").strip():
        problems.append("REPRO_SCHEDULER overrides the default scheduler")
    if not gc.isenabled():
        problems.append("the garbage collector is disabled")
    problems.extend(f"span wrapper left on {point}"
                    for point in tracing.installed_wrappers())
    if problems:
        raise SystemExit("perfbench: not the user configuration: "
                         + "; ".join(problems))


def measure_setup(args: argparse.Namespace, reference) -> float:
    """Median seconds from starting a fresh process to its first timed call.

    Each sample is a child running this script with ``--setup-probe``:
    it imports the program, checks the defaults and builds the
    workload's program objects, then reports the monotonic clock, which
    is shared between processes.  Each sample is scaled to the nominal
    host speed by the reference timed around it.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    samples = []
    after = reference.sample()
    for _ in range(SETUP_SAMPLES):
        before = after
        started = time.monotonic()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, check=True)
        ready = float(child.stdout.split()[-1])
        after = reference.sample()
        samples.append((ready - started) * reference.scale(before, after))
    return statistics.median(samples)


def run_units(workload, inputs, seconds: float, min_units: int,
              reference, recorder=None) -> tuple[list, list]:
    """Repeat the workload's unit until ``seconds`` have passed.

    The reference is timed between units, with the previous unit's
    garbage collected, and each unit keeps the scale to nominal speed
    given by the samples on either side of it.  With a ``recorder``
    installed, each unit's spans are summarised as it ends; the recorder
    keeps the raw spans of the last unit only.
    """
    import tracing

    units, traced = [], []
    started = time.perf_counter()
    gc.collect()
    after = reference.sample()
    while (len(units) < min_units
           or time.perf_counter() - started < seconds):
        if recorder is not None:
            recorder.clear()
        unit = workload.run(workload.build(), inputs)
        if recorder is not None:
            traced.append(tracing.close_unit(recorder, sum(unit.segments)))
        gc.collect()
        before, after = after, reference.sample()
        unit.scale = reference.scale(before, after)
        units.append(unit)
    return units, traced


def unit_wall(units: list, scaled: bool = True) -> float:
    """Seconds of one unit: the sum of each step's median over units.

    Every unit of a seed repeats the same steps, so taking the median
    step by step keeps a burst of interference from other processes,
    which hits a few steps of one unit, out of the figure.  ``scaled``
    first brings each unit's steps to the nominal host speed, which
    cancels the slower drift of a shared host's speed.
    """
    return sum(statistics.median(step) for step in zip(*(
        [t * (unit.scale if scaled else 1.0) for t in unit.segments]
        for unit in units)))


def verdict(units: list) -> tuple[list[str], str]:
    """Failed checks across units, and the outcome digest of the first."""
    from workloads import digest

    problems = [problem for unit in units for problem in unit.problems]
    if len({len(unit.segments) for unit in units}) > 1:
        problems.append("units of one seed took different numbers of steps")
    digests = {digest(unit.outcome) for unit in units}
    if len(digests) > 1:
        problems.append(f"units of one seed disagree: {sorted(digests)}")
    return problems, digest(units[0].outcome)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    check_user_defaults()
    if args.setup_probe:
        workload.build()
        print(time.monotonic())
        return 0

    from calibrate import Reference

    reference = Reference()
    setup_s = None if args.trace else measure_setup(args, reference)
    inputs = workload.make_inputs(args.seed)

    if not args.trace:
        units, _ = run_units(workload, inputs, args.seconds, MIN_UNITS,
                             reference)
        problems, outcome_digest = verdict(units)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": unit_wall(units), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        workload_metrics = {
            name: {"value": statistics.median(u.info[name][0] for u in units),
                   "unit": units[0].info[name][1]}
            for name in units[0].info}
    else:
        plain, _ = run_units(workload, inputs,
                             args.seconds * UNTRACED_SHARE, MIN_UNITS - 1,
                             reference)
        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder)
        try:
            traced, summaries = run_units(
                workload, inputs, args.seconds * (1 - UNTRACED_SHARE), 1,
                reference, recorder=recorder)
        finally:
            installation.remove()
        units = plain + traced
        problems, outcome_digest = verdict(units)
        problems.extend(f"span wrapper survived on {point}"
                        for point in tracing.installed_wrappers())
        if any(s.counts != summaries[0].counts for s in summaries):
            problems.append("layer counts differ between traced units")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.write(str(out / f"spans-{args.workload}-seed{args.seed}"
                                 ".json.gz"))
        plain_wall = unit_wall(plain, scaled=False)
        layers = tracing.layer_metrics(
            summaries, plain_wall,
            overhead=unit_wall(traced, scaled=False) / plain_wall)
        metrics = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                   for name, value in layers.items()}
        workload_metrics = {}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "units": len(units),
        "digest": outcome_digest, "problems": problems,
        "wall_raw_s": unit_wall(units, scaled=False),
        "unit_walls_raw_s": [sum(u.segments) for u in units],
        "workload_metrics": workload_metrics}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
