"""The scenario registry: every runnable scenario by one name.

Each name maps to a pure ``spec -> dict`` entry point, so ``repro
trace``, ``profile``, ``slo`` and ``sweep`` all run a scenario by the
same name: the E7-E9 experiments, the flow table (``scale``), the chaos
harness (``chaos`` with a ``plan`` param, or any plan by its own name)
and the sweep engine's ``selftest``.  Which common params (``seed``,
``total_bytes``, ``loss_rate``, ``attempt``) a scenario takes is read
from the signature of the function its entry point forwards to.

Only the CLI, :mod:`repro.sweep` and :mod:`repro.obs.runner` import
this module; it imports every scenario, so library modules must not.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.chaos import PLANS, run_chaos_spec, run_chaos_transfer
from repro.errors import SweepError
from repro.obs.schema import CORE_COMPONENTS
from repro.sidecar.ack_reduction import (
    run_ack_reduction,
    run_ack_reduction_spec,
)
from repro.sidecar.cc_division import run_cc_division, run_cc_division_spec
from repro.sidecar.flowtable import run_scale, run_scale_spec
from repro.sidecar.retransmission import (
    run_retransmission,
    run_retransmission_spec,
)


def run_selftest(*, seed: int, attempt: int = 0, work: int = 64,
                 sleep_s: float = 0.0, fail_attempts: int = 0,
                 exit_attempts: int = 0, **echo: Any) -> dict:
    """The sweep engine's own scenario: cheap, seeded, failure-injectable.

    ``work`` is the payload size and ``sleep_s`` a simulated task
    latency.  ``fail_attempts`` raises until the sweep's ``attempt``
    number reaches it; ``exit_attempts`` hard-kills the worker process
    until then, which exercises pool breakage.  Any other param comes
    back under ``echo``.
    """
    if attempt < exit_attempts:
        if multiprocessing.parent_process() is None:
            # Serial mode runs cells in the main process; killing it
            # would take the whole sweep down.  Degrade to an ordinary
            # (retryable) failure instead.
            raise SweepError(
                "selftest: exit_attempts needs worker processes; "
                "run with --workers >= 2")
        # A hard crash: the worker process dies without cleanup, the
        # pool breaks, and the runner must rebuild it.
        os._exit(13)
    if attempt < fail_attempts:
        raise RuntimeError(
            f"selftest: injected failure on attempt {attempt} "
            f"(fails until attempt {fail_attempts})")
    if sleep_s > 0:
        time.sleep(sleep_s)
    rng = random.Random(seed)
    values = [rng.getrandbits(32) for _ in range(work)]
    return {
        "checksum": sum(values) % (1 << 31),
        "first": values[0] if values else None,
        "work": work,
        "attempt": attempt,
        "echo": {key: echo[key] for key in sorted(echo)},
    }


def run_selftest_spec(params: dict) -> dict:
    """Spec entry point of :func:`run_selftest`."""
    return run_selftest(**params)


@dataclass(frozen=True)
class Scenario:
    """One runnable scenario: its entry point and what a run needs."""

    #: The pure ``spec -> dict`` entry point.
    entry: Callable[[dict], dict]
    #: The keyword function ``entry`` forwards its params to; its
    #: signature names the params the scenario takes.
    target: Callable[..., Any]
    #: Params fixed by the name (the plan of a chaos plan's entry).
    bound: Mapping[str, Any] = field(default_factory=dict)
    #: Components a full trace of the scenario must produce events from.
    components: tuple[str, ...] = CORE_COMPONENTS

    def takes(self, param: str) -> bool:
        """True if ``param`` is a named parameter of the scenario."""
        found = inspect.signature(self.target).parameters.get(param)
        return found is not None and found.kind is not found.VAR_KEYWORD

    def run(self, params: Mapping[str, Any]) -> dict:
        return self.entry({**params, **self.bound})


SCENARIOS: dict[str, Scenario] = {
    "cc-division": Scenario(run_cc_division_spec, run_cc_division),
    "ack-reduction": Scenario(run_ack_reduction_spec, run_ack_reduction),
    "retransmission": Scenario(run_retransmission_spec, run_retransmission),
    # The flow table alone: no transfer, so no link/transport/quack events.
    "scale": Scenario(run_scale_spec, run_scale, components=("sidecar",)),
    "chaos": Scenario(run_chaos_spec, run_chaos_transfer),
}
SCENARIOS.update(
    (plan, Scenario(run_chaos_spec, run_chaos_transfer, {"plan": plan}))
    for plan in sorted(PLANS))
SCENARIOS["selftest"] = Scenario(run_selftest_spec, run_selftest,
                                 components=())


def lookup(name: str, error: type[Exception]) -> Scenario:
    """The scenario called ``name``; raises ``error`` if there is none."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise error(f"unknown scenario {name!r}; have "
                    f"{', '.join(SCENARIOS)}") from None
