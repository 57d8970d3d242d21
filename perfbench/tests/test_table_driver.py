"""The benchmark's table driver reproduces run_scale's population."""

import pytest

from repro.sidecar.flowtable import run_scale
from workloads import TableShape, build_table, drive_table, table_inputs

COUNTS = ("flows_admitted", "flows_closed", "flows_evicted", "flows_shed",
          "flows_rejected", "observations", "frames_batched")


@pytest.mark.parametrize("budget", [9_000, 2_250])
def test_driver_counts_match_run_scale(budget):
    # 2,000 flows over 8 tenants: 9,000 B is run_scale's default tenant
    # budget for this shape, 2,250 B a quarter of it.
    shape = TableShape(flows=2_000, tenant_budget_bytes=budget)
    expected = run_scale(flows=shape.flows, tenants=shape.tenants,
                         packets_per_flow=shape.packets_per_flow,
                         churn_rate=shape.churn_rate,
                         duration_s=shape.duration_s, tick_s=shape.tick_s,
                         tenant_budget_bytes=budget, seed=3)
    sim, table = build_table(shape)
    result = drive_table(sim, table, shape, table_inputs(shape, seed=3))
    for key in COUNTS:
        assert result.stats[key] == expected[key], key
    assert (expected["flows_evicted"] > 0) == (budget == 2_250)


def test_inputs_depend_only_on_the_seed():
    shape = TableShape(flows=500)
    first, again = table_inputs(shape, 7), table_inputs(shape, 7)
    other = table_inputs(shape, 8)
    assert first.tick_ids == again.tick_ids
    assert first.tick_records == again.tick_records
    assert first.tick_ids != other.tick_ids
    assert sum(map(len, first.tick_ids)) == first.offered == 2_000
