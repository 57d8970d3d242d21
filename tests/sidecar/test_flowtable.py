"""Tests for the multi-tenant flow table (DESIGN.md §16)."""

import random
from types import SimpleNamespace

import pytest

from repro.netsim.core import Simulator
from repro.netsim.node import Host, Router
from repro.netsim.topology import HopSpec, build_path
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.accounting import FLOW_ACCOUNTS
from repro.sidecar.flowtable import (
    FlowTable,
    FlowTableConfig,
    FlowTableTap,
    run_scale,
)
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency
from repro.sidecar.negotiate import Capabilities, NegotiateConfig
from repro.sidecar.snapshot import CheckpointStore, decode_checkpoint


@pytest.fixture(autouse=True)
def _ledger_clean():
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()
    yield
    FLOW_ACCOUNTS.disarm()
    FLOW_ACCOUNTS.reset()


def make_table(**overrides) -> tuple[Simulator, FlowTable]:
    sim = Simulator()
    config = FlowTableConfig(**overrides)
    return sim, FlowTable(sim, config)


#: Resident bank of one default-config emitter (threshold=4, bits=32).
BANK = 18


class TestConfigValidation:
    def test_defaults_are_valid(self):
        FlowTableConfig()

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"max_flows": 0},
        {"tenant_budget_bytes": 0},
        {"shed_low_water": 0.0},
        {"shed_low_water": 0.9, "shed_high_water": 0.8},
        {"shed_high_water": 1.5},
        {"batch_interval_s": 0.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlowTableConfig(**kwargs)


class TestAdmission:
    def test_admit_is_idempotent_per_key(self):
        _, table = make_table()
        first = table.admit("t0", "f0")
        again = table.admit("t0", "f0")
        assert first is again
        assert table.stats.flows_admitted == 1

    def test_global_high_water_rejects(self):
        _, table = make_table(max_flows=2, tenant_budget_bytes=10_000)
        assert table.admit("t0", "f0") is not None
        assert table.admit("t0", "f1") is not None
        assert table.admit("t0", "f2") is None
        assert table.stats.flows_rejected == 1
        assert table.flows == 2

    def test_bank_accounting_tracks_admissions(self):
        _, table = make_table()
        table.admit("t0", "f0")
        table.admit("t0", "f1")
        table.admit("t1", "f0")
        assert table.tenant_bank_bytes("t0") == 2 * BANK
        assert table.tenant_bank_bytes("t1") == BANK
        assert table.total_bank_bytes() == 3 * BANK

    def test_newcomer_bigger_than_budget_rejected(self):
        _, table = make_table(tenant_budget_bytes=BANK - 1)
        assert table.admit("t0", "f0") is None
        assert table.stats.flows_rejected == 1


class TestBudgetEviction:
    def test_over_budget_evicts_tenant_lru(self):
        # Budget fits two banks; the third admission evicts the least
        # recently *active* flow, not the oldest admission.
        sim, table = make_table(tenant_budget_bytes=2 * BANK + 2)
        a = table.admit("t0", "a")
        b = table.admit("t0", "b")
        sim.schedule(0.001, lambda: table.observe(a, 7))
        sim.schedule(0.002, lambda: table.admit("t0", "c"))
        sim.run(until=0.003)
        assert not b.live
        assert a.live
        assert table.get("t0", "c") is not None
        assert table.stats.flows_evicted == 1
        assert table.tenant_bank_bytes("t0") == 2 * BANK

    def test_one_tenants_burst_never_costs_another(self):
        _, table = make_table(tenant_budget_bytes=2 * BANK + 2,
                              max_flows=1000)
        other = table.admit("quiet", "f0")
        for index in range(20):
            table.admit("noisy", f"f{index}")
        assert other.live
        assert table.tenant_bank_bytes("quiet") == BANK
        assert table.tenant_bank_bytes("noisy") <= 2 * BANK + 2

    def test_eviction_fires_callback_with_reason(self):
        reasons = []
        _, table = make_table(tenant_budget_bytes=BANK + 1)
        table.admit("t0", "a", on_evict=reasons.append)
        table.admit("t0", "b")
        assert reasons == ["budget"]


class TestClamp:
    def test_clamp_evicts_immediately_and_restores(self):
        _, table = make_table(tenant_budget_bytes=10 * BANK)
        for index in range(3):
            table.admit("t0", f"f{index}")
        evicted = table.clamp_tenant("t0", BANK + 1)
        assert evicted == 2
        assert table.stats.flows_evicted == 2
        assert table.flows == 1
        # None restores the default budget: admissions work again.
        table.clamp_tenant("t0", None)
        assert table.admit("t0", "fresh") is not None

    def test_clamp_to_zero_removes_every_flow(self):
        _, table = make_table()
        for index in range(4):
            table.admit("t0", f"f{index}")
        assert table.clamp_tenant("t0", 0) == 4
        assert table.flows == 0


class TestShedding:
    def test_shed_order_idle_then_low_traffic_then_active(self):
        # 8 flows above the high water (6); shedding stops at the low
        # water (4) after taking the idle pair, then the low-traffic
        # pair -- the active flows survive.
        sim, table = make_table(
            max_flows=8, shed_high_water=0.75, shed_low_water=0.5,
            idle_after_s=0.004, low_traffic_observed=4,
            tenant_budget_bytes=10_000)
        records = [table.admit("t0", f"f{index}") for index in range(8)]

        def drive() -> None:
            for record in records[2:4]:
                table.observe(record, 7)
            for record in records[4:]:
                for identifier in range(1, 5):
                    table.observe(record, identifier)

        sim.schedule(0.003, drive)
        sim.run(until=0.006)
        assert table.flows == 4
        assert table.stats.flows_shed == 4
        assert [record.live for record in records] == \
            [False, False, False, False, True, True, True, True]

    def test_no_shedding_below_high_water(self):
        sim, table = make_table(max_flows=8, shed_high_water=0.75,
                                shed_low_water=0.5,
                                tenant_budget_bytes=10_000)
        for index in range(6):
            table.admit("t0", f"f{index}")
        sim.run(until=0.02)
        assert table.stats.flows_shed == 0
        assert table.flows == 6


class TestBatching:
    def test_emission_waits_for_the_shared_timer(self):
        sim, table = make_table()
        frames = []
        record = table.admit("t0", "f0",
                             on_emit=lambda snap, now: frames.append(now))

        def feed() -> None:
            table.observe(record, 1)
            table.observe(record, 2)  # due at 0.002 under the default

        sim.schedule(0.002, feed)
        sim.run(until=0.004)
        assert frames == []  # never inline: waits for the 0.005 sweep
        sim.run(until=0.006)
        assert frames == [0.005]
        assert table.stats.batches == 1
        assert table.stats.frames_batched == 1

    def test_latency_is_coalescing_delay(self):
        sim, table = make_table()
        record = table.admit("t0", "f0")
        sim.schedule(0.002, lambda: (table.observe(record, 1),
                                     table.observe(record, 2)))
        sim.run(until=0.006)
        stats = table.stats_dict()
        assert stats["emissions"] == 1
        assert stats["emission_latency_p99_s"] == pytest.approx(0.003)

    def test_observe_after_eviction_is_a_noop(self):
        _, table = make_table()
        record = table.admit("t0", "f0")
        assert table.observe(record, 1)
        assert table.close_flow(record)
        assert not table.observe(record, 2)
        assert not table.close_flow(record)

    def test_close_stops_the_batch_timer(self):
        sim, table = make_table()
        record = table.admit("t0", "f0")
        table.observe(record, 1)
        table.observe(record, 2)
        table.close()
        before = table.stats.batches
        sim.run(until=0.1)
        assert table.stats.batches == before


class TestLedgerIntegration:
    def test_eviction_forgets_the_ledger_entry(self):
        FLOW_ACCOUNTS.arm()
        _, table = make_table()
        record = table.admit("t0", "f0")
        table.observe(record, 1)
        assert FLOW_ACCOUNTS.flows == 1
        assert "t0/f0" in FLOW_ACCOUNTS.snapshot()["flows"]
        table.close_flow(record)
        assert FLOW_ACCOUNTS.flows == 0
        assert FLOW_ACCOUNTS.evicted_flows == 1


class TestRunScale:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            run_scale(flows=0)

    def test_deterministic_across_runs(self):
        first = run_scale(flows=200, tenants=4, churn_rate=0.5,
                          duration_s=0.3, seed=7, account=True)
        second = run_scale(flows=200, tenants=4, churn_rate=0.5,
                           duration_s=0.3, seed=7, account=True)
        assert first == second

    def test_churn_closes_and_forgets(self):
        result = run_scale(flows=100, tenants=4, churn_rate=1.0,
                           duration_s=0.5, seed=1, account=True)
        assert result["flows_closed"] > 0
        assert result["ledger_evicted_flows"] == result["flows_closed"]

    def test_overload_rejects_past_max_flows(self):
        result = run_scale(flows=100, max_flows=50, seed=1)
        assert result["flows_admitted"] == 50
        assert result["flows_rejected"] == 50

    def test_100k_flows_stay_within_the_memory_budget(self):
        # The headline capacity claim: a 100k-flow population runs to
        # completion with the resident bank memory -- measured by the
        # same FLOW_ACCOUNTS.total_bank_bytes() the ops ledger reports
        # -- inside the configured per-tenant budgets.
        tenants = 8
        result = run_scale(flows=100_000, tenants=tenants,
                           packets_per_flow=2, seed=1, account=True)
        global_budget = result["tenant_budget_bytes"] * tenants
        assert result["flows"] == 100_000
        assert result["ledger_bank_bytes"] <= global_budget
        assert result["peak_bank_bytes"] <= global_budget
        assert result["ledger_bank_bytes"] == result["total_bank_bytes"]
        assert result["emission_latency_p99_s"] <= 0.005


class TestBankRows:
    def test_flows_share_one_bank_and_reuse_freed_rows(self):
        _, table = make_table(tenant_budget_bytes=10_000)
        first = table.admit("t0", "a")
        second = table.admit("t0", "b")
        assert first.row != second.row
        table.close_flow(first)
        again = table.admit("t1", "c")
        assert again.row == first.row
        assert table.snapshot(again).count == 0

    def test_bank_grows_geometrically_from_a_small_start(self):
        _, table = make_table(max_flows=100_000, tenant_budget_bytes=10**9)
        assert len(table._bank) == FlowTable.INITIAL_ROWS
        records = [table.admit("t0", f"f{index}") for index in range(200)]
        assert len(table._bank) == 4 * FlowTable.INITIAL_ROWS
        for index, record in enumerate(records):
            table.observe(record, index + 1)
        assert table.snapshot(records[199]).power_sums[0] == 200

    def test_total_bank_bytes_is_a_running_total(self):
        _, table = make_table(tenant_budget_bytes=10_000)
        records = [table.admit(f"t{index % 3}", f"f{index}")
                   for index in range(7)]
        table.close_flow(records[2])
        table.clamp_tenant("t0", BANK)
        assert table.total_bank_bytes() == sum(
            table.tenant_bank_bytes(f"t{index}") for index in range(3))
        assert table.total_bank_bytes() == table.flows * BANK

    def test_a_wider_flow_widens_the_bank(self):
        _, table = make_table(tenant_budget_bytes=10_000)
        narrow = table.admit("t0", "narrow")
        wide = table.admit("t0", "wide", threshold=9)
        assert wide.bank_bytes == (9 * 32 + 16 + 7) // 8
        for identifier in (3, 5):
            table.observe(narrow, identifier)
            table.observe(wide, identifier)
        reference = PowerSumQuack(9)
        reference.insert_many([3, 5])
        assert table.snapshot(wide) == reference
        assert table.snapshot(narrow).threshold == 4
        assert table.snapshot(narrow).power_sums == \
            reference.power_sums[:4]

    def test_no_accumulator_is_built_without_a_consumer(self, monkeypatch):
        built = []
        real_init = PowerSumQuack.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(PowerSumQuack, "__init__", counting_init)
        result = run_scale(flows=300, tenants=3, churn_rate=0.5,
                           duration_s=0.2, seed=2)
        assert result["emissions"] > 0
        assert built == []


class _Reference:
    """Per-flow PowerSumQuack accumulators and the table's cadence rules,
    kept independently of the bank."""

    def __init__(self) -> None:
        self.flows: dict[str, dict] = {}
        self.frames = 0

    def admit(self, record, every_n: int, now: float) -> None:
        self.flows[record.flow_key] = {
            "quack": PowerSumQuack(record.threshold), "every_n": every_n,
            "pending": 0, "due": False, "due_since": 0.0}

    def observe(self, key: str, identifier: int, now: float) -> None:
        flow = self.flows[key]
        flow["quack"].insert(identifier)
        flow["pending"] += 1
        if flow["pending"] >= flow["every_n"] and not flow["due"]:
            flow["due"] = True
            flow["due_since"] = now

    def emit(self, key: str, snapshot, now: float) -> float:
        flow = self.flows[key]
        assert flow["due"] and flow["pending"] > 0, key
        assert snapshot == flow["quack"], key
        assert snapshot.count == flow["quack"].count
        flow["due"] = False
        flow["pending"] = 0
        self.frames += 1
        return now - flow["due_since"]

    def expected_frames(self) -> set[str]:
        return {key for key, flow in self.flows.items()
                if flow["due"] and flow["pending"] > 0}


class TestFrameDifferential:
    """Every frame the bank-backed table emits equals a per-flow
    PowerSumQuack fed the same identifiers, at the same latency."""

    def _run_program(self, seed: int) -> _Reference:
        rng = random.Random(seed)
        sim, table = make_table(max_flows=20, tenant_budget_bytes=8 * BANK,
                                shed_high_water=0.9, shed_low_water=0.6,
                                idle_after_s=0.02)
        reference = _Reference()
        latencies: list[float] = []
        live: dict[str, object] = {}
        flushed: list[str] = []

        def on_emit_for(key):
            def on_emit(snapshot, now):
                flushed.append(key)
                latencies.append(reference.emit(key, snapshot, now))
            return on_emit

        def on_evict_for(key):
            def on_evict(reason):
                live.pop(key)
                reference.flows.pop(key)
            return on_evict

        real_flush = table.flush

        def checked_flush():
            expected = reference.expected_frames()
            flushed.clear()
            frames = real_flush()
            assert sorted(flushed) == sorted(expected)
            assert frames == len(expected)
            return frames

        table.flush = checked_flush
        serial = [0]

        def admit() -> None:
            tenant = f"t{rng.randrange(4)}"
            key = f"{tenant}/f{serial[0]}"
            every_n = rng.choice((1, 2, 3, 5))
            record = table.admit(
                tenant, f"f{serial[0]}",
                threshold=rng.choice((None, None, 6)),
                policy=PacketCountFrequency(every_n),
                on_emit=on_emit_for(key), on_evict=on_evict_for(key))
            serial[0] += 1
            if record is not None:
                live[key] = record
                reference.admit(record, every_n, sim.now)

        def step() -> None:
            for _ in range(rng.randrange(1, 12)):
                action = rng.random()
                if action < 0.25 or not live:
                    admit()
                elif action < 0.80:
                    key = rng.choice(sorted(live))
                    identifier = rng.getrandbits(32)
                    assert table.observe(live[key], identifier)
                    reference.observe(key, identifier, sim.now)
                elif action < 0.90:
                    key = rng.choice(sorted(live))
                    assert table.close_flow(live.pop(key))
                    reference.flows.pop(key)
                elif action < 0.95:
                    table.clamp_tenant(f"t{rng.randrange(4)}",
                                       rng.choice((3 * BANK, None)))
                else:
                    table.flush()
            if sim.now < 0.4:
                sim.schedule(rng.choice((0.0007, 0.0013, 0.0031)), step)
            else:
                table.close()

        sim.schedule(0.0, step)
        sim.run(until=1.0)
        assert latencies == table._latencies
        assert reference.frames == table.stats.frames_batched
        assert table.stats.flows_evicted > 0
        assert table.stats.flows_shed > 0
        return reference

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_program_matches_per_flow_quacks(self, seed):
        reference = self._run_program(seed)
        assert reference.frames > 100

    def test_row_freed_and_reused_in_the_same_tick(self):
        sim, table = make_table()
        frames = []
        gone = table.admit("t0", "gone")
        for identifier in (1, 2, 3):
            table.observe(gone, identifier)
        table.close_flow(gone)
        fresh = table.admit("t0", "fresh",
                            on_emit=lambda snap, now: frames.append(snap))
        assert fresh.row == gone.row
        table.observe(fresh, 9)
        table.observe(fresh, 10)
        sim.run(until=0.006)
        reference = PowerSumQuack(4)
        reference.insert_many([9, 10])
        assert frames == [reference]


class _CheckedLru(FlowTable):
    """Checks every heap victim against a scan of the tenant."""

    picks = 0

    def _tenant_lru(self, tenant):
        expected = min(self._tenants[tenant].values(),
                       key=lambda r: (r.last_activity, r.admitted_at,
                                      r.flow_key))
        victim = super()._tenant_lru(tenant)
        assert victim is expected
        _CheckedLru.picks += 1
        return victim


class TestEvictionHeap:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_heap_picks_the_same_victims_as_a_scan(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        table = _CheckedLru(sim, FlowTableConfig(
            max_flows=10_000, tenant_budget_bytes=8 * BANK))
        _CheckedLru.picks = 0
        records = []

        def step() -> None:
            for _ in range(rng.randrange(1, 20)):
                action = rng.random()
                tenant = f"t{rng.randrange(3)}"
                if action < 0.35 or not records:
                    record = table.admit(tenant, f"f{rng.randrange(60)}")
                    if record is not None:
                        records.append(record)
                elif action < 0.85:
                    table.observe(rng.choice(records), rng.getrandbits(32))
                elif action < 0.93:
                    table.close_flow(rng.choice(records))
                else:
                    table.clamp_tenant(tenant, rng.choice(
                        (2 * BANK, 5 * BANK, None)))
            if sim.now < 0.3:
                # Same-instant steps make last_activity ties for the
                # admitted_at / flow key tie-breaks to decide.
                sim.schedule(rng.choice((0.0, 0.001, 0.002)), step)

        sim.schedule(0.0, step)
        sim.run(until=0.5)
        assert _CheckedLru.picks > 200
        assert table.stats.flows_evicted == _CheckedLru.picks

    def test_heap_stays_bounded_under_churn(self):
        _, table = make_table(max_flows=10_000, tenant_budget_bytes=4 * BANK)
        for index in range(2_000):
            record = table.admit("t0", f"f{index}")
            if index % 3:
                table.close_flow(record)
        assert len(table._lru["t0"]) <= 2 * table.flows + 16


class TestFlowTableTap:
    """The tap's accumulator is its table row, on every agent path."""

    def make_tap(self, policy=None, **kwargs):
        sim = Simulator()
        server = Host(sim, "server")
        proxy = Router(sim, "proxy")
        client = Host(sim, "client")
        build_path(sim, [server, proxy, client], [HopSpec(), HopSpec()])
        table = FlowTable(sim, FlowTableConfig(tenant_budget_bytes=1000))
        tap = FlowTableTap(sim, proxy, "server", "flow0",
                           policy or PacketCountFrequency(100), table=table,
                           client="client", threshold=8, **kwargs)
        return sim, table, tap

    @staticmethod
    def feed(tap, *identifiers):
        for identifier in identifiers:
            tap._on_data(SimpleNamespace(identifier=identifier,
                                         trace_ctx=None))

    def test_no_emitter_of_its_own(self):
        _, table, tap = self.make_tap()
        assert not hasattr(tap, "emitter")
        assert tap._record.threshold == 8
        self.feed(tap, 3, 4)
        reference = PowerSumQuack(8)
        reference.insert_many([3, 4])
        assert tap._accumulator() == reference == table.snapshot(tap._record)

    def test_reset_restarts_the_row(self):
        _, table, tap = self.make_tap()
        self.feed(tap, 3, 4)
        tap._apply_reset(1)
        assert table.snapshot(tap._record).count == 0
        assert tap._record.pending == 0
        self.feed(tap, 5)
        reference = PowerSumQuack(8)
        reference.insert(5)
        assert table.snapshot(tap._record) == reference

    def test_checkpoint_and_crash_restore_go_through_the_row(self):
        store = CheckpointStore()
        _, table, tap = self.make_tap(checkpoints=store)
        self.feed(tap, 3, 4, 5)
        tap._take_checkpoint()
        checkpointed = decode_checkpoint(store.load()).quack()
        reference = PowerSumQuack(8)
        reference.insert_many([3, 4, 5])
        assert checkpointed == reference
        self.feed(tap, 6)  # lost in the crash
        tap.crash_restart()
        assert tap.checkpoint_restores == 1
        assert table.snapshot(tap._record) == reference

    def test_crash_without_checkpoint_empties_the_row(self):
        _, table, tap = self.make_tap()
        self.feed(tap, 3, 4)
        tap.crash_restart()
        assert table.snapshot(tap._record).count == 0

    def test_tick_emits_from_the_row(self):
        sim, table, tap = self.make_tap(policy=IntervalFrequency(0.01))
        sent = []
        tap._send = sent.append
        self.feed(tap, 3, 4)
        sim.run(until=0.015)
        reference = PowerSumQuack(8)
        reference.insert_many([3, 4])
        assert sent == [reference]
        assert tap._record.pending == 0

    def test_negotiation_reshapes_only_an_empty_row(self):
        caps = Capabilities(threshold=6)
        _, table, tap = self.make_tap(
            negotiate=NegotiateConfig(capabilities=caps))
        tap._on_hello(Capabilities().hello("flow0", threshold=10))
        assert tap.threshold == 6
        assert tap._record.threshold == 6
        assert tap._record.bank_bytes == (6 * 32 + 16 + 7) // 8
        assert table.total_bank_bytes() == tap._record.bank_bytes
        # A later offer never reshapes an accumulator holding data.
        _, _, busy = self.make_tap(
            negotiate=NegotiateConfig(capabilities=caps))
        self.feed(busy, 9)
        busy._on_hello(Capabilities().hello("flow0", threshold=10))
        assert busy._record.threshold == 8

    def test_rejoin_takes_a_fresh_row(self):
        _, table, tap = self.make_tap()
        self.feed(tap, 3)
        table.clamp_tenant("primary", 0)
        assert not tap.assisted and tap.evictions == 1
        assert tap._accumulator().count == 0
        self.feed(tap, 4)  # silent while evicted
        table.clamp_tenant("primary", None)
        assert tap.rejoin()
        assert tap.readmissions == 1
        assert table.snapshot(tap._record).count == 0

    def test_bits_must_match_the_table(self):
        with pytest.raises(ValueError):
            self.make_tap(bits=16)
