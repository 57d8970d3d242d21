"""End-to-end tests: traced scenarios cover every core component."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.runner import run_traced, summarize
from repro.obs.schema import validate_file, validate_record


@pytest.fixture(autouse=True)
def _clean_switchboard():
    """Never leak an enabled tracer into other tests."""
    yield
    obs.disable()
    obs.reset()


class TestRunTraced:
    def test_unknown_scenario(self):
        with pytest.raises(ObservabilityError, match="unknown scenario"):
            run_traced("nope")

    def test_experiment_covers_all_core_components(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        assert result.missing_core_components() == []
        assert result.events_dropped == 0
        assert not obs.TRACER.enabled  # switched off on the way out
        for event in result.events:
            validate_record(event.to_dict())

    def test_chaos_plan_scenario(self):
        result = run_traced("blackout", seed=1, total_bytes=60_000)
        assert result.missing_core_components() == []
        assert result.outcome["ok"]

    def test_ring_capacity_bounds_memory(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000,
                            capacity=50)
        assert len(result.events) == 50
        assert result.events_dropped == result.events_emitted - 50

    def test_metrics_snapshot_is_json_safe(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        json.dumps(result.metrics, allow_nan=False)  # must not raise
        assert "transport_packets_sent_total" in result.metrics

    def test_profiler_spans_recorded(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        spans = {entry["labels"]["span"]
                 for entry in result.metrics["obs_span_seconds"]["series"]}
        assert "quack.power_sum_update" in spans
        assert "quack.wire_encode" in spans and "quack.wire_decode" in spans

    def test_jsonl_export_validates(self, tmp_path):
        result = run_traced("ack-reduction", seed=2, total_bytes=60_000)
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(result.events, str(path))
        components = validate_file(str(path))
        for name in ("link", "transport", "quack", "sidecar"):
            assert components.get(name, 0) > 0


class TestSummarize:
    def test_summary_text(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        text = summarize(result)
        assert "scenario: cc-division (seed 1)" in text
        assert "events by component" in text
        assert "metrics:" in text
        assert "WARNING" not in text
