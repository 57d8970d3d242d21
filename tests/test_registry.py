"""The scenario registry: one name runs everywhere.

Every registered name must be accepted by the ``trace``, ``profile`` and
``sweep`` commands and by :func:`repro.obs.runner.run_traced`, and each
consumer must hand a scenario exactly the common params its entry point
takes.  The name-level checks stub the entry point so they stay cheap;
``scale`` and one chaos plan then run end to end at small sizes.
"""

import dataclasses
import json
import pathlib
import re

import pytest

from repro import obs
from repro.chaos import PLANS
from repro.cli import build_parser, main
from repro.errors import ObservabilityError, SweepSpecError
from repro.obs.runner import run_traced
from repro.scenarios import SCENARIOS, lookup
from repro.sweep import SweepSpec, run_sweep

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _stub(monkeypatch, name):
    """Swap ``name``'s entry point for one that records its params."""
    seen = []

    def entry(params):
        seen.append(params)
        return {"params": params}

    monkeypatch.setitem(SCENARIOS, name,
                        dataclasses.replace(SCENARIOS[name], entry=entry))
    return seen


class TestEveryName:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_cli_parser_accepts(self, command, name):
        assert build_parser().parse_args([command, name]).which == name

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_run_traced_passes_only_taken_flags(self, monkeypatch, name):
        seen = _stub(monkeypatch, name)
        scenario = SCENARIOS[name]
        run_traced(name, seed=7, total_bytes=1234, loss=0.25, profile=False)
        expected = {"seed": 7, **scenario.bound}
        if scenario.takes("total_bytes"):
            expected["total_bytes"] = 1234
        if scenario.takes("loss_rate"):
            expected["loss_rate"] = 0.25
        assert seen == [expected]

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_sweep_accepts(self, monkeypatch, tmp_path, capsys, name):
        seen = _stub(monkeypatch, name)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "registry", "scenario": name, "seed": 3,
            "base": {"total_bytes": 1000}, "grid": {"n": [1, 2]}}))
        assert main(["sweep", str(spec), "--workers", "1"]) == 0
        capsys.readouterr()
        assert [params["n"] for params in seen] == [1, 2]
        for params in seen:
            assert isinstance(params["seed"], int)
            assert ("attempt" in params) == SCENARIOS[name].takes("attempt")
            assert params.items() >= SCENARIOS[name].bound.items()


class TestRegistry:
    def test_one_entry_per_chaos_plan_with_the_plan_bound(self):
        for plan in PLANS:
            assert SCENARIOS[plan].bound == {"plan": plan}
        assert SCENARIOS["chaos"].bound == {}

    def test_common_flags_follow_the_signature(self):
        assert SCENARIOS["retransmission"].takes("loss_rate")
        assert SCENARIOS["blackout"].takes("total_bytes")
        assert not SCENARIOS["blackout"].takes("loss_rate")
        assert not SCENARIOS["scale"].takes("total_bytes")
        # A catch-all **kwargs does not count as taking a flag.
        assert not SCENARIOS["selftest"].takes("total_bytes")
        assert SCENARIOS["selftest"].takes("attempt")

    def test_unknown_names_are_rejected_by_each_consumer(self):
        with pytest.raises(ObservabilityError, match="unknown scenario"):
            run_traced("nope")
        with pytest.raises(SweepSpecError, match="unknown scenario"):
            run_sweep(SweepSpec.from_dict(
                {"name": "x", "scenario": "nope", "grid": {"n": [1]}}))
        with pytest.raises(KeyError):
            lookup("nope", KeyError)

    def test_only_the_cli_sweep_and_trace_runner_import_the_registry(self):
        pattern = re.compile(r"^\s*(from repro\.scenarios import|"
                             r"from repro import scenarios|"
                             r"import repro\.scenarios)", re.MULTILINE)
        importers = sorted(
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if pattern.search(path.read_text()))
        assert importers == ["cli.py", "obs/runner.py", "sweep/runner.py"]


class TestEndToEnd:
    def test_trace_scale_touches_the_flow_table(self):
        result = run_traced("scale", seed=1)
        assert result.missing_core_components() == []
        assert result.components() == {"sidecar": result.events_emitted}
        assert result.outcome["flows_admitted"] == 2000

    def test_profile_scale_writes_json(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        assert main(["profile", "scale", "--json", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["scenario"] == "scale"

    def test_sweep_runs_a_chaos_plan_by_name(self):
        aggregate = run_sweep(SweepSpec.from_dict({
            "name": "one-plan", "scenario": "blackout", "seed": 1,
            "grid": {"total_bytes": [40_000]}}),
            workers=1)
        (cell,) = aggregate.cells
        assert cell.result["plan"] == "blackout"
        assert cell.result["ok"], cell.result["invariant_violations"]
