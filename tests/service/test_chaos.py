"""Service chaos campaign: scenarios, invariants, metrics artifact."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import validate_metrics_json
from repro.service.chaos import (
    _KINDS,
    _make_scenario,
    _run_scenario,
    run_service_campaign,
)


class TestScenarios:
    def test_seed_determinism(self):
        a = _make_scenario(9)
        b = _make_scenario(9)
        assert a == b

    def test_kinds_cycle_with_seed(self):
        kinds = [_make_scenario(s).kind for s in range(len(_KINDS))]
        assert kinds == list(_KINDS)

    def test_scenarios_are_service_sized(self):
        for seed in range(len(_KINDS)):
            sc = _make_scenario(seed)
            assert sc.nprocs in (8, 16)
            assert 1 <= len(sc.requests) <= 32
            assert sc.guard.breaker_threshold >= 1


class TestRuns:
    @pytest.mark.parametrize(
        "seed", [0, 3, 4, 5], ids=lambda s: _make_scenario(s).kind
    )
    def test_scenario_holds_every_invariant(self, seed):
        run = _run_scenario(seed, MetricsRegistry())
        assert run.violations == ()
        assert run.kind == _make_scenario(seed).kind
        assert run.requests >= 1
        # every request terminated: response or structured error
        assert run.responses + sum(run.errors.values()) == run.requests

    def test_corruption_scenario_quarantines(self, capsys):
        run = _run_scenario(5, MetricsRegistry())  # disk_corruption kind
        capsys.readouterr()
        assert run.kind == "disk_corruption"
        assert run.quarantined >= 1
        assert run.violations == ()


class TestCampaign:
    def test_metrics_doc_validates_against_frozen_names(self, capsys):
        report = run_service_campaign(runs=2)
        capsys.readouterr()
        # raises ValueError on any schema violation
        n_metrics, n_obs = validate_metrics_json(
            report.artifacts["service_chaos_metrics.json"]
        )
        assert n_metrics > 0
        assert n_obs > 0

    def test_seed_base_offsets_the_scenarios(self, capsys):
        a = run_service_campaign(runs=1, seed_base=0)
        b = run_service_campaign(runs=1, seed_base=1)
        capsys.readouterr()
        assert a.runs[0].kind != b.runs[0].kind
