"""CLI smoke tests (quick mode)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_schedules_prints_paper_tables(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        for name in ("LEX", "PEX", "REX", "BEX", "LS", "PS", "BS", "GS"):
            assert name in out
        assert "Pattern 'P'" in out

    def test_table11_quick(self, capsys):
        assert main(["table11", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 11" in out and "greedy" in out

    def test_fig10_quick_with_csv(self, capsys, tmp_path):
        assert main(["fig10", "--quick", "--csv", str(tmp_path / "csv")]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        files = list((tmp_path / "csv").glob("*.csv"))
        assert len(files) == 1
        assert "series," in files[0].read_text()

    def test_fig5_quick(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_table12_quick(self, capsys):
        assert main(["table12", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "euler545" in out and "cg16k" in out

    def test_calibrate_quick(self, capsys):
        assert main(["calibrate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "model ms" in out and "best parameters" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_topology_quick(self, capsys):
        assert main(["topology", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fat-tree" in out and "MB/s" in out

    def test_gantt_quick(self, capsys):
        assert main(["gantt", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "LEX" in out and "PEX" in out and "#" in out

    def test_report_writes_file(self, tmp_path, monkeypatch, capsys):
        import repro.analysis.report as report

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            report, "build_experiments_markdown", lambda: "# stub\n"
        )
        assert main(["report"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").read_text() == "# stub\n"


class TestValidateCommand:
    def test_generators_lint_clean(self, capsys):
        assert main(["validate", "--nprocs", "8"]) == 0
        out = capsys.readouterr().out
        for label in ("LEX", "PEX", "REX", "BEX", "LS", "PS", "BS", "GS"):
            assert f"OK {label}" in out
        assert "0 failing report(s)" in out

    def test_single_algorithm(self, capsys):
        assert main(["validate", "--algorithm", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "OK GS" in out
        assert "OK PEX" not in out

    def test_bad_algorithm_exits_2(self, capsys):
        assert main(["validate", "--algorithm", "quantum"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "quantum" in err and "\n" not in err.rstrip("\n")

    def test_bad_nprocs_exits_2(self, capsys):
        assert main(["validate", "--nprocs", "12"]) == 2
        err = capsys.readouterr().err
        assert "power of two" in err

    def test_deadlocked_schedule_file_rejected(self, tmp_path, capsys):
        from repro.schedules import Schedule, Step, Transfer, save_schedule

        path = tmp_path / "bad.json"
        save_schedule(
            Schedule(
                nprocs=3,
                steps=(
                    Step(
                        (
                            Transfer(0, 1, 64),
                            Transfer(1, 0, 64),
                            Transfer(2, 1, 64),
                        )
                    ),
                ),
                name="deadlocked",
            ),
            path,
        )
        with pytest.raises(SystemExit):
            main(["validate", "--schedule", str(path)])
        out = capsys.readouterr().out
        assert "deadlock.cycle" in out

    def test_good_schedule_file_accepted(self, tmp_path, capsys):
        from repro.schedules import pairwise_exchange, save_schedule

        path = tmp_path / "good.json"
        save_schedule(pairwise_exchange(8, 256), path)
        assert main(["validate", "--schedule", str(path)]) == 0
        assert "OK PEX" in capsys.readouterr().out

    def test_unreadable_schedule_file_exits_2(self, capsys):
        assert main(["validate", "--schedule", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestPerfcmpRobustness:
    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "perfcmp",
                    "--baseline",
                    str(tmp_path / "missing.json"),
                    "--current",
                    str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "cannot read baseline BENCH file" in err

    def test_malformed_bench_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something-else/9"}')
        assert (
            main(
                ["perfcmp", "--baseline", str(bad), "--current", str(bad)]
            )
            == 2
        )
        assert "malformed baseline BENCH file" in capsys.readouterr().err

    def test_zero_baseline_exits_2_with_one_line(self, tmp_path, capsys):
        import json

        doc = {
            "schema": "repro-bench-sim/1",
            "scale": "full",
            "workloads": {
                "w": {"wall_seconds": 0.0, "sim_ms": 1.0, "messages": 1}
            },
        }
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(doc))
        good = tmp_path / "good.json"
        doc["workloads"]["w"]["wall_seconds"] = 1.0
        good.write_text(json.dumps(doc))
        assert (
            main(
                ["perfcmp", "--baseline", str(zero), "--current", str(good)]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "non-positive baseline wall time" in err
        assert "\n" not in err.rstrip("\n")

    def test_cross_scale_exits_2_with_one_line(self, tmp_path, capsys):
        import json

        doc = {
            "schema": "repro-bench-sim/1",
            "scale": "full",
            "workloads": {
                "w": {"wall_seconds": 1.0, "sim_ms": 1.0, "messages": 1}
            },
        }
        full = tmp_path / "full.json"
        full.write_text(json.dumps(doc))
        doc["scale"] = "quick"
        quick = tmp_path / "quick.json"
        quick.write_text(json.dumps(doc))
        assert (
            main(
                ["perfcmp", "--baseline", str(full), "--current", str(quick)]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "scale mismatch" in err
        assert "\n" not in err.rstrip("\n")

    def test_missing_scale_exits_2_with_one_line(self, tmp_path, capsys):
        import json

        doc = {
            "schema": "repro-bench-sim/1",
            "workloads": {
                "w": {"wall_seconds": 1.0, "sim_ms": 1.0, "messages": 1}
            },
        }
        unstamped = tmp_path / "unstamped.json"
        unstamped.write_text(json.dumps(doc))
        assert (
            main(
                [
                    "perfcmp",
                    "--baseline",
                    str(unstamped),
                    "--current",
                    str(unstamped),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "missing the 'scale' field" in err
        assert "\n" not in err.rstrip("\n")


class TestConformanceCommand:
    def test_quick_conformance_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["conformance", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "zero ranking inversions" in out
        assert (tmp_path / "results" / "conformance.txt").exists()
        assert (tmp_path / "results" / "conformance.json").exists()


class TestOptgapCommand:
    def test_quick_optgap_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["optgap", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "every gap >= 1.0" in out
        assert (tmp_path / "results" / "optgap.txt").exists()
        js = tmp_path / "results" / "optgap.json"
        assert js.exists()
        import json

        doc = json.loads(js.read_text())
        assert doc["schema"] == "repro-optgap/2"
        assert doc["ok"] is True


class TestObservabilityCommands:
    def _export(self, tmp_path, capsys, nprocs="8"):
        out = tmp_path / "trace.json"
        assert (
            main(
                ["trace", "--nprocs", nprocs, "--nbytes", "128",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_trace_writes_valid_perfetto(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        doc = json.loads(out.read_text())
        assert doc["otherData"]["schema"] == "repro-trace/1"
        assert doc["traceEvents"]

    def test_trace_check_mode(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["trace", "--check", str(out)]) == 0
        assert "valid repro-trace/1" in capsys.readouterr().out

    def test_trace_check_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trace", "--check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_trace_unknown_format_exits_2(self, capsys):
        assert main(["trace", "--format", "pprof"]) == 2
        assert "pprof" in capsys.readouterr().err

    def test_trace_unknown_algorithm_exits_2(self, capsys):
        assert main(["trace", "--algorithm", "warp"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_critpath_live_run_covers_makespan(self, capsys):
        assert main(["critpath", "--nprocs", "8", "--nbytes", "128"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out and "attribution:" in out

    def test_critpath_from_trace_file(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["critpath", "--trace", str(out)]) == 0
        assert "critical path:" in capsys.readouterr().out

    def test_critpath_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main(["critpath", "--trace", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_roottraffic_classifies_and_writes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["roottraffic", "--nprocs", "16", "--nbytes", "128"]) == 0
        out = capsys.readouterr().out
        assert "BEX" in out and "flat" in out
        assert "PEX" in out and "spiked" in out
        assert (tmp_path / "results" / "obs_root_traffic.txt").exists()
        doc = json.loads(
            (tmp_path / "results" / "obs_root_traffic.json").read_text()
        )
        assert doc["metric"] == "root_link_bytes_per_step"

    def test_gantt_renders_trace_file(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["gantt", "--trace", str(out)]) == 0
        got = capsys.readouterr().out
        assert "BEX" in got and "receiver occupancy" in got

    def test_gantt_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main(["gantt", "--trace", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_gantt_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert main(["gantt", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_gantt_default_includes_heatmap(self, capsys):
        assert main(["gantt", "--quick"]) == 0
        assert "link utilization" in capsys.readouterr().out


class TestChaosCLI:
    def test_quick_campaign_writes_reports(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        doc = json.loads((tmp_path / "results" / "chaos.json").read_text())
        assert doc["schema"] == "repro-chaos/1"
        assert doc["total"] == 20 and doc["violations"] == 0
        assert (tmp_path / "results" / "chaos.txt").exists()

    def test_probe_good_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "faults": [
                        {"kind": "node_failure", "rank": 2, "at": 1e-3}
                    ],
                }
            )
        )
        assert main(["chaos", "--plan", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "failure rank 2" in out and "all invariants held" in out

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "message_delay", "probability": -0.5, "seconds": 1e-4},
            {"kind": "message_delay", "probability": 0.5, "seconds": -1e-4},
            {"kind": "link_degrade", "level": 1, "index": 0, "factor": -0.5},
            {"kind": "node_straggler", "rank": 0, "factor": 0.5},
            {"kind": "node_failure", "rank": -1, "at": 1e-3},
            {"kind": "warp_core_breach"},
            # Valid faults aimed at ranks / links the machine lacks.
            {"kind": "node_failure", "rank": 99, "at": 1e-3},
            {"kind": "node_straggler", "rank": 99, "factor": 4.0},
            {"kind": "link_degrade", "level": 9, "index": 0, "factor": 0.5},
            {"kind": "link_degrade", "level": 1, "index": 99, "factor": 0.5},
        ],
    )
    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_invalid_plan_file_exits_2(self, tmp_path, capsys, command, fault):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [fault]}))
        assert main([command, "--plan", str(plan), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.rstrip("\n")

    def test_chaos_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        import repro.resilience.chaos as chaos

        def violating(spec):
            seed, nprocs, algorithm, healthy, _ = spec
            return chaos.ChaosRun(
                seed, nprocs, algorithm, "healthy", healthy, healthy,
                healthy, "", {}, (),
                violations=("injected",) if seed == 3 else (),
            )

        monkeypatch.setattr(chaos, "_campaign_run", violating)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--quick"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: 1 of 20 chaos runs violated invariants\n"
        assert "seed    3 N=16  linear    VIOLATION" in captured.out
        txt = (tmp_path / "results" / "chaos.txt").read_text()
        assert "      !! injected" in txt
        assert txt.endswith("1 run(s) violated invariants\n")

    def test_serve_chaos_writes_three_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs.telemetry import validate_metrics_json

        monkeypatch.chdir(tmp_path)
        assert main(["serve-chaos", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        results = tmp_path / "results"
        txt = (results / "service_chaos.txt").read_text()
        assert txt.startswith("Service chaos campaign")
        doc = json.loads((results / "service_chaos.json").read_text())
        assert doc["schema"] == "repro-service-chaos/1"
        assert doc["total"] == 2 and doc["violations"] == 0
        for run in doc["runs"]:
            assert run["kind"] in txt
        metrics = json.loads((results / "service_chaos_metrics.json").read_text())
        assert validate_metrics_json(metrics)[0] > 0

    def test_serve_chaos_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        import repro.service.chaos as service_chaos

        def violating(seed, registry):
            return service_chaos.ServiceChaosRun(
                seed, "worker_kill", 8, 0, 1, 1, {}, {}, 0, 0,
                violations=("injected",),
            )

        monkeypatch.setattr(service_chaos, "_run_scenario", violating)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["serve-chaos", "--runs", "2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err == "error: 2 of 2 service chaos runs violated invariants\n"

    def test_serve_chaos_zero_runs_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["serve-chaos", "--runs", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --runs must be >= 1, got 0\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_missing_plan_file_exits_2(self, tmp_path, capsys, command):
        missing = tmp_path / "no-such-plan.json"
        assert main([command, "--plan", str(missing), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read" in err

    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_malformed_json_plan_exits_2(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert main([command, "--plan", str(plan), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--straggler", "3:abc"],
            ["--straggler", "x:1"],
            ["--drop", "1.5"],
            ["--degrade", "1:0"],
            ["--degrade", "1:0:-2"],
        ],
    )
    def test_invalid_fault_flag_exits_2(self, capsys, flags):
        assert main(["faults", "--quick", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]} wants ")
        assert "\n" not in err.rstrip("\n")


class TestMetricsCommand:
    def test_prom_exposition_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert (
            main(
                ["metrics", "--format", "prom", "--nprocs", "8",
                 "--nbytes", "128", "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE sim_messages counter" in text
        assert main(["metrics", "--format", "prom", "--check", str(out)]) == 0
        assert "valid prom exposition" in capsys.readouterr().out

    def test_json_snapshot_validates(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert (
            main(
                ["metrics", "--format", "json", "--nprocs", "8",
                 "--nbytes", "128", "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-metrics/1"
        assert doc["meta"]["nprocs"] == 8
        assert main(["metrics", "--check", str(out)]) == 0

    def test_bare_check_validates_inline(self, capsys):
        assert (
            main(
                ["metrics", "--format", "prom", "--nprocs", "8",
                 "--nbytes", "128", "--check"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "prom exposition valid" in captured.err

    def test_check_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.prom"
        bad.write_text("metric one two\n")
        assert main(["metrics", "--format", "prom", "--check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_format_exits_2(self, capsys):
        assert main(["metrics", "--format", "pprof"]) == 2
        assert "pprof" in capsys.readouterr().err

    def test_trace_bare_check_needs_file(self, capsys):
        assert main(["trace", "--check"]) == 2
        assert "FILE" in capsys.readouterr().err


class TestProfileCommand:
    def test_phase_profile_writes_table(self, tmp_path, capsys):
        out = tmp_path / "profile.txt"
        assert (
            main(
                ["profile", "--workload", "pex_n16_b512",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        table = out.read_text()
        assert "calls/msg" in table
        assert "dispatch" in table and "queue" in table

    def test_sample_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        out = tmp_path / "flame.txt"
        assert (
            main(
                ["profile", "--mode", "sample", "--workload", "pex_n16_b512",
                 "--interval", "0.001", "--out", str(out)]
            )
            == 0
        )
        assert "samples over" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["profile", "--workload", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_interval_exits_2(self, capsys):
        assert (
            main(
                ["profile", "--mode", "sample", "--workload", "pex_n16_b512",
                 "--interval", "0"]
            )
            == 2
        )
        assert "interval" in capsys.readouterr().err
