"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.analysis.benchmark import WINDOWS
from repro.cli import build_parser, main
from repro.experiments import experiment_ids


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_quick(self):
        args = build_parser().parse_args(["run", "fig1", "--quick"])
        assert args.experiment == "fig1"
        assert args.quick

    def test_model_defaults(self):
        args = build_parser().parse_args(["model"])
        assert args.n == 400
        assert args.rf == pytest.approx(0.15)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig1",
                "--quick",
                "--trace",
                "t.jsonl",
                "--trace-step-every",
                "5",
                "--metrics-json",
                "m.json",
                "--progress",
                "-vv",
            ]
        )
        assert args.trace == "t.jsonl"
        assert args.trace_step_every == 5
        assert args.metrics_json == "m.json"
        assert args.progress
        assert args.verbose == 2

    def test_simulate_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            ["simulate", "s.json", "--trace", "t.jsonl", "--log-level", "info"]
        )
        assert args.trace == "t.jsonl"
        assert args.log_level == "info"

    def test_trace_summary_command(self):
        args = build_parser().parse_args(["trace-summary", "t.jsonl", "--json"])
        assert args.command == "trace-summary"
        assert args.file == "t.jsonl"
        assert args.json


class TestMain:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == experiment_ids()

    def test_model_output(self, capsys):
        assert main(["model", "--n", "200", "--rf", "0.1", "--vf", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "LID head ratio" in out
        assert "O_total" in out
        assert "f_hello" in out

    def test_model_full_table_flag(self, capsys):
        main(["model", "--full-table"])
        full = capsys.readouterr().out
        main(["model"])
        entry = capsys.readouterr().out

        def route_line(text):
            for line in text.splitlines():
                if line.startswith("O_route"):
                    return float(line.split("=")[1].split()[0])
            raise AssertionError("no O_route line")

        assert route_line(full) > route_line(entry)

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "fig4a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "figX"])

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "velocity",
                "0.02,0.05",
                "--n",
                "40",
                "--seeds",
                "1",
                "--duration",
                "3.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep of velocity" in out
        assert "f_hello sim" in out

    def test_sweep_bad_values(self, capsys):
        assert main(["sweep", "velocity", "abc"]) == 2
        assert main(["sweep", "velocity", ","]) == 2

    @pytest.mark.parametrize(
        ("extra", "message"),
        [
            (["x"], "error: could not parse sweep values: 'x'"),
            ([","], "error: no sweep values given"),
            (
                ["0.1", "--beacon-policy", "bogus"],
                "error: bad --beacon-policy: unknown beacon policy 'bogus'",
            ),
            (
                ["0.1", "--fault-loss-rate", "2"],
                "error: bad --fault-* flags: loss_rate must be in [0, 1)",
            ),
            (
                ["0.1", "--fault-crash-recover", "1"],
                "error: --fault-crash-recover requires --fault-crash-rate",
            ),
        ],
    )
    def test_sweep_usage_errors_go_to_stderr(self, capsys, extra, message):
        assert main(["sweep", "velocity", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "temperature", "1,2"])

    def test_run_with_csv_export(self, capsys, tmp_path):
        target = tmp_path / "csv"
        assert main(["run", "fig4b", "--quick", "--csv", str(target)]) == 0
        csv_file = target / "fig4b.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("d+1,")

    def test_run_with_jobs(self, capsys):
        assert main(["run", "claim1", "--quick", "--jobs", "2"]) == 0
        assert "Claim 1" in capsys.readouterr().out

    def test_sweep_with_jobs(self, capsys):
        code = main(
            [
                "sweep",
                "tx_range",
                "0.15",
                "--n",
                "40",
                "--seeds",
                "2",
                "--duration",
                "2.0",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert "Sweep of tx_range" in capsys.readouterr().out

    def test_bench_command(self, capsys, tmp_path):
        import json

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--sizes",
                "60,100",
                "--steps",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 6
        assert set(payload) == {
            "schema_version",
            "engine_schema_version",
            "machine",
            "config",
            "notes",
            "step_benchmarks",
            "equivalence",
            "peak_rss_kb",
        }
        assert payload["peak_rss_kb"] > 0
        assert payload["equivalence"] == {"60": "ok", "100": "ok"}
        rows = payload["step_benchmarks"]
        assert [row["n_nodes"] for row in rows] == [60, 100]
        for row in rows:
            assert row["mode"] == "stack"
            assert row["steps_per_sec"] > 0
            assert row["events_per_step"] > 0
            assert row["ms_per_step"] > 0
            assert row["us_per_event"] > 0
            assert set(row["us_per_event_by_phase"]) >= {
                "mobility",
                "adjacency",
                "protocol:hello",
                "protocol:intra-cluster-routing",
                "protocol:cluster-maintenance",
                "untimed",
            }
            stats = row["engine_stats"]
            assert stats["full_rebuilds"] + stats["incremental_steps"] == (
                3 * WINDOWS
            )
            assert stats["incremental_ms_p50"] > 0
        text = capsys.readouterr().out
        assert "events/step" in text and "µs/event" in text
        assert "µs/event N=100 / N=60:" in text

    def test_bench_bad_sizes(self, capsys):
        assert main(["bench", "--sizes", "abc"]) == 2

    @pytest.mark.parametrize("sizes", ["0", "1", "-5", "60,1"])
    def test_bench_sizes_below_two(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes]) == 2
        assert "sizes must be >= 2" in capsys.readouterr().err

    def test_bench_size_the_scaling_cannot_place(self, capsys, tmp_path):
        # r scales by sqrt(2000/N): N=20 puts it at the side, r >= a.
        out = tmp_path / "bench.json"
        assert main(["bench", "--sizes", "60,20", "--out", str(out)]) == 2
        assert "r < a" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_modes_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--modes", "edge"])
        assert exit_info.value.code == 2

    def test_bench_equivalence_mismatch_exits_one(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.analysis import benchmark

        monkeypatch.setattr(
            benchmark,
            "check_equivalence",
            lambda params: "edge sets differ at step 1 (vs tree)",
        )
        out = tmp_path / "bench.json"
        argv = ["bench", "--sizes", "60", "--steps", "1", "--out", str(out)]
        assert main(argv) == 1
        assert "EQUIVALENCE VIOLATION" in capsys.readouterr().err

    # `bench --sweep-jobs` is gone: every value, well-formed or not, is
    # now an argparse usage error on stderr (exit 2).
    def _assert_sweep_jobs_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--sweep-jobs", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --sweep-jobs" in captured.err
        assert captured.out == ""

    def test_bench_sweep_jobs_empty_entry(self, capsys):
        self._assert_sweep_jobs_rejected(capsys, "1,,0")

    def test_bench_sweep_jobs_zero_or_negative(self, capsys):
        self._assert_sweep_jobs_rejected(capsys, "0")
        self._assert_sweep_jobs_rejected(capsys, "2,-1")

    def test_bench_sweep_jobs_not_integer(self, capsys):
        self._assert_sweep_jobs_rejected(capsys, "1,two")
        self._assert_sweep_jobs_rejected(capsys, "1,4")


class TestMetricsCommand:
    def _simulate_traced(self, tmp_path, extra=()):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            '{"name": "m", "n_nodes": 30, "range_fraction": 0.2, '
            '"velocity_fraction": 0.05, "duration": 2.0, "warmup": 0.5}'
        )
        trace = tmp_path / "t.jsonl"
        code = main(
            ["simulate", str(scenario), "--trace", str(trace), *extra]
        )
        assert code == 0
        return trace

    def test_metrics_exports_openmetrics_text(self, tmp_path, capsys):
        trace = self._simulate_traced(tmp_path)
        assert main(["metrics", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "# TYPE overhead_messages counter" in out
        assert "# HELP overhead_messages " in out
        assert 'overhead_messages_total{cause="' in out

    def test_metrics_out_file_and_totals_match_summary(self, tmp_path, capsys):
        from repro.obs import summarize_trace

        trace = self._simulate_traced(tmp_path)
        out_path = tmp_path / "m.om"
        assert main(["metrics", str(trace), "--out", str(out_path)]) == 0
        text = out_path.read_text()
        exported = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("overhead_messages_total{")
        )
        assert exported == sum(summarize_trace(trace).messages.values())

    def test_metrics_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "none.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_live_export_equals_trace_export(self, tmp_path, capsys):
        live = tmp_path / "live.om"
        trace = self._simulate_traced(
            tmp_path, extra=["--metrics-openmetrics", str(live)]
        )
        assert main(["metrics", str(trace)]) == 0
        rebuilt = capsys.readouterr().out

        def overhead_lines(text):
            return sorted(
                line
                for line in text.splitlines()
                if line.startswith(("overhead_messages_total{",
                                    "overhead_bits_total{"))
                and '"node"' not in line
            )

        live_cells = [
            line
            for line in overhead_lines(live.read_text())
            if "node" not in line.split("{")[0]
        ]
        rebuilt_cells = [
            line
            for line in overhead_lines(rebuilt)
            if "node" not in line.split("{")[0]
        ]
        assert live_cells and live_cells == rebuilt_cells

    def test_report_notes_missing_cache_events(self, tmp_path, capsys):
        trace = self._simulate_traced(tmp_path)
        main(["report", str(trace)])
        out = capsys.readouterr().out
        assert "### Result store" in out
        assert "No `cache_*` events" in out
        assert "### Overhead attribution" in out
        assert "**total**" in out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro
        from repro.sim.engine import ENGINE_SCHEMA_VERSION

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro-manet {repro.__version__} "
            f"(engine schema {ENGINE_SCHEMA_VERSION})"
        )


class TestStoreFlags:
    def test_store_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "velocity", "0.01", "--store", "/tmp/s", "--store-refresh"]
        )
        assert args.store == "/tmp/s"
        assert args.store_refresh

    def test_bare_store_flag_means_default_root(self):
        args = build_parser().parse_args(["run", "fig1", "--quick", "--store"])
        assert args.store == ""

    def test_no_store_conflicts(self, capsys):
        code = main(
            ["sweep", "velocity", "0.01", "--no-store", "--store", "/tmp/s"]
        )
        assert code == 2
        assert "--no-store conflicts" in capsys.readouterr().err

    def test_env_var_enables_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANET_STORE", str(tmp_path))
        code = main(
            [
                "sweep",
                "velocity",
                "0.01",
                "--n",
                "40",
                "--seeds",
                "1",
                "--duration",
                "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store:" in out
        assert str(tmp_path) in out


class TestStoreCommands:
    def _populate(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "velocity",
                "0.01",
                "--n",
                "40",
                "--seeds",
                "2",
                "--duration",
                "1.0",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_cached_rerun_identical_and_all_hits(self, tmp_path, capsys):
        def strip(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("store:")
            ]

        fresh = self._populate(tmp_path, capsys)
        assert "2 miss(es)" in fresh
        cached = self._populate(tmp_path, capsys)
        assert "2 hit(s), 0 miss(es) (100.0% hit rate)" in cached
        assert strip(fresh) == strip(cached)

    def test_stats_ls_verify(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "task records     2" in out
        assert "sweep manifests  1" in out
        assert main(["store", "ls", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2
        assert "_run_once_task" in out
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0
        assert "store OK: 2 record(s)" in capsys.readouterr().out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        from repro.store import ResultStore

        self._populate(tmp_path, capsys)
        [first, _] = list(ResultStore(root=tmp_path).iter_record_paths())
        first.write_text("garbage")
        assert main(["store", "verify", "--store", str(tmp_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_gc_max_size(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert (
            main(["store", "gc", "--store", str(tmp_path), "--max-size", "0"])
            == 0
        )
        assert "evicted 2 file(s)" in capsys.readouterr().out
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        assert "task records     0" in capsys.readouterr().out


class TestSimulateErrors:
    def test_unknown_scenario_key_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "n_nodes": 20, "rnge_fraction": 0.2}')
        assert main(["simulate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario keys" in err
        assert "range_fraction" in err  # the valid keys are listed

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "none.json")]) == 2
        assert "bad scenario" in capsys.readouterr().err
