"""Tests for the declarative scenario runner."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.run_spec import build_stack
from repro.scenario import (
    ScenarioConfig,
    ScenarioReport,
    load_scenario,
    run_scenario,
)


def _base_config(**overrides) -> ScenarioConfig:
    data = {
        "name": "test",
        "n_nodes": 60,
        "range_fraction": 0.2,
        "velocity_fraction": 0.03,
        "duration": 4.0,
        "warmup": 0.5,
        "seed": 1,
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioConfig.from_dict(
                {
                    "name": "x",
                    "n_nodes": 10,
                    "range_fraction": 0.2,
                    "velocity_fraction": 0.0,
                    "typo_key": 1,
                }
            )

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="routing"):
            _base_config(routing="olsr")

    def test_unknown_clustering_rejected(self):
        with pytest.raises(ValueError, match="clustering"):
            _base_config(clustering={"algorithm": "kmeans"})

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            _base_config(duration=0.0)

    @pytest.mark.parametrize(
        "hello, message",
        [
            (
                {"mode": "periodic", "intervall": 0.25, "timeout": 9},
                "unknown beacon keys",
            ),
            ({"mode": "bogus"}, "mode must be"),
            ({"mode": "event", "policy": "churn-feedback"}, "policy"),
            (
                {"mode": "adaptive", "policy": "churn-feedback"},
                "'beacon' block",
            ),
        ],
    )
    def test_bad_hello_block_rejected_at_load(self, hello, message):
        with pytest.raises(ValueError, match=message):
            _base_config(hello=hello)

    def test_hello_block_timeout_is_honoured(self):
        hello = {"mode": "periodic", "interval": 0.25, "timeout": 9.0}
        stack = build_stack(_base_config(hello=hello).run_spec())
        assert stack.hello.mode == "periodic"
        assert stack.hello.interval == 0.25
        assert stack.hello.timeout == 9.0

    def test_network_parameters_derived(self):
        config = _base_config()
        params = config.network_parameters()
        assert params.n_nodes == 60
        assert params.range_fraction == pytest.approx(0.2)

    def test_custom_message_sizes(self):
        config = _base_config(messages={"p_hello": 64.0})
        assert config.network_parameters().messages.p_hello == 64.0


class TestRunScenario:
    def test_hybrid_stack_report(self):
        report = run_scenario(_base_config())
        assert isinstance(report, ScenarioReport)
        assert "hello" in report.frequencies
        assert "cluster" in report.frequencies
        assert "route" in report.frequencies
        assert report.head_ratio is not None
        assert report.traffic is None
        assert report.total_overhead > 0.0

    def test_dsdv_stack(self):
        report = run_scenario(_base_config(routing="dsdv"))
        assert "dsdv" in report.frequencies
        assert report.head_ratio is None

    def test_aodv_stack_with_flows(self):
        report = run_scenario(
            _base_config(
                routing="aodv",
                flows=[{"source": 0, "destination": 30, "interval": 0.5}],
            )
        )
        assert report.traffic is not None
        assert report.traffic["generated"] > 0
        assert 0.0 <= report.traffic["delivery"] <= 1.0

    def test_clustering_only_stack(self):
        report = run_scenario(_base_config(routing="none"))
        assert report.head_ratio is not None
        assert "route" not in report.frequencies

    def test_flows_without_routing_rejected(self):
        config = _base_config(
            routing="none",
            flows=[{"source": 0, "destination": 1, "interval": 1.0}],
        )
        with pytest.raises(ValueError, match="flows"):
            run_scenario(config)

    def test_deterministic(self):
        a = run_scenario(_base_config())
        b = run_scenario(_base_config())
        assert a.frequencies == b.frequencies

    @pytest.mark.parametrize(
        "model",
        ["cv", "epoch-rwp", "rwp", "walk", "direction", "gauss-markov", "manhattan"],
    )
    def test_every_mobility_model(self, model):
        boundary = "torus" if model in ("cv", "epoch-rwp") else "reflect"
        report = run_scenario(
            _base_config(
                mobility={"model": model}, boundary=boundary, duration=2.0
            )
        )
        assert report.total_overhead >= 0.0

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            run_scenario(_base_config(mobility={"model": "teleport"}))

    @pytest.mark.parametrize("algorithm", ["lid", "hcc", "dmac"])
    def test_every_clustering_algorithm(self, algorithm):
        report = run_scenario(
            _base_config(clustering={"algorithm": algorithm}, duration=2.0)
        )
        assert report.cluster_count >= 1


class TestSerialization:
    def test_report_round_trips_json(self):
        report = run_scenario(_base_config())
        payload = json.dumps(report.to_dict())
        restored = json.loads(payload)
        assert restored["name"] == "test"
        assert restored["total_overhead"] == pytest.approx(report.total_overhead)

    def test_render_mentions_everything(self):
        report = run_scenario(
            _base_config(
                flows=[{"source": 0, "destination": 30, "interval": 0.5}]
            )
        )
        text = report.render()
        assert "scenario: test" in text
        assert "clusters:" in text
        assert "traffic:" in text

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "name": "file",
                    "n_nodes": 30,
                    "range_fraction": 0.25,
                    "velocity_fraction": 0.02,
                    "duration": 2.0,
                }
            )
        )
        config = load_scenario(path)
        assert config.name == "file"
        assert config.n_nodes == 30


class TestCliIntegration:
    def test_simulate_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "n_nodes": 30,
                    "range_fraction": 0.25,
                    "velocity_fraction": 0.02,
                    "duration": 2.0,
                    "warmup": 0.2,
                }
            )
        )
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: cli" in out

    def test_simulate_json_output(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-json",
                    "n_nodes": 30,
                    "range_fraction": 0.25,
                    "velocity_fraction": 0.02,
                    "duration": 2.0,
                }
            )
        )
        assert main(["simulate", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "cli-json"
