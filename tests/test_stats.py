"""Tests for message accounting (repro.sim.stats)."""

from __future__ import annotations

import pytest

from repro.sim import MessageStats


@pytest.fixture
def stats() -> MessageStats:
    return MessageStats(n_nodes=10)


class TestWindow:
    def test_rejects_bad_node_count(self):
        with pytest.raises(ValueError):
            MessageStats(n_nodes=0)

    def test_records_dropped_outside_window(self, stats):
        stats.record("hello", 5, 100.0)
        assert stats.message_count("hello") == 0
        stats.start_measuring()
        stats.record("hello", 5, 100.0)
        assert stats.message_count("hello") == 5
        stats.stop_measuring()
        stats.record("hello", 5, 100.0)
        assert stats.message_count("hello") == 5

    def test_time_only_accumulates_while_measuring(self, stats):
        stats.advance_time(1.0)
        assert stats.measured_time == 0.0
        stats.start_measuring()
        stats.advance_time(2.0)
        assert stats.measured_time == 2.0

    def test_negative_time_rejected(self, stats):
        with pytest.raises(ValueError):
            stats.advance_time(-1.0)

    def test_measuring_flag(self, stats):
        assert not stats.measuring
        stats.start_measuring()
        assert stats.measuring


class TestAccounting:
    def test_per_node_frequency(self, stats):
        stats.start_measuring()
        stats.advance_time(5.0)
        stats.record("cluster", 100, 200.0)
        assert stats.per_node_frequency("cluster") == pytest.approx(2.0)

    def test_per_node_overhead(self, stats):
        stats.start_measuring()
        stats.advance_time(4.0)
        stats.record("route", 10, 400.0)
        assert stats.per_node_overhead("route") == pytest.approx(10.0)

    def test_no_time_raises(self, stats):
        stats.start_measuring()
        stats.record("hello", 1, 1.0)
        with pytest.raises(ValueError):
            stats.per_node_frequency("hello")

    def test_unknown_category_zero(self, stats):
        stats.start_measuring()
        stats.advance_time(1.0)
        assert stats.per_node_frequency("nonexistent") == 0.0

    def test_negative_record_rejected(self, stats):
        seen = []
        stats.on_record = lambda *args: seen.append(args)
        stats.start_measuring()
        with pytest.raises(ValueError):
            stats.record("hello", -1)
        with pytest.raises(ValueError):
            stats.record("hello", 1, -5.0)
        with pytest.raises(ValueError):
            stats.record("hello", -1, 8.0, cause="c", node=1)
        assert seen == []
        assert stats.totals == {}

    def test_aggregate_views(self, stats):
        stats.start_measuring()
        stats.advance_time(2.0)
        stats.record("hello", 4, 40.0)
        stats.record("cluster", 2, 10.0)
        assert stats.frequencies() == {
            "cluster": pytest.approx(0.1),
            "hello": pytest.approx(0.2),
        }
        assert stats.overheads() == {
            "cluster": pytest.approx(0.5),
            "hello": pytest.approx(2.0),
        }
        assert stats.total_overhead() == pytest.approx(2.5)

    def test_accumulation_across_records(self, stats):
        stats.start_measuring()
        for _ in range(3):
            stats.record("hello", 2, 8.0)
        assert stats.message_count("hello") == 6
        assert stats.bit_count("hello") == pytest.approx(24.0)


class TestReadSideIsolation:
    """Reading a never-recorded category must not create it."""

    def test_reads_do_not_grow_totals(self, stats):
        stats.start_measuring()
        stats.advance_time(1.0)
        stats.record("hello", 1, 8.0)
        assert stats.message_count("typo") == 0
        assert stats.bit_count("typo") == 0.0
        assert stats.per_node_frequency("typo") == 0.0
        assert stats.per_node_overhead("typo") == 0.0
        assert set(stats.totals) == {"hello"}

    def test_reads_do_not_pollute_aggregates(self, stats):
        stats.start_measuring()
        stats.advance_time(1.0)
        stats.record("route", 3, 30.0)
        stats.message_count("cluster")  # probe an absent category
        assert set(stats.frequencies()) == {"route"}
        assert set(stats.overheads()) == {"route"}

    def test_totals_snapshot_is_detached(self, stats):
        stats.start_measuring()
        stats.record("hello", 1, 8.0)
        snapshot = stats.totals
        snapshot["hello"].messages = 999
        snapshot["bogus"] = None
        assert stats.message_count("hello") == 1
        assert set(stats.totals) == {"hello"}


class TestRegistryBacking:
    def test_counters_live_in_registry(self, stats):
        stats.start_measuring()
        stats.record("hello", 4, 32.0)
        counter = stats.registry.counter("messages_total", category="hello")
        assert counter.value == 4

    def test_shared_registry_with_labels(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        a = MessageStats(10, registry=registry, labels={"sim": "0"})
        b = MessageStats(10, registry=registry, labels={"sim": "1"})
        a.start_measuring()
        b.start_measuring()
        a.record("hello", 1, 8.0)
        b.record("hello", 5, 40.0)
        assert a.message_count("hello") == 1
        assert b.message_count("hello") == 5

    def test_on_record_fires_only_inside_window(self, stats):
        seen = []
        stats.on_record = lambda *args: seen.append(args)
        stats.record("hello", 1, 8.0)  # outside window: dropped, no hook
        stats.start_measuring()
        stats.record("hello", 2, 16.0)
        stats.record("route", 3, 24.0, cause="c", node=4)
        stats.record("route", 1, 8.0, cause="c", nodes=(1, 2), cluster=0)
        assert seen == [
            ("hello", 2, 16.0, None, None, None, None),
            ("route", 3, 24.0, "c", 4, None, None),
            ("route", 1, 8.0, "c", None, (1, 2), 0),
        ]

    def test_attributed_record_outside_window_reaches_no_hook(self, stats):
        seen = []
        stats.on_record = lambda *args: seen.append(args)
        stats.record("hello", 1, 8.0, cause="c", node=1)
        stats.record("route", 2, 16.0, cause="c", nodes=lambda head: (1, 2))
        assert seen == []
        assert stats.totals == {}
