"""Unit tests for the fleet roster and capacity model."""

from __future__ import annotations

import pytest

from repro.distrib.membership import (
    FleetMembership,
    WorkerCapabilities,
    detect_capabilities,
    measure_calibration,
)
from repro.distrib.protocol import ProtocolError


def caps(throughput: float = 0.0, cores: int = 1) -> WorkerCapabilities:
    return WorkerCapabilities(cores=cores, throughput=throughput)


class TestWorkerCapabilities:
    def test_validation(self):
        with pytest.raises(ValueError, match="cores"):
            WorkerCapabilities(cores=0)
        with pytest.raises(ValueError, match="memory_mb"):
            WorkerCapabilities(memory_mb=-1)
        with pytest.raises(ValueError, match="throughput"):
            WorkerCapabilities(throughput=-0.5)

    def test_wire_round_trip(self):
        original = WorkerCapabilities(cores=8, memory_mb=16384,
                                      throughput=123.456)
        assert WorkerCapabilities.from_wire(original.to_wire()) == original

    def test_from_wire_rejects_missing_capabilities(self):
        for wire in (None, "junk", []):
            with pytest.raises(ProtocolError, match="no capabilities"):
                WorkerCapabilities.from_wire(wire)

    def test_from_wire_rejects_missing_keys(self):
        full = WorkerCapabilities().to_wire()
        for key in full:
            partial = {k: v for k, v in full.items() if k != key}
            with pytest.raises(ProtocolError, match=key):
                WorkerCapabilities.from_wire(partial)

    def test_from_wire_rejects_ill_typed_values(self):
        full = WorkerCapabilities().to_wire()
        for key, wrong in (
            ("cores", "8"), ("cores", 2.0), ("cores", True),
            ("memory_mb", None), ("throughput", "fast"),
            ("throughput", False), ("memory_mb", 1.5),
        ):
            with pytest.raises(ProtocolError, match=key):
                WorkerCapabilities.from_wire({**full, key: wrong})

    def test_from_wire_rejects_hostile_values(self):
        for hostile in (
            {"cores": -4}, {"memory_mb": -1}, {"throughput": -9.0},
        ):
            wire = {**WorkerCapabilities().to_wire(), **hostile}
            with pytest.raises(ProtocolError, match="invalid"):
                WorkerCapabilities.from_wire(wire)

    def test_detect_capabilities(self):
        detected = detect_capabilities(calibrate=False)
        assert detected.cores >= 1
        assert detected.throughput == 0.0
        assert measure_calibration(budget_seconds=0.005) > 0.0


class TestMembershipTransitions:
    def test_join_rejoin_leave(self):
        fleet = FleetMembership()
        member = fleet.hello("w0", caps(), now=10.0)
        assert member.active and fleet.joins == 1
        fleet.leave("w0", now=20.0, reason="disconnect")
        assert not fleet.get("w0").active
        assert fleet.leaves == 1
        # A rejoin reactivates the same record, history intact.
        fleet.get("w0").tasks_completed = 3
        rejoined = fleet.hello("w0", caps(throughput=5.0), now=30.0)
        assert rejoined is member
        assert rejoined.active
        assert rejoined.tasks_completed == 3
        assert rejoined.capabilities.throughput == 5.0
        events = [(e["event"], e["worker"]) for e in fleet.events]
        assert events == [("join", "w0"), ("leave", "w0"),
                          ("rejoin", "w0")]
        assert [e["seq"] for e in fleet.events] == [1, 2, 3]

    def test_leave_is_idempotent(self):
        fleet = FleetMembership()
        fleet.hello("w0", caps(), now=0.0)
        fleet.leave("w0", now=1.0, reason="goodbye")
        fleet.leave("w0", now=2.0, reason="disconnect")
        fleet.leave("ghost", now=3.0, reason="disconnect")
        assert fleet.leaves == 1

    def test_task_done_builds_an_ewma_rate(self):
        fleet = FleetMembership(ewma_alpha=0.5)
        fleet.hello("w0", caps(), now=0.0)
        fleet.task_done("w0", now=1.0)  # first gap: 1 s -> 1.0/s
        assert fleet.get("w0").rate == pytest.approx(1.0)
        fleet.task_done("w0", now=1.5)  # gap 0.5 s -> sample 2.0/s
        assert fleet.get("w0").rate == pytest.approx(1.5)
        assert fleet.get("w0").tasks_completed == 2
        fleet.task_done("ghost", now=2.0)  # unknown worker: ignored


class TestCapacityWeighting:
    def test_unmeasured_fleet_weighs_everyone_equally(self):
        fleet = FleetMembership(max_bundle=4)
        fleet.hello("w0", caps(), now=0.0)
        fleet.hello("w1", caps(), now=0.0)
        assert fleet.weight("w0") == 1.0
        assert fleet.bundle_size("w0") == 2
        assert fleet.weight("unknown") == 1.0

    def test_bundle_scales_with_throughput_ratio(self):
        fleet = FleetMembership(max_bundle=4)
        fleet.hello("fast", caps(throughput=300.0), now=0.0)
        fleet.hello("mid", caps(throughput=100.0), now=0.0)
        fleet.hello("slow", caps(throughput=50.0), now=0.0)
        assert fleet.weight("fast") == pytest.approx(3.0)
        assert fleet.bundle_size("fast") == 6
        assert fleet.bundle_size("mid") == 2
        assert fleet.bundle_size("slow") == 2

    def test_bundle_clamped_to_max_bundle(self):
        fleet = FleetMembership(max_bundle=2)
        fleet.hello("huge", caps(throughput=1000.0), now=0.0)
        fleet.hello("tiny", caps(throughput=10.0), now=0.0)
        assert fleet.bundle_size("huge") == 4  # 2 * max_bundle

    def test_slow_flag_forces_bundle_of_one(self):
        fleet = FleetMembership(max_bundle=4)
        fleet.hello("fast", caps(throughput=400.0), now=0.0)
        fleet.hello("p0", caps(throughput=100.0), now=0.0)
        fleet.hello("p1", caps(throughput=100.0), now=0.0)
        assert fleet.bundle_size("fast") == 8  # 2 * 400 / median 100
        fleet.get("fast").slow = True
        assert fleet.bundle_size("fast") == 1

    def test_suite_capable_bundle_is_doubled(self):
        """Every bundle is sized for a suite worker, which runs its
        same-chunk cells as one program-major call: double the weight,
        against double the ceiling."""
        fleet = FleetMembership(max_bundle=4)
        fleet.hello("suite", caps(throughput=100.0), now=0.0)
        fleet.hello("peer", caps(throughput=100.0), now=0.0)
        assert fleet.bundle_size("suite") == 2
        fleet.hello("big", caps(throughput=600.0), now=0.0)
        assert fleet.bundle_size("big") == 8  # 2 * max_bundle ceiling
        # Slow still wins: a straggler never gets a bundle.
        fleet.get("suite").slow = True
        assert fleet.bundle_size("suite") == 1


class TestRebalanceScan:
    def _rated_fleet(self) -> FleetMembership:
        fleet = FleetMembership(slow_fraction=0.25)
        for worker_id in ("w0", "w1", "w2"):
            fleet.hello(worker_id, caps(), now=0.0)
            fleet.get(worker_id).tasks_completed = 1
        return fleet

    def test_straggler_is_flagged_and_recovers_with_hysteresis(self):
        fleet = self._rated_fleet()
        fleet.get("w0").rate = 1.0
        fleet.get("w1").rate = 1.0
        fleet.get("w2").rate = 0.1  # 10% of median: below 25%
        assert fleet.rebalance_scan() == [("w2", True)]
        assert fleet.get("w2").slow
        # Above the slow line but below the 2x recovery line: stays slow.
        fleet.get("w2").rate = 0.4
        assert fleet.rebalance_scan() == []
        assert fleet.get("w2").slow
        # At/above 2 * slow_fraction * median: recovers.
        fleet.get("w2").rate = 0.6
        assert fleet.rebalance_scan() == [("w2", False)]
        assert not fleet.get("w2").slow
        kinds = [e["event"] for e in fleet.events]
        assert kinds[-2:] == ["slow", "recovered"]

    def test_single_rater_defines_no_fleet(self):
        fleet = FleetMembership()
        fleet.hello("w0", caps(), now=0.0)
        fleet.get("w0").tasks_completed = 1
        fleet.get("w0").rate = 0.001
        assert fleet.rebalance_scan() == []

    def test_unrated_workers_do_not_skew_the_median(self):
        fleet = self._rated_fleet()
        fleet.hello("idle", caps(), now=0.0)  # no completions yet
        fleet.get("w0").rate = 1.0
        fleet.get("w1").rate = 1.0
        fleet.get("w2").rate = 1.0
        assert fleet.median_rate() == pytest.approx(1.0)
        assert fleet.rebalance_scan() == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_bundle"):
            FleetMembership(max_bundle=0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            FleetMembership(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="slow_fraction"):
            FleetMembership(slow_fraction=1.0)


class TestRoster:
    def test_roster_is_json_ready_and_sorted(self):
        fleet = FleetMembership(max_bundle=4)
        fleet.hello("w1", caps(throughput=200.0, cores=4), now=5.0)
        fleet.hello("w0", caps(throughput=100.0), now=0.0)
        fleet.leave("w0", now=8.0, reason="goodbye")
        roster = fleet.roster(now=10.0)
        assert [entry["worker"] for entry in roster] == ["w0", "w1"]
        w0, w1 = roster
        assert w0["active"] is False
        assert w1["active"] is True
        # w0 left, so the active-peer median is w1's own throughput.
        assert w1["weight"] == pytest.approx(1.0, abs=0.001)
        assert w1["bundle_size"] == 2
        assert w1["age_seconds"] == pytest.approx(5.0)
        import json

        json.dumps(roster)  # must serialise without custom encoders
