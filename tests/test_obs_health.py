"""Tests for the runtime health watchdogs: check units, the monitor, and
end-to-end runs (clean, faulted and deliberately livelocked)."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.network import ElectricalNetwork
from repro.faults import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.report import result_from_dict, result_to_dict
from repro.harness.runner import run
from repro.obs import HealthFinding, HealthMonitor, HealthReport, ObsConfig
from repro.obs.events import TraceHub
from repro.obs.health import (
    ConservationCheck,
    CreditLeakCheck,
    HealthCheck,
    HealthContext,
    ProgressCheck,
)
from repro.obs.tracers import CollectingTracer, EventTally
from repro.sim.stats import NetworkStats
from repro.util.geometry import Direction, MeshGeometry

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELECTRICAL = ElectricalConfig(mesh=MESH)

EAST = int(Direction.EAST)
WEST = int(Direction.WEST)


def spec(config=OPTICAL, obs=None, rate=0.15, cycles=300, faults=None):
    return RunSpec(
        config,
        SyntheticWorkload("uniform", rate),
        cycles=cycles,
        seed=7,
        faults=faults,
        obs=obs,
    )


def ctx_for(network, stats=None, **overrides):
    """A HealthContext over ``network`` with empty event history."""
    fields = dict(
        network=network,
        stats=stats if stats is not None else getattr(network, "stats", None),
        end=100,
        events=Counter(),
        node_activity=Counter(),
        node_injected=Counter(),
        lost_events=0,
    )
    fields.update(overrides)
    return HealthContext(**fields)


class TestFindingAndReport:
    def test_finding_round_trips(self):
        finding = HealthFinding(
            check="progress", severity="warn", cycle=200, message="m", node=3
        )
        assert HealthFinding.from_dict(finding.to_dict()) == finding
        global_finding = HealthFinding("x", "critical", 1, "m")
        assert HealthFinding.from_dict(global_finding.to_dict()).node is None

    def test_finding_rejects_ok_severity(self):
        with pytest.raises(ValueError, match="warn or critical"):
            HealthFinding("x", "ok", 0, "m")

    def test_report_round_trips(self):
        report = HealthReport(
            status="critical",
            first_violation_cycle=100,
            interval=50,
            windows=6,
            checks={"progress": {"status": "critical", "violations": 2}},
            findings=[HealthFinding("progress", "critical", 100, "livelock")],
            truncated=1,
        )
        assert HealthReport.from_dict(report.to_dict()) == report
        assert not report.ok
        assert HealthReport().ok


class TestConservationCheck:
    def _net(self, backlog=0):
        return SimpleNamespace(
            nics=[SimpleNamespace(backlog=backlog)], stats=NetworkStats()
        )

    def test_consistent_state_is_clean(self):
        network = self._net(backlog=2)
        ctx = ctx_for(network, events=Counter({"generated": 5, "injected": 3}))
        network.stats.packets_injected = 3
        assert ConservationCheck().evaluate(ctx) == []

    def test_queue_identity_violation_is_critical(self):
        network = self._net(backlog=0)
        ctx = ctx_for(network, events=Counter({"generated": 5, "injected": 3}))
        network.stats.packets_injected = 3
        findings = ConservationCheck().evaluate(ctx)
        assert [f.severity for f in findings] == ["critical"]
        assert "conservation broken" in findings[0].message

    def test_ledger_drift_is_critical(self):
        network = self._net()
        network.stats.retransmissions = 4
        findings = ConservationCheck().evaluate(ctx_for(network))
        assert any("stats.retransmissions=4" in f.message for f in findings)

    def test_lost_packets_reconciled_against_events(self):
        network = self._net()
        network.stats.packets_lost = 2
        findings = ConservationCheck().evaluate(ctx_for(network, lost_events=0))
        assert any("packets_lost" in f.message for f in findings)


class TestCreditLeakCheck:
    def test_applies_only_to_credit_based_backends(self):
        from repro.fabric.registry import make_network

        check = CreditLeakCheck()
        assert check.applies(ElectricalNetwork(ELECTRICAL))
        assert not check.applies(make_network(OPTICAL))

    def test_quiet_network_is_clean(self):
        network = ElectricalNetwork(ELECTRICAL)
        assert CreditLeakCheck().evaluate(ctx_for(network)) == []

    def test_corrupted_credit_is_caught(self):
        network = ElectricalNetwork(ELECTRICAL)
        network.routers[5].free_vcs[EAST] &= ~1  # leak VC 0's credit
        findings = CreditLeakCheck().evaluate(ctx_for(network))
        assert len(findings) == 1
        assert findings[0].severity == "critical"
        assert findings[0].node == 5
        assert "credit leaked" in findings[0].message

    def test_double_credit_is_caught(self):
        network = ElectricalNetwork(ELECTRICAL)
        # Node 6's EAST input VC holds a flit, so upstream node 5's EAST
        # credit for that VC must be withheld — but it is still available.
        router = network.routers[6]
        router.flits[EAST * router.num_vcs + 0] = Flit(0, {7}, 0)
        findings = CreditLeakCheck().evaluate(ctx_for(network))
        assert len(findings) == 1
        assert findings[0].node == 5
        assert "double credit" in findings[0].message

    def test_findings_capped_per_window(self):
        network = ElectricalNetwork(ELECTRICAL)
        for router in network.routers:
            for port in (EAST, WEST):
                router.free_vcs[port] = 0
        findings = CreditLeakCheck().evaluate(ctx_for(network))
        assert len(findings) == CreditLeakCheck.max_findings_per_window


class TestProgressCheck:
    def _net(self, busy=True, backlog=1):
        return SimpleNamespace(
            routers=[SimpleNamespace(node=0, busy=busy)],
            nics=[SimpleNamespace(node=0, backlog=backlog)],
        )

    def _stats(self, delivered=0, lost=0):
        return SimpleNamespace(packets_delivered=delivered, packets_lost=lost)

    def test_stalled_run_warns_then_escalates(self):
        check = ProgressCheck(stall_windows=4)
        network, stats = self._net(), self._stats()
        severities = []
        for window in range(10):
            ctx = ctx_for(network, stats=stats, end=100 * window)
            severities.append(
                [(f.severity, "livelock" in f.message)
                 for f in check.evaluate(ctx)
                 if f.node is None]
            )
        # Window 0 establishes the baseline; flat counts start at window 1.
        # Warn at 2 flat windows (stall_windows // 2), critical at 4 flat
        # windows, and again every 4 windows while the livelock persists.
        assert severities[2] == [("warn", False)]
        assert severities[4] == [("critical", True)]
        assert severities[8] == [("critical", True)]
        assert severities[5] == []

    def test_progress_resets_the_streak(self):
        check = ProgressCheck(stall_windows=2)
        network = self._net()
        for delivered in [0, 0, 1, 1, 2]:
            findings = check.evaluate(
                ctx_for(network, stats=self._stats(delivered))
            )
            # Delivery in windows 2 and 4 keeps the flat streak below the
            # critical threshold throughout.
            assert all(f.severity != "critical" for f in findings)

    def test_idle_network_never_flags(self):
        check = ProgressCheck(stall_windows=2)
        network = self._net(busy=False, backlog=0)
        for _window in range(8):
            assert check.evaluate(ctx_for(network, stats=self._stats())) == []

    def test_starved_nic_warns(self):
        check = ProgressCheck(stall_windows=3)
        network = SimpleNamespace(
            routers=[], nics=[SimpleNamespace(node=9, backlog=5)]
        )
        # Deliveries happen (no global livelock), but node 9 never injects.
        findings = []
        for window in range(4):
            findings += check.evaluate(
                ctx_for(network, stats=self._stats(delivered=window))
            )
        assert [f.node for f in findings] == [9]
        assert "starved" in findings[0].message

    def test_rejects_bad_stall_windows(self):
        with pytest.raises(ValueError):
            ProgressCheck(stall_windows=0)


class _AlwaysCritical(HealthCheck):
    name = "always_critical"

    def evaluate(self, ctx):
        return [
            HealthFinding(
                check=self.name, severity="critical", cycle=ctx.end, message="boom"
            )
        ]


class _FakeNetwork:
    def __init__(self):
        self.stats = NetworkStats()
        self.trace_hub = TraceHub()
        self.routers = []
        self.nics = []

    def add_tracer(self, tracer):
        self.trace_hub.add(tracer)


def monitor_on(network, interval, **kwargs):
    """A monitor fed by a tally on ``network``'s hub, as the session wires it."""
    tally = EventTally()
    network.add_tracer(tally)
    return HealthMonitor(network, tally, interval, **kwargs)


class TestHealthMonitor:
    def test_evaluates_at_window_boundaries_only(self):
        from repro.obs import ObsSession
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        session = ObsSession(
            ObsConfig(health=True, health_interval=100), _FakeNetwork(), engine
        )
        engine.run(250)
        _, report = session.finish()
        assert report.windows == 3  # 100, 200, and the trailing partial window
        assert report.ok

        monitor = monitor_on(_FakeNetwork(), 100, checks=[_AlwaysCritical()])
        for end in (100, 200, 250):
            monitor.evaluate(end)
        report = monitor.report()
        assert report.windows == 3
        assert report.status == "critical"
        assert report.first_violation_cycle == 100
        assert report.checks["always_critical"] == {
            "status": "critical", "violations": 3,
        }

    def test_findings_capped_and_truncation_counted(self):
        monitor = monitor_on(
            _FakeNetwork(), 10, checks=[_AlwaysCritical()], max_findings=2
        )
        for end in range(10, 60, 10):
            monitor.evaluate(end)
        report = monitor.report()
        assert len(report.findings) == 2
        assert report.truncated == 3

    def test_emits_health_events_and_notifies_listeners(self):
        network = _FakeNetwork()
        tracer = CollectingTracer()
        network.trace_hub.add(tracer)
        monitor = monitor_on(network, 10, checks=[_AlwaysCritical()])
        heard = monitor.evaluate(10)
        events = [e for e in tracer.events if e.kind == "health_critical"]
        assert len(events) == 1
        assert events[0].node == -1 and events[0].uid == -1
        assert events[0].extra == {"check": "always_critical", "message": "boom"}
        assert heard == monitor.findings
        # The monitor's own events are not simulator activity.
        assert not monitor._tally.by_kind and not monitor._tally.activity

    def test_inapplicable_checks_are_filtered(self):
        # No NICs on the fake: ConservationCheck's applies() still holds.
        monitor = monitor_on(_FakeNetwork(), 10)
        names = [check.name for check in monitor.checks]
        assert "credit_leak" not in names  # no credit state on the fake
        assert names == ["flit_conservation", "progress"]

    def test_each_monitor_builds_fresh_checks_with_its_stall_windows(self):
        # Checks keep streak state, so monitors must never share instances.
        first = monitor_on(_FakeNetwork(), 10, stall_windows=3)
        second = monitor_on(_FakeNetwork(), 10, stall_windows=3)
        assert all(a is not b for a, b in zip(first.checks, second.checks))
        assert first.checks[-1].stall_windows == 3

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            monitor_on(_FakeNetwork(), 0)


class TestHealthyRuns:
    @pytest.mark.parametrize("config", [OPTICAL, ELECTRICAL])
    def test_clean_run_reports_ok(self, config):
        result = run(spec(config, obs=ObsConfig(health=True)))
        report = result.health
        assert report is not None and report.ok
        assert report.interval == 100
        assert report.windows >= 3
        assert report.findings == []
        assert report.checks["flit_conservation"]["status"] == "ok"
        assert report.checks["progress"]["status"] == "ok"

    def test_credit_audit_attaches_to_electrical_only(self):
        electrical = run(spec(ELECTRICAL, obs=ObsConfig(health=True)))
        optical = run(spec(OPTICAL, obs=ObsConfig(health=True)))
        assert "credit_leak" in electrical.health.checks
        assert "credit_leak" not in optical.health.checks

    def test_faulted_run_keeps_conservation_and_credits_clean(self):
        # Retransmission and fault-loss paths must stay reconciled with
        # the event stream (this pins the retransmitted-emit bookkeeping).
        faults = FaultConfig(seed=3, link_flip_prob=0.25, retry_limit=1)
        result = run(
            spec(ELECTRICAL, obs=ObsConfig(health=True), faults=faults)
        )
        assert result.stats.retransmissions > 0
        assert result.stats.packets_lost > 0
        report = result.health
        assert report.checks["flit_conservation"]["status"] == "ok"
        assert report.checks["credit_leak"]["status"] == "ok"

    def test_health_report_round_trips_through_result_payload(self):
        result = run(spec(obs=ObsConfig(health=True)))
        payload = result_to_dict(result)
        assert payload["health"]["status"] == "ok"
        restored = result_from_dict(payload)
        assert restored.health == result.health

    def test_disabled_run_payload_has_no_health_key(self):
        assert "health" not in result_to_dict(run(spec()))

    def test_manifest_entries_carry_health_status_additively(self):
        from repro.harness.exec import Executor
        from repro.harness.report import manifest_to_dict

        watched = Executor(workers=1, obs=ObsConfig(health=True))
        watched.map([spec()])
        assert manifest_to_dict(watched.events)["entries"][0]["health"] == "ok"
        plain = Executor(workers=1)
        plain.map([spec()])
        # Backward compatible: no watchdogs, no key.
        assert "health" not in manifest_to_dict(plain.events)["entries"][0]


class TestLivelockDetection:
    """The acceptance scenario: a dead link with an unbounded retry budget
    makes zero forward progress; the watchdog must flag it within a small
    number of windows."""

    def _livelocked_result(self, tmp_path=None, stall_windows=3):
        mesh = MeshGeometry(2, 1)
        config = ElectricalConfig(mesh=mesh)
        # Both directions of the only link are dead and the retry budget is
        # effectively infinite: every flit retries forever, so deliveries
        # and losses both stay at zero while the routers hold work.
        faults = FaultConfig(
            seed=1,
            dead_ports=((0, EAST), (1, WEST)),
            retry_limit=1_000_000,
        )
        obs = ObsConfig(
            health=True,
            health_interval=50,
            health_stall_windows=stall_windows,
            trace_path=None if tmp_path is None else str(tmp_path / "t.jsonl"),
        )
        return run(
            RunSpec(
                config,
                SyntheticWorkload("uniform", 0.3),
                cycles=500,
                seed=2,
                faults=faults,
                obs=obs,
            )
        )

    def test_livelock_escalates_to_critical_within_budget(self):
        result = self._livelocked_result()
        assert result.stats.packets_delivered == 0
        assert result.stats.retransmissions > 0
        report = result.health
        assert report.status == "critical"
        assert report.checks["progress"]["status"] == "critical"
        assert any("livelock" in f.message for f in report.findings)
        # Flagged within (stall_windows + 2) windows of 50 cycles.
        assert report.first_violation_cycle <= 50 * 5

    def test_livelock_emits_health_events_on_the_trace(self, tmp_path):
        import json

        self._livelocked_result(tmp_path)
        kinds = [
            json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        critical = [e for e in kinds if e.get("kind") == "health_critical"]
        assert critical
        assert critical[0]["check"] == "progress"
