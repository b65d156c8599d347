"""Tests for the runtime health watchdogs: the three audits, the monitor,
and end-to-end runs (clean, faulted and deliberately livelocked)."""

import json
from types import SimpleNamespace

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.electrical.flit import Flit
from repro.electrical.network import ElectricalNetwork
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.report import result_from_dict, result_to_dict
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.events import TraceHub
from repro.obs.health import (
    MAX_CREDIT_FINDINGS,
    MAX_FINDINGS,
    HealthFinding,
    HealthMonitor,
    HealthReport,
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


class _FakeNetwork:
    """The surface the monitor reads: stats, routers, NICs and a hub."""

    def __init__(self, routers=(), nics=()):
        self.stats = NetworkStats()
        self.trace_hub = TraceHub()
        self.routers = list(routers)
        self.nics = list(nics)

    def add_tracer(self, tracer):
        self.trace_hub.add(tracer)


def monitor_on(network, interval=10, stall_windows=5):
    """A monitor fed by a tally on ``network``'s hub, as the session wires it."""
    tally = EventTally()
    network.add_tracer(tally)
    return HealthMonitor(network, tally, interval, stall_windows)


def found(monitor, end, check):
    """The findings of audit ``check`` in the window ending at ``end``."""
    return [f for f in monitor.evaluate(end) if f.check == check]


def router(node=0, busy=True):
    return SimpleNamespace(node=node, busy=busy)


def nic(node=0, backlog=1):
    return SimpleNamespace(node=node, backlog=backlog)


class TestFindingAndReport:
    def test_finding_round_trips(self):
        finding = HealthFinding(
            check="progress", severity="warn", cycle=200, message="m", node=3
        )
        assert json.loads(json.dumps(finding.to_dict())) == {
            "check": "progress", "severity": "warn", "cycle": 200,
            "message": "m", "node": 3,
        }
        global_finding = HealthFinding("x", "critical", 1, "m")
        assert json.loads(json.dumps(global_finding.to_dict()))["node"] is None

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
        assert json.loads(json.dumps(report.to_dict())) == {
            "status": "critical",
            "first_violation_cycle": 100,
            "interval": 50,
            "windows": 6,
            "checks": {"progress": {"status": "critical", "violations": 2}},
            "findings": [
                {"check": "progress", "severity": "critical", "cycle": 100,
                 "message": "livelock", "node": None},
            ],
            "truncated": 1,
        }
        assert report.status != "ok"
        assert HealthReport().status == "ok"


class TestConservationCheck:
    def _monitor(self, backlog=0, generated=0, injected=0):
        network = _FakeNetwork(nics=[nic(backlog=backlog)])
        monitor = monitor_on(network)
        hub = network.trace_hub
        for uid in range(generated):
            hub.emit("generated", 0, 0, uid)
        for uid in range(injected):
            hub.emit("injected", 0, 0, uid)
        network.stats.packets_injected = injected
        return network, monitor

    def test_consistent_state_is_clean(self):
        _, monitor = self._monitor(backlog=2, generated=5, injected=3)
        assert found(monitor, 100, "flit_conservation") == []

    def test_queue_identity_violation_is_critical(self):
        _, monitor = self._monitor(backlog=0, generated=5, injected=3)
        findings = found(monitor, 100, "flit_conservation")
        assert [f.severity for f in findings] == ["critical"]
        assert "conservation broken" in findings[0].message

    def test_ledger_drift_is_critical(self):
        network, monitor = self._monitor()
        network.stats.retransmissions = 4
        findings = found(monitor, 100, "flit_conservation")
        assert [f.message for f in findings] == [
            "ledger drift: stats.retransmissions=4 but 0 'retransmitted' "
            "events were emitted"
        ]

    def test_lost_packets_reconciled_against_events(self):
        network, monitor = self._monitor()
        network.stats.packets_lost = 2
        findings = found(monitor, 100, "flit_conservation")
        assert [f.message for f in findings] == [
            "ledger drift: stats.packets_lost=2 but fault_dropped events "
            "account for 0"
        ]
        network.trace_hub.emit("fault_dropped", 150, 0, 9, extra={"lost": 2})
        assert found(monitor, 200, "flit_conservation") == []


class TestCreditLeakCheck:
    def test_applies_only_to_credit_based_backends(self):
        from repro.fabric.registry import make_network

        assert list(monitor_on(ElectricalNetwork(ELECTRICAL)).report.checks) == [
            "credit_leak", "flit_conservation", "progress",
        ]
        optical = make_network(OPTICAL)
        assert getattr(optical, "credit_audit", None) is None
        assert "credit_leak" not in monitor_on(optical).report.checks

    def test_quiet_network_is_clean(self):
        network = ElectricalNetwork(ELECTRICAL)
        assert network.credit_audit(MAX_CREDIT_FINDINGS) == []

    def test_corrupted_credit_is_caught(self):
        network = ElectricalNetwork(ELECTRICAL)
        network.routers[5].free_vcs[EAST] &= ~1  # leak VC 0's credit
        findings = found(monitor_on(network), 100, "credit_leak")
        assert [(f.severity, f.node, f.cycle) for f in findings] == [
            ("critical", 5, 100)
        ]
        assert findings[0].message == (
            "credit leaked on port EAST vc 0: withheld with no reservation, "
            "in-flight flit, occupied VC or pending return"
        )

    @pytest.mark.parametrize(
        "mechanism", ["reservation", "arrival", "credit_return", "link_retry"]
    )
    def test_each_pending_mechanism_explains_a_withheld_credit(self, mechanism):
        # Node 5's EAST credit for VC 0 is withheld; exactly one mechanism
        # that legitimately holds a credit accounts for it.
        network = ElectricalNetwork(ELECTRICAL)
        sender = network.routers[5]
        sender.free_vcs[EAST] &= ~1
        flit = Flit(0, {7}, 0)
        if mechanism == "reservation":
            line = int(Direction.LOCAL) * sender.num_vcs + 2  # an injected flit
            sender.flits[line] = flit
            sender.out_vc[EAST][line] = 0
        elif mechanism == "arrival":
            network._arrivals[12].append((6, EAST, 0, flit))
        elif mechanism == "credit_return":
            network._credits[12].append((6, EAST, 0))
        else:
            network._link_retries[12].append((5, 6, EAST, 0, flit, 1))
        assert network.credit_audit(MAX_CREDIT_FINDINGS) == []

    def test_double_credit_is_caught(self):
        network = ElectricalNetwork(ELECTRICAL)
        # Node 6's EAST input VC holds a flit, so upstream node 5's EAST
        # credit for that VC must be withheld — but it is still available.
        downstream = network.routers[6]
        downstream.flits[EAST * downstream.num_vcs + 0] = Flit(0, {7}, 0)
        assert network.credit_audit(MAX_CREDIT_FINDINGS) == [
            (5, "double credit on port EAST vc 0: available while the "
                "downstream VC is occupied")
        ]

    def test_findings_capped_per_window(self):
        network = ElectricalNetwork(ELECTRICAL)
        for each in network.routers:
            for port in (EAST, WEST):
                each.free_vcs[port] = 0
        assert len(network.credit_audit(MAX_CREDIT_FINDINGS)) == MAX_CREDIT_FINDINGS == 8
        assert len(network.credit_audit(3)) == 3
        monitor = monitor_on(network)
        for end in (10, 20):
            monitor.evaluate(end)
        assert monitor.report.checks["credit_leak"] == {
            "status": "critical", "violations": 2 * MAX_CREDIT_FINDINGS,
        }


class TestProgressCheck:
    def _global(self, monitor, end):
        return [
            (f.severity, "livelock" in f.message)
            for f in found(monitor, end, "progress")
            if f.node is None
        ]

    def test_stalled_run_warns_then_escalates(self):
        monitor = monitor_on(
            _FakeNetwork([router()], [nic()]), stall_windows=4
        )
        severities = [self._global(monitor, 100 * window) for window in range(10)]
        # Window 0 establishes the baseline; flat counts start at window 1.
        # Warn at 2 flat windows (stall_windows // 2), critical at 4 flat
        # windows, and again every 4 windows while the livelock persists.
        assert severities == [
            [], [], [("warn", False)], [], [("critical", True)],
            [], [], [], [("critical", True)], [],
        ]

    def test_progress_resets_the_streak(self):
        network = _FakeNetwork([router()], [nic()])
        monitor = monitor_on(network, stall_windows=2)
        for delivered in [0, 0, 1, 1, 2]:
            network.stats.packets_delivered = delivered
            # Delivery in windows 2 and 4 keeps the flat streak below the
            # critical threshold throughout.
            assert ("critical", True) not in self._global(monitor, 100)

    def test_activity_resets_the_router_and_nic_streaks(self):
        network = _FakeNetwork([router(4)], [nic(4)])
        monitor = monitor_on(network, stall_windows=3)
        flagged = []
        for window in range(6):
            if window == 2:  # one injection in the third window
                network.trace_hub.emit("injected", 100 * window, 4, 1)
            flagged += [
                (f.cycle, f.message.split()[0])
                for f in found(monitor, 100 * window + 99, "progress")
                if f.node is not None
            ]
        assert flagged == [(599, "router"), (599, "NIC")]

    def test_idle_network_never_flags(self):
        monitor = monitor_on(
            _FakeNetwork([router(busy=False)], [nic(backlog=0)]), stall_windows=2
        )
        for window in range(8):
            assert monitor.evaluate(100 * window) == []
        assert monitor.report.status == "ok"

    def test_starved_nic_warns(self):
        network = _FakeNetwork(nics=[nic(node=9, backlog=5)])
        monitor = monitor_on(network, stall_windows=3)
        # Deliveries happen (no global livelock), but node 9 never injects.
        findings = []
        for window in range(4):
            network.stats.packets_delivered = window
            findings += found(monitor, 100 * window, "progress")
        assert [(f.node, f.cycle) for f in findings] == [(9, 200)]
        assert "starved" in findings[0].message

    def test_rejects_bad_stall_windows(self):
        with pytest.raises(ValueError, match="stall_windows"):
            monitor_on(_FakeNetwork(), stall_windows=0)


class TestHealthMonitor:
    def test_evaluates_at_window_boundaries_only(self):
        from repro.obs.session import ObsSession
        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine()
        session = ObsSession(
            ObsConfig(health=True, health_interval=100), _FakeNetwork(), engine
        )
        engine.run(250)
        _, report = session.finish()
        assert report.windows == 3  # 100, 200, and the trailing partial window
        assert report.status == "ok"

        network = _FakeNetwork()
        network.stats.packets_lost = 1  # one conservation finding per window
        monitor = monitor_on(network, 100)
        for end in (100, 200, 250):
            monitor.evaluate(end)
        report = monitor.report
        assert report.windows == 3
        assert report.status == "critical"
        assert report.first_violation_cycle == 100
        assert report.checks == {
            "flit_conservation": {"status": "critical", "violations": 3},
            "progress": {"status": "ok", "violations": 0},
        }

    def test_findings_capped_and_truncation_counted(self):
        routers = [router(node) for node in range(250)]
        monitor = monitor_on(_FakeNetwork(routers), stall_windows=1)
        findings = monitor.evaluate(10)  # every busy router is silent
        assert len(findings) == 250
        report = monitor.report
        assert len(report.findings) == MAX_FINDINGS == 200
        assert report.truncated == 50
        assert [f.node for f in report.findings] == list(range(200))
        assert report.checks["progress"] == {"status": "warn", "violations": 250}

    def test_emits_health_events_and_notifies_listeners(self):
        network = _FakeNetwork()
        network.stats.packets_lost = 1
        tracer = CollectingTracer()
        network.trace_hub.add(tracer)
        tally = EventTally()
        network.add_tracer(tally)
        monitor = HealthMonitor(network, tally, 10, 5)
        heard = monitor.evaluate(10)
        events = [e for e in tracer.events if e.kind == "health_critical"]
        assert len(events) == 1
        assert events[0].node == -1 and events[0].uid == -1
        assert events[0].extra == {
            "check": "flit_conservation",
            "message": "ledger drift: stats.packets_lost=1 but fault_dropped "
            "events account for 0",
        }
        assert heard == monitor.report.findings
        # The monitor's own events are not simulator activity.
        assert not tally.by_kind and not tally.activity

    def test_inapplicable_checks_are_filtered(self):
        # No credit state on the fake: the credit audit does not run.
        monitor = monitor_on(_FakeNetwork())
        assert list(monitor.report.checks) == ["flit_conservation", "progress"]

    def test_each_monitor_builds_fresh_checks_with_its_stall_windows(self):
        # Streaks are per monitor: a second monitor on the same wedged
        # network starts counting from zero.
        network = _FakeNetwork([router(3)])

        def stalled(monitor, end):
            return [f.node for f in found(monitor, end, "progress") if f.node is not None]

        first = monitor_on(network, stall_windows=3)
        assert [stalled(first, end) for end in (10, 20)] == [[], []]
        second = monitor_on(network, stall_windows=3)
        assert second.stall_windows == 3
        assert stalled(first, 30) == [3]
        assert [stalled(second, end) for end in (30, 40, 50)] == [[], [], [3]]

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            monitor_on(_FakeNetwork(), 0)


class TestHealthyRuns:
    @pytest.mark.parametrize("config", [OPTICAL, ELECTRICAL])
    def test_clean_run_reports_ok(self, config):
        result = run(spec(config, obs=ObsConfig(health=True)))
        report = result.health
        assert report is not None and report.status == "ok"
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
        assert json.loads(json.dumps(payload))["health"] == result.health.to_dict()
        # A stored result is the cache's, and observed runs bypass it.
        assert result_from_dict(payload) == result

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
