"""Runtime health watchdogs: invariant audits evaluated while a run executes.

A :class:`HealthMonitor` is the reducer :class:`~repro.obs.session.ObsSession`
feeds at each health-window boundary.  It runs three fixed audits, in this
order, over live simulator state and the session's
:class:`~repro.obs.tracers.EventTally`:

- **credit leaks** (``credit_leak``, only on a network with a
  ``credit_audit`` method: the electrical backend, see
  :meth:`~repro.electrical.network.ElectricalNetwork.credit_audit`) — every
  withheld credit is explained by a live reservation, an in-flight flit,
  an occupied downstream VC, a pending credit return or a link retry; at
  most :data:`MAX_CREDIT_FINDINGS` per window;
- **flit conservation** (``flit_conservation``) — every generated packet
  is either still queued in a NIC or has been injected, and the stats
  ledger agrees event-for-event with the trace stream (injections,
  deliveries, drops, retransmissions, fault losses);
- **progress** (``progress``) — global livelock (no delivery/loss
  progress for N consecutive windows while work is pending), per-router
  stalls (a busy router emitting no events at all) and injection
  starvation (a backlogged NIC injecting nothing).

Violations become :class:`HealthFinding` records, ``health_warn`` /
``health_critical`` trace events on the network's hub, and the monitor's
one :class:`HealthReport` (overall severity, first-violation cycle, at most
:data:`MAX_FINDINGS` findings).

The monitor honours the observability no-perturbation contract: it only
*reads* simulator state (the tally counts events; the audits walk router
and queue state without mutating it), so a health-enabled run produces a
bit-identical :class:`~repro.sim.stats.NetworkStats` ledger.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracers import EventTally

#: Severity scale, in escalation order.
SEVERITIES = ("ok", "warn", "critical")

#: Findings a report keeps; the overflow is counted in ``truncated``.
MAX_FINDINGS = 200

#: Credit findings per window, so one systemic leak cannot flood the report.
MAX_CREDIT_FINDINGS = 8

#: Stats counters with a paired emit point: (event kind, counter).
_LEDGER = (
    ("injected", "packets_injected"),
    ("delivered", "packets_delivered"),
    ("dropped", "packets_dropped"),
    ("retransmitted", "retransmissions"),
)


@dataclass(frozen=True)
class HealthFinding:
    """One invariant violation caught at a window boundary.

    ``cycle`` is the end of the window that caught it; ``node`` is the
    implicated router/NIC, or ``None`` for global findings.
    """

    check: str
    severity: str
    cycle: int
    message: str
    node: int | None = None

    def __post_init__(self) -> None:
        if self.severity not in ("warn", "critical"):
            raise ValueError(
                f"finding severity must be warn or critical, got {self.severity!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "severity": self.severity,
            "cycle": self.cycle,
            "message": self.message,
            "node": self.node,
        }

@dataclass
class HealthReport:
    """What the watchdogs concluded about one run.

    ``checks`` summarises each audit that ran (worst severity it reached
    and how many findings it produced); ``findings`` holds the individual
    violations, capped at :data:`MAX_FINDINGS` (``truncated`` counts the
    overflow, so a drop-storm cannot bloat the report).
    """

    status: str = "ok"
    first_violation_cycle: int | None = None
    interval: int = 0
    windows: int = 0
    checks: dict[str, dict[str, Any]] = field(default_factory=dict)
    findings: list[HealthFinding] = field(default_factory=list)
    truncated: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "first_violation_cycle": self.first_violation_cycle,
            "interval": self.interval,
            "windows": self.windows,
            "checks": {
                name: dict(summary) for name, summary in sorted(self.checks.items())
            },
            "findings": [finding.to_dict() for finding in self.findings],
            "truncated": self.truncated,
        }

class HealthMonitor:
    """Reducer that runs the three audits over each closed window.

    :class:`~repro.obs.session.ObsSession` owns the window clock and calls
    :meth:`evaluate` at each boundary; :attr:`report` is the run's verdict
    so far.  Works with any network exposing ``stats``, ``routers`` and
    ``nics`` (all registered backends do).  ``tally`` must be attached to
    the network's trace hub for the whole run.
    """

    def __init__(
        self, network: Any, tally: EventTally, interval: int, stall_windows: int
    ) -> None:
        if interval <= 0:
            raise ValueError(f"health interval must be positive, got {interval}")
        if stall_windows < 1:
            raise ValueError(f"stall_windows must be >= 1, got {stall_windows}")
        self.network = network
        self.stall_windows = stall_windows
        self._tally = tally
        self._credit_audit = getattr(network, "credit_audit", None)
        names = ["flit_conservation", "progress"]
        if self._credit_audit is not None:
            names.insert(0, "credit_leak")
        self.report = HealthReport(
            interval=interval,
            checks={name: {"status": "ok", "violations": 0} for name in names},
        )
        self._last_progress: int | None = None
        self._flat = 0
        self._router_streaks: Counter[int] = Counter()
        self._nic_streaks: Counter[int] = Counter()
        self._last_activity: Counter[int] = Counter()
        self._last_injected: Counter[int] = Counter()

    def evaluate(self, end: int) -> list[HealthFinding]:
        """Run every audit over the window ending at ``end``.

        Returns the window's findings after recording them and emitting
        their ``health_*`` events on the network's trace hub.
        """
        findings: list[HealthFinding] = []
        if self._credit_audit is not None:
            findings += [
                HealthFinding("credit_leak", "critical", end, message, node)
                for node, message in self._credit_audit(MAX_CREDIT_FINDINGS)
            ]
        findings += self._conservation(end)
        findings += self._progress(end)
        self.report.windows += 1
        for finding in findings:
            self._record(finding)
        return findings

    def _conservation(self, end: int) -> list[HealthFinding]:
        """Queue identity and ledger reconciliation.

        ``generated − injected`` trace events must equal the packets in NIC
        queues (both sides count *physical* packets, so it holds for
        multicast on every backend), and every stats counter with a paired
        emit point must match the event stream exactly: a divergence means
        a code path recorded without emitting, or the reverse.
        """
        events, stats = self._tally.by_kind, self.network.stats
        messages: list[str] = []
        backlog = sum(nic.backlog for nic in self.network.nics)
        queued = events["generated"] - events["injected"]
        if queued != backlog:
            messages.append(
                f"conservation broken: {queued} packets unaccounted between "
                f"generation and injection but NIC queues hold {backlog}"
            )
        for kind, counter in _LEDGER:
            counted = getattr(stats, counter)
            if events[kind] != counted:
                messages.append(
                    f"ledger drift: stats.{counter}={counted} but "
                    f"{events[kind]} {kind!r} events were emitted"
                )
        if self._tally.lost != stats.packets_lost:
            messages.append(
                f"ledger drift: stats.packets_lost={stats.packets_lost} but "
                f"fault_dropped events account for {self._tally.lost}"
            )
        return [
            HealthFinding("flit_conservation", "critical", end, message)
            for message in messages
        ]

    def _progress(self, end: int) -> list[HealthFinding]:
        """Livelock, per-router stall and injection-starvation detection.

        Forward progress is ``delivered + lost`` (a packet abandoned at its
        retry limit is resolution, not livelock).  A flat streak while work
        is pending warns at ``stall_windows // 2`` windows and goes critical
        at ``stall_windows``, and again every ``stall_windows`` after.  A
        busy router with no events, or a backlogged NIC with no injections,
        for ``stall_windows`` windows warns.
        """
        network, stall = self.network, self.stall_windows
        activity, injections = self._tally.activity, self._tally.injections
        findings: list[HealthFinding] = []
        pending = sum(1 for router in network.routers if router.busy) + sum(
            1 for nic in network.nics if nic.backlog
        )
        progress = network.stats.packets_delivered + network.stats.packets_lost
        if progress == self._last_progress and pending:
            self._flat += 1
        else:
            self._flat = 0
        flat, self._last_progress = self._flat, progress
        warn_after = max(1, stall // 2)
        if flat == warn_after and warn_after < stall:
            findings.append(
                HealthFinding(
                    "progress",
                    "warn",
                    end,
                    f"no forward progress for {flat} windows "
                    f"({pending} routers/NICs still hold work)",
                )
            )
        if flat and flat % stall == 0:
            findings.append(
                HealthFinding(
                    "progress",
                    "critical",
                    end,
                    f"livelock: no forward progress for {flat} windows "
                    f"while {pending} routers/NICs still hold work",
                )
            )
        for router in network.routers:
            node = router.node
            silent = activity[node] == self._last_activity[node]
            streak = self._router_streaks[node] = (
                self._router_streaks[node] + 1 if router.busy and silent else 0
            )
            if streak == stall:
                findings.append(
                    HealthFinding(
                        "progress",
                        "warn",
                        end,
                        f"router {node} stalled: busy with no events for "
                        f"{stall} windows",
                        node,
                    )
                )
        for nic in network.nics:
            node = nic.node
            idle = injections[node] == self._last_injected[node]
            streak = self._nic_streaks[node] = (
                self._nic_streaks[node] + 1 if nic.backlog and idle else 0
            )
            if streak == stall:
                findings.append(
                    HealthFinding(
                        "progress",
                        "warn",
                        end,
                        f"NIC {node} starved: backlogged with zero "
                        f"injections for {stall} windows",
                        node,
                    )
                )
        self._last_activity, self._last_injected = activity, injections
        return findings

    def _record(self, finding: HealthFinding) -> None:
        report = self.report
        report.status = max(report.status, finding.severity, key=SEVERITIES.index)
        if report.first_violation_cycle is None:
            report.first_violation_cycle = finding.cycle
        summary = report.checks[finding.check]
        summary["status"] = max(
            summary["status"], finding.severity, key=SEVERITIES.index
        )
        summary["violations"] += 1
        if len(report.findings) < MAX_FINDINGS:
            report.findings.append(finding)
        else:
            report.truncated += 1
        hub = getattr(self.network, "trace_hub", None)
        if hub:
            hub.emit(
                f"health_{finding.severity}",
                finding.cycle,
                -1 if finding.node is None else finding.node,
                -1,
                extra={"check": finding.check, "message": finding.message},
            )
