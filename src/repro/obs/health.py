"""Runtime health watchdogs: invariant checks evaluated while a run executes.

A :class:`HealthMonitor` is the reducer :class:`~repro.obs.session.ObsSession`
feeds at each health-window boundary: it runs its :class:`HealthCheck`
instances over live simulator state and the session's
:class:`~repro.obs.tracers.EventTally`.  The stock checks are the three
failure classes the simulators can silently wedge on:

- **flit conservation** (:class:`ConservationCheck`) — every generated
  packet is either still queued in a NIC or has been injected, and the
  stats ledger agrees event-for-event with the trace stream (injections,
  deliveries, drops, retransmissions, fault losses);
- **credit leaks** (:class:`CreditLeakCheck`, electrical backend) — every
  withheld credit is explained by a live reservation, an in-flight flit,
  an occupied downstream VC, a pending credit return or a link retry;
  an unexplained ``False`` is a leaked credit (and an available credit on
  an occupied VC is a double credit in the making);
- **progress** (:class:`ProgressCheck`) — global livelock (no
  delivery/loss progress for N consecutive windows while work is
  pending), per-router stalls (a busy router emitting no events at all)
  and injection starvation (a backlogged NIC injecting nothing).

Violations become :class:`HealthFinding` records, ``health_warn`` /
``health_critical`` trace events on the network's hub, and a
:class:`HealthReport` in the JSON report with overall severity and the
first-violation cycle.

The monitor honours the observability no-perturbation contract: it only
*reads* simulator state (the tally counts events; the checks walk router
and queue state without mutating it), so a health-enabled run produces a
bit-identical :class:`~repro.sim.stats.NetworkStats` ledger.  Checks are
white-box by design — the credit audit walks the electrical router's VC
state directly (duck-typed via :meth:`HealthCheck.applies`, so the module
imports neither simulator).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.tracers import EventTally
from repro.topology import as_topology
from repro.util.geometry import OPPOSITE, Direction

#: Severity scale, in escalation order.
SEVERITIES = ("ok", "warn", "critical")

_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}

#: The four mesh directions as port indices (the local port carries no
#: credits).  Defined locally so this module stays simulator-agnostic.
_MESH_PORTS = tuple(
    int(d) for d in (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)
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

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HealthFinding":
        node = payload.get("node")
        return cls(
            check=str(payload["check"]),
            severity=str(payload["severity"]),
            cycle=int(payload["cycle"]),
            message=str(payload["message"]),
            node=None if node is None else int(node),
        )


@dataclass
class HealthReport:
    """What the watchdogs concluded about one run.

    ``checks`` summarises each check that ran (worst severity it reached
    and how many findings it produced); ``findings`` holds the individual
    violations, capped at the monitor's ``max_findings`` (``truncated``
    counts the overflow, so a drop-storm cannot bloat the report).
    """

    status: str = "ok"
    first_violation_cycle: int | None = None
    interval: int = 0
    windows: int = 0
    checks: dict[str, dict[str, Any]] = field(default_factory=dict)
    findings: list[HealthFinding] = field(default_factory=list)
    truncated: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

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

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HealthReport":
        first = payload.get("first_violation_cycle")
        return cls(
            status=str(payload["status"]),
            first_violation_cycle=None if first is None else int(first),
            interval=int(payload.get("interval", 0)),
            windows=int(payload.get("windows", 0)),
            checks={
                str(name): {
                    "status": str(summary["status"]),
                    "violations": int(summary["violations"]),
                }
                for name, summary in payload.get("checks", {}).items()
            },
            findings=[
                HealthFinding.from_dict(finding)
                for finding in payload.get("findings", [])
            ],
            truncated=int(payload.get("truncated", 0)),
        )


@dataclass(frozen=True)
class HealthContext:
    """Read-only view handed to each check at a window boundary."""

    network: Any
    stats: Any
    end: int
    #: Cumulative event counts by kind since cycle 0.
    events: Counter
    #: Per-node activity-event deltas over this window (see
    #: :data:`~repro.obs.tracers.ACTIVITY_KINDS`).
    node_activity: Counter
    #: Per-node ``injected``-event deltas over this window.
    node_injected: Counter
    #: Cumulative packets reported lost by ``fault_dropped`` events.
    lost_events: int


class HealthCheck:
    """Base class for pluggable invariant checks.

    Checks may keep per-run state (streak counters), so every monitor
    builds fresh instances.
    """

    name = "check"

    def applies(self, network: Any) -> bool:
        """Whether this check understands ``network``'s state (duck-typed)."""
        return True

    def evaluate(self, ctx: HealthContext) -> list[HealthFinding]:
        """Run the check over one closed window; return any violations."""
        raise NotImplementedError


class ConservationCheck(HealthCheck):
    """Every packet is accounted for, and the ledger matches the events.

    Queue identity: ``generated − injected`` trace events must equal the
    packets currently sitting in NIC queues (both sides count *physical*
    packets, so it holds for multicast on every backend).  Ledger
    reconciliation: the stats counters that have a paired emit point must
    match the event stream exactly — a divergence means a code path
    recorded without emitting (or vice versa), the kind of bookkeeping rot
    this watchdog exists to catch at runtime.
    """

    name = "flit_conservation"

    def applies(self, network: Any) -> bool:
        return hasattr(network, "nics") and hasattr(network, "stats")

    def evaluate(self, ctx: HealthContext) -> list[HealthFinding]:
        findings: list[HealthFinding] = []

        def critical(message: str) -> None:
            findings.append(
                HealthFinding(
                    check=self.name,
                    severity="critical",
                    cycle=ctx.end,
                    message=message,
                )
            )

        backlog = sum(nic.backlog for nic in ctx.network.nics)
        queued = ctx.events["generated"] - ctx.events["injected"]
        if queued != backlog:
            critical(
                f"conservation broken: {queued} packets unaccounted between "
                f"generation and injection but NIC queues hold {backlog}"
            )
        stats = ctx.stats
        ledger = (
            ("injected", stats.packets_injected, "packets_injected"),
            ("delivered", stats.packets_delivered, "packets_delivered"),
            ("dropped", stats.packets_dropped, "packets_dropped"),
            ("retransmitted", stats.retransmissions, "retransmissions"),
        )
        for kind, counted, counter_name in ledger:
            if ctx.events[kind] != counted:
                critical(
                    f"ledger drift: stats.{counter_name}={counted} but "
                    f"{ctx.events[kind]} {kind!r} events were emitted"
                )
        if ctx.lost_events != stats.packets_lost:
            critical(
                f"ledger drift: stats.packets_lost={stats.packets_lost} but "
                f"fault_dropped events account for {ctx.lost_events}"
            )
        return findings


class CreditLeakCheck(HealthCheck):
    """Audit the electrical backend's credit-based flow control.

    For every mesh output port and VC, a withheld credit (bit ``vc`` of
    ``router.free_vcs[port]`` clear) must be *explained* by exactly
    the mechanisms that legitimately hold one: a local VC-allocation
    reservation, a flit in flight on the link, an occupied downstream
    input VC, a credit return still in the event queue, or a pending
    link-level retry.  An unexplained clear bit is a leaked credit — the
    port's capacity silently shrank.  The inverse (an *available* credit
    while the downstream VC is occupied) is a double credit in the making
    and is flagged too.

    The audit is duck-typed on the network's event-queue attributes, so it
    attaches to :class:`~repro.electrical.network.ElectricalNetwork` (or
    any backend with the same flow-control shape) without this module
    importing it.
    """

    name = "credit_leak"

    #: Cap findings per window so one systemic leak cannot flood the report.
    max_findings_per_window = 8

    def applies(self, network: Any) -> bool:
        return (
            hasattr(network, "_arrivals")
            and hasattr(network, "_credits")
            and hasattr(network, "_link_retries")
            and bool(getattr(network, "routers", None))
            and hasattr(network.routers[0], "free_vcs")
            and hasattr(network.routers[0], "out_vc")
        )

    def evaluate(self, ctx: HealthContext) -> list[HealthFinding]:
        network = ctx.network
        topology = getattr(network, "topology", None) or as_topology(network.mesh)
        occupied: set[tuple[int, int, int]] = set()
        explained: set[tuple[int, int, int]] = set()

        def upstream_of(node: int, port: int) -> int | None:
            return topology.neighbor(node, OPPOSITE[Direction(port)])

        for router in network.routers:
            num_vcs = router.num_vcs
            for line, flit in enumerate(router.flits):
                if flit is None:
                    continue
                port, vc = divmod(line, num_vcs)
                for output_port in _MESH_PORTS:
                    out_vc = router.out_vc[output_port][line]
                    if out_vc >= 0:
                        explained.add((router.node, output_port, out_vc))
                if port in _MESH_PORTS:
                    upstream = upstream_of(router.node, port)
                    if upstream is not None:
                        occupied.add((upstream, port, vc))
        for events in network._arrivals.values():
            for node, port, vc, _flit in events:
                upstream = upstream_of(node, port)
                if upstream is not None:
                    explained.add((upstream, port, vc))
        for events in network._credits.values():
            for node, port, vc in events:
                upstream = upstream_of(node, port)
                if upstream is not None:
                    explained.add((upstream, port, vc))
        for events in network._link_retries.values():
            for sender, _neighbor, port, vc, _flit, _attempts in events:
                explained.add((sender, port, vc))
        explained |= occupied

        findings: list[HealthFinding] = []
        for router in network.routers:
            for port in _MESH_PORTS:
                for vc in range(router.num_vcs):
                    free = router.free_vcs[port] >> vc & 1
                    key = (router.node, port, vc)
                    if not free and key not in explained:
                        findings.append(
                            HealthFinding(
                                check=self.name,
                                severity="critical",
                                cycle=ctx.end,
                                node=router.node,
                                message=(
                                    "credit leaked on port "
                                    f"{topology.port_label(router.node, port)} "
                                    f"vc {vc}: withheld with no reservation, "
                                    "in-flight flit, occupied VC or pending return"
                                ),
                            )
                        )
                    elif free and key in occupied:
                        findings.append(
                            HealthFinding(
                                check=self.name,
                                severity="critical",
                                cycle=ctx.end,
                                node=router.node,
                                message=(
                                    "double credit on port "
                                    f"{topology.port_label(router.node, port)} "
                                    f"vc {vc}: available while the downstream VC "
                                    "is occupied"
                                ),
                            )
                        )
                    if len(findings) >= self.max_findings_per_window:
                        return findings
        return findings


class ProgressCheck(HealthCheck):
    """Livelock, per-router stall and injection-starvation detection.

    Forward progress is ``delivered + lost`` (a packet abandoned at its
    retry limit is resolution, not livelock).  Global: if that sum stays
    flat for consecutive windows while work is pending (busy routers or
    backlogged NICs), the run is warned at ``stall_windows // 2`` flat
    windows and escalated to critical livelock at ``stall_windows`` (and
    every ``stall_windows`` after, so a persisting livelock keeps
    flagging).  Per-router: a busy router that emitted *no* events for
    ``stall_windows`` windows is wedged-silent.  Per-NIC: a backlogged NIC
    with zero injections for ``stall_windows`` windows is starved.
    """

    name = "progress"

    def __init__(self, stall_windows: int = 5) -> None:
        if stall_windows < 1:
            raise ValueError(f"stall_windows must be >= 1, got {stall_windows}")
        self.stall_windows = stall_windows
        self._last_progress: int | None = None
        self._flat = 0
        self._router_streaks: Counter = Counter()
        self._nic_streaks: Counter = Counter()

    def applies(self, network: Any) -> bool:
        return hasattr(network, "routers") and hasattr(network, "nics")

    def evaluate(self, ctx: HealthContext) -> list[HealthFinding]:
        findings: list[HealthFinding] = []
        stats = ctx.stats
        network = ctx.network
        pending = sum(1 for router in network.routers if router.busy) + sum(
            1 for nic in network.nics if nic.backlog
        )
        progress = stats.packets_delivered + stats.packets_lost
        if self._last_progress is not None and progress == self._last_progress and pending:
            self._flat += 1
        else:
            self._flat = 0
        self._last_progress = progress
        warn_after = max(1, self.stall_windows // 2)
        if self._flat == warn_after and warn_after < self.stall_windows:
            findings.append(
                HealthFinding(
                    check=self.name,
                    severity="warn",
                    cycle=ctx.end,
                    message=(
                        f"no forward progress for {self._flat} windows "
                        f"({pending} routers/NICs still hold work)"
                    ),
                )
            )
        if (
            self._flat >= self.stall_windows
            and (self._flat - self.stall_windows) % self.stall_windows == 0
        ):
            findings.append(
                HealthFinding(
                    check=self.name,
                    severity="critical",
                    cycle=ctx.end,
                    message=(
                        f"livelock: no forward progress for {self._flat} windows "
                        f"while {pending} routers/NICs still hold work"
                    ),
                )
            )
        for router in network.routers:
            node = router.node
            if router.busy and ctx.node_activity[node] == 0:
                self._router_streaks[node] += 1
            else:
                self._router_streaks[node] = 0
            if self._router_streaks[node] == self.stall_windows:
                findings.append(
                    HealthFinding(
                        check=self.name,
                        severity="warn",
                        cycle=ctx.end,
                        node=node,
                        message=(
                            f"router {node} stalled: busy with no events for "
                            f"{self.stall_windows} windows"
                        ),
                    )
                )
        for nic in network.nics:
            node = nic.node
            if nic.backlog and ctx.node_injected[node] == 0:
                self._nic_streaks[node] += 1
            else:
                self._nic_streaks[node] = 0
            if self._nic_streaks[node] == self.stall_windows:
                findings.append(
                    HealthFinding(
                        check=self.name,
                        severity="warn",
                        cycle=ctx.end,
                        node=node,
                        message=(
                            f"NIC {node} starved: backlogged with zero "
                            f"injections for {self.stall_windows} windows"
                        ),
                    )
                )
        return findings


class HealthMonitor:
    """Reducer that runs the health checks over each closed window.

    :class:`~repro.obs.session.ObsSession` owns the window clock and calls
    :meth:`evaluate` at each boundary, then :meth:`report` after the run.
    Works with any network exposing ``stats``, ``routers`` and ``nics``
    (all registered backends do); individual checks further gate
    themselves via :meth:`HealthCheck.applies`.  ``tally`` must be
    attached to the network's trace hub for the whole run.
    """

    def __init__(
        self,
        network: Any,
        tally: EventTally,
        interval: int,
        stall_windows: int = 5,
        checks: Iterable[HealthCheck] | None = None,
        max_findings: int = 200,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"health interval must be positive, got {interval}")
        self.network = network
        self.interval = interval
        self.max_findings = max_findings
        self._tally = tally
        candidates = (
            (CreditLeakCheck(), ConservationCheck(), ProgressCheck(stall_windows))
            if checks is None
            else checks
        )
        self.checks = [check for check in candidates if check.applies(network)]
        self.status = "ok"
        self.first_violation_cycle: int | None = None
        self.findings: list[HealthFinding] = []
        self.truncated = 0
        self.windows = 0
        self._check_status = {check.name: "ok" for check in self.checks}
        self._check_violations = {check.name: 0 for check in self.checks}
        self._last_activity: Counter = Counter()
        self._last_injected: Counter = Counter()

    def evaluate(self, end: int) -> list[HealthFinding]:
        """Run every check over the window ending at ``end``.

        Returns the window's findings after recording them and emitting
        their ``health_*`` events on the network's trace hub.
        """
        tally = self._tally
        ctx = HealthContext(
            network=self.network,
            stats=self.network.stats,
            end=end,
            events=tally.by_kind,
            node_activity=tally.activity - self._last_activity,
            node_injected=tally.injections - self._last_injected,
            lost_events=tally.lost,
        )
        self._last_activity = Counter(tally.activity)
        self._last_injected = Counter(tally.injections)
        self.windows += 1
        findings = [
            finding for check in self.checks for finding in check.evaluate(ctx)
        ]
        for finding in findings:
            self._record(finding)
        return findings

    def report(self) -> HealthReport:
        return HealthReport(
            status=self.status,
            first_violation_cycle=self.first_violation_cycle,
            interval=self.interval,
            windows=self.windows,
            checks={
                name: {
                    "status": self._check_status[name],
                    "violations": self._check_violations[name],
                }
                for name in sorted(self._check_status)
            },
            findings=list(self.findings),
            truncated=self.truncated,
        )

    def _record(self, finding: HealthFinding) -> None:
        if _SEVERITY_RANK[finding.severity] > _SEVERITY_RANK[self.status]:
            self.status = finding.severity
        if self.first_violation_cycle is None:
            self.first_violation_cycle = finding.cycle
        check_status = self._check_status.get(finding.check, "ok")
        if _SEVERITY_RANK[finding.severity] > _SEVERITY_RANK[check_status]:
            self._check_status[finding.check] = finding.severity
        self._check_violations[finding.check] = (
            self._check_violations.get(finding.check, 0) + 1
        )
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)
        else:
            self.truncated += 1
        hub = getattr(self.network, "trace_hub", None)
        if hub:
            hub.emit(
                f"health_{finding.severity}",
                finding.cycle,
                -1 if finding.node is None else finding.node,
                -1,
                extra={"check": finding.check, "message": finding.message},
            )
