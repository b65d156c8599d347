"""Causal trace analytics: span reconstruction and latency blame.

This module answers the question the raw event stream only implies:
**where did a slow packet's cycles go?**  :func:`reconstruct_spans` walks
the fixed :data:`~repro.obs.events.EVENT_KINDS` vocabulary
(``generated -> injected -> hop/blocked/buffered -> dropped/retransmitted
-> delivered``) and rebuilds one :class:`PacketSpan` per packet,
partitioning its end-to-end latency into four named wait components:

``source_queue``
    ``generated -> injected``: cycles spent in the NIC before the packet
    entered the network, charged to the origin node.
``router_contention``
    Cycles parked in a router's buffers waiting to win arbitration (or,
    at the destination, to be ejected), charged per router.
``link_transit``
    Cycles physically crossing links, charged per directed link.  The
    per-hop transit cost comes from the trace header (``link_delay``):
    Phastlane's same-cycle optical waves transit in 0 cycles, the
    electrical baseline in ``router_delay_cycles`` per hop, and the
    analytic ideal backend's whole flight is transit.
``retransmit_backoff``
    Cycles lost to the drop/retry machinery — the drop-signal round
    trip (charged to the *dropping* router) plus the exponential-backoff
    requeue wait (charged to the retransmitting router).

The walk attributes every inter-event gap to exactly one bucket, so for
every delivered packet the components **sum exactly** to its delivered
latency — an invariant the property suite asserts on both cycle-accurate
simulators.  :func:`analyze_events` aggregates spans into a
:class:`BlameReport` (per-router / per-link / per-cause attribution,
top-K slowest-packet anatomies, tail percentiles);
:func:`analyze_trace_file` does the same post-hoc from a JSONL trace
(validating the ``repro-trace/v1`` schema header when present);
:func:`diff_reports` compares two reports keyed by their RunSpec digests.

Packets are identified by *first-appearance index* in the event stream,
not raw uid — reference uid counters are process-global, so this is what
makes blame reports from reference and vectorized ``mode="exact"``
traces of the same spec byte-identical (their event streams are pinned
identical modulo uid by the differential suite).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.events import EVENT_KINDS, PacketEvent
from repro.obs.tracers import COMMON_RECORD, TRACE_SCHEMA
from repro.sim.stats import nearest_rank

#: The wait components every delivered latency decomposes into.
COMPONENTS = (
    "source_queue",
    "router_contention",
    "link_transit",
    "retransmit_backoff",
)

#: Tail percentiles reported by :class:`BlameReport`, as (name, p) pairs.
TAIL_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9))


@dataclass
class PacketSpan:
    """One packet's reconstructed lifecycle and latency decomposition.

    ``packet`` is the first-appearance index of the packet's uid in the
    event stream (stable across backends and process-global uid offsets);
    ``timeline`` is the cycle-ordered event list ``(cycle, kind, node)``.
    """

    packet: int
    origin: int
    generated_cycle: int
    destination: int | None = None
    delivered_cycle: int | None = None
    multicast: bool = False
    lost: bool = False
    deliveries: int = 0
    hops: int = 0
    blocked: int = 0
    drops: int = 0
    retransmits: int = 0
    faults: int = 0
    source_queue: int = 0
    #: node -> cycles parked waiting for arbitration/ejection there.
    contention: Counter = field(default_factory=Counter)
    #: (from, to) -> cycles in flight on that directed link.
    transit: Counter = field(default_factory=Counter)
    #: node -> cycles lost to drop signalling and retry backoff there.
    backoff: Counter = field(default_factory=Counter)
    timeline: list = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return self.delivered_cycle is not None

    @property
    def latency(self) -> int:
        """End-to-end delivered latency (cycles); final tap for multicast."""
        if self.delivered_cycle is None:
            raise ValueError(f"packet {self.packet} was never delivered")
        return self.delivered_cycle - self.generated_cycle

    def components(self) -> dict[str, int]:
        """The four-way wait decomposition; sums to :attr:`latency`."""
        return {
            "source_queue": self.source_queue,
            "router_contention": sum(self.contention.values()),
            "link_transit": sum(self.transit.values()),
            "retransmit_backoff": sum(self.backoff.values()),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly anatomy: identity, decomposition, full timeline."""
        return {
            "packet": self.packet,
            "origin": self.origin,
            "destination": self.destination,
            "generated_cycle": self.generated_cycle,
            "delivered_cycle": self.delivered_cycle,
            "latency": self.latency if self.delivered else None,
            "multicast": self.multicast,
            "lost": self.lost,
            "hops": self.hops,
            "blocked": self.blocked,
            "drops": self.drops,
            "retransmits": self.retransmits,
            "components": self.components(),
            "contention": {str(n): c for n, c in sorted(self.contention.items())},
            "transit": {
                f"{a}->{b}": c for (a, b), c in sorted(self.transit.items())
            },
            "backoff": {str(n): c for n, c in sorted(self.backoff.items())},
            "timeline": [list(entry) for entry in self.timeline],
        }


class _SpanWalker:
    """The per-packet state machine attributing inter-event gaps.

    Every *anchor-advancing* event (injected, hop, buffered, dropped,
    retransmitted, fault_masked, delivered) attributes exactly the gap
    since the previous anchor to one bucket and moves the anchor; marker
    events (blocked, fault_injected) attribute nothing.  The buckets
    therefore partition ``[generated, last event]`` with no gap counted
    twice — the exact-sum invariant is true by construction.
    """

    __slots__ = ("span", "link_delay", "mode", "node", "anchor", "backoff_node")

    def __init__(self, span: PacketSpan, link_delay: int) -> None:
        self.span = span
        self.link_delay = link_delay
        self.mode = "source"  # source | queued | flying | backoff
        self.node = span.origin
        self.anchor = span.generated_cycle
        self.backoff_node = span.origin

    def feed(self, event: PacketEvent) -> None:
        span = self.span
        kind = event.kind
        span.timeline.append((event.cycle, kind, event.node))
        gap = event.cycle - self.anchor
        if kind == "blocked":
            span.blocked += 1  # marker: the time still accrues to the
            return  # bucket of the state the packet is waiting in
        if kind == "fault_injected":
            span.faults += 1
            return
        if kind == "injected":
            if self.mode == "source":
                span.source_queue += gap
            else:  # pragma: no cover - defensive
                self._charge(gap)
            self._advance(event, "queued")
        elif kind == "hop":
            self._arrive(event, gap)
            span.hops += 1
            self._advance(event, "flying")
        elif kind == "buffered":
            self._arrive(event, gap)
            self._advance(event, "queued")
        elif kind == "dropped":
            self._arrive(event, gap)
            span.drops += 1
            self._advance(event, "backoff")
            self.backoff_node = event.node
        elif kind == "retransmitted":
            span.retransmits += 1
            # The drop-signal round trip is blamed on the router that
            # dropped; a link-level retry (no dropped event) on the
            # retransmitting router itself.
            blame = self.backoff_node if self.mode == "backoff" else event.node
            span.backoff[blame] += gap
            self._advance(event, "backoff")
            self.backoff_node = event.node
        elif kind == "fault_masked":
            self._charge(gap)
            self._advance(event, "queued")
        elif kind == "fault_dropped":
            self._charge(gap)
            span.lost = True
            self._advance(event, "backoff")
        elif kind == "delivered":
            if event.node != self.node and self.mode in ("queued", "flying"):
                # Analytic flight (ideal backend): no per-hop events, the
                # whole gap is transit on the origin->destination "link".
                span.transit[(self.node, event.node)] += gap
            else:
                self._charge(gap)
            span.deliveries += 1
            span.delivered_cycle = event.cycle
            span.destination = event.node
            self._advance(event, "flying" if self.mode == "source" else self.mode)

    def _arrive(self, event: PacketEvent, gap: int) -> None:
        """Movement into ``event.node``: split the gap into link transit
        (up to ``link_delay`` when the node changed) plus waiting time."""
        if event.node != self.node:
            transit = min(self.link_delay, gap)
            if transit:
                self.span.transit[(self.node, event.node)] += transit
            gap -= transit
        self._charge(gap)

    def _charge(self, gap: int) -> None:
        """Waiting time to the current mode's bucket at the current node."""
        if not gap:
            return
        if self.mode == "backoff":
            self.span.backoff[self.backoff_node] += gap
        elif self.mode == "source":
            self.span.source_queue += gap
        else:
            self.span.contention[self.node] += gap

    def _advance(self, event: PacketEvent, mode: str) -> None:
        self.mode = mode
        self.node = event.node
        self.anchor = event.cycle


def reconstruct_spans(
    events: Iterable[PacketEvent], link_delay: int = 0
) -> list[PacketSpan]:
    """Rebuild per-packet spans from a lifecycle event stream.

    Events may arrive in any order within a packet (the electrical
    backend stamps ``hop`` with the *arrival* cycle but emits it at
    schedule time); each packet's events are stable-sorted by cycle
    before walking.  Monitor events (``uid < 0``, ``health_*``) are
    skipped.  Spans are returned in first-appearance order, renumbered
    from zero.  A negative ``link_delay`` is refused with ``ValueError``.
    """
    if link_delay < 0:
        raise ValueError(f"link_delay must be >= 0, got {link_delay}")
    per_uid: dict[int, list[tuple[int, int, PacketEvent]]] = {}
    for index, event in enumerate(events):
        if event.uid < 0 or event.kind.startswith("health_"):
            continue
        per_uid.setdefault(event.uid, []).append((event.cycle, index, event))
    spans: list[PacketSpan] = []
    for packet, stream in enumerate(per_uid.values()):
        stream.sort(key=lambda entry: (entry[0], entry[1]))
        first = stream[0][2]
        extra: Mapping[str, Any] = first.extra or {}
        span = PacketSpan(
            packet=packet,
            origin=first.node,
            generated_cycle=first.cycle,
            destination=extra.get("dst"),
            multicast=bool(extra.get("multicast", False)),
        )
        walker = _SpanWalker(span, link_delay)
        for _, _, event in stream:
            if event.kind == "generated":
                span.timeline.append((event.cycle, event.kind, event.node))
                continue
            walker.feed(event)
        spans.append(span)
    return spans


@dataclass
class BlameReport:
    """Aggregated cycle attribution over one traced run.

    ``meta`` carries run identity from the trace header (spec digest,
    label, workload) and is deliberately **excluded** from
    :meth:`to_dict`: the payload holds only event-derived data, which is
    what makes reference and vectorized exact-mode reports of the same
    spec byte-identical.
    """

    packets: int
    delivered: int
    lost: int
    in_flight: int
    total_latency: int
    components: dict[str, int]
    routers: dict[int, dict[str, int]]
    links: dict[tuple[int, int], dict[str, int]]
    causes: dict[str, int]
    tail: dict[str, Any]
    anatomies: list[dict[str, Any]]
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro-blame/v1",
            "packets": self.packets,
            "delivered": self.delivered,
            "lost": self.lost,
            "in_flight": self.in_flight,
            "total_latency": self.total_latency,
            "components": dict(self.components),
            "routers": {
                str(node): dict(entry) for node, entry in self.routers.items()
            },
            "links": {
                f"{a}->{b}": dict(entry)
                for (a, b), entry in self.links.items()
            },
            "causes": dict(self.causes),
            "tail": dict(self.tail),
            "anatomies": [dict(entry) for entry in self.anatomies],
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (the byte-identity surface)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def top_routers(self, top: int = 5) -> list[tuple[int, dict[str, int]]]:
        """Routers by total blamed cycles, descending (ties by node id)."""
        return sorted(
            self.routers.items(), key=lambda item: (-item[1]["total"], item[0])
        )[:top]

    def top_links(self, top: int = 5) -> list[tuple[tuple[int, int], dict[str, int]]]:
        """Links by transit cycles then traversals, descending."""
        return sorted(
            self.links.items(),
            key=lambda item: (-item[1]["transit"], -item[1]["traversals"], item[0]),
        )[:top]


def analyze_spans(
    spans: list[PacketSpan], top: int = 5, meta: dict[str, Any] | None = None
) -> BlameReport:
    """Aggregate reconstructed spans into a :class:`BlameReport`.

    ``top`` anatomies are kept; a negative ``top`` is refused with
    ``ValueError``.
    """
    if top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    delivered = [span for span in spans if span.delivered]
    lost = sum(1 for span in spans if span.lost)
    components = {name: 0 for name in COMPONENTS}
    routers: dict[int, dict[str, int]] = {}
    links: dict[tuple[int, int], dict[str, int]] = {}

    def router(node: int) -> dict[str, int]:
        return routers.setdefault(
            node, {"contention": 0, "backoff": 0, "source_queue": 0, "total": 0}
        )

    def link(key: tuple[int, int]) -> dict[str, int]:
        return links.setdefault(key, {"transit": 0, "traversals": 0})

    counts: Counter = Counter()
    for span in spans:
        counts["drops"] += span.drops
        counts["retransmits"] += span.retransmits
        counts["blocked"] += span.blocked
        counts["faults"] += span.faults
        # Traversal counts come from the hop timeline so they cover
        # every packet, including ones that died en route.
        previous: int | None = None
        for _, kind, node in span.timeline:
            if kind == "hop" and previous is not None and previous != node:
                link((previous, node))["traversals"] += 1
            if kind in ("generated", "injected", "hop", "buffered", "delivered"):
                previous = node
    # Cycle blame is taken over *delivered* packets only, so the report
    # decomposes exactly the latency the run's stats measured.
    for span in delivered:
        for name, cycles in span.components().items():
            components[name] += cycles
        router(span.origin)["source_queue"] += span.source_queue
        for node, cycles in span.contention.items():
            router(node)["contention"] += cycles
        for node, cycles in span.backoff.items():
            router(node)["backoff"] += cycles
        for key, cycles in span.transit.items():
            link(key)["transit"] += cycles
    for entry in routers.values():
        entry["total"] = (
            entry["contention"] + entry["backoff"] + entry["source_queue"]
        )
    latencies = [span.latency for span in delivered]
    pairs = sorted(Counter(latencies).items())
    tail: dict[str, Any] = {
        name: nearest_rank(pairs, len(latencies), p) if latencies else None
        for name, p in TAIL_PERCENTILES
    }
    threshold = tail["p99"]
    tail_spans = (
        [span for span in delivered if span.latency >= threshold]
        if threshold is not None
        else []
    )
    tail["tail_packets"] = len(tail_spans)
    tail_components = {name: 0 for name in COMPONENTS}
    for span in tail_spans:
        for name, cycles in span.components().items():
            tail_components[name] += cycles
    tail["tail_components"] = tail_components
    slowest = sorted(
        delivered, key=lambda span: (-span.latency, span.packet)
    )[:top]
    causes = dict(components)
    for key in ("drops", "retransmits", "blocked", "faults"):
        causes[key] = counts[key]
    return BlameReport(
        packets=len(spans),
        delivered=len(delivered),
        lost=lost,
        in_flight=len(spans) - len(delivered) - lost,
        total_latency=sum(latencies),
        components=components,
        routers=routers,
        links=links,
        causes=causes,
        tail=tail,
        anatomies=[span.to_dict() for span in slowest],
        meta=dict(meta or {}),
    )


def analyze_events(
    events: Iterable[PacketEvent],
    link_delay: int = 0,
    top: int = 5,
    meta: dict[str, Any] | None = None,
) -> BlameReport:
    """In-memory analysis: events (e.g. from a
    :class:`~repro.obs.tracers.CollectingTracer`) straight to blame."""
    return analyze_spans(
        reconstruct_spans(events, link_delay=link_delay), top=top, meta=meta
    )


def _event_from_payload(payload: dict[str, Any]) -> PacketEvent:
    """One JSONL trace line back into a :class:`PacketEvent` (the file
    exporter flattens ``extra`` into the payload, so the residue is it).
    """
    extra = {
        key: value
        for key, value in payload.items()
        if key not in ("kind", "cycle", "node", "uid")
    }
    return PacketEvent(
        kind=str(payload["kind"]),
        cycle=int(payload["cycle"]),
        node=int(payload["node"]),
        uid=int(payload["uid"]),
        extra=extra or None,
    )


def read_trace_file(
    path: str | Path,
) -> tuple[list[PacketEvent], dict[str, Any]]:
    """Parse a JSONL trace into (events, header metadata).

    Traces written since the ``repro-trace/v1`` header lead with a schema
    record carrying run identity and ``link_delay``; older header-less
    traces parse fine with empty metadata.  An unrecognised schema tag, a
    line that is not a JSON object and an event record lacking a field are
    errors — the analyzer's input validation — raised as ``ValueError``
    naming ``path:line``.
    """
    path = Path(path)
    events: list[PacketEvent] = []
    meta: dict[str, Any] = {}
    common = COMMON_RECORD.fullmatch
    for number, line in enumerate(path.read_text().splitlines()):
        record = common(line)
        if record is not None:  # the writer's common record, as json reads it
            cycle, kind, node, uid = record.groups()
            events.append(PacketEvent(kind, int(cycle), int(node), int(uid)))
            continue
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number + 1}: not JSONL: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(
                f"{path}:{number + 1}: record is not a JSON object: {line.strip()}"
            )
        if "schema" in payload:
            if payload["schema"] != TRACE_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported trace schema {payload['schema']!r}; "
                    f"this analyzer reads {TRACE_SCHEMA!r}"
                )
            meta = {k: v for k, v in payload.items() if k not in ("schema", "kinds")}
            continue
        if payload.get("kind") not in EVENT_KINDS:
            raise ValueError(
                f"{path}:{number + 1}: unknown event kind "
                f"{payload.get('kind')!r}; is this a JSONL packet trace?"
            )
        try:
            events.append(_event_from_payload(payload))
        except KeyError as exc:
            raise ValueError(
                f"{path}:{number + 1}: {payload['kind']} event lacks field {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}:{number + 1}: malformed {payload['kind']} event: {exc}"
            ) from exc
    return events, meta


def analyze_trace_file(
    path: str | Path, top: int = 5, link_delay: int | None = None
) -> BlameReport:
    """Post-hoc analysis of a JSONL trace file.

    ``link_delay`` defaults to the trace header's value (0 for
    header-less traces); pass it explicitly to override.
    """
    events, meta = read_trace_file(path)
    if link_delay is None:
        link_delay = int(meta.get("link_delay", 0))
    return analyze_events(events, link_delay=link_delay, top=top, meta=meta)


# -- cross-run diffing --------------------------------------------------------


def diff_reports(a: BlameReport, b: BlameReport) -> dict[str, Any]:
    """Blame deltas between two runs, keyed by their RunSpec digests.

    Positive deltas mean run B spent *more* cycles (got worse) than run
    A.  Router deltas compare total blamed cycles per node across the
    union of blamed routers.
    """

    def identity(report: BlameReport) -> dict[str, Any]:
        return {
            "spec": report.meta.get("spec"),
            "label": report.meta.get("label"),
            "workload": report.meta.get("workload"),
        }

    def delta(x: int | None, y: int | None) -> dict[str, Any]:
        entry: dict[str, Any] = {"a": x, "b": y}
        entry["delta"] = (y - x) if (x is not None and y is not None) else None
        return entry

    routers = {}
    for node in sorted(set(a.routers) | set(b.routers)):
        routers[str(node)] = delta(
            a.routers.get(node, {}).get("total", 0),
            b.routers.get(node, {}).get("total", 0),
        )
    return {
        "schema": "repro-blame-diff/v1",
        "a": identity(a),
        "b": identity(b),
        "packets": delta(a.packets, b.packets),
        "delivered": delta(a.delivered, b.delivered),
        "lost": delta(a.lost, b.lost),
        "total_latency": delta(a.total_latency, b.total_latency),
        "components": {
            name: delta(a.components.get(name, 0), b.components.get(name, 0))
            for name in COMPONENTS
        },
        "tail": {
            name: delta(a.tail.get(name), b.tail.get(name))
            for name, _ in TAIL_PERCENTILES
        },
        "routers": routers,
    }


# -- renderers ----------------------------------------------------------------


def _md_table(headers: list[str], rows: list[list[Any]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _share(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def render_markdown(
    report: BlameReport, blame: str = "routers", top: int = 5
) -> str:
    """Human-readable blame report: summary, component split, the chosen
    blame table (``routers``/``links``/``causes``), tail, anatomies."""
    meta = report.meta
    title = "Latency blame report"
    if meta.get("label"):
        title += f": {meta['label']}"
        if meta.get("workload"):
            title += f" on {meta['workload']}"
    out = [f"# {title}", ""]
    if meta.get("spec"):
        out += [f"RunSpec digest: `{meta['spec']}`", ""]
    out += [
        f"{report.packets} packets traced: {report.delivered} delivered, "
        f"{report.lost} lost, {report.in_flight} in flight at run end.",
        "",
        "## Where the delivered cycles went",
        "",
        _md_table(
            ["component", "cycles", "share"],
            [
                [name, cycles, _share(cycles, report.total_latency)]
                for name, cycles in report.components.items()
            ],
        ),
        "",
    ]
    if blame == "routers":
        out += [
            "## Top blamed routers",
            "",
            _md_table(
                ["router", "contention", "backoff", "source queue", "total"],
                [
                    [
                        node,
                        entry["contention"],
                        entry["backoff"],
                        entry["source_queue"],
                        entry["total"],
                    ]
                    for node, entry in report.top_routers(top)
                ],
            ),
            "",
        ]
    elif blame == "links":
        out += [
            "## Top blamed links",
            "",
            _md_table(
                ["link", "transit cycles", "traversals"],
                [
                    [f"{a}->{b}", entry["transit"], entry["traversals"]]
                    for (a, b), entry in report.top_links(top)
                ],
            ),
            "",
        ]
    else:
        out += [
            "## Blame by cause",
            "",
            _md_table(
                ["cause", "value"],
                [[name, value] for name, value in report.causes.items()],
            ),
            "",
        ]
    tail_rows = [
        [name, report.tail.get(name) if report.tail.get(name) is not None else "-"]
        for name, _ in TAIL_PERCENTILES
    ]
    out += [
        "## Tail latency",
        "",
        _md_table(["percentile", "latency (cycles)"], tail_rows),
        "",
    ]
    tail_components = report.tail.get("tail_components", {})
    tail_total = sum(tail_components.values())
    if tail_total:
        out += [
            f"The {report.tail['tail_packets']} packets at or beyond p99 "
            "decompose as: "
            + ", ".join(
                f"{name} {_share(cycles, tail_total)}"
                for name, cycles in tail_components.items()
            )
            + ".",
            "",
        ]
    if report.anatomies:
        out += [f"## Slowest {len(report.anatomies)} packets", ""]
        for anatomy in report.anatomies:
            parts = ", ".join(
                f"{name} {cycles}"
                for name, cycles in anatomy["components"].items()
                if cycles
            )
            out.append(
                f"- packet {anatomy['packet']}: node {anatomy['origin']} -> "
                f"{anatomy['destination']}, {anatomy['latency']} cycles "
                f"({parts or 'pure transit'}; {anatomy['hops']} hops, "
                f"{anatomy['drops']} drops, {anatomy['retransmits']} retries)"
            )
        out.append("")
    return "\n".join(out)


def render_diff_markdown(diff: dict[str, Any], top: int = 10) -> str:
    """Human-readable blame delta between two analysed runs."""

    def name(side: dict[str, Any]) -> str:
        label = side.get("label") or "run"
        digest = side.get("spec")
        return f"{label} (`{digest[:12]}`)" if digest else label

    def fmt(value: Any) -> str:
        return "-" if value is None else str(value)

    def signed(value: Any) -> str:
        if value is None:
            return "-"
        return f"+{value}" if value > 0 else str(value)

    out = [
        f"# Blame diff: {name(diff['a'])} vs {name(diff['b'])}",
        "",
        "Positive deltas mean the second run spent more cycles.",
        "",
        _md_table(
            ["metric", "A", "B", "delta"],
            [
                [key, fmt(diff[key]["a"]), fmt(diff[key]["b"]),
                 signed(diff[key]["delta"])]
                for key in ("packets", "delivered", "lost", "total_latency")
            ]
            + [
                [f"component {key}", fmt(entry["a"]), fmt(entry["b"]),
                 signed(entry["delta"])]
                for key, entry in diff["components"].items()
            ]
            + [
                [f"tail {key}", fmt(entry["a"]), fmt(entry["b"]),
                 signed(entry["delta"])]
                for key, entry in diff["tail"].items()
            ],
        ),
        "",
    ]
    movers = sorted(
        diff["routers"].items(),
        key=lambda item: (-abs(item[1]["delta"] or 0), int(item[0])),
    )
    movers = [item for item in movers if item[1]["delta"]][:top]
    if movers:
        out += [
            "## Router movers",
            "",
            _md_table(
                ["router", "A", "B", "delta"],
                [
                    [node, fmt(entry["a"]), fmt(entry["b"]),
                     signed(entry["delta"])]
                    for node, entry in movers
                ],
            ),
            "",
        ]
    return "\n".join(out)
