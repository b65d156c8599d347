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
simulators.  :func:`analyze_spans` aggregates spans into a
:class:`BlameReport` (per-router / per-link / per-cause attribution,
top-K slowest-packet anatomies, tail percentiles);
:func:`analyze_trace_file` does the same post-hoc from a JSONL trace
(validating the ``repro-trace/v1`` schema header when present);
:func:`diff_reports` compares two reports keyed by their RunSpec digests.

One parser (:func:`_records`), one walker (:func:`_walk`) over flat
per-packet streams and one aggregator (:func:`analyze_spans`) serve the
file path and the in-memory one (:class:`PacketEvent` is a record tuple).

Packets are identified by *first-appearance index* in the event stream,
not raw uid — reference uid counters are process-global, so this is what
makes blame reports from reference and vectorized ``mode="exact"``
traces of the same spec byte-identical (their event streams are pinned
identical modulo uid by the differential suite).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import starmap
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs.events import EVENT_KINDS, PacketEvent
from repro.obs.tracers import COMMON_RECORD, SCALAR_EXTRA, SCALAR_RECORD, TRACE_SCHEMA
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
    #: (from, to) -> ``hop`` arrivals over that directed link, counted for
    #: every packet (the report's link traversals), not in :meth:`to_dict`.
    traversals: Counter = field(default_factory=Counter)

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


#: One trace record in :class:`PacketEvent` field order:
#: ``(kind, cycle, node, uid, extra)``.
Record = tuple[str, int, int, int, Any]
#: One packet's events in arrival order, each a :attr:`PacketSpan.timeline`
#: entry ``(cycle, kind, node)``.
Stream = list[tuple[int, str, int]]

#: The kinds that attribute the gap since the previous one and move the
#: anchor; every other kind is a marker (or unknown) and attributes nothing.
_ANCHORS = frozenset(
    ("injected", "hop", "buffered", "dropped", "retransmitted",
     "fault_masked", "fault_dropped", "delivered")
)
#: Anchors that move the packet into their node over a link.
_ARRIVALS = frozenset(("hop", "buffered", "dropped"))
_CYCLE = itemgetter(0)


def _counter() -> Counter:
    """An empty :class:`Counter` without ``Counter.__init__``, whose two
    Python calls only fill it from arguments (the walker builds four a
    packet, and they cost more than building the span itself)."""
    return Counter.__new__(Counter)


def _records(path: Path, meta: dict[str, Any]) -> Iterator[Record]:
    """The one trace parser: every event record of a JSONL trace, in file
    order; a ``repro-trace/v1`` header's run identity goes into ``meta``.

    A line that fully matches a layout of the table in
    :mod:`repro.obs.tracers` (:data:`~repro.obs.tracers.COMMON_RECORD`,
    :data:`~repro.obs.tracers.SCALAR_RECORD`) is read off the pattern; any
    other line goes through ``json`` and is validated, every refusal a
    ``ValueError`` naming ``path:line``.
    """
    common, scalar, pairs = (
        COMMON_RECORD.fullmatch, SCALAR_RECORD.fullmatch, SCALAR_EXTRA.findall
    )
    for number, line in enumerate(path.read_text().splitlines(), 1):
        record = common(line)
        if record is not None:  # the writer's common record, as json reads it
            cycle, kind, node, uid = record.groups()
            yield kind, int(cycle), int(node), int(uid), None
            continue
        record = scalar(line)
        if record is not None:  # scalar extras, in file order as json has them
            fields = record.groups()
            cycle, kind, node, uid = fields[1::2]
            extra: dict[str, Any] = {}
            for name, value in pairs("".join(fields[::2])):
                extra[name] = (
                    True if value == "true" else False if value == "false"
                    else int(value)
                )
            yield kind, int(cycle), int(node), int(uid), extra
            continue
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not JSONL: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{where}: record is not a JSON object: {line.strip()}")
        if "schema" in payload:
            if payload["schema"] != TRACE_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported trace schema {payload['schema']!r}; "
                    f"this analyzer reads {TRACE_SCHEMA!r}"
                )
            meta.clear()
            meta.update(
                (k, v) for k, v in payload.items() if k not in ("schema", "kinds")
            )
            continue
        kind = payload.pop("kind", None)
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"{where}: unknown event kind {kind!r}; "
                "is this a JSONL packet trace?"
            )
        for name in ("cycle", "node", "uid"):
            if name not in payload:
                raise ValueError(f"{where}: {kind} event lacks field {name!r}")
            value = payload[name]
            if type(value) is not int:  # not 2.9, true or "2": no truncation
                raise ValueError(
                    f"{where}: malformed {kind} event: "
                    f"{name} {json.dumps(value)} is not an integer"
                )
        cycle, node, uid = (payload.pop(name) for name in ("cycle", "node", "uid"))
        # The file exporter flattens ``extra`` into the record: the residue.
        yield kind, cycle, node, uid, payload or None


def _group(records: Iterable[Record]) -> tuple[list[Stream], dict[int, Any]]:
    """Per-packet streams in first-appearance order, and the extras of the
    entries that carry one, keyed by ``id(entry)`` (two events of one
    packet can be equal; every entry outlives the walk).  Monitor events
    (``uid < 0``, ``health_*``) are skipped."""
    streams: defaultdict[int, Stream] = defaultdict(list)
    extras: dict[int, Any] = {}
    for kind, cycle, node, uid, extra in records:
        if uid < 0 or kind.startswith("health_"):
            continue
        entry = (cycle, kind, node)
        streams[uid].append(entry)
        if extra is not None:
            extras[id(entry)] = extra
    return list(streams.values()), extras


def _walk(
    streams: list[Stream], extras: dict[int, Any], link_delay: int
) -> list[PacketSpan]:
    """The one span walker: each stream stable-sorted by cycle (so ties keep
    arrival order), then walked through the four-mode state machine
    ``source / queued / flying / backoff``.

    Every anchor (:data:`_ANCHORS`) attributes exactly the gap since the
    previous anchor to one bucket and moves the anchor; markers (blocked,
    fault_injected) attribute nothing.  The buckets therefore partition
    ``[generated, last event]`` with no gap counted twice — the exact-sum
    invariant is true by construction.
    """
    if link_delay < 0:
        raise ValueError(f"link_delay must be >= 0, got {link_delay}")
    spans: list[PacketSpan] = []
    for packet, timeline in enumerate(streams):
        timeline.sort(key=_CYCLE)
        first = timeline[0]
        generated_cycle, _, origin = first
        extra = extras.get(id(first)) or {}
        destination: int | None = extra.get("dst")
        delivered_cycle: int | None = None
        contention, transit, backoff, traversals = (
            _counter(), _counter(), _counter(), _counter()
        )
        hops = blocked = drops = retransmits = faults = deliveries = source_queue = 0
        lost, mode, anchor = False, "source", generated_cycle
        node = backoff_node = origin
        last: int | None = None  # the node of the last move, for traversals
        for cycle, kind, at in timeline:
            if kind not in _ANCHORS:
                if kind == "blocked":
                    blocked += 1  # the time still accrues to the bucket
                elif kind == "fault_injected":  # of the state it waits in
                    faults += 1
                elif kind == "generated":
                    last = at
                continue
            gap = cycle - anchor
            if kind in _ARRIVALS:
                if gap and at != node:
                    # Movement into ``at``: up to ``link_delay`` of the gap
                    # is link transit, the rest waiting at the previous node.
                    moving = link_delay if link_delay < gap else gap
                    if moving:
                        link = (node, at)
                        transit[link] = transit.get(link, 0) + moving
                        gap -= moving
            elif kind == "retransmitted":
                # The drop-signal round trip is blamed on the router that
                # dropped; a link-level retry (no dropped event) on the
                # retransmitting router itself.
                blame = backoff_node if mode == "backoff" else at
                backoff[blame] = backoff.get(blame, 0) + gap
                gap = 0
            elif kind == "delivered" and at != node and mode in ("queued", "flying"):
                # Analytic flight (ideal backend): no per-hop events, the
                # whole gap is transit on the origin->destination "link".
                link = (node, at)
                transit[link] = transit.get(link, 0) + gap
                gap = 0
            if gap:  # waiting: the current mode's bucket at the current node
                if mode == "backoff":
                    backoff[backoff_node] = backoff.get(backoff_node, 0) + gap
                elif mode == "source":
                    source_queue += gap
                else:
                    contention[node] = contention.get(node, 0) + gap
            if kind == "hop":
                hops += 1
                if last is not None and last != at:
                    link = (last, at)
                    traversals[link] = traversals.get(link, 0) + 1
                last = at
                mode = "flying"
            elif kind == "buffered" or kind == "injected":
                last = at
                mode = "queued"
            elif kind == "delivered":
                deliveries += 1
                delivered_cycle = cycle
                destination = last = at
                if mode == "source":
                    mode = "flying"
            elif kind == "dropped":
                drops += 1
                mode, backoff_node = "backoff", at
            elif kind == "retransmitted":
                retransmits += 1
                mode, backoff_node = "backoff", at
            elif kind == "fault_masked":
                mode = "queued"
            else:  # fault_dropped
                lost = True
                mode = "backoff"
            node = at
            anchor = cycle
        # Positional, in field order: nineteen keywords were a tenth of the walk.
        spans.append(PacketSpan(
            packet, origin, generated_cycle, destination, delivered_cycle,
            bool(extra.get("multicast", False)), lost, deliveries, hops, blocked,
            drops, retransmits, faults, source_queue, contention, transit,
            backoff, timeline, traversals,
        ))
    return spans


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
    return _walk(*_group(events), link_delay)


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
    """The one aggregator: reconstructed spans into a :class:`BlameReport`.

    Traversals and cause counters cover every packet, including ones that
    died en route; cycle blame is taken over *delivered* packets only, so
    the report decomposes exactly the latency the run's stats measured.
    ``top`` anatomies are kept; a negative ``top`` is refused with
    ``ValueError``.
    """
    if top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    routers: dict[int, dict[str, int]] = {}

    def router(node: int) -> dict[str, int]:
        return routers.setdefault(
            node, {"contention": 0, "backoff": 0, "source_queue": 0}
        )

    traversals: dict[tuple[int, int], int] = {}
    transit: dict[tuple[int, int], int] = {}
    drops = retransmits = blocked = faults = lost = 0
    delivered: list[tuple[int, PacketSpan]] = []
    for span in spans:
        drops += span.drops
        retransmits += span.retransmits
        blocked += span.blocked
        faults += span.faults
        lost += span.lost
        for key, count in span.traversals.items():
            traversals[key] = traversals.get(key, 0) + count
        if span.delivered_cycle is None:
            continue
        delivered.append((span.latency, span))
        router(span.origin)["source_queue"] += span.source_queue
        for node, cycles in span.contention.items():
            router(node)["contention"] += cycles
        for node, cycles in span.backoff.items():
            router(node)["backoff"] += cycles
        for key, cycles in span.transit.items():
            transit[key] = transit.get(key, 0) + cycles
    for entry in routers.values():
        entry["total"] = entry["contention"] + entry["backoff"] + entry["source_queue"]
    # The run's split is its tables' sums: every delivered span's buckets.
    components = {
        "source_queue": sum(entry["source_queue"] for entry in routers.values()),
        "router_contention": sum(entry["contention"] for entry in routers.values()),
        "link_transit": sum(transit.values()),
        "retransmit_backoff": sum(entry["backoff"] for entry in routers.values()),
    }
    latencies = [latency for latency, _ in delivered]
    pairs = sorted(Counter(latencies).items())
    tail: dict[str, Any] = {
        name: nearest_rank(pairs, len(latencies), p) if latencies else None
        for name, p in TAIL_PERCENTILES
    }
    beyond = [
        span.components() for latency, span in delivered if latency >= tail["p99"]
    ]
    tail["tail_packets"] = len(beyond)
    tail["tail_components"] = {
        name: sum(split[name] for split in beyond) for name in COMPONENTS
    }
    slowest = sorted(delivered, key=lambda entry: (-entry[0], entry[1].packet))[:top]
    return BlameReport(
        packets=len(spans),
        delivered=len(delivered),
        lost=lost,
        in_flight=len(spans) - len(delivered) - lost,
        total_latency=sum(latencies),
        components=components,
        routers=routers,
        links={
            key: {"transit": transit.get(key, 0), "traversals": traversals.get(key, 0)}
            for key in {**traversals, **transit}
        },
        causes={**components, "drops": drops, "retransmits": retransmits,
                "blocked": blocked, "faults": faults},
        tail=tail,
        anatomies=[span.to_dict() for _, span in slowest],
        meta=dict(meta or {}),
    )


def read_trace_file(
    path: str | Path,
) -> tuple[list[PacketEvent], dict[str, Any]]:
    """Parse a JSONL trace into (events, header metadata).

    Traces written since the ``repro-trace/v1`` header lead with a schema
    record carrying run identity and ``link_delay``; older header-less
    traces parse fine with empty metadata.  An unrecognised schema tag, a
    line that is not a JSON object, an event record lacking a field and a
    ``cycle``/``node``/``uid`` that is not a JSON integer are errors — the
    analyzer's input validation — raised as ``ValueError`` naming
    ``path:line``.
    """
    meta: dict[str, Any] = {}
    events = list(starmap(PacketEvent, _records(Path(path), meta)))
    return events, meta


def analyze_trace_file(
    path: str | Path, top: int = 5, link_delay: int | None = None
) -> BlameReport:
    """Post-hoc analysis of a JSONL trace file: records straight into
    per-packet streams, with no :class:`PacketEvent` built.

    ``link_delay`` defaults to the trace header's value (0 for
    header-less traces); pass it explicitly to override.
    """
    meta: dict[str, Any] = {}
    streams, extras = _group(_records(Path(path), meta))
    if link_delay is None:
        link_delay = int(meta.get("link_delay", 0))
    return analyze_spans(_walk(streams, extras, link_delay), top=top, meta=meta)


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

    routers = {
        str(node): delta(
            a.routers.get(node, {}).get("total", 0),
            b.routers.get(node, {}).get("total", 0),
        )
        for node in sorted(set(a.routers) | set(b.routers))
    }
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
    lines: list[list[Any]] = [headers, ["---"] * len(headers), *rows]
    return "\n".join("| " + " | ".join(map(str, line)) + " |" for line in lines)


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
        heading = "Top blamed routers"
        headers = ["router", "contention", "backoff", "source queue", "total"]
        rows: list[list[Any]] = [
            [node, entry["contention"], entry["backoff"], entry["source_queue"],
             entry["total"]]
            for node, entry in report.top_routers(top)
        ]
    elif blame == "links":
        heading = "Top blamed links"
        headers = ["link", "transit cycles", "traversals"]
        rows = [
            [f"{a}->{b}", entry["transit"], entry["traversals"]]
            for (a, b), entry in report.top_links(top)
        ]
    else:
        heading, headers = "Blame by cause", ["cause", "value"]
        rows = [[name, value] for name, value in report.causes.items()]
    out += [f"## {heading}", "", _md_table(headers, rows), ""]
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


def render_diff_markdown(diff: dict[str, Any], top: int) -> str:
    """Human-readable blame delta between two analysed runs, with the
    ``top`` routers whose blame moved most."""

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

    def row(label: str, entry: dict[str, Any]) -> list[str]:
        return [label, fmt(entry["a"]), fmt(entry["b"]), signed(entry["delta"])]

    totals = ("packets", "delivered", "lost", "total_latency")
    rows = (
        [row(key, diff[key]) for key in totals]
        + [row(f"component {key}", entry) for key, entry in diff["components"].items()]
        + [row(f"tail {key}", entry) for key, entry in diff["tail"].items()]
    )
    out = [
        f"# Blame diff: {name(diff['a'])} vs {name(diff['b'])}",
        "",
        "Positive deltas mean the second run spent more cycles.",
        "",
        _md_table(["metric", "A", "B", "delta"], rows),
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
                [row(node, entry) for node, entry in movers],
            ),
            "",
        ]
    return "\n".join(out)
