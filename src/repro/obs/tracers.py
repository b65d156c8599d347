"""Tracer implementations: in-memory collection and file exporters.

A :class:`Tracer` receives every :class:`~repro.obs.events.PacketEvent` a
simulator emits.  Two file exporters are provided:

- :class:`JsonlTraceWriter` — one JSON object per line, trivially
  greppable and streamable;
- :class:`ChromeTraceWriter` — the Chrome ``trace_event`` JSON object
  format (``{"traceEvents": [...]}``), loadable in Perfetto or
  ``chrome://tracing``.  Each packet event becomes a thread-scoped instant
  event whose ``tid`` is the mesh node and whose timestamp is the cycle
  number (1 cycle rendered as 1 µs), so a drop storm shows up as a burst
  of ``dropped`` instants on the hotspot rows.

:func:`sampled` bounds tracing overhead: it keeps or discards *whole
packet lifecycles* (all events of a uid), deterministically, so a sampled
trace is still internally consistent.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Any

from repro.obs.events import EVENT_KINDS, PacketEvent

#: Schema tag written as the first record of every JSONL trace.  Bump the
#: version when the event vocabulary or line layout changes incompatibly;
#: :func:`repro.obs.analysis.read_trace_file` validates against it.
TRACE_SCHEMA = "repro-trace/v1"

# A record is ``json.dumps(payload, sort_keys=True)`` of the four fields
# plus the flattened extras, so the *common record* — no extras, a
# vocabulary kind, ``cycle``/``node``/``uid`` exactly ``int`` — has one
# layout.  Writer and reader treat it as fixed and everything else as JSON
# (DESIGN.md section 8); its two statements sit side by side.

#: kind -> ``%``-template: byte for byte what ``json.dumps`` writes.
_COMMON_TEMPLATES = {
    kind: f'{{"cycle": %d, "kind": "{kind}", "node": %d, "uid": %d}}'
    for kind in EVENT_KINDS
}

#: The layout as a pattern to ``fullmatch`` a line against (groups: cycle,
#: kind, node, uid).  It accepts a *strict subset* of what ``json.loads``
#: accepts — fixed key order and spacing, ASCII digits, no leading zero, no
#: ``-0``, at most 18 digits — so a matching line is the event ``json.loads``
#: would give and every other line is left to it.
COMMON_RECORD = re.compile(
    r'\{"cycle": INT, "kind": "(KIND)", "node": INT, "uid": INT\}'.replace(
        "INT", "(0|-?[1-9][0-9]{0,17})"
    ).replace("KIND", "|".join(EVENT_KINDS))
)


class Tracer:
    """Base tracer: a no-op sink with the full receiving surface."""

    def emit(self, event: PacketEvent) -> None:
        """Receive one lifecycle event."""

    def close(self) -> None:
        """Flush any buffered output; called once after the run."""


class CollectingTracer(Tracer):
    """Keep every event in memory (tests, ad-hoc analysis)."""

    def __init__(self) -> None:
        self.events: list[PacketEvent] = []

    def emit(self, event: PacketEvent) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> list[PacketEvent]:
        return [event for event in self.events if event.kind == kind]


#: Event kinds counted as "this router did something".  ``generated`` is
#: NIC-side and the monitor's own ``health_*`` events are not simulator
#: activity, so a busy router with none of these is genuinely wedged.
ACTIVITY_KINDS = frozenset(EVENT_KINDS) - {
    "generated",
    "health_warn",
    "health_critical",
}


class EventTally(Tracer):
    """The one counting tracer: everything a consumer reads off the stream.

    Cumulative since attach: events :attr:`by_kind`, per-node
    :attr:`drops`, :attr:`deliveries`, :attr:`injections` and
    :attr:`activity` (any of :data:`ACTIVITY_KINDS`), and the packets
    :attr:`lost` to ``fault_dropped`` events.  Spatial time series and
    the health checks difference these per window.
    """

    def __init__(self) -> None:
        self.by_kind: Counter[str] = Counter()
        self.drops: Counter[int] = Counter()
        self.deliveries: Counter[int] = Counter()
        self.injections: Counter[int] = Counter()
        self.activity: Counter[int] = Counter()
        self.lost = 0
        self._per_node = {
            "dropped": self.drops,
            "delivered": self.deliveries,
            "injected": self.injections,
        }

    def emit(self, event: PacketEvent) -> None:
        kind = event.kind
        if kind in ACTIVITY_KINDS:
            node = event.node
            self.activity[node] += 1
            per_node = self._per_node.get(kind)
            if per_node is not None:
                per_node[node] += 1
            elif kind == "fault_dropped" and event.extra is not None:
                self.lost += int(event.extra.get("lost", 0))
        elif kind != "generated":
            return  # the monitor's own health_* events
        self.by_kind[kind] += 1


class _FileTracer(Tracer):
    """Shared buffering/writing machinery for the file exporters."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._events: list[PacketEvent] = []
        self._closed = False

    def emit(self, event: PacketEvent) -> None:
        self._events.append(event)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self._render(self._events))

    def _render(self, events: list[PacketEvent]) -> str:
        raise NotImplementedError


class JsonlTraceWriter(_FileTracer):
    """One JSON object per event per line.

    The first line is always a header record tagging the
    :data:`TRACE_SCHEMA` version and the event vocabulary, plus any run
    metadata passed as ``meta`` (the harness supplies the RunSpec digest,
    label, workload, and the backend's per-hop ``link_delay``), so a
    trace file is self-describing for post-hoc analysis.
    """

    def __init__(
        self, path: str | Path, meta: dict[str, Any] | None = None
    ) -> None:
        super().__init__(path)
        self.meta = dict(meta or {})

    def _render(self, events: list[PacketEvent]) -> str:
        header: dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "kinds": list(EVENT_KINDS),
        }
        header.update(self.meta)
        lines = [json.dumps(header, sort_keys=True)]
        for kind, cycle, node, uid, extra in events:
            if (
                not extra
                and type(cycle) is int
                and type(node) is int
                and type(uid) is int
                and type(kind) is str
                and kind in _COMMON_TEMPLATES
            ):
                lines.append(_COMMON_TEMPLATES[kind] % (cycle, node, uid))
            else:
                # Extras, a foreign kind, a bool or numpy integer: json
                # decides how each prints, or that it does not.
                payload: dict[str, Any] = {
                    "kind": kind,
                    "cycle": cycle,
                    "node": node,
                    "uid": uid,
                }
                if extra:
                    payload.update(extra)
                lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines) + "\n"


class ChromeTraceWriter(_FileTracer):
    """Chrome ``trace_event`` exporter (Perfetto-loadable).

    Timestamps are in microseconds by the format's definition; we map one
    network cycle to 1 µs so the timeline reads directly in cycles.
    """

    def _render(self, events: list[PacketEvent]) -> str:
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "network"},
            }
        ]
        for event in events:
            args: dict[str, Any] = {"uid": event.uid}
            if event.extra:
                args.update(event.extra)
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "packet",
                    "ph": "i",
                    "s": "t",
                    "ts": event.cycle,
                    "pid": 0,
                    "tid": event.node,
                    "args": args,
                }
            )
        return json.dumps(
            {"traceEvents": trace_events, "displayTimeUnit": "ms"}, indent=1
        )


class _SamplingTracer(Tracer):
    """Forward only the lifecycles whose uid hashes under the sample rate."""

    def __init__(self, inner: Tracer, rate: float) -> None:
        self.inner = inner
        self.rate = rate
        # Knuth multiplicative hash: decorrelates the keep decision from
        # uid allocation order without perturbing anything (pure read).
        self._threshold = int(rate * 2**32)

    def _keep(self, uid: int) -> bool:
        # Monitor events (uid < 0: health findings, NIC freezes) belong to
        # no packet lifecycle; hashing -1 would drop them below rate 0.382.
        return uid < 0 or ((uid * 2654435761) & 0xFFFFFFFF) < self._threshold

    def emit(self, event: PacketEvent) -> None:
        if self._keep(event.uid):
            self.inner.emit(event)

    def close(self) -> None:
        self.inner.close()


def sampled(tracer: Tracer, rate: float) -> Tracer:
    """Wrap ``tracer`` to keep a deterministic ``rate`` fraction of packets.

    ``rate=1`` returns the tracer unwrapped; the decision is per packet
    uid, so a kept packet's whole lifecycle (including retransmissions) is
    kept.  Monitor events (``uid < 0``) are always kept.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate must be in [0, 1], got {rate}")
    if rate >= 1.0:
        return tracer
    return _SamplingTracer(tracer, rate)
