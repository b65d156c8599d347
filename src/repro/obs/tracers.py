"""Tracer implementations: in-memory collection and file exporters.

A :class:`Tracer` receives every event a simulator emits, as the five
fields ``record(kind, cycle, node, uid, extra)``, the one method a sink
overrides; ``emit(event)`` hands it a
:class:`~repro.obs.events.PacketEvent`'s fields.  Two file exporters are
provided:

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
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Collection, Iterable

from repro.obs.events import EVENT_KINDS, PacketEvent

#: Schema tag written as the first record of every JSONL trace.  Bump the
#: version when the event vocabulary or line layout changes incompatibly;
#: :func:`repro.obs.analysis.read_trace_file` validates against it.
TRACE_SCHEMA = "repro-trace/v1"

# A record is ``json.dumps(payload, sort_keys=True)`` of the four fields
# plus the flattened extras.  The layout table: a record whose kind is in
# the vocabulary, whose ``cycle``/``node``/``uid`` are exactly ``int`` and
# whose extras are ASCII-identifier names (none of the four) with exactly
# ``int`` or ``bool`` values has one layout per kind and set of names.
# Writer and reader treat it as fixed and everything else as JSON
# (DESIGN.md section 8); their statements sit side by side.

_FIXED = ("cycle", "kind", "node", "uid")

#: Writer, no extras: kind -> ``%``-template, byte for byte ``json.dumps``.
_COMMON_TEMPLATES = {
    kind: f'{{"cycle": %d, "kind": "{kind}", "node": %d, "uid": %d}}'
    for kind in EVENT_KINDS
}


def _scalar_template(kind: str, names: tuple[Any, ...]) -> str | None:
    """Writer, scalar extras: the ``%(name)s``-template of a ``kind``
    record with extras ``names``, or ``None`` when the names leave the
    table (json decides how they print).  Keys in ``sort_keys`` order."""
    for name in names:
        if not (
            type(name) is str
            and name.isascii()
            and name.isidentifier()
            and name not in _FIXED
        ):
            return None
    fields = (
        f'"kind": "{kind}"' if key == "kind" else f'"{key}": %({key})s'
        for key in sorted(_FIXED + names)
    )
    return "{" + ", ".join(fields) + "}"


#: Reader: the layouts as patterns to ``fullmatch`` a line against.  They
#: accept a *strict subset* of what ``json.loads`` accepts — fixed key
#: order and spacing, ASCII digits, no leading zero, no ``-0``, at most 18
#: digits — so a matching line is the event ``json.loads`` would give and
#: every other line is left to it.  :data:`COMMON_RECORD` is the record
#: without extras (groups: cycle, kind, node, uid).  :data:`SCALAR_RECORD`
#: adds the runs of extras around the four fields (groups: extras, cycle,
#: extras, kind, extras, node, extras, uid, extras); :data:`SCALAR_EXTRA`
#: reads their (name, value) pairs in file order.
_INT = "0|-?[1-9][0-9]{0,17}"
_KINDS = "|".join(EVENT_KINDS)
_NAME = f'(?!(?:{"|".join(_FIXED)})")[A-Za-z_][A-Za-z0-9_]*'
_VALUE = f"{_INT}|true|false"
_PAIRS = f'((?:"{_NAME}": (?:{_VALUE}), )*)'
COMMON_RECORD = re.compile(
    f'\\{{"cycle": ({_INT}), "kind": "({_KINDS})", "node": ({_INT}), '
    f'"uid": ({_INT})\\}}'
)
SCALAR_RECORD = re.compile(
    f'\\{{{_PAIRS}"cycle": ({_INT}), {_PAIRS}"kind": "({_KINDS})", '
    f'{_PAIRS}"node": ({_INT}), {_PAIRS}"uid": ({_INT})'
    f'((?:, "{_NAME}": (?:{_VALUE}))*)\\}}'
)
SCALAR_EXTRA = re.compile(f'"({_NAME})": ({_VALUE})')


class Tracer:
    """Base tracer: a no-op sink.  A sink overrides :meth:`record` only."""

    def record(self, kind: str, cycle: int, node: int, uid: int, extra: Any) -> None:
        """Receive one event as the hub sends it, five positional fields."""

    def emit(self, event: PacketEvent) -> None:
        """Receive one lifecycle event as an object: its fields go to
        :meth:`record`."""
        self.record(*event)

    def close(self) -> None:
        """Flush any buffered output; called once after the run."""


class CollectingTracer(Tracer):
    """Keep every event in memory (tests, ad-hoc analysis)."""

    def __init__(self) -> None:
        self.events: list[PacketEvent] = []

    def record(self, kind: str, cycle: int, node: int, uid: int, extra: Any) -> None:
        self.events.append(PacketEvent(kind, cycle, node, uid, extra))

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

    It counts events per kind and node, and sums the packets :attr:`lost`
    to ``fault_dropped`` events, cumulative since attach.  The views that
    the spatial time series and the health checks difference per window
    are derived when read: events :attr:`by_kind` (the monitor's own
    ``health_*`` events excluded), and per node :attr:`drops`,
    :attr:`deliveries`, :attr:`injections` and :attr:`activity` (any of
    :data:`ACTIVITY_KINDS`).
    """

    def __init__(self) -> None:
        self._counts: dict[str, defaultdict[int, int]] = {}
        self.lost = 0

    def record(self, kind: str, cycle: int, node: int, uid: int, extra: Any) -> None:
        by_node = self._counts.get(kind)
        if by_node is None:
            by_node = self._counts[kind] = defaultdict(int)
        by_node[node] += 1
        if extra is not None and kind == "fault_dropped":
            self.lost += int(extra.get("lost", 0))

    @property
    def by_kind(self) -> Counter[str]:
        return Counter(
            {
                kind: sum(by_node.values())
                for kind, by_node in self._counts.items()
                if kind in ACTIVITY_KINDS or kind == "generated"
            }
        )

    def _per_node(self, kinds: Collection[str]) -> Counter[int]:
        view: Counter[int] = Counter()
        for kind in kinds:
            view.update(self._counts.get(kind, {}))
        return view

    @property
    def drops(self) -> Counter[int]:
        return self._per_node(("dropped",))

    @property
    def deliveries(self) -> Counter[int]:
        return self._per_node(("delivered",))

    @property
    def injections(self) -> Counter[int]:
        return self._per_node(("injected",))

    @property
    def activity(self) -> Counter[int]:
        return self._per_node(ACTIVITY_KINDS)


class _FileTracer(Tracer):
    """Shared buffering/writing machinery for the file exporters.

    Each event's five fields are appended to one flat list until
    :meth:`close` renders them: a traced run keeps no container per event
    for the cyclic garbage collector to scan.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fields: list[Any] = []
        self._closed = False

    def record(self, kind: str, cycle: int, node: int, uid: int, extra: Any) -> None:
        self._fields.extend((kind, cycle, node, uid, extra))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fields = iter(self._fields)
        self.path.write_text(self._render(zip(*[fields] * 5)))

    def _render(self, events: Iterable[tuple[Any, ...]]) -> str:
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

    def _render(self, events: Iterable[tuple[Any, ...]]) -> str:
        header: dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "kinds": list(EVENT_KINDS),
        }
        header.update(self.meta)
        lines = [json.dumps(header, sort_keys=True)]
        # (kind, *names) -> template or None; built here, so a run's
        # handful of layouts costs one call each.
        templates: dict[tuple[Any, ...], str | None] = {}
        for kind, cycle, node, uid, extra in events:
            if (
                type(cycle) is int
                and type(node) is int
                and type(uid) is int
                and type(kind) is str
                and kind in _COMMON_TEMPLATES
            ):
                if not extra:
                    lines.append(_COMMON_TEMPLATES[kind] % (cycle, node, uid))
                    continue
                if type(extra) is dict:
                    key = (kind, *extra)
                    if key not in templates:
                        templates[key] = _scalar_template(kind, key[1:])
                    template = templates[key]
                    if template is not None:
                        fields: dict[str, Any] = {
                            "cycle": cycle, "node": node, "uid": uid
                        }
                        for name, value in extra.items():
                            if type(value) is int:
                                fields[name] = value
                            elif type(value) is bool:
                                fields[name] = "true" if value else "false"
                            else:
                                break
                        else:
                            lines.append(template % fields)
                            continue
            # Another extra, a foreign kind, a bool or numpy integer: json
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

    def _render(self, events: Iterable[tuple[Any, ...]]) -> str:
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "network"},
            }
        ]
        for kind, cycle, node, uid, extra in events:
            args: dict[str, Any] = {"uid": uid}
            if extra:
                args.update(extra)
            trace_events.append(
                {
                    "name": kind,
                    "cat": "packet",
                    "ph": "i",
                    "s": "t",
                    "ts": cycle,
                    "pid": 0,
                    "tid": node,
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
        # Monitor events (uid < 0: health findings) belong to no packet
        # lifecycle; hashing -1 would drop them below rate 0.382.
        return uid < 0 or ((uid * 2654435761) & 0xFFFFFFFF) < self._threshold

    def record(self, kind: str, cycle: int, node: int, uid: int, extra: Any) -> None:
        if self._keep(uid):
            self.inner.record(kind, cycle, node, uid, extra)

    def close(self) -> None:
        self.inner.close()


def sampled(tracer: Tracer, rate: float) -> Tracer:
    """Wrap ``tracer`` to keep a deterministic ``rate`` fraction of packets.

    ``rate=1`` returns the tracer unwrapped; the decision is per packet
    uid, so a kept packet's whole lifecycle (including retransmissions) is
    kept.  Monitor events (``uid < 0``) are always kept.  The rate is
    :class:`~repro.obs.config.ObsConfig`'s ``trace_sample``, checked there.
    """
    if rate >= 1.0:
        return tracer
    return _SamplingTracer(tracer, rate)
