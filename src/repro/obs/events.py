"""Structured packet-lifecycle events and the hub that fans them out.

Both simulators own a :class:`TraceHub` created at construction time and
shared with their NICs; every lifecycle emit point in the simulators is an
explicit call on that hub, guarded by its truthiness (an empty hub is
falsy), so disabled tracing costs one length test per potential event, calls
nothing and allocates nothing.

The event vocabulary is fixed (:data:`EVENT_KINDS`) so exporters and
consumers can rely on it:

``generated``
    The traffic source handed a message to a NIC (one event per packet,
    so a Phastlane broadcast emits one per column-multicast packet).
``injected``
    The packet crossed the NIC-to-router interface.
``hop``
    The packet traversed into a router (optically, or over an electrical
    link into an input VC).
``blocked``
    The packet wanted an output port (or a free injection VC) and lost.
``buffered``
    The packet was written into a router's input buffer.
``dropped``
    No buffer space: a Packet Dropped signal is on its way back.
``retransmitted``
    The transmitter saw the drop signal and requeued the packet.
``delivered``
    The packet (or one multicast tap of it) reached a destination.
``fault_injected``
    An injected device fault hit this packet's crossing;
    ``extra["fault"]`` names the fault model
    (``extra`` keys must not shadow ``kind`` — file exporters flatten them
    into the event payload).
``fault_masked``
    The recovery machinery (drop-signal backoff resend, link-level retry)
    absorbed an earlier fault — the packet is back in flight.
``fault_dropped``
    The packet exhausted its retry budget after a fault and is lost.
``health_warn`` / ``health_critical``
    A :class:`~repro.obs.health.HealthMonitor` invariant check fired at a
    window boundary.  These are monitor events, not packet events: ``uid``
    is ``-1``, ``node`` is the implicated router (or ``-1`` for global
    findings) and ``extra`` carries ``check`` and ``message``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracers import Tracer

#: The complete packet-lifecycle vocabulary, in rough lifecycle order.
EVENT_KINDS = (
    "generated",
    "injected",
    "hop",
    "blocked",
    "buffered",
    "dropped",
    "retransmitted",
    "delivered",
    "fault_injected",
    "fault_masked",
    "fault_dropped",
    "health_warn",
    "health_critical",
)

_KIND_SET = frozenset(EVENT_KINDS)


class PacketEvent(NamedTuple):
    """One structured lifecycle event.

    ``node`` is where the event physically happened (for ``dropped`` that
    is the blocking router, matching the paper's drop-storm attribution);
    ``uid`` identifies the packet across its whole lifecycle, including
    retransmissions.  The hub sends sinks the five fields, not this
    object; it is built for a consumer that keeps events
    (:class:`~repro.obs.tracers.CollectingTracer`, read-back), which reads
    the fields by name or unpacks all five.
    """

    kind: str
    cycle: int
    node: int
    uid: int
    extra: Mapping[str, Any] | None = None


class TraceHub(list["Tracer"]):
    """Fan-out point between a simulator's emit sites and its tracers.

    The hub is *shared by reference* between a network and its NICs, so
    tracers attached after construction (``network.add_tracer``) see events
    from every component.  Hub truthiness doubles as the fast-path guard:
    ``if hub: hub.emit(...)``.  The hub is the list of its tracers, so that
    guard is the list's own length test and costs no Python call: an
    unobserved run makes no call into :mod:`repro.obs`.
    """

    __slots__ = ()

    def add(self, tracer: "Tracer") -> None:
        self.append(tracer)

    def emit(
        self,
        kind: str,
        cycle: int,
        node: int,
        uid: int,
        extra: Mapping[str, Any] | None = None,
    ) -> None:
        """Hand one event to every tracer as five positional fields
        (:meth:`~repro.obs.tracers.Tracer.record`); no object is built."""
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind {kind!r}; expected {EVENT_KINDS}")
        for tracer in self:
            tracer.record(kind, cycle, node, uid, extra)
