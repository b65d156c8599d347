"""Trace format and traffic sources feeding the network simulators.

Both simulators are trace-driven, exactly as in the paper ("The simulator
generates traffic based on a set of input traces that designate per node
packet injections", section 4) — the same trace file drives the optical and
the electrical network, making the Fig 10/11 comparisons apples-to-apples.

A trace is a sequence of :class:`TraceEvent` records ``(cycle, source,
destination, kind)`` where ``destination is None`` denotes a broadcast.
Traces serialise to a simple line-oriented text format so they can be
inspected, diffed and checked into test fixtures.

Simulators consume traffic through the :class:`TrafficSource` interface;
:class:`TraceSource` replays a trace and :class:`SyntheticSource` generates
open-loop synthetic traffic from a pattern plus an injection process.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.sim.rng import DeterministicRng
from repro.traffic.coherence import MessageKind
from repro.traffic.injection import InjectionProcess
from repro.traffic.patterns import TrafficPattern
from repro.util.errors import SpecError

#: Sentinel destination value in the text format for broadcasts.
_BROADCAST_TOKEN = "*"


def _sort_key(event: "TraceEvent") -> tuple[int, int]:
    return (event.cycle, event.source)


@dataclass(frozen=True)
class TraceEvent:
    """One packet injection: generated at ``cycle`` on node ``source``.

    ``destination is None`` means a broadcast to every other node.
    """

    cycle: int
    source: int
    destination: int | None
    kind: MessageKind = MessageKind.DATA_RESPONSE

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"negative cycle {self.cycle}")
        if self.source < 0:
            raise ValueError(f"negative source {self.source}")
        if self.destination is not None and self.destination < 0:
            raise ValueError(f"negative destination {self.destination}")

    @property
    def is_broadcast(self) -> bool:
        return self.destination is None

    def to_line(self) -> str:
        dest = _BROADCAST_TOKEN if self.destination is None else str(self.destination)
        return f"{self.cycle} {self.source} {dest} {self.kind.value}"

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed trace line: {line!r}")
        cycle, source, dest_token, kind = parts
        destination = None if dest_token == _BROADCAST_TOKEN else int(dest_token)
        return cls(int(cycle), int(source), destination, MessageKind(kind))


@dataclass
class Trace:
    """An ordered collection of trace events plus workload metadata."""

    name: str
    num_nodes: int
    events: list[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("trace needs a positive node count")
        self.events.sort(key=_sort_key)
        for event in self.events:
            self._validate(event)

    def _validate(self, event: TraceEvent) -> None:
        if event.source >= self.num_nodes:
            raise ValueError(f"event source {event.source} >= {self.num_nodes} nodes")
        if event.destination is not None and event.destination >= self.num_nodes:
            raise ValueError(
                f"event destination {event.destination} >= {self.num_nodes} nodes"
            )

    def append(self, event: TraceEvent) -> None:
        self._validate(event)
        if self.events and event.cycle < self.events[-1].cycle:
            raise ValueError("events must be appended in non-decreasing cycle order")
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def last_cycle(self) -> int:
        return self.events[-1].cycle if self.events else 0

    @property
    def broadcast_count(self) -> int:
        return sum(1 for e in self.events if e.is_broadcast)

    def offered_load(self) -> float:
        """Mean generated packets per node per cycle over the trace span."""
        if not self.events:
            return 0.0
        span = self.last_cycle + 1
        return len(self.events) / (span * self.num_nodes)

    # -- serialisation -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w") as handle:
            handle.write(f"# trace {self.name}\n")
            handle.write(f"# nodes {self.num_nodes}\n")
            for event in self.events:
                handle.write(event.to_line() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace file.  A malformed file is refused in one line, a
        :class:`~repro.util.errors.SpecError` naming the path (and the line,
        when one line is at fault)."""
        path = Path(path)
        name = path.stem
        num_nodes: int | None = None
        events: list[TraceEvent] = []
        with path.open() as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if not line.startswith("#"):
                        events.append(TraceEvent.from_line(line))
                        continue
                    fields = line[1:].split()
                    if fields[:1] == ["trace"] and len(fields) > 1:
                        name = fields[1]
                    elif fields[:1] == ["nodes"] and len(fields) > 1:
                        num_nodes = int(fields[1])
                        if num_nodes <= 0:
                            raise ValueError(f"non-positive node count {num_nodes}")
                except ValueError as exc:
                    raise SpecError(f"{path}:{number}: {exc}") from None
        if num_nodes is None:
            raise SpecError(f"trace file {path} is missing the '# nodes' header")
        try:
            return cls(name=name, num_nodes=num_nodes, events=events)
        except ValueError as exc:
            raise SpecError(f"{path}: {exc}") from None


class TrafficSource(abc.ABC):
    """Per-node, per-cycle packet generation interface for the simulators."""

    #: Nodes the source addresses when it is bound to a count, as a trace
    #: is; a network of another size refuses it (``MeshNetworkBase``).
    num_nodes: int | None = None

    @abc.abstractmethod
    def injections(self, node: int, cycle: int) -> list[TraceEvent]:
        """Packets generated on ``node`` at ``cycle`` (possibly empty)."""

    @abc.abstractmethod
    def exhausted(self, cycle: int) -> bool:
        """True when no event at or after ``cycle`` will ever be produced."""


class TraceSource(TrafficSource):
    """Replays a :class:`Trace` (the paper's trace-driven mode)."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.num_nodes = trace.num_nodes
        self._queues: dict[int, deque[TraceEvent]] = {
            node: deque() for node in range(trace.num_nodes)
        }
        for event in trace:
            self._queues[event.source].append(event)
        self._remaining = len(trace)

    def injections(self, node: int, cycle: int) -> list[TraceEvent]:
        queue = self._queues[node]
        due: list[TraceEvent] = []
        while queue and queue[0].cycle <= cycle:
            due.append(queue.popleft())
            self._remaining -= 1
        return due

    def exhausted(self, cycle: int) -> bool:
        return self._remaining == 0


class SyntheticSource(TrafficSource):
    """Open-loop synthetic traffic: pattern + injection process per node.

    ``injector_factory`` builds one independent injection process per node
    so bursty processes do not share state across nodes.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        injector_factory: Callable[[], InjectionProcess],
        seed: int = 1,
        stop_cycle: int | None = None,
    ) -> None:
        self.pattern = pattern
        self.seed = int(seed)
        self.stop_cycle = stop_cycle
        num_nodes = pattern.mesh.num_nodes
        self._injectors: list[InjectionProcess] = [
            injector_factory() for _ in range(num_nodes)
        ]
        #: The per-node streams, built on first use (:attr:`_rngs`): a
        #: schedule served from memory draws none.
        self._streams: list[DeterministicRng] | None = None

    @property
    def _rngs(self) -> list[DeterministicRng]:
        """One stream per node, built on first use."""
        if self._streams is None:
            self._streams = [
                DeterministicRng(self.seed, f"synthetic/{self.pattern.name}/node{n}")
                for n in range(len(self._injectors))
            ]
        return self._streams

    def injections(self, node: int, cycle: int) -> list[TraceEvent]:
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return []
        rng = self._rngs[node]
        if not self._injectors[node].should_inject(cycle, rng):
            return []
        destination = self.pattern.destination(node, rng)
        if destination == node:
            return []  # self-traffic never enters the network
        return [TraceEvent(cycle, node, destination)]

    def exhausted(self, cycle: int) -> bool:
        return self.stop_cycle is not None and cycle >= self.stop_cycle
