"""Compile a :class:`~repro.faults.config.FaultConfig` into a query-able timeline.

A :class:`FaultSchedule` answers the one question the simulators ask in
their hot loops — "does this crossing fail this cycle?" —
deterministically and independently of traffic.  The key design
constraint is *traffic independence*: whether link ``(node, port)`` is
faulty at cycle ``c`` must not depend on how many packets happened to
traverse it earlier, or two backends (or a retry of the same packet) would
see different physics from the same seed.  Two mechanisms deliver that:

- **Stateless draws** (Bernoulli loss): each cycle owns one row of 64-bit
  uniforms, one slot per ``node * 4 + port``, generated in one shot from a
  counter-based Philox generator keyed on
  ``sha256(f"{seed}/faults/flip/{cycle}")``.  A crossing fails when its
  slot falls below ``prob * 2**64``, so the answer is a pure function of
  the fault seed and the coordinates, and the failing sets are *nested* in
  the rate: whatever fails at ``p`` fails at every ``p' >= p``.  Only a few
  rows are kept (the simulators query the current cycle); an evicted row is
  regenerated on a miss, so memory does not grow with run length.
- **Interval chains** (Gilbert–Elliott bursts): each link owns a
  lazily-extended alternating good/bad segment list generated from its
  private stream, looked up by bisection — arbitrary-order queries see the
  same timeline a strictly-forward scan would.

Dead ports are resolved once at compile time: the explicit list plus
``dead_port_count`` extra ports sampled (without replacement, interior
links only) from the ``faults/dead-ports`` stream.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Union

from repro.faults.config import BURST_EXIT_PROB, FaultConfig
from repro.sim.rng import DeterministicRng, stream_key
from repro.topology import Topology, as_topology
from repro.util.errors import SpecError
from repro.util.geometry import MeshGeometry


#: Rows kept.  Every simulator queries the current cycle only, so one
#: would do; a few make out-of-order probing cheap.
_ROWS_KEPT = 4

#: ``prob * _CERTAIN`` is the threshold a 64-bit uniform must fall below;
#: a threshold of ``_CERTAIN`` itself (``prob == 1``) can never be missed.
_CERTAIN = 1 << 64


class _IntervalChain:
    """A lazily-extended alternating good/bad timeline for one link.

    ``boundaries`` holds the start cycles of successive segments, beginning
    with the first *good* segment at cycle 0; even segment indices are good,
    odd are bad.  Segment lengths are drawn from the chain's private rng as
    needed, so a query at cycle ``c`` materialises the timeline up to ``c``
    exactly once regardless of query order.
    """

    __slots__ = ("_rng", "_enter", "boundaries")

    def __init__(self, rng: DeterministicRng, enter_prob: float) -> None:
        self._rng = rng
        self._enter = enter_prob
        self.boundaries = [0]

    def in_bad_state(self, cycle: int) -> bool:
        while self.boundaries[-1] <= cycle:
            bad_segment = len(self.boundaries) % 2 == 1
            length = 1 + self._rng.geometric(
                BURST_EXIT_PROB if bad_segment else self._enter
            )
            self.boundaries.append(self.boundaries[-1] + length)
        segment = bisect_right(self.boundaries, cycle) - 1
        return segment % 2 == 1


class FaultSchedule:
    """The compiled, query-able fault timeline of one run.

    Construction is cheap (dead-port sampling only); burst timelines
    materialise lazily per link on first query.  All randomness comes from
    streams keyed on ``config.seed``, never from the traffic rng — see the
    module docstring for why.
    """

    def __init__(
        self, config: FaultConfig, topology: Union[Topology, MeshGeometry]
    ) -> None:
        self.config = config
        #: The topology faults are drawn over; a bare ``MeshGeometry``
        #: (the historical signature) adapts to its ``Mesh2D`` topology.
        self.topology = as_topology(topology)
        self.dead_ports: frozenset[tuple[int, int]] = self._compile_dead_ports()
        self._burst_chains: dict[tuple[int, int], _IntervalChain] = {}
        self._slots = self.topology.num_nodes * 4
        self._rows: dict[int, memoryview] = {}
        self._flip = int(config.link_flip_prob * _CERTAIN)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # -- compile-time resolution ----------------------------------------------

    def _compile_dead_ports(self) -> frozenset[tuple[int, int]]:
        dead = set()
        for node, port in self.config.dead_ports:
            if node >= self.topology.num_nodes:
                raise SpecError(
                    f"dead port names node {node}, but the {self.topology.mesh} "
                    f"has only {self.topology.num_nodes} nodes"
                )
            dead.add((node, port))
        if self.config.dead_port_count:
            # The topology's link enumeration is node-ascending then
            # port-ascending; on the default mesh that is byte-identical
            # to the historical (node x NESW, interior-only) candidate
            # list, so pinned fault schedules are unchanged.
            candidates = [
                link for link in self.topology.links() if link not in dead
            ]
            rng = DeterministicRng(self.config.seed, "faults/dead-ports")
            count = min(self.config.dead_port_count, len(candidates))
            dead.update(rng.sample(candidates, count))
        return frozenset(dead)

    # -- hot-loop query --------------------------------------------------------

    def crossing_fault(self, node: int, port: int, cycle: int) -> str | None:
        """The fault kind hitting a crossing of ``(node, port)`` at ``cycle``,
        or None when the crossing succeeds.

        ``port`` is the sender's output direction (0-3).  Checks run in
        severity order — a permanently dead port shadows any transient
        model on the same link.
        """
        if (node, port) in self.dead_ports:
            return "dead_port"
        if self.config.burst_enter_prob > 0.0:
            chain = self._burst_chains.get((node, port))
            if chain is None:
                chain = _IntervalChain(
                    DeterministicRng(self.config.seed, f"faults/burst/{node}/{port}"),
                    self.config.burst_enter_prob,
                )
                self._burst_chains[(node, port)] = chain
            if chain.in_bad_state(cycle):
                return "burst"
        if self._flip and self._flipped(node, port, cycle):
            return "link"
        return None

    def _flipped(self, node: int, port: int, cycle: int) -> bool:
        """True when a Bernoulli link flip strikes ``(node, port)`` at
        ``cycle``; a certain flip is answered without generating a row."""
        if self._flip >= _CERTAIN:
            return True
        rows = self._rows
        row = rows.get(cycle)
        if row is None:
            if len(rows) >= _ROWS_KEPT:
                del rows[next(iter(rows))]
            # numpy loads here, not with the module: every run spec imports
            # ``repro.faults``, and only faulted runs should pay for it.
            from numpy.random import Philox

            key = stream_key(self.config.seed, f"faults/flip/{cycle}")
            row = memoryview(Philox(key=key).random_raw(self._slots))
            rows[cycle] = row
        return row[node * 4 + port] < self._flip
