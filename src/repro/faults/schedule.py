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

The simulators ask one lookup per cycle, :meth:`FaultSchedule.cycle_lookup`:
the dead ports and the cycle's flipped slots are one ``{node * 4 + port:
kind}`` map, built once per cycle from one row, so a crossing costs a dict
lookup and a cycle with nothing to fail one truth test.  With bursts on,
the lookup also asks the crossed link's chain, so only the links crossed
pay for their timelines.  :meth:`~FaultSchedule.crossing_fault` is the
point query of the same timeline, in any order, which the reference oracle
(``tests/oracle``) reads and ``bench/probes.py`` times.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Union

from repro.faults.config import BURST_EXIT_PROB, FaultConfig
from repro.sim.rng import DeterministicRng, stream_key
from repro.topology.base import Topology
from repro.topology.registry import as_topology
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
        boundaries = self.boundaries
        while boundaries[-1] <= cycle:
            # The segment drawn is ``len(boundaries) - 1``: a good one
            # (even) ends with ``enter``, a bad one (odd) with the exit.
            bad_segment = len(boundaries) % 2 == 0
            length = 1 + self._rng.geometric(
                BURST_EXIT_PROB if bad_segment else self._enter
            )
            boundaries.append(boundaries[-1] + length)
        # Segment ``bisect - 1`` holds ``cycle``; odd segments are bad.
        return bisect_right(boundaries, cycle) % 2 == 0


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
        self._dead: dict[int, str] = {
            node * 4 + port: "dead_port" for node, port in sorted(self.dead_ports)
        }
        self._burst_chains: dict[int, _IntervalChain] = {}
        self._slots = self.topology.num_nodes * 4
        self._rows: dict[int, memoryview] = {}
        self._flip = int(config.link_flip_prob * _CERTAIN)
        #: The one Philox bit generator every row is drawn from, re-keyed
        #: per row (built with the first row), and the state it is set to.
        self._philox: Any = None
        self._philox_state: dict[str, Any] = {}
        #: The last :meth:`cycle_lookup` and its cycle.
        self._lookup_cycle = -1
        self._lookup: Callable[[int], str | None] | None = None

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

    # -- hot-loop queries ------------------------------------------------------

    def cycle_lookup(self, cycle: int) -> Callable[[int], str | None] | None:
        """What fails at ``cycle``: ``lookup(node * 4 + port)`` is the kind
        of the fault a crossing of that link meets (``port`` is the sender's
        output direction), most severe first, or None when it succeeds; no
        lookup at all when nothing can fail this cycle.

        The lookup of the last cycle asked is kept, so the phases of one
        cycle share it and its row.
        """
        if cycle == self._lookup_cycle:
            return self._lookup
        fault_map = self._dead
        flip = self._flip
        if flip:
            if flip >= _CERTAIN:
                flipped: Any = range(self._slots)
            else:
                import numpy as np

                row = np.asarray(self._row(cycle))
                flipped = np.flatnonzero(row < flip).tolist()
            fault_map = dict.fromkeys(flipped, "link")
            fault_map.update(self._dead)
        lookup: Callable[[int], str | None] | None
        if self.config.burst_enter_prob > 0.0:
            chains, new_chain = self._burst_chains, self._chain

            def lookup(slot: int) -> str | None:
                kind = fault_map.get(slot)
                if kind != "dead_port":
                    chain = chains.get(slot) or new_chain(slot)
                    if chain.in_bad_state(cycle):
                        return "burst"
                return kind

        else:
            lookup = fault_map.get if fault_map else None
        self._lookup_cycle = cycle
        self._lookup = lookup
        return lookup

    def crossing_fault(self, node: int, port: int, cycle: int) -> str | None:
        """The fault kind hitting a crossing of ``(node, port)`` at ``cycle``,
        or None when the crossing succeeds: the point query of
        :meth:`cycle_lookup`, in any order.

        ``port`` is the sender's output direction (0-3).  Checks run in
        severity order — a permanently dead port shadows any transient
        model on the same link.
        """
        slot = node * 4 + port
        if slot in self._dead:
            return "dead_port"
        bursts = self.config.burst_enter_prob > 0.0
        if bursts and self._chain(slot).in_bad_state(cycle):
            return "burst"
        flip = self._flip
        if flip and (flip >= _CERTAIN or self._row(cycle)[slot] < flip):
            return "link"
        return None

    # -- the draws -------------------------------------------------------------

    def _row(self, cycle: int) -> memoryview:
        """The 64-bit uniforms of ``cycle``, one per ``node * 4 + port``."""
        rows = self._rows
        row = rows.get(cycle)
        if row is None:
            if len(rows) >= _ROWS_KEPT:
                del rows[next(iter(rows))]
            philox = self._philox
            if philox is None:
                # numpy loads here, not with the module: every run spec
                # imports ``repro.faults``, and only faulted runs should pay.
                from numpy.random import Philox

                philox = self._philox = Philox(key=0)
                # A fresh state: counter zero, buffer empty.  Setting it
                # copies the arrays, so the template is reused.
                self._philox_state = philox.state
            # Re-keying one generator draws the row ``Philox(key=key)``
            # would, at a fraction of a construction's cost.
            key = stream_key(self.config.seed, f"faults/flip/{cycle}")
            self._philox_state["state"]["key"][0] = key
            philox.state = self._philox_state
            row = rows[cycle] = memoryview(philox.random_raw(self._slots))
        return row

    def _chain(self, slot: int) -> _IntervalChain:
        """The burst timeline of link ``slot``, built on first use."""
        chain = self._burst_chains.get(slot)
        if chain is None:
            stream = f"faults/burst/{slot >> 2}/{slot & 3}"
            chain = self._burst_chains[slot] = _IntervalChain(
                DeterministicRng(self.config.seed, stream),
                self.config.burst_enter_prob,
            )
        return chain
