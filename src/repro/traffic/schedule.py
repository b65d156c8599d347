"""The injection schedule: a traffic source materialised once per run.

A :class:`~repro.traffic.trace.TrafficSource` states its traffic per
(node, cycle) pair.  Every mesh backend reads it instead as one
``{cycle: [(node, destination, generated_cycle), ...]}`` map, built
when the run starts (a broadcast keeps its ``destination`` of None), and
then visits only the nodes that have something to do.  Each cycle's
bucket is node-ascending and, within a node, in source order: the order
the per-(node, cycle) pull would produce.  It is made one of two ways:

``drain_trace``
    Drains a :class:`~repro.traffic.trace.TraceSource` in one pass.  An
    event due at or before the ingest cycle arrives at the ingest cycle,
    as the first pull would deliver it.

``replay_synthetic``
    Replays a bounded :class:`~repro.traffic.trace.SyntheticSource`
    node-major instead of cycle-major.  Each node owns an independent RNG
    stream and injection process, so the node-major order consumes exactly
    the draws of the per-cycle pull and yields the identical schedule.
"""

from __future__ import annotations

from typing import Any

from repro.traffic.injection import BernoulliInjector
from repro.traffic.trace import SyntheticSource, TraceSource

#: One injection: (node, destination, generated_cycle); a broadcast's
#: destination is None.
Injection = tuple[int, int | None, int]
#: A materialised source: cycle -> injections, plus the total count.
Schedule = tuple[dict[int, list[Injection]], int]


def drain_trace(source: TraceSource, ingest_cycle: int) -> Schedule:
    """Materialise a trace source (see module docstring)."""
    events: dict[int, list[Injection]] = {}
    count = 0
    last_cycle = source.trace.last_cycle
    for node in range(source.trace.num_nodes):
        for event in source.injections(node, last_cycle):
            cycle = event.cycle if event.cycle > ingest_cycle else ingest_cycle
            bucket = events.get(cycle)
            if bucket is None:
                bucket = events[cycle] = []
            bucket.append((node, event.destination, event.cycle))
            count += 1
    return events, count


def replay_synthetic(source: SyntheticSource, ingest_cycle: int) -> Schedule:
    """Replay the per-cycle synthetic draws node-major (see module docstring).

    A Bernoulli node draws ``random() < rate`` inline, the draw
    ``DeterministicRng.bernoulli`` makes (the rate was validated when the
    injector was built); any other injection process is asked through
    ``should_inject``.  The destination and the self-traffic rule are those
    of ``SyntheticSource.injections``.
    """
    stop_cycle = source.stop_cycle
    assert stop_cycle is not None  # callers gate on a bounded window
    events: dict[int, list[Injection]] = {}
    count = 0
    destination_of = source.pattern.destination
    cycles = range(ingest_cycle, stop_cycle)
    for node, (injector, rng) in enumerate(zip(source._injectors, source._rngs)):
        if type(injector) is BernoulliInjector:
            rate, draw = injector.rate, rng.random
            fired = (cycle for cycle in cycles if draw() < rate)
        else:
            should_inject = injector.should_inject
            fired = (cycle for cycle in cycles if should_inject(cycle, rng))
        # The generator is lazy: each destination draw lands between the
        # injection draws of its cycle and the next, as in the pull.
        for cycle in fired:
            destination = destination_of(node, rng)
            if destination == node:
                continue  # self-traffic never enters the network
            bucket = events.get(cycle)
            if bucket is None:
                bucket = events[cycle] = []
            bucket.append((node, destination, cycle))
            count += 1
    return events, count


def synthetic_key(
    source: SyntheticSource, ingest_cycle: int
) -> tuple[Any, ...] | None:
    """What the schedule of ``source`` from ``ingest_cycle`` is a pure
    function of: seed, pattern, grid, rates and window.  None when it is
    not one: the source has drawn already, or an injector keeps state
    between draws (a bursty one)."""
    injectors = source._injectors
    if source._streams is not None or any(
        type(injector) is not BernoulliInjector for injector in injectors
    ):
        return None
    topology = source.pattern.topology
    return (
        source.seed,
        type(source.pattern),
        type(topology),
        topology.width,
        topology.height,
        tuple(injector.rate for injector in injectors),
        ingest_cycle,
        source.stop_cycle,
    )
