"""Tests for the trace format and traffic sources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PhastlaneConfig
from repro.fabric import base
from repro.fabric.registry import make_network
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs
from repro.harness.report import stats_to_dict
from repro.harness.runner import run
from repro.topology.registry import topology_from_name
from repro.traffic.coherence import MessageKind
from repro.traffic.injection import BernoulliInjector, BurstyInjector
from repro.traffic.patterns import PATTERNS, pattern_by_name
from repro.traffic.schedule import drain_trace, replay_synthetic
from repro.traffic.trace import (
    SyntheticSource,
    Trace,
    TraceEvent,
    TraceSource,
)
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig
from repro.vectorized.traffic import philox_events

events_strategy = st.lists(
    st.builds(
        TraceEvent,
        cycle=st.integers(0, 500),
        source=st.integers(0, 15),
        destination=st.one_of(st.none(), st.integers(0, 15)),
        kind=st.sampled_from(MessageKind),
    ),
    max_size=40,
)


class TestTraceEvent:
    def test_line_round_trip_unicast(self):
        event = TraceEvent(12, 3, 9, MessageKind.WRITEBACK)
        assert TraceEvent.from_line(event.to_line()) == event

    def test_line_round_trip_broadcast(self):
        event = TraceEvent(0, 7, None, MessageKind.MISS_REQUEST)
        parsed = TraceEvent.from_line(event.to_line())
        assert parsed == event and parsed.is_broadcast

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent.from_line("1 2 3")

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(-1, 0, 1)
        with pytest.raises(ValueError):
            TraceEvent(0, -1, 1)


class TestTrace:
    def test_events_sorted_on_construction(self):
        trace = Trace("t", 16, events=[TraceEvent(5, 0, 1), TraceEvent(1, 2, 3)])
        assert [e.cycle for e in trace] == [1, 5]

    def test_out_of_mesh_event_rejected(self):
        with pytest.raises(ValueError):
            Trace("t", 16, events=[TraceEvent(0, 16, 1)])
        with pytest.raises(ValueError):
            Trace("t", 16, events=[TraceEvent(0, 0, 99)])

    def test_offered_load(self):
        trace = Trace("t", 10, events=[TraceEvent(c, 0, 1) for c in range(10)])
        assert trace.offered_load() == pytest.approx(10 / (10 * 10))

    def test_broadcast_count(self):
        trace = Trace("t", 4, events=[TraceEvent(0, 0, None), TraceEvent(1, 1, 2)])
        assert trace.broadcast_count == 1

    @given(events=events_strategy)
    def test_save_load_round_trip(self, tmp_path_factory, events):
        trace = Trace("prop", 16, events=events)
        path = tmp_path_factory.mktemp("traces") / "prop.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "prop"
        assert loaded.num_nodes == 16
        assert list(loaded) == list(trace)

    def test_load_requires_nodes_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1 2 3 data_response\n")
        with pytest.raises(ValueError, match="nodes"):
            Trace.load(path)


class TestTraceSource:
    def test_events_delivered_at_their_cycle(self):
        trace = Trace("t", 4, events=[TraceEvent(2, 1, 3), TraceEvent(5, 1, 0)])
        source = TraceSource(trace)
        assert source.injections(1, 0) == []
        assert len(source.injections(1, 2)) == 1
        assert not source.exhausted(3)
        assert len(source.injections(1, 5)) == 1
        assert source.exhausted(6)

    def test_late_poll_returns_all_due(self):
        trace = Trace("t", 4, events=[TraceEvent(1, 0, 2), TraceEvent(3, 0, 2)])
        source = TraceSource(trace)
        assert len(source.injections(0, 10)) == 2


class TestSyntheticSource:
    def test_respects_stop_cycle(self):
        mesh = MeshGeometry(4, 4)
        source = SyntheticSource(
            pattern_by_name("uniform", mesh),
            lambda: BernoulliInjector(1.0),
            stop_cycle=3,
        )
        assert source.injections(0, 2)
        assert source.injections(0, 3) == []
        assert source.exhausted(3)

    def test_reproducible_given_seed(self):
        mesh = MeshGeometry(4, 4)

        def build():
            return SyntheticSource(
                pattern_by_name("uniform", mesh),
                lambda: BernoulliInjector(0.5),
                seed=9,
                stop_cycle=20,
            )

        a = [build().injections(n, c) for n in range(16) for c in range(20)]
        b = [build().injections(n, c) for n in range(16) for c in range(20)]
        assert a == b

    def test_no_self_traffic(self):
        mesh = MeshGeometry(2, 2)
        source = SyntheticSource(
            pattern_by_name("uniform", mesh), lambda: BernoulliInjector(1.0)
        )
        for cycle in range(50):
            for node in range(4):
                for event in source.injections(node, cycle):
                    assert event.destination != node


def pulled(source, first_cycle, last_cycle):
    """The per-(node, cycle) pull every backend used to make, as schedule
    buckets: cycle-major, node-ascending, empty cycles left out."""
    buckets = {}
    for cycle in range(first_cycle, last_cycle):
        bucket = [
            (node, event.destination, event.cycle)
            for node in range(source.pattern.mesh.num_nodes)
            for event in source.injections(node, cycle)
        ]
        if bucket:
            buckets[cycle] = bucket
    return buckets


INJECTORS = {
    "bernoulli-0": lambda: BernoulliInjector(0.0),
    "bernoulli-0.1": lambda: BernoulliInjector(0.1),
    "bernoulli-1": lambda: BernoulliInjector(1.0),
    "bursty": lambda: BurstyInjector(0.6, burst_length=4, gap_length=6),
}


class TestSchedule:
    """The schedule every backend reads is the per-(node, cycle) pull.

    Kills: a ``random()`` drawn twice for a self-addressed destination (the
    schedules and the RNG states part); the destination draw skipped on a
    rate-1 node (uniform and hotspot at rate 1 then disagree); a bucket
    built cycle-major in another node order; an injection draw made
    beyond ``stop_cycle`` or before the ingest cycle."""

    @pytest.mark.parametrize("grid", ["mesh", "torus"])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @settings(max_examples=25, deadline=None)
    @given(
        injector=st.sampled_from(sorted(INJECTORS)),
        ingest_cycle=st.integers(1, 12),
        stop_cycle=st.sampled_from([0, 1, 8, 30]),
        seed=st.integers(0, 3),
    )
    def test_replay_is_the_pull(
        self, pattern, grid, injector, ingest_cycle, stop_cycle, seed
    ):
        topology = topology_from_name(grid, MeshGeometry(4, 4))

        def build():
            return SyntheticSource(
                pattern_by_name(pattern, topology),
                INJECTORS[injector],
                seed=seed,
                stop_cycle=stop_cycle,
            )

        a, b = build(), build()
        events, count = replay_synthetic(a, ingest_cycle)
        # Past ``stop_cycle`` the pull draws nothing: pulling on shows it.
        assert events == pulled(b, ingest_cycle, max(stop_cycle, ingest_cycle) + 3)
        assert count == sum(map(len, events.values()))
        for node in range(16):
            assert a._rngs[node].getstate() == b._rngs[node].getstate()
            assert vars(a._injectors[node]) == vars(b._injectors[node])

    def test_drain_delivers_overdue_events_at_the_ingest_cycle(self):
        trace = Trace(
            "t",
            4,
            events=[
                TraceEvent(0, 2, 1),
                TraceEvent(3, 0, None),
                TraceEvent(5, 1, 3),
                TraceEvent(5, 0, 2),
                TraceEvent(9, 3, 0),
            ],
        )
        events, count = drain_trace(TraceSource(trace), 5)
        assert count == 5
        assert events == {
            # Due at or before cycle 5: node-ascending, then trace order,
            # each keeping the cycle it was generated.
            5: [(0, None, 3), (0, 2, 5), (1, 3, 5), (2, 1, 0)],
            9: [(3, 0, 9)],
        }


class TestScheduleMemo:
    """A bounded Bernoulli source's schedule is built once per pure key and
    process (``repro.fabric.base._SCHEDULES``): the points of a sweep that
    share traffic, over backends or fault rates, replay it once."""

    MESH = MeshGeometry(4, 4)

    def source(self, seed=3):
        return SyntheticSource(
            pattern_by_name("uniform", self.MESH),
            lambda: BernoulliInjector(0.2),
            seed=seed,
            stop_cycle=60,
        )

    def test_a_memo_hit_is_a_fresh_replay_and_draws_nothing(self):
        base._SCHEDULES.clear()
        network = make_network(PhastlaneConfig(mesh=self.MESH))
        missed = self.source()
        first = network._schedule(missed, 2)
        assert missed._streams is not None  # the miss replayed it
        served = self.source()
        events, count = network._schedule(served, 2)
        assert served._streams is None, "a hit draws nothing"
        assert (events, count) == replay_synthetic(self.source(), 2) == first
        events.clear()  # a run pops from its own copy of the outer dict
        assert network._schedule(self.source(), 2) == first
        # A source that has drawn is replayed from where its streams stand,
        # outside the memo.
        assert network._schedule(missed, 2) != first
        assert len(base._SCHEDULES) == 1

    def test_other_seeds_windows_and_injectors_miss(self):
        base._SCHEDULES.clear()
        network = make_network(PhastlaneConfig(mesh=self.MESH))
        network._schedule(self.source(), 0)
        network._schedule(self.source(seed=4), 0)
        network._schedule(self.source(), 1)
        bursty = SyntheticSource(
            pattern_by_name("uniform", self.MESH),
            lambda: BurstyInjector(0.5, 4, 4),
            seed=3,
            stop_cycle=60,
        )
        assert network._schedule(bursty, 0)[1] > 0
        assert len(base._SCHEDULES) == 3

    def test_the_generator_is_part_of_the_key(self):
        """Fast mode's Philox schedule and the exact replay of one source
        are two entries, each what its generator builds."""
        base._SCHEDULES.clear()
        fast = make_network(VectorizedConfig(mesh=self.MESH, mode="fast"))
        exact = make_network(VectorizedConfig(mesh=self.MESH, mode="exact"))
        assert fast._schedule(self.source(), 0) == philox_events(self.source(), 0)
        assert exact._schedule(self.source(), 0) == replay_synthetic(self.source(), 0)
        assert len(base._SCHEDULES) == 2

    def test_optical_and_electrical_on_one_schedule_give_fresh_stats(self):
        configs = standard_configs(MeshGeometry(8, 8))
        workload = SyntheticWorkload("uniform", 0.1)
        specs = [
            RunSpec(configs[label], workload, cycles=120, seed=5)
            for label in ("Optical4", "Electrical3")
        ]
        fresh = []
        for spec in specs:
            base._SCHEDULES.clear()
            fresh.append(stats_to_dict(run(spec).stats))
        base._SCHEDULES.clear()
        shared = [stats_to_dict(run(spec).stats) for spec in specs]
        assert len(base._SCHEDULES) == 1
        assert shared == fresh
