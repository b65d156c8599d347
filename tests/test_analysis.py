"""Causal trace analytics: span reconstruction, blame reports, diffing.

The two load-bearing guarantees (ISSUE 10 acceptance criteria):

1. **Exact decomposition** — for every delivered packet, the span's wait
   components sum *exactly* to its end-to-end latency, property-tested on
   both cycle-accurate simulators under fuzzed shapes, buffers and fault
   models.
2. **Byte identity** — blame reports rendered from reference and
   vectorized ``mode="exact"`` traces of the same RunSpec are
   byte-identical, as are in-memory and JSONL-file analyses of one run.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle.network import PhastlaneNetwork
from repro.cli import main
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.fabric.ideal import IdealConfig
from repro.fabric.registry import make_network
from repro.faults.config import FaultConfig
from repro.harness.exec import Executor, RunSpec, Splash2Workload, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs
from repro.harness.htmlreport import render_campaign_html
from repro.harness.runner import run
from repro.obs.analysis import (
    analyze_spans,
    analyze_trace_file,
    diff_reports,
    read_trace_file,
    reconstruct_spans,
    render_diff_markdown,
    render_markdown,
)
from repro.obs.config import ObsConfig
from repro.obs.events import PacketEvent
from repro.obs.tracers import CollectingTracer
from repro.sim.engine import SimulationEngine
from repro.topology.registry import topology_of
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import (
    SyntheticSource,
    Trace,
    TraceEvent,
    TraceSource,
)
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig, as_phastlane
from repro.vectorized.network import VectorizedNetwork

from helpers import reference_oracle

SLOW = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

mesh_shapes = st.sampled_from([(2, 2), (4, 4), (4, 2), (3, 5)])
fault_models = st.sampled_from(
    [
        None,
        FaultConfig(seed=2, link_flip_prob=0.05, retry_limit=5),
        FaultConfig(seed=4, burst_enter_prob=0.02, retry_limit=5),
        FaultConfig(seed=5, burst_enter_prob=0.01),
    ]
)


def burst_trace(mesh: MeshGeometry, seed: int, packets: int) -> Trace:
    """Deterministic all-at-once burst: maximal transient contention."""
    events = []
    n = mesh.num_nodes
    for index in range(packets):
        src = (seed + index) % n
        dst = (seed + 3 * index + 1) % n
        if src != dst:
            events.append(TraceEvent(0, src, dst))
    return Trace("burst", n, events=events)


def traced_run(config, source, cycles, faults=None, drain=False):
    """Drive a network with a collecting tracer attached; return events."""
    network = make_network(config, source, faults=faults)
    tracer = CollectingTracer()
    network.add_tracer(tracer)
    engine = SimulationEngine()
    engine.register(network)
    engine.run(cycles)
    if drain:
        assert engine.run_until(lambda: network.idle(engine.cycle), 100_000)
    return tracer.events, network


def assert_exact_sum(spans):
    """The tentpole law: components partition each delivered latency."""
    delivered = [span for span in spans if span.delivered]
    assert delivered, "law is vacuous without deliveries"
    for span in delivered:
        components = span.components()
        assert sum(components.values()) == span.latency, (
            f"packet {span.packet} ({span.origin}->{span.destination}): "
            f"components {components} sum to {sum(components.values())}, "
            f"latency is {span.latency}; timeline {span.timeline}"
        )
    return delivered


class TestExactSumLaw:
    @SLOW
    @given(
        mesh_shapes,
        st.sampled_from([1, 4]),
        st.sampled_from([2, 10, None]),
        fault_models,
        st.integers(0, 1000),
    )
    def test_phastlane_components_sum_to_latency(
        self, shape, max_hops, buffers, faults, seed
    ):
        mesh = MeshGeometry(*shape)
        trace = burst_trace(mesh, seed, packets=3 * mesh.num_nodes)
        config = PhastlaneConfig(
            mesh=mesh, max_hops_per_cycle=max_hops, buffer_entries=buffers
        )
        events, _ = traced_run(
            config, TraceSource(trace), trace.last_cycle + 1, faults=faults,
            drain=True,
        )
        assert_exact_sum(reconstruct_spans(events, link_delay=0))

    @SLOW
    @given(
        st.sampled_from([(2, 2), (4, 4)]),
        st.sampled_from(["uniform", "hotspot"]),
        st.integers(0, 1000),
    )
    def test_electrical_components_sum_to_latency(self, shape, pattern, seed):
        config = ElectricalConfig(mesh=MeshGeometry(*shape))
        source = SyntheticSource(
            pattern_by_name(pattern, topology_of(config)),
            lambda: BernoulliInjector(0.15),
            seed=seed,
            stop_cycle=150,
        )
        events, _ = traced_run(config, source, 150)
        spans = reconstruct_spans(
            events, link_delay=config.router_delay_cycles
        )
        delivered = assert_exact_sum(spans)
        # The electrical pipeline really does pay per-hop transit.
        assert any(sum(s.transit.values()) > 0 for s in delivered)

    def test_electrical_faulted_run_still_sums(self):
        config = ElectricalConfig(mesh=MeshGeometry(4, 4))
        source = SyntheticSource(
            pattern_by_name("uniform", topology_of(config)),
            lambda: BernoulliInjector(0.2),
            seed=9,
            stop_cycle=300,
        )
        events, network = traced_run(
            config, source, 300,
            faults=FaultConfig(seed=3, link_flip_prob=0.05, retry_limit=5),
        )
        assert network.stats.faults_injected > 0
        assert_exact_sum(
            reconstruct_spans(events, link_delay=config.router_delay_cycles)
        )

    def test_ideal_backend_is_pure_transit(self):
        config = IdealConfig()
        source = SyntheticSource(
            pattern_by_name("uniform", topology_of(config)),
            lambda: BernoulliInjector(0.2),
            seed=5,
            stop_cycle=100,
        )
        events, _ = traced_run(config, source, 120)
        delivered = assert_exact_sum(reconstruct_spans(events))
        # The analytic fabric has no queueing: every delivered cycle is
        # flight time on the origin->destination link.
        for span in delivered:
            assert span.components()["link_transit"] == span.latency

    def test_multicast_spans_end_at_their_last_tap(self):
        # A broadcast splits into per-segment multicast packets; each
        # span covers one segment's taps and still decomposes exactly.
        mesh = MeshGeometry(4, 4)
        trace = Trace("b", mesh.num_nodes, events=[TraceEvent(0, 5, None)])
        events, _ = traced_run(
            PhastlaneConfig(mesh=mesh), TraceSource(trace),
            trace.last_cycle + 1, drain=True,
        )
        spans = reconstruct_spans(events)
        assert all(span.multicast for span in spans)
        assert sum(span.deliveries for span in spans) == mesh.num_nodes - 1
        assert_exact_sum(spans)


def flew_every_cycle(span):
    """No wait recorded: the packet was never blocked, dropped, resent or
    faulted, and crossed a link in every cycle from generation to delivery
    (no source-queue wait, no cycle parked behind another packet)."""
    kinds = {kind for _, kind, _ in span.timeline}
    flying = {cycle for cycle, kind, _ in span.timeline if kind == "hop"}
    return kinds <= {"generated", "injected", "hop", "buffered", "delivered"} and (
        flying == set(range(span.generated_cycle, span.delivered_cycle + 1))
    )


class TestLatencyBoundUnderLoad:
    """The analytic bound next to the exact-sum law: a delivered unicast
    took at least one cycle per optical segment of at most
    ``max_hops_per_cycle`` routers — ``ceil(hops / max_hops)``, the delivery
    cycle counted as ``TestZeroLoadLaw`` counts it — and exactly that when
    nothing made it wait.  A stop rule that let a flight cross one router
    too many in a cycle would break the bound; one that stopped it early,
    the equality."""

    @pytest.mark.parametrize("reference", [False, True], ids=["kernel", "oracle"])
    @pytest.mark.parametrize("max_hops", [2, 4])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("pattern, rate", [("hotspot", 0.1), ("uniform", 0.3)])
    def test_latency_is_at_least_the_segment_count(
        self, pattern, rate, topology, max_hops, reference
    ):
        config = PhastlaneConfig(
            mesh=MeshGeometry(8, 8), topology=topology, max_hops_per_cycle=max_hops
        )
        topo = topology_of(config)
        source = SyntheticSource(
            pattern_by_name(pattern, topo),
            lambda: BernoulliInjector(rate),
            seed=11,
            stop_cycle=150,
        )
        if reference:
            with reference_oracle():
                events, network = traced_run(config, source, 150, drain=True)
        else:
            events, network = traced_run(config, source, 150, drain=True)
        assert type(network) is (PhastlaneNetwork if reference else VectorizedNetwork)
        delivered = [
            span for span in reconstruct_spans(events) if span.delivered
        ]
        unimpeded = 0
        for span in delivered:
            segments = -(-topo.hop_count(span.origin, span.destination) // max_hops)
            crossings = Counter(
                cycle for cycle, kind, _ in span.timeline if kind == "hop"
            )
            assert max(crossings.values()) <= max_hops, span.timeline
            if flew_every_cycle(span):
                unimpeded += 1
                assert span.latency + 1 == segments, span.timeline
            else:
                assert span.latency + 1 >= segments, span.timeline
        # Loaded, so both halves of the law are exercised.
        assert 0 < unimpeded < len(delivered)
        assert network.stats.packets_dropped > 0 or any(
            span.blocked for span in delivered
        )


    @pytest.mark.parametrize("delay", [2, 3])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_electrical_latency_is_at_least_the_pipeline(self, topology, delay):
        """The baseline's half: ``router_delay_cycles`` a hop, the ejection
        bypass and the delivery cycle, which ``tests/test_electrical_network``
        finds exact for a lone packet, is a floor for every packet of a
        loaded run and is met by the ones nothing held up.  A pipeline that
        skipped the bypass cycle (``+ 1`` for ``+ 2``) or a hop count that
        overstated a wrapped route would break the floor; a first direction
        that sent a flit the long way round, the equality."""
        config = ElectricalConfig(
            mesh=MeshGeometry(8, 8), topology=topology, router_delay_cycles=delay
        )
        topo = topology_of(config)
        source = SyntheticSource(
            pattern_by_name("uniform", topo),
            lambda: BernoulliInjector(0.15),
            seed=11,
            stop_cycle=150,
        )
        events, network = traced_run(config, source, 150, drain=True)
        slack = [
            span.latency + 1
            - (delay * topo.hop_count(span.origin, span.destination) + 2)
            for span in reconstruct_spans(events, link_delay=delay)
            if span.delivered
        ]
        assert len(slack) == network.stats.packets_delivered > 1000
        assert min(slack) == 0
        # Loaded, so both halves of the law are exercised.
        assert 0 < slack.count(0) < len(slack)


class TestSpanWalker:
    """Hand-built event streams pin the attribution rules themselves."""

    def test_source_queue_then_contention_then_zero_transit(self):
        events = [
            PacketEvent("generated", 0, 5, 7, {"dst": 9}),
            PacketEvent("injected", 3, 5, 7),
            PacketEvent("hop", 10, 6, 7),
            PacketEvent("hop", 10, 9, 7),
            PacketEvent("delivered", 10, 9, 7),
        ]
        (span,) = reconstruct_spans(events, link_delay=0)
        assert span.source_queue == 3
        assert dict(span.contention) == {5: 7}
        assert sum(span.transit.values()) == 0
        assert span.latency == 10

    def test_link_delay_splits_arrival_gaps(self):
        events = [
            PacketEvent("generated", 0, 0, 1),
            PacketEvent("injected", 0, 0, 1),
            PacketEvent("buffered", 5, 1, 1),  # 3 transit + 2 waiting at 0
            PacketEvent("hop", 12, 2, 1),      # 3 transit + 4 queued at 1
            PacketEvent("delivered", 12, 2, 1),
        ]
        (span,) = reconstruct_spans(events, link_delay=3)
        assert dict(span.transit) == {(0, 1): 3, (1, 2): 3}
        assert dict(span.contention) == {0: 2, 1: 4}
        assert sum(span.components().values()) == span.latency == 12

    def test_drop_blames_the_dropping_router(self):
        events = [
            PacketEvent("generated", 0, 0, 2),
            PacketEvent("injected", 0, 0, 2),
            PacketEvent("hop", 1, 4, 2),
            PacketEvent("blocked", 1, 4, 2),
            PacketEvent("dropped", 1, 4, 2),
            PacketEvent("retransmitted", 9, 0, 2, {"attempts": 1}),
            PacketEvent("hop", 9, 4, 2),
            PacketEvent("hop", 9, 8, 2),
            PacketEvent("delivered", 9, 8, 2),
        ]
        (span,) = reconstruct_spans(events)
        # The 8-cycle drop-signal + backoff wait lands on router 4 (the
        # dropper), not on the retransmitter.
        assert dict(span.backoff) == {4: 8}
        assert span.drops == 1 and span.retransmits == 1 and span.blocked == 1
        assert sum(span.components().values()) == span.latency == 9

    def test_monitor_events_are_ignored(self):
        events = [
            PacketEvent("health_critical", 0, 0, -1, {"check": "credit"}),
            PacketEvent("generated", 0, 1, 3),
            PacketEvent("health_warn", 2, 0, 3, {"check": "progress"}),
            PacketEvent("injected", 4, 1, 3),
            PacketEvent("delivered", 4, 1, 3),
        ]
        spans = reconstruct_spans(events)
        assert len(spans) == 1
        assert spans[0].source_queue == 4

    def test_traversals_follow_the_last_move(self):
        # A drop and its resend move nothing: the second hop into 2 is no
        # new crossing.  A buffer write into a new node is a move.
        events = [
            PacketEvent("generated", 0, 0, 4),
            PacketEvent("injected", 0, 0, 4),
            PacketEvent("buffered", 1, 1, 4),
            PacketEvent("hop", 2, 2, 4),
            PacketEvent("dropped", 2, 2, 4),
            PacketEvent("retransmitted", 5, 1, 4),
            PacketEvent("hop", 5, 2, 4),
            PacketEvent("hop", 5, 3, 4),
            PacketEvent("delivered", 5, 3, 4),
        ]
        (span,) = reconstruct_spans(events)
        assert dict(span.traversals) == {(1, 2): 1, (2, 3): 1}
        links = analyze_spans(reconstruct_spans(events)).links
        assert {key: entry["traversals"] for key, entry in links.items()} == {
            (1, 2): 1, (2, 3): 1,
        }

    def test_a_wait_without_a_move_pays_no_transit(self):
        events = [
            PacketEvent("generated", 0, 0, 5),
            PacketEvent("injected", 0, 0, 5),
            PacketEvent("hop", 3, 1, 5),
            PacketEvent("buffered", 7, 1, 5),  # 4 cycles parked at 1
            PacketEvent("hop", 10, 2, 5),
            PacketEvent("delivered", 10, 2, 5),
        ]
        (span,) = reconstruct_spans(events, link_delay=3)
        assert dict(span.transit) == {(0, 1): 3, (1, 2): 3}
        assert dict(span.contention) == {1: 4}

    def test_a_cross_node_delivery_from_flight_is_transit(self):
        events = [
            PacketEvent("generated", 0, 0, 6),
            PacketEvent("injected", 0, 0, 6),
            PacketEvent("hop", 1, 1, 6),
            PacketEvent("delivered", 4, 3, 6),
        ]
        (span,) = reconstruct_spans(events)
        assert dict(span.transit) == {(1, 3): 3}
        assert dict(span.contention) == {0: 1}

    def test_a_monitor_kind_is_skipped_whatever_its_uid(self):
        events = [
            PacketEvent("generated", 0, 1, 3),
            PacketEvent("health_critical", 1, 1, 3, {"check": "progress"}),
            PacketEvent("injected", 2, 1, 3),
            PacketEvent("delivered", 2, 1, 3),
        ]
        (span,) = reconstruct_spans(events)
        assert [kind for _, kind, _ in span.timeline] == [
            "generated", "injected", "delivered",
        ]

    def test_packets_renumbered_by_first_appearance(self):
        events = [
            PacketEvent("generated", 0, 0, 900),
            PacketEvent("generated", 1, 1, 350),
            PacketEvent("injected", 2, 0, 900),
        ]
        spans = reconstruct_spans(events)
        assert [(s.packet, s.origin) for s in spans] == [(0, 0), (1, 1)]


class TestByteIdentity:
    def _blame(self, config, seed=11, cycles=150):
        source = SyntheticSource(
            pattern_by_name("uniform", topology_of(config)),
            lambda: BernoulliInjector(0.2),
            seed=seed,
            stop_cycle=cycles,
        )
        events, network = traced_run(config, source, cycles)
        return analyze_spans(reconstruct_spans(events)), type(network)

    def test_reference_and_vectorized_exact_reports_identical(self):
        # Three engines-by-config: the reference asked for by name (the
        # registry sends this config to the sparse kernel), the same config
        # as dispatched, and the vectorized config in exact mode.
        vec_config = VectorizedConfig(mode="exact")
        with reference_oracle():
            ref, ref_engine = self._blame(as_phastlane(vec_config))
        dispatched, dispatched_engine = self._blame(as_phastlane(vec_config))
        vec, _ = self._blame(vec_config)
        assert ref_engine is PhastlaneNetwork
        assert dispatched_engine is VectorizedNetwork
        assert ref.delivered > 0
        assert ref.to_json() == dispatched.to_json() == vec.to_json()

    def test_in_memory_and_file_analyses_identical(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spec = RunSpec(
            PhastlaneConfig(mesh=MeshGeometry(4, 4)),
            SyntheticWorkload("hotspot", 0.2),
            cycles=200,
            seed=3,
            obs=ObsConfig(trace_path=str(path)),
        )
        run(spec)
        from_file = analyze_trace_file(path)
        events, meta = read_trace_file(path)
        in_memory = analyze_spans(reconstruct_spans(events))
        assert from_file.to_json() == in_memory.to_json()
        # The header carries run identity into the report meta.
        assert from_file.meta["spec"] == spec.digest()
        assert from_file.meta["label"] == spec.config.label
        assert from_file.meta["link_delay"] == 0

    @pytest.mark.parametrize(
        "label, workload, faults, headerless",
        [
            ("Optical4", SyntheticWorkload("uniform", 0.3), None, False),
            ("Vector4X", SyntheticWorkload("uniform", 0.3), None, False),
            ("Electrical3", SyntheticWorkload("uniform", 0.15), None, False),
            ("Electrical3", SyntheticWorkload("uniform", 0.15),
             FaultConfig(seed=2, link_flip_prob=0.05, retry_limit=5), False),
            ("Electrical3", Splash2Workload("fft"), None, False),
            ("Optical4", Splash2Workload("fft"), None, False),
            ("Ideal", SyntheticWorkload("uniform", 0.2), None, False),
            ("Electrical3", SyntheticWorkload("uniform", 0.15), None, True),
        ],
        ids=["optical", "vector-exact", "electrical", "electrical-link-retries",
             "electrical-broadcast", "optical-broadcast", "ideal", "headerless"],
    )
    def test_file_and_in_memory_compositions_agree_on_every_backend(
        self, tmp_path, label, workload, faults, headerless
    ):
        """``analyze_trace_file`` (records straight into streams) and
        ``analyze_spans`` over ``read_trace_file`` (events, then streams)
        are one walker and one aggregator fed two ways: their reports agree
        byte for byte on every backend and on every shape a trace takes."""
        mesh = MeshGeometry(4, 4)
        configs = {
            **standard_configs(mesh),
            "Vector4X": VectorizedConfig(mesh=mesh, mode="exact"),
            "Ideal": IdealConfig(mesh=mesh),
        }
        path = tmp_path / "t.jsonl"
        run(RunSpec(configs[label], workload, cycles=200, seed=3, faults=faults,
                    obs=ObsConfig(trace_path=str(path))))
        if headerless:
            path.write_text(path.read_text().split("\n", 1)[1])
        from_file = analyze_trace_file(path)
        events, meta = read_trace_file(path)
        in_memory = dataclasses.replace(
            analyze_spans(
                reconstruct_spans(events, int(meta.get("link_delay", 0)))
            ),
            meta=meta,
        )
        assert from_file.delivered > 0
        assert from_file.to_json() == in_memory.to_json()
        for blame in ("routers", "links", "causes"):
            assert render_markdown(from_file, blame=blame) == render_markdown(
                in_memory, blame=blame
            )
        spans = reconstruct_spans(events, link_delay=int(meta.get("link_delay", 0)))
        assert {
            key: entry["traversals"]
            for key, entry in from_file.links.items()
            if entry["traversals"]
        } == timeline_traversals(spans)
        if faults is not None:  # the case is what its name says
            assert from_file.causes["retransmits"] > 0
        if isinstance(workload, Splash2Workload):
            assert any(span.multicast for span in spans)
        assert (meta == {}) is headerless

    def test_electrical_header_supplies_link_delay(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = ElectricalConfig(mesh=MeshGeometry(4, 4))
        run(
            RunSpec(
                config,
                SyntheticWorkload("uniform", 0.1),
                cycles=200,
                seed=2,
                obs=ObsConfig(trace_path=str(path)),
            )
        )
        report = analyze_trace_file(path)
        assert report.meta["link_delay"] == config.router_delay_cycles
        assert report.components["link_transit"] > 0


def timeline_traversals(spans):
    """Link traversals re-counted from the timelines: a ``hop`` into a node
    other than the one the packet last moved to (``generated``,
    ``injected``, ``hop``, ``buffered``, ``delivered``) crosses that link."""
    counts = Counter()
    for span in spans:
        previous = None
        for _, kind, node in span.timeline:
            if kind == "hop" and previous is not None and previous != node:
                counts[previous, node] += 1
            if kind in ("generated", "injected", "hop", "buffered", "delivered"):
                previous = node
    return counts


class TestReportPins:
    """Blame reports of fixed runs, pinned by sha256 of the JSON body and
    the three markdown tables (run meta cleared).  The values were recorded
    before the analyzer became one parser, one walker and one aggregator; a
    restatement of it must not move them."""

    CASES = {
        "optical-hotspot": ("Optical4", SyntheticWorkload("hotspot", 0.3), None),
        "optical-broadcast": ("Optical4", Splash2Workload("ocean"), None),
        "electrical-link-retries": (
            "Electrical3",
            SyntheticWorkload("uniform", 0.2),
            FaultConfig(seed=2, link_flip_prob=0.05, retry_limit=5),
        ),
        "electrical-broadcast": ("Electrical3", Splash2Workload("ocean"), None),
        "optical-link-faults": (
            "Optical4",
            SyntheticWorkload("uniform", 0.2),
            FaultConfig(seed=4, link_flip_prob=0.08, retry_limit=1),
        ),
        "ideal": ("Ideal", SyntheticWorkload("uniform", 0.2), None),
    }
    PINS = {
        "optical-hotspot": "87c3fd356ff127a5c94eaf6df0546903f190bf4dbdc22ef1ef298c49f845b42b",
        "optical-broadcast": "cda7334133639f40c3f99e9ca596d9a343cbf5704015750c1900a5b8e073d9ac",
        "electrical-link-retries": "b3b43d0397186ef70309552fac0790ca420f8e6f35a4b93c5c1ce1f022aa230b",
        "electrical-broadcast": "031ac5e280ed9d2909de65ab90ea5c19a42ce959fc494351f915ed2d0689a2ab",
        "optical-link-faults": "920f2d9367c17120d9b6dd466603e4449492ce9b7c46aca7e3d2599800a4f3e4",
        "ideal": "a82fecd691840da375650162d25dbce34874afea60e51901f1b340221d823706",
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_report_is_pinned(self, tmp_path, case):
        label, workload, faults = self.CASES[case]
        mesh = MeshGeometry(4, 4)
        config = {**standard_configs(mesh), "Ideal": IdealConfig(mesh=mesh)}[label]
        path = tmp_path / "t.jsonl"
        run(RunSpec(config, workload, cycles=200, seed=3, faults=faults,
                    obs=ObsConfig(trace_path=str(path))))
        report = dataclasses.replace(analyze_trace_file(path), meta={})
        text = report.to_json() + "".join(
            render_markdown(report, blame=blame)
            for blame in ("routers", "links", "causes")
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[case]


class TestTraceFileValidation:
    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": "repro-trace/v99", "kinds": []}\n')
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_trace_file(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "teleported", "cycle": 0, "node": 0, "uid": 0}\n')
        with pytest.raises(ValueError, match="unknown event kind"):
            read_trace_file(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSONL"):
            read_trace_file(path)

    @pytest.mark.parametrize(
        "tail, complaint",
        [
            ('{"kind": "hop", "cycle": 1}\n', "hop event lacks field 'node'"),
            ("[1, 2]\n", "record is not a JSON object: [1, 2]"),
            ('{"kind": "injected", "cyc', "not JSONL: "),  # cut mid-line
        ],
        ids=["missing-field", "non-object", "cut-mid-line"],
    )
    def test_malformed_record_is_a_one_line_cli_error(
        self, tmp_path, capsys, tail, complaint
    ):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"kind": "generated", "cycle": 0, "node": 0, "uid": 1, "dst": 3}\n'
            + tail
        )
        with pytest.raises(ValueError, match="t.jsonl:2: "):
            read_trace_file(path)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: {path}:2: {complaint}")
        assert captured.err.count("\n") == 1

    def test_headerless_trace_still_parses(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"kind": "generated", "cycle": 0, "node": 0, "uid": 1, "dst": 3}\n'
            '{"kind": "injected", "cycle": 1, "node": 0, "uid": 1}\n'
            '{"kind": "delivered", "cycle": 4, "node": 3, "uid": 1}\n'
        )
        report = analyze_trace_file(path)
        assert report.delivered == 1
        assert report.meta == {}


class TestDiff:
    def _report(self, rate, tmp_path, name):
        path = tmp_path / name
        spec = RunSpec(
            PhastlaneConfig(mesh=MeshGeometry(4, 4)),
            SyntheticWorkload("hotspot", rate),
            cycles=200,
            seed=3,
            obs=ObsConfig(trace_path=str(path)),
        )
        run(spec)
        return analyze_trace_file(path), spec

    def test_diff_keys_runs_by_digest_and_signs_deltas(self, tmp_path):
        light, light_spec = self._report(0.05, tmp_path, "a.jsonl")
        heavy, heavy_spec = self._report(0.3, tmp_path, "b.jsonl")
        diff = diff_reports(light, heavy)
        assert diff["a"]["spec"] == light_spec.digest()
        assert diff["b"]["spec"] == heavy_spec.digest()
        assert diff["total_latency"]["delta"] > 0  # heavier load is worse
        assert set(diff["components"]) == {
            "source_queue",
            "router_contention",
            "link_transit",
            "retransmit_backoff",
        }
        rendered = render_diff_markdown(diff, 5)
        assert "Blame diff" in rendered
        assert light_spec.digest()[:12] in rendered

    def test_self_diff_is_all_zero(self, tmp_path):
        report, _ = self._report(0.2, tmp_path, "a.jsonl")
        diff = diff_reports(report, report)
        assert diff["total_latency"]["delta"] == 0
        assert all(e["delta"] == 0 for e in diff["components"].values())
        assert all(e["delta"] == 0 for e in diff["routers"].values())


class TestRenderers:
    def _report(self):
        config = PhastlaneConfig(mesh=MeshGeometry(4, 4))
        source = SyntheticSource(
            pattern_by_name("hotspot", topology_of(config)),
            lambda: BernoulliInjector(0.25),
            seed=7,
            stop_cycle=200,
        )
        events, _ = traced_run(config, source, 200)
        report = analyze_spans(reconstruct_spans(events), top=3)
        return dataclasses.replace(report, meta={"label": "Optical4"})

    def test_markdown_sections(self):
        report = self._report()
        text = render_markdown(report, blame="routers")
        assert "# Latency blame report: Optical4" in text
        assert "## Where the delivered cycles went" in text
        assert "## Top blamed routers" in text
        assert "## Tail latency" in text
        assert "p999" in text
        assert "## Slowest 3 packets" in text

    def test_blame_table_variants(self):
        report = self._report()
        assert "## Top blamed links" in render_markdown(report, blame="links")
        assert "## Blame by cause" in render_markdown(report, blame="causes")



class TestCli:
    def _trace(self, tmp_path, rate=0.25, name="t.jsonl"):
        path = tmp_path / name
        run(
            RunSpec(
                PhastlaneConfig(mesh=MeshGeometry(4, 4)),
                SyntheticWorkload("hotspot", rate),
                cycles=200,
                seed=3,
                obs=ObsConfig(trace_path=str(path)),
            )
        )
        return path

    def test_markdown_report(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert main(["analyze", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "# Latency blame report" in out
        assert "router_contention" in out

    def test_json_report_and_out_file(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        out_path = tmp_path / "blame.json"
        code = main(
            ["analyze", str(path), "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-blame/v1"
        assert json.loads(out_path.read_text()) == payload

    def test_diff_mode(self, tmp_path, capsys):
        a = self._trace(tmp_path, rate=0.05, name="a.jsonl")
        b = self._trace(tmp_path, rate=0.3, name="b.jsonl")
        assert main(["analyze", "--diff", str(a), str(b)]) == 0
        assert "Blame diff" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,rows", [(["--top", "2"], 2), ([], 5)])
    def test_diff_top_sets_the_router_movers(self, tmp_path, capsys, flags, rows):
        a = self._trace(tmp_path, rate=0.05, name="a.jsonl")
        b = self._trace(tmp_path, rate=0.3, name="b.jsonl")
        assert main(["analyze", "--diff", str(a), str(b), *flags]) == 0
        movers = capsys.readouterr().out.split("## Router movers")[1]
        table = [line for line in movers.splitlines() if line.startswith("|")]
        assert len(table) - 2 == rows  # header and rule

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_no_input_exits_two(self, capsys):
        assert main(["analyze"]) == 2
        assert "need a trace" in capsys.readouterr().err

    def test_trace_plus_diff_exits_two(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert main(
            ["analyze", str(path), "--diff", str(path), str(path)]
        ) == 2
        assert "not both" in capsys.readouterr().err


class TestHtmlBlameSection:
    def test_traced_campaign_gains_blame_section(self, tmp_path):
        specs = [
            RunSpec(
                PhastlaneConfig(mesh=MeshGeometry(4, 4)),
                SyntheticWorkload("hotspot", 0.25),
                cycles=200,
                seed=3,
            )
        ]
        executor = Executor(
            workers=1,
            cache=None,
            obs=ObsConfig(trace_path=str(tmp_path / "trace.jsonl")),
        )
        executor.map(specs)
        html = render_campaign_html(executor.events)
        assert "Latency blame" in html
        assert "tail latency (cycles)" in html

    def test_untraced_campaign_has_no_blame_section(self):
        specs = [
            RunSpec(
                PhastlaneConfig(mesh=MeshGeometry(2, 2)),
                SyntheticWorkload("uniform", 0.1),
                cycles=50,
                seed=1,
            )
        ]
        executor = Executor(workers=1, cache=None)
        executor.map(specs)
        assert "Latency blame" not in render_campaign_html(executor.events)
