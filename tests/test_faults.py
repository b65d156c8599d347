"""Fault-injection layer: config contract, schedule determinism, degradation.

Covers the three guarantees the fault subsystem makes:

* **Identity** — a fault config is part of run-spec identity (digests and
  cache keys change with it), while a *disabled* config is normalised away
  so fault-free serialisation is byte-identical to a tree without faults.
* **Determinism** — schedules are pure functions of the fault seed and the
  coordinates queried, independent of traffic and of query order, so the
  same faulted spec is bit-identical run-to-run and serial-vs-parallel.
* **Graceful degradation** — both simulators drain under permanent and
  transient faults, and every generated packet is either delivered or
  accounted as lost (conservation; see also test_properties.py).
"""

import itertools
import json
import math
import random
from contextlib import nullcontext
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.network import PhastlaneNetwork
from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.fabric.ideal import IdealConfig
from repro.fabric.registry import make_network
from repro.faults.config import BURST_EXIT_PROB, FaultConfig
from repro.faults.schedule import _ROWS_KEPT, FaultSchedule
from repro.harness.exec import Executor, RunSpec, SyntheticWorkload, TraceFileWorkload
from repro.harness.report import (
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.harness.runner import run
from repro.harness.sweeps import fault_sweep_specs, throughput_vs_fault_rate
from repro.obs.config import ObsConfig
from repro.obs.tracers import CollectingTracer
from repro.sim.engine import SimulationEngine
from repro.topology.registry import topology_from_name
from repro.traffic.trace import Trace, TraceEvent, TraceSource
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

from helpers import reference_oracle

MESH = MeshGeometry(4, 4)
OPT = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELE = ElectricalConfig(mesh=MESH)
VEC = VectorizedConfig(mesh=MESH)
MESH8 = MeshGeometry(8, 8)
MESH16 = MeshGeometry(16, 16)


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        assert not FaultConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dead_ports": ((5, 1),)},
            {"dead_port_count": 1},
            {"link_flip_prob": 0.01},
            {"burst_enter_prob": 0.01},
            {"link_flip_prob": 1.0},
            {"burst_enter_prob": 1.0},
        ],
    )
    def test_any_model_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    def test_dead_ports_sorted_and_deduped(self):
        config = FaultConfig(dead_ports=((9, 2), (5, 1), (9, 2)))
        assert config.dead_ports == ((5, 1), (9, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"dead_ports": ((5, 4),)},
            {"dead_ports": ((-1, 0),)},
            {"dead_port_count": -2},
            {"link_flip_prob": 1.5},
            {"burst_enter_prob": -0.1},
            {"burst_enter_prob": 1.5},
            {"link_flip_prob": -0.01},
            {"retry_limit": 0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_round_trips_through_dict(self):
        config = FaultConfig(
            seed=7,
            dead_ports=((5, 1), (10, 0)),
            link_flip_prob=0.01,
            burst_enter_prob=0.001,
            dead_port_count=2,
            retry_limit=4,
        )
        wire = json.loads(json.dumps(config.to_dict()))
        wire["dead_ports"] = tuple(map(tuple, wire["dead_ports"]))
        assert FaultConfig(**{f.name: wire[f.name] for f in fields(config)}) == config


class TestFaultSchedule:
    def test_query_order_does_not_matter(self):
        """Forward, reverse and shuffled scans of the same schedule agree
        exactly (the traffic-independence invariant: retries re-query later
        cycles before earlier links are ever touched).  The scan visits
        more cycles than the row cache holds, cycle innermost, so nearly
        every query evicts and regenerates a row."""
        config = FaultConfig(seed=3, link_flip_prob=0.05, burst_enter_prob=0.02)
        cycles = range(0, 120, 7)
        assert len(cycles) > _ROWS_KEPT
        queries = [
            (node, port, cycle)
            for node in (0, 5, 15)
            for port in range(4)
            for cycle in cycles
        ]
        forward = FaultSchedule(config, MESH)
        want = dict(zip(queries, (forward.crossing_fault(*q) for q in queries)))
        assert {"link", "burst", None} <= set(want.values())
        shuffled = list(queries)
        random.Random(0).shuffle(shuffled)
        for order in (list(reversed(queries)), shuffled):
            schedule = FaultSchedule(config, MESH)
            assert {q: schedule.crossing_fault(*q) for q in order} == want

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["mesh", "torus"]),
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        st.sampled_from([0.0, 0.02, 0.3]),
        st.integers(0, 3),
        st.lists(st.integers(1, 9), min_size=1, max_size=25),
    )
    def test_the_cycle_lookup_is_the_point_query(
        self, seed, grid, flip, burst, dead, steps
    ):
        """The one lookup per cycle answers every crossing as the point
        query does, kind for kind: dead ports, flips and bursts together,
        on mesh and torus.  The lookups come from a forward scan with gaps,
        asked twice per cycle, and then one step back; the point queries
        from a forward scan and from a reversed one, on schedules of their
        own (a cycle with nothing to fail has no lookup and answers None)."""
        topology = topology_from_name(grid, MESH)
        config = FaultConfig(
            seed=seed, link_flip_prob=flip, burst_enter_prob=burst,
            dead_port_count=dead,
        )
        cycles = list(itertools.accumulate(steps)) + [steps[0]]
        links = [node * 4 + port for node, port in topology.links()]
        looked_up = FaultSchedule(config, topology)

        def answers(cycle):
            lookup = looked_up.cycle_lookup(cycle)
            assert looked_up.cycle_lookup(cycle) is lookup
            return {(slot, cycle): lookup and lookup(slot) for slot in links}

        got = {key: kind for cycle in cycles for key, kind in answers(cycle).items()}
        forward = FaultSchedule(config, topology)
        backward = FaultSchedule(config, topology)
        ahead = {
            (slot, c): forward.crossing_fault(slot >> 2, slot & 3, c)
            for c in cycles for slot in links
        }
        behind = {
            (slot, c): backward.crossing_fault(slot >> 2, slot & 3, c)
            for c in reversed(cycles) for slot in reversed(links)
        }
        assert got == ahead == behind

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_failing_sets_are_nested_in_the_rate(self, seed, p, q):
        """Whatever fails at rate p fails at every rate p' >= p."""
        low, high = sorted((p, q))
        queries = [
            (node, port, cycle)
            for cycle in range(12) for node in range(16) for port in range(4)
        ]

        def failing(prob):
            schedule = FaultSchedule(FaultConfig(seed=seed, link_flip_prob=prob), MESH)
            return {q for q in queries if schedule.crossing_fault(*q) is not None}

        assert failing(low) <= failing(high)

    @pytest.mark.parametrize("prob", [0.01, 0.05, 0.1])
    def test_hit_rate_matches_the_probability(self, prob):
        """Empirical rate over 16x16x4x100 crossings within 5 sigma of p."""
        schedule = FaultSchedule(FaultConfig(seed=11, link_flip_prob=prob), MESH16)
        trials = 100 * MESH16.num_nodes * 4
        hits = sum(
            schedule.crossing_fault(node, port, cycle) is not None
            for cycle in range(100)
            for node in range(MESH16.num_nodes)
            for port in range(4)
        )
        sigma = math.sqrt(trials * prob * (1 - prob))
        assert abs(hits - trials * prob) <= 5 * sigma

    @pytest.mark.parametrize("enter", [0.01, 0.05])
    def test_a_burst_chain_is_bad_for_its_stationary_share(self, enter):
        """Each link's Gilbert-Elliott chain spends ``enter / (enter +
        BURST_EXIT_PROB)`` of its cycles bad in the long run: over 10 000
        cycles the mean over an 8x8 mesh's 224 links is within 5 % of it,
        and every link within 50 % (the spread of one link's share is about
        an eighth of it at these rates)."""
        cycles = 10_000
        schedule = FaultSchedule(FaultConfig(seed=1, burst_enter_prob=enter), MESH8)
        stationary = enter / (enter + BURST_EXIT_PROB)
        shares = []
        for node, port in schedule.topology.links():
            chain = schedule._chain(node * 4 + port)
            chain.in_bad_state(cycles)
            starts = chain.boundaries  # even segments good, odd bad
            bad = sum(
                min(end, cycles) - start
                for start, end in zip(starts[1::2], starts[2::2])
                if start < cycles
            )
            shares.append(bad / cycles)
        assert len(shares) == 224
        assert abs(sum(shares) / len(shares) - stationary) <= 0.05 * stationary
        assert all(abs(share - stationary) <= 0.5 * stationary for share in shares)

    def test_certain_and_impossible_draws_generate_no_row(self):
        """A certain flip, and the loss of every crossing inside a burst,
        are answered without a row; a flip rate of 0 never asks."""
        flips = FaultSchedule(FaultConfig(link_flip_prob=1.0), MESH)
        assert {flips.crossing_fault(5, 2, c) for c in range(50)} == {"link"}
        bursts = FaultSchedule(FaultConfig(burst_enter_prob=0.5), MESH)
        assert {bursts.crossing_fault(5, 2, c) for c in range(50)} == {"burst", None}
        assert not flips._rows and not bursts._rows

    def test_row_cache_is_bounded_by_run_length(self):
        """A 10 000-cycle forward scan on 32x32 keeps a fixed number of rows."""
        config = FaultConfig(seed=5, link_flip_prob=0.01)
        schedule = FaultSchedule(config, MeshGeometry(32, 32))
        for cycle in range(10_000):
            schedule.crossing_fault(cycle % 1024, cycle % 4, cycle)
        assert len(schedule._rows) == _ROWS_KEPT

    def test_seed_changes_schedule(self):
        base = FaultConfig(seed=1, link_flip_prob=0.05)
        other = FaultConfig(seed=2, link_flip_prob=0.05)
        queries = [(n, p, c) for n in range(16) for p in range(4) for c in range(40)]
        a = [FaultSchedule(base, MESH).crossing_fault(*q) for q in queries]
        b = [FaultSchedule(other, MESH).crossing_fault(*q) for q in queries]
        assert a != b

    def test_dead_port_count_samples_deterministically(self):
        config = FaultConfig(seed=9, dead_port_count=3)
        first = FaultSchedule(config, MESH).dead_ports
        second = FaultSchedule(config, MESH).dead_ports
        from repro.util.geometry import Direction

        assert first == second
        assert len(first) == 3
        for node, port in first:
            assert MESH.neighbor(node, Direction(port)) is not None

    def test_dead_port_shadows_transients(self):
        config = FaultConfig(dead_ports=((5, 1),), link_flip_prob=1.0)
        schedule = FaultSchedule(config, MESH)
        assert schedule.crossing_fault(5, 1, 0) == "dead_port"
        assert schedule.crossing_fault(5, 2, 0) == "link"

    def test_rejects_dead_port_outside_mesh(self):
        with pytest.raises(ValueError):
            FaultSchedule(FaultConfig(dead_ports=((99, 1),)), MESH)


class TestSpecIdentity:
    def test_disabled_config_normalised_away(self):
        plain = RunSpec(OPT, SyntheticWorkload("uniform", 0.1), cycles=200)
        disabled = RunSpec(
            OPT, SyntheticWorkload("uniform", 0.1), cycles=200, faults=FaultConfig()
        )
        assert disabled.faults is None
        assert disabled == plain
        assert disabled.digest() == plain.digest()
        assert "faults" not in disabled.to_dict()

    def test_enabled_config_changes_digest(self):
        plain = RunSpec(OPT, SyntheticWorkload("uniform", 0.1), cycles=200)
        faulted = RunSpec(
            OPT,
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
            faults=FaultConfig(link_flip_prob=0.01),
        )
        reseeded = RunSpec(
            OPT,
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
            faults=FaultConfig(seed=1, link_flip_prob=0.01),
        )
        digests = {plain.digest(), faulted.digest(), reseeded.digest()}
        assert len(digests) == 3

    def test_faulted_spec_round_trips(self):
        spec = RunSpec(
            ELE,
            SyntheticWorkload("transpose", 0.05),
            cycles=300,
            faults=FaultConfig(seed=2, dead_ports=((5, 1),), link_flip_prob=0.02),
        )
        wire = json.loads(json.dumps(spec.to_dict()))
        assert wire == spec.to_dict()
        faults = {key: wire["faults"][key] for key in ("seed", "dead_ports", "link_flip_prob")}
        assert faults == {"seed": 2, "dead_ports": [[5, 1]], "link_flip_prob": 0.02}


def burst_trace(packets=48, broadcasts=2):
    events = [
        TraceEvent(index % 5, (3 * index) % 16, (5 * index + 1) % 16)
        for index in range(packets)
        if (3 * index) % 16 != (5 * index + 1) % 16
    ]
    events += [TraceEvent(1, index, None) for index in range(broadcasts)]
    events.sort(key=lambda event: event.cycle)
    return Trace("faulty-burst", 16, events=events)


def drain(network, max_cycles=20_000):
    engine = SimulationEngine()
    engine.register(network)
    drained = engine.run_until(lambda: network.idle(engine.cycle), max_cycles)
    return engine, drained


def on_reference(config):
    """Mark a parametrised phastlane config as "on the oracle": the
    registry sends it to the sparse kernel (the ``optical`` cases), and the
    reference's own fault and multicast paths keep a case (``reference``)."""
    return pytest.param(config, True, id="reference")


def engine_block(oracle):
    return reference_oracle() if oracle else nullcontext()


#: (config, on the oracle) for the optical/electrical degradation cases.
DEGRADING = [
    pytest.param(OPT, False, id="optical"),
    on_reference(OPT),
    pytest.param(ELE, False, id="electrical"),
]


class TestGracefulDegradation:
    @pytest.mark.parametrize("config,oracle", DEGRADING)
    def test_dead_port_run_drains_and_conserves(self, config, oracle):
        # Node 5's East port is on the only XY route from 4 to 7, so the
        # extra 4->7 packets are guaranteed to hit the dead link.
        faults = FaultConfig(dead_ports=((5, 1),), retry_limit=4)
        trace = burst_trace()
        events = trace.events + [TraceEvent(cycle, 4, 7) for cycle in range(8)]
        events.sort(key=lambda event: event.cycle)
        trace = Trace("dead-link", 16, events=events)
        with engine_block(oracle):
            network = make_network(config, TraceSource(trace), faults=faults)
        assert isinstance(network, PhastlaneNetwork) == oracle
        _, drained = drain(network)
        assert drained, "dead ports must not livelock the drain"
        stats = network.stats
        assert stats.packets_lost > 0, "a dead port on the burst path loses packets"
        assert stats.packets_generated == stats.packets_delivered + stats.packets_lost
        assert stats.fault_kinds["dead_port"] == stats.faults_injected

    @pytest.mark.parametrize("config,oracle", DEGRADING)
    def test_transient_faults_are_mostly_masked(self, config, oracle):
        faults = FaultConfig(seed=4, link_flip_prob=0.05)
        trace = burst_trace()
        with engine_block(oracle):
            network = make_network(config, TraceSource(trace), faults=faults)
        assert isinstance(network, PhastlaneNetwork) == oracle
        _, drained = drain(network)
        assert drained
        stats = network.stats
        assert stats.faults_injected > 0
        assert stats.faults_masked > 0, "retries must recover transient losses"
        assert stats.delivered_despite_faults > 0
        assert stats.packets_generated == stats.packets_delivered + stats.packets_lost

    def test_ideal_backend_refuses_faults(self):
        with pytest.raises(FabricError, match="ideal"):
            make_network(
                IdealConfig(mesh=MESH), faults=FaultConfig(link_flip_prob=0.01)
            )


class TestDeterminismUnderParallelism:
    SPEC = RunSpec(
        OPT,
        SyntheticWorkload("uniform", 0.1),
        cycles=300,
        seed=11,
        faults=FaultConfig(seed=5, link_flip_prob=0.02, dead_ports=((6, 1),)),
    )

    def test_serial_and_pool_runs_are_bit_identical(self):
        serial = run(self.SPEC)
        pooled = Executor(workers=2).map([self.SPEC, self.SPEC])
        for result in pooled:
            assert result == serial
            assert result_to_dict(result) == result_to_dict(serial)

    def test_fault_seed_changes_the_report(self):
        reseeded = RunSpec(
            OPT,
            SyntheticWorkload("uniform", 0.1),
            cycles=300,
            seed=11,
            faults=FaultConfig(seed=6, link_flip_prob=0.02, dead_ports=((6, 1),)),
        )
        assert reseeded.digest() != self.SPEC.digest()
        assert result_to_dict(run(reseeded)) != result_to_dict(run(self.SPEC))

    def test_cache_round_trip_is_lossless(self, tmp_path):
        from repro.harness.exec import ResultCache

        cache = ResultCache(tmp_path / "cache")
        fresh = Executor(cache=cache).map([self.SPEC])[0]
        cached = Executor(cache=cache).map([self.SPEC])[0]
        assert cached == fresh
        assert result_to_dict(cached) == result_to_dict(fresh)


class TestObservabilityPlumbing:
    def test_stats_payload_omits_faults_when_clean(self):
        result = run(RunSpec(OPT, SyntheticWorkload("uniform", 0.05), cycles=200))
        payload = stats_to_dict(result.stats)
        assert "faults" not in payload
        assert stats_to_dict(stats_from_dict(payload)) == payload

    def test_stats_payload_round_trips_fault_counters(self):
        result = run(
            RunSpec(
                OPT,
                SyntheticWorkload("uniform", 0.1),
                cycles=300,
                faults=FaultConfig(seed=4, link_flip_prob=0.05),
            )
        )
        payload = stats_to_dict(result.stats)
        assert payload["faults"]["injected"] > 0
        assert stats_to_dict(stats_from_dict(payload)) == payload
        assert result_from_dict(result_to_dict(result)) == result

    def test_windows_carry_fault_columns(self):
        spec = RunSpec(
            OPT,
            SyntheticWorkload("uniform", 0.1),
            cycles=300,
            faults=FaultConfig(seed=4, link_flip_prob=0.05),
            obs=ObsConfig(metrics_interval=50),
        )
        result = run(spec)
        series = result.timeseries
        assert series is not None
        assert sum(series.column("faulted")) == result.stats.faults_injected
        assert sum(series.column("lost")) == result.stats.packets_lost

    def test_fault_events_reach_tracers(self):
        faults = FaultConfig(seed=4, link_flip_prob=0.05, retry_limit=2)
        trace = burst_trace()
        network = make_network(OPT, TraceSource(trace), faults=faults)
        recorder = CollectingTracer()
        network.add_tracer(recorder)
        _, drained = drain(network)
        assert drained
        injected = recorder.by_kind("fault_injected")
        assert injected, "link flips must surface as fault_injected events"
        assert all(event.extra["fault"] == "link" for event in injected)
        masked = recorder.by_kind("fault_masked")
        assert len(masked) == network.stats.faults_masked


class TestDegradationSweep:
    def test_zero_rate_point_matches_fault_free_digest(self):
        specs = fault_sweep_specs(OPT, "uniform", 0.05, [0.0, 0.1], cycles=200)
        plain = RunSpec(OPT, SyntheticWorkload("uniform", 0.05), cycles=200)
        assert specs[0].digest() == plain.digest()
        assert specs[1].digest() != plain.digest()

    def test_the_swept_field_takes_each_rate_and_the_template_the_rest(self):
        template = FaultConfig(seed=3, dead_ports=((5, 1),), retry_limit=4)
        specs = fault_sweep_specs(
            OPT, "uniform", 0.05, [0.0, 0.1], cycles=200, faults=template,
            swept="burst_enter_prob",
        )
        assert [spec.faults for spec in specs] == [
            replace(template, burst_enter_prob=rate) for rate in (0.0, 0.1)
        ]

    def test_curve_degrades_monotonically_in_faults(self):
        points = throughput_vs_fault_rate(
            OPT, "uniform", 0.05, [0.0, 0.02, 0.2], cycles=300
        )
        injected = [point.faults_injected for point in points]
        assert injected == sorted(injected)
        assert injected[0] == 0 and injected[-1] > 0
        assert points[0].delivery_ratio >= points[-1].delivery_ratio


    @pytest.mark.parametrize(
        "config,oracle",
        [
            on_reference(OPT),
            pytest.param(OPT, False, id="optical"),
            pytest.param(ELE, False, id="electrical"),
            pytest.param(VEC, False, id="vectorized"),
        ],
    )
    def test_sweep_is_monotone_and_anchored_at_fault_free(self, config, oracle):
        """The tier-1 twin of the repo benchmark's ``fault.*`` checks."""
        rates = (0.0, 0.01, 0.05, 0.1)
        with engine_block(oracle):
            results = Executor().map(
                fault_sweep_specs(config, "uniform", 0.1, rates, cycles=200)
            )
            clean = run(
                RunSpec(config, SyntheticWorkload("uniform", 0.1), cycles=200)
            )
        injected = [result.stats.faults_injected for result in results]
        assert injected == sorted(injected) and injected[-1] > 0
        assert results[0] == clean

    def test_reference_and_dispatched_sweeps_are_the_same_sweep(self):
        specs = fault_sweep_specs(OPT, "uniform", 0.1, (0.0, 0.05, 0.1), cycles=200)
        with reference_oracle():
            reference = Executor().map(specs)
        assert Executor().map(specs) == reference
        assert reference[-1].stats.faults_injected > 0


@pytest.mark.slow
class TestFaultStress:
    """Heavy-fault endurance runs (excluded from tier-1; CI coverage job
    re-includes them with ``-m ""``)."""

    BIG = MeshGeometry(8, 8)

    @pytest.mark.parametrize(
        "config,oracle",
        [
            pytest.param(PhastlaneConfig(mesh=BIG, max_hops_per_cycle=4), False,
                         id="optical"),
            on_reference(PhastlaneConfig(mesh=BIG, max_hops_per_cycle=4)),
            pytest.param(ElectricalConfig(mesh=BIG), False, id="electrical"),
        ],
    )
    def test_large_mesh_survives_heavy_faults(self, config, oracle):
        faults = FaultConfig(
            seed=13,
            dead_port_count=4,
            link_flip_prob=0.08,
            burst_enter_prob=0.01,
            retry_limit=5,
        )
        events = [
            TraceEvent(index % 40, (7 * index) % 64, (11 * index + 3) % 64)
            for index in range(400)
            if (7 * index) % 64 != (11 * index + 3) % 64
        ]
        trace = Trace("stress", 64, events=sorted(events, key=lambda e: e.cycle))
        with engine_block(oracle):
            network = make_network(config, TraceSource(trace), faults=faults)
        assert isinstance(network, PhastlaneNetwork) == oracle
        _, drained = drain(network, max_cycles=200_000)
        assert drained
        stats = network.stats
        assert stats.faults_injected > 0
        assert stats.packets_generated == stats.packets_delivered + stats.packets_lost
