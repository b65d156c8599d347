"""Differential proof harness for the vectorized backend.

The vectorized engine (``repro.vectorized``) claims a calibration with two
tiers, and this suite is the proof of exactly that claim — no more:

* ``mode="exact"`` — *bit-identical*: every flattened stats field
  (counters, latency distribution, energy ledger) equals the reference
  Phastlane simulator's, across mesh/torus, synthetic patterns, trace
  workloads and every fault model.  Failures name the diverging field.
* ``mode="fast"`` — *engine*-identical but traffic drawn from a
  documented, digest-distinguished Philox stream: trace workloads stay
  bit-identical; synthetic runs are compared field-by-field where every
  field is either bit-identical or named in the explicit tolerance
  allowlist below.  A field in neither class fails the run.

Which side is which is stated, not assumed: the registry sends every
``PhastlaneConfig`` to the sparse kernel itself, so the reference side of
every comparison here is built inside ``helpers.reference_oracle()``, which
shadows the ``"phastlane"`` registration with the oracle's
``PhastlaneNetwork`` (``tests/oracle``).  Exact comparisons are three-way: the oracle, the
same ``PhastlaneConfig`` as the registry dispatches it, and the
``VectorizedConfig`` in exact mode; under round-robin arbitration (paper
footnote 3), which a ``VectorizedConfig`` cannot ask for, they are the
first two.  ``drive`` asserts the class it built and ``TestOracleIsReal``
is the canary for the runner-based comparisons.

What this harness does **not** prove: fast-mode synthetic schedules are
statistically — not draw-for-draw — equivalent to the reference, so
fast-mode latency/energy numbers carry the tolerance bands, and nothing
here validates patterns outside the supported set (those fall back to
exact replay, which the fallback tests pin instead).
"""

import itertools
import math
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle.network import PhastlaneNetwork, laser_index
from oracle.routing import broadcast_plans, clear_passed_taps, replan_from
from repro.core.config import BACKOFF_CAP_LOG2
from repro.core.routing import build_plan
from repro.fabric.registry import make_network
from repro.faults.config import FaultConfig
from repro.harness.exec import Executor, RunSpec, Splash2Workload, SyntheticWorkload
from repro.harness.report import stats_to_dict
from repro.harness.runner import run
from repro.obs.tracers import CollectingTracer
from repro.sim.engine import SimulationEngine
from repro.topology.registry import topology_for, topology_of
from repro.traffic.injection import BernoulliInjector, BurstyInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import SyntheticSource, Trace, TraceEvent, TraceSource
from repro.util.geometry import Direction, MeshGeometry
from repro.vectorized.components import LOCAL_QUEUE, VecPacket
from repro.vectorized.config import MODES, VectorizedConfig, as_phastlane
from repro.vectorized.network import VECTORIZED_CALIBRATION, VectorizedNetwork
from repro.vectorized.plans import (
    STOP,
    TAP_FLY,
    TAP_STOP,
    PlanTable,
    compile_plan,
    neighbor_table,
)
from repro.vectorized.traffic import philox_key, philox_supported

from helpers import cylinder_registered, plan_hops, reference_oracle

# -- helpers -----------------------------------------------------------------


def flatten(payload: dict, prefix: str = "") -> dict:
    """``stats_to_dict`` output as dotted field paths (lossless)."""
    flat = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def pair_specs(vec_config, workload, *, cycles, seed, faults=None):
    """The vectorized spec and the reference spec it is calibrated to."""
    ref = RunSpec(
        as_phastlane(vec_config), workload, cycles=cycles, seed=seed, faults=faults
    )
    vec = RunSpec(vec_config, workload, cycles=cycles, seed=seed, faults=faults)
    return ref, vec


def reference_run(spec):
    """``run(spec)`` on the oracle (see the module docstring)."""
    with reference_oracle():
        assert type(make_network(spec.config)) is PhastlaneNetwork
        return run(spec)


def assert_stats_identical(ref_stats, vec_stats, context=""):
    """Field-by-field bit-identity; a failure names the diverging field."""
    ref = flatten(stats_to_dict(ref_stats))
    vec = flatten(stats_to_dict(vec_stats))
    for field in sorted(set(ref) | set(vec)):
        assert ref.get(field) == vec.get(field), (
            f"stat field {field!r} diverged{context}: "
            f"reference={ref.get(field)!r} vectorized={vec.get(field)!r}"
        )


def assert_exact_runs_identical(ref, vec, context=""):
    """The oracle's stats, bit for bit, from the reference spec as the
    registry dispatches it and from the exact-mode vectorized spec."""
    reference = reference_run(ref).stats
    assert_stats_identical(reference, run(ref).stats, f"{context} [dispatched]")
    assert_stats_identical(reference, run(vec).stats, context)
    return reference


def drive(
    config, source, *, reference=False, faults=None, tracer=None, cycles=None,
    attach_at=0,
):
    """Run a network to drain (or for ``cycles``) outside the runner.

    ``reference=True`` builds the oracle; otherwise the registry decides,
    and every config this module drives is then the sparse kernel's — the
    class is asserted either way, so no comparison here can quietly put
    one engine on both sides.  ``tracer`` attaches after ``attach_at``
    cycles (0: traced throughout).
    """
    if reference:
        with reference_oracle():
            network = make_network(config, source, faults=faults)
    else:
        network = make_network(config, source, faults=faults)
    assert type(network) is (PhastlaneNetwork if reference else VectorizedNetwork)
    engine = SimulationEngine()
    engine.register(network)
    engine.run(attach_at)
    if tracer is not None:
        network.add_tracer(tracer)
    if cycles is not None:
        engine.run(cycles - attach_at)
    else:
        engine.run(1)
        assert engine.run_until(lambda: network.idle(engine.cycle), 100_000)
    return network


def assert_drives_identical(vec_config, make_source, context="", **options):
    """Oracle, dispatched reference config and vectorized config, each on a
    fresh ``make_source()``: identical stats.  Returns the oracle."""
    ref_config = as_phastlane(vec_config)
    ref = drive(ref_config, make_source(), reference=True, **options)
    dispatched = drive(ref_config, make_source(), **options)
    vec = drive(vec_config, make_source(), **options)
    assert dispatched.config is ref_config
    assert_stats_identical(ref.stats, dispatched.stats, f"{context} [dispatched]")
    assert_stats_identical(ref.stats, vec.stats, context)
    return ref


# -- exact mode: bit-identity under fuzzed RunSpecs --------------------------

DIFF = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Square/power-of-two shapes so every pattern below is well-defined.
shapes = st.sampled_from([(2, 2), (4, 4), (4, 2), (8, 8)])
grid_topologies = st.sampled_from(["mesh", "torus"])
patterns = st.sampled_from(["uniform", "bitcomp", "tornado"])
rates = st.sampled_from([0.05, 0.1, 0.25])
fault_models = st.sampled_from(
    [
        None,
        FaultConfig(seed=2, link_flip_prob=0.05, retry_limit=5),
        FaultConfig(seed=3, dead_port_count=2, retry_limit=4),
        FaultConfig(seed=4, burst_enter_prob=0.02, retry_limit=5),
        FaultConfig(seed=5, burst_enter_prob=0.01),
    ]
)


class TestExactModeBitIdentity:
    """``mode="exact"`` must reproduce the reference stats byte-for-byte."""

    @DIFF
    @given(shapes, grid_topologies, patterns, rates, fault_models,
           st.integers(0, 100))
    def test_synthetic_stats_bit_identical(
        self, shape, topology, pattern, rate, faults, seed
    ):
        vec_config = VectorizedConfig(
            mesh=MeshGeometry(*shape), topology=topology, mode="exact"
        )
        ref, vec = pair_specs(
            vec_config, SyntheticWorkload(pattern, rate),
            cycles=150, seed=seed, faults=faults,
        )
        assert_exact_runs_identical(
            ref, vec, f" ({shape} {topology} {pattern}@{rate} seed={seed})"
        )

    @DIFF
    @given(grid_topologies, st.sampled_from([1, 2, 5]), st.integers(0, 50))
    def test_hop_budget_axis_bit_identical(self, topology, max_hops, seed):
        vec_config = VectorizedConfig(
            mesh=MeshGeometry(4, 4), topology=topology,
            max_hops_per_cycle=max_hops, mode="exact",
        )
        ref, vec = pair_specs(
            vec_config, SyntheticWorkload("uniform", 0.2), cycles=150, seed=seed
        )
        assert_exact_runs_identical(ref, vec, f" (hops={max_hops} seed={seed})")

    @pytest.mark.slow
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_16x16_bit_identical(self, topology):
        vec_config = VectorizedConfig(
            mesh=MeshGeometry(16, 16), topology=topology, mode="exact"
        )
        ref, vec = pair_specs(
            vec_config, SyntheticWorkload("uniform", 0.1), cycles=200, seed=1
        )
        assert_exact_runs_identical(ref, vec, f" (16x16 {topology})")


# -- fast mode: explicit tolerance allowlist ---------------------------------

#: Fields allowed to differ in fast mode, with (relative, absolute)
#: tolerance.  Everything traffic-shaped lands here — the Philox stream is
#: statistically, not draw-for-draw, equivalent to the reference.  Every
#: other field (drop/retry/fault counters, measurement window, multicast)
#: must stay bit-identical; a field missing from both classes fails.
FAST_TOLERANCES = {
    "average_power_w": (0.15, 0.0),
    "buffer_occupancy.count": (0.15, 0.0),
    "buffer_occupancy.max": (0.25, 5),
    "buffer_occupancy.mean": (0.5, 0.05),
    "buffer_occupancy.min": (0.0, 1),
    "delivery_ratio": (0.02, 0.0),
    "final_cycle": (0.15, 0.0),
    "hops_traversed": (0.15, 0.0),
    "latency.count": (0.12, 0.0),
    "latency.max": (0.0, 12),
    "latency.mean": (0.25, 0.0),
    "latency.min": (0.0, 2),
    "packets_delivered": (0.12, 0.0),
    "packets_generated": (0.12, 0.0),
    "packets_injected": (0.12, 0.0),
}
FAST_TOLERANCE_PREFIXES = {
    "energy_pj.": (0.15, 0.0),
}
#: Per-bucket latency counts are sample noise; the harness checks the
#: histogram's total mass against ``latency.count`` instead.
HISTOGRAM_PREFIX = "latency.histogram."


def fast_rule(field: str):
    rule = FAST_TOLERANCES.get(field)
    if rule is not None:
        return rule
    for prefix, prefix_rule in FAST_TOLERANCE_PREFIXES.items():
        if field.startswith(prefix):
            return prefix_rule
    return None


class TestFastModeTolerances:
    """``mode="fast"`` vs the reference: every field classified."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "pattern,rate",
        [("uniform", 0.1), ("transpose", 0.08), ("bitrev", 0.08)],
    )
    def test_synthetic_stats_within_bands(self, pattern, rate, seed):
        vec_config = VectorizedConfig(mesh=MeshGeometry(8, 8))
        ref, vec = pair_specs(
            vec_config, SyntheticWorkload(pattern, rate), cycles=400, seed=seed
        )
        ref_flat = flatten(stats_to_dict(reference_run(ref).stats))
        vec_flat = flatten(stats_to_dict(run(vec).stats))
        for field in sorted(set(ref_flat) | set(vec_flat)):
            if field.startswith(HISTOGRAM_PREFIX):
                continue
            rule = fast_rule(field)
            if rule is None:
                assert ref_flat.get(field) == vec_flat.get(field), (
                    f"field {field!r} is not tolerance-banded and diverged: "
                    f"reference={ref_flat.get(field)!r} "
                    f"vectorized={vec_flat.get(field)!r}"
                )
                continue
            assert field in ref_flat and field in vec_flat, (
                f"tolerance-banded field {field!r} missing on one side"
            )
            rel, absolute = rule
            assert math.isclose(
                ref_flat[field], vec_flat[field],
                rel_tol=rel, abs_tol=absolute,
            ), (
                f"field {field!r} outside its band (rel={rel}, abs={absolute}): "
                f"reference={ref_flat[field]!r} vectorized={vec_flat[field]!r}"
            )
        # The per-bucket histogram is noise-tolerant only in aggregate.
        for side, flat in (("reference", ref_flat), ("vectorized", vec_flat)):
            mass = sum(
                count for field, count in flat.items()
                if field.startswith(HISTOGRAM_PREFIX)
            )
            assert mass == flat["latency.count"], (
                f"{side} histogram mass {mass} != latency.count"
            )

    def test_fast_mode_is_deterministic(self):
        spec = RunSpec(
            VectorizedConfig(mesh=MeshGeometry(4, 4)),
            SyntheticWorkload("uniform", 0.2), cycles=200, seed=9,
        )
        assert stats_to_dict(run(spec).stats) == stats_to_dict(run(spec).stats)

    def test_philox_stream_is_digest_distinguished(self):
        # The documented calibration stream: sha256(f"{seed}/vectorized/{p}").
        assert philox_key(1, "uniform") == 1070236708838027888
        assert philox_key(1, "uniform") != philox_key(2, "uniform")
        assert philox_key(1, "uniform") != philox_key(1, "transpose")
        assert "fast=philox" in VECTORIZED_CALIBRATION
        assert "exact=bit-identical" in VECTORIZED_CALIBRATION

    def test_unsupported_sources_fall_back_to_replay(self):
        mesh = MeshGeometry(4, 4)
        bursty = SyntheticSource(
            pattern_by_name("uniform", mesh),
            lambda: BurstyInjector(0.4, 3.0, 12.0),
            seed=5, stop_cycle=150,
        )
        assert not philox_supported(bursty)
        unbounded = SyntheticSource(
            pattern_by_name("uniform", mesh),
            lambda: BurstyInjector(0.4, 3.0, 12.0),
            seed=5, stop_cycle=None,
        )
        assert not philox_supported(unbounded)


# -- fallback paths stay bit-identical even in fast mode ---------------------


class TestFallbackBitIdentity:
    def make_bursty(self, mesh, stop_cycle):
        return SyntheticSource(
            pattern_by_name("uniform", mesh),
            lambda: BurstyInjector(0.4, 3.0, 12.0),
            seed=5, stop_cycle=stop_cycle,
        )

    def test_bursty_bounded_source_identical(self):
        # Bursty injectors fall outside the Philox calibration, so even in
        # fast mode the schedule is an exact replay of the reference draws.
        mesh = MeshGeometry(4, 4)
        vec_config = VectorizedConfig(mesh=mesh)
        assert_drives_identical(
            vec_config, lambda: self.make_bursty(mesh, 150), " (bursty bounded)"
        )

    def test_unbounded_source_identical_at_fixed_cycle(self):
        # stop_cycle=None cannot be materialised: each cycle's bucket is
        # pulled from the source node by node.  It never exhausts, so
        # compare at a fixed cycle instead of running to drain.
        mesh = MeshGeometry(4, 4)
        vec_config = VectorizedConfig(mesh=mesh)
        assert_drives_identical(
            vec_config, lambda: self.make_bursty(mesh, None), " (unbounded)",
            cycles=120,
        )


# -- trace workloads: bit-identical in BOTH modes ----------------------------


def dense_trace(mesh: MeshGeometry, seed: int) -> Trace:
    """Multi-event cycles, same-node runs, late stragglers — the bucketing
    edge cases the sparse ingest has to reproduce."""
    n = mesh.num_nodes
    events = []
    for index in range(6 * n):
        cycle = (seed + index) % 17
        src = (seed + 3 * index) % n
        dst = (seed + 5 * index + 1) % n
        if src != dst:
            events.append(TraceEvent(cycle, src, dst))
    events.append(TraceEvent(60, 0, n - 1))
    return Trace("dense", n, events=events)


class TestTraceBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_trace_workload_bit_identical(self, mode, topology):
        mesh = MeshGeometry(4, 4)
        trace = dense_trace(mesh, seed=3)
        vec_config = VectorizedConfig(mesh=mesh, topology=topology, mode=mode)
        assert_drives_identical(
            vec_config, lambda: TraceSource(trace), f" (trace {mode})"
        )


# -- broadcasts: section 2.1.4 multicast taps, bit-identical -----------------


def assert_events_identical(ours, theirs, context=""):
    """Whole event streams, uids and extras included (every engine counts
    uids per network); a failure names the first diverging event."""
    for index, (mine, reference) in enumerate(zip(ours, theirs)):
        assert mine == reference, (
            f"event {index} diverged{context}: reference={reference} ours={mine}"
        )
    assert len(ours) == len(theirs)


#: ``PhastlaneConfig.network_arbitration``: the paper's choice and the
#: alternative its footnote 3 rejects.
ARBITRATIONS = ("fixed", "round_robin")


def assert_traced_drives_identical(
    vec_config, make_source, faults=None, context="", arbitration="fixed"
):
    """A fresh ``make_source()`` per side, traced, on the oracle, on the
    reference config as the registry dispatches it and — under fixed
    priority, all a vectorized config can mean — on the vectorized config:
    the same stats and the same event stream.  Returns the oracle."""
    ref_config = replace(as_phastlane(vec_config), network_arbitration=arbitration)
    sides = [(ref_config, " [dispatched]")]
    if arbitration == "fixed":
        sides.append((vec_config, ""))
    reference_tracer = CollectingTracer()
    ref = drive(ref_config, make_source(), reference=True, faults=faults,
                tracer=reference_tracer)
    for config, side in sides:
        tracer = CollectingTracer()
        ours = drive(config, make_source(), faults=faults, tracer=tracer)
        assert_stats_identical(ref.stats, ours.stats, context + side)
        assert_events_identical(tracer.events, reference_tracer.events, context + side)
    return ref


def assert_replay_identical(
    vec_config, trace, faults=None, context="", arbitration="fixed"
):
    """:func:`assert_traced_drives_identical` for one trace."""
    return assert_traced_drives_identical(
        vec_config, lambda: TraceSource(trace), faults, context, arbitration
    )


@st.composite
def mixed_traces(draw, num_nodes, max_events=40):
    """Unicast and broadcast events, bunched so they contend: same-cycle
    runs on one node, several broadcasts in flight at once."""
    events = []
    for _ in range(draw(st.integers(1, max_events))):
        cycle = draw(st.integers(0, 12))
        source = draw(st.integers(0, num_nodes - 1))
        if draw(st.integers(0, 3)) == 0:
            events.append(TraceEvent(cycle, source, None))
        else:
            destination = draw(st.integers(0, num_nodes - 2))
            events.append(
                TraceEvent(cycle, source, destination + (destination >= source))
            )
    return Trace("mixed", num_nodes, events=events)


broadcast_faults = st.sampled_from(
    [
        None,
        FaultConfig(seed=2, link_flip_prob=0.1, retry_limit=1),
        FaultConfig(seed=3, burst_enter_prob=0.02, retry_limit=2),
        FaultConfig(seed=4, link_flip_prob=0.05),
        FaultConfig(seed=5, dead_port_count=2, retry_limit=3),
        FaultConfig(seed=6, burst_enter_prob=0.01),
    ]
)


def check_mixed_trace(data, shape, topology, max_hops, buffer_entries, faults, mode):
    mesh = MeshGeometry(*shape)
    trace = data.draw(mixed_traces(mesh.num_nodes))
    arbitration = data.draw(st.sampled_from(ARBITRATIONS))
    vec_config = VectorizedConfig(
        mesh=mesh, topology=topology, max_hops_per_cycle=max_hops,
        buffer_entries=buffer_entries, mode=mode,
    )
    assert_replay_identical(
        vec_config, trace, faults,
        f" ({shape} {topology} hops={max_hops} buffer={buffer_entries} "
        f"{mode} {faults} {arbitration})",
        arbitration,
    )


class TestBroadcastBitIdentity:
    """A snoopy broadcast fans out, taps, resends and is abandoned exactly
    as the reference does it, fault-free and under every fault model."""

    @DIFF
    @given(
        st.data(), st.sampled_from([(4, 4), (3, 5), (2, 2)]), grid_topologies,
        st.sampled_from([1, 2, 4, 5]), st.sampled_from([1, 2, 10, None]),
        broadcast_faults, st.sampled_from(MODES),
    )
    def test_mixed_traces_bit_identical(
        self, data, shape, topology, max_hops, buffer_entries, faults, mode
    ):
        check_mixed_trace(
            data, shape, topology, max_hops, buffer_entries, faults, mode
        )

    def test_a_grid_stated_by_two_methods_replays_bit_identical(self):
        """``helpers.Cylinder`` defines ``neighbor`` and ``axis_hops``; its
        routes, sweeps and tap masks are derived, and the kernel and the
        oracle agree on them event for event."""
        with cylinder_registered() as name:

            @DIFF
            @given(
                st.data(), st.sampled_from([1, 2, 4]), st.sampled_from([1, 10, None]),
                broadcast_faults, st.sampled_from(MODES),
            )
            def check(data, max_hops, buffer_entries, faults, mode):
                check_mixed_trace(
                    data, (4, 3), name, max_hops, buffer_entries, faults, mode
                )

            check()

    @pytest.mark.slow
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.data(), st.sampled_from([(8, 8), (16, 16)]), grid_topologies,
        st.sampled_from([4, 5, 8]), st.sampled_from([2, 10, None]),
        broadcast_faults, st.sampled_from(MODES),
    )
    def test_large_mixed_traces_bit_identical(
        self, data, shape, topology, max_hops, buffer_entries, faults, mode
    ):
        check_mixed_trace(
            data, shape, topology, max_hops, buffer_entries, faults, mode
        )

    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_finished_broadcast_keeps_no_ledger(self, topology):
        # (That a lone broadcast reaches every other node exactly once, from
        # every source, is ``test_core_network.py::TestZeroLoadLaw``.)
        mesh = MeshGeometry(4, 4)
        trace = Trace("bcast", mesh.num_nodes, events=[TraceEvent(0, 5, None)])
        config = VectorizedConfig(mesh=mesh, topology=topology)
        network = drive(config, TraceSource(trace))
        assert network.stats.packets_delivered == mesh.num_nodes - 1
        assert not network._owed_taps
        assert_replay_identical(config, trace, context=f" (lone, {topology})")

    def test_contended_broadcasts_drop_resend_and_clear_taps(self):
        # Every node broadcasts at once into one-entry buffers: multicast
        # packets drop, resend with passed taps cleared, and duplicates at
        # the turn row are discarded by the first-tap-wins ledger.
        mesh = MeshGeometry(4, 4)
        trace = Trace(
            "storm", mesh.num_nodes,
            events=[TraceEvent(0, node, None) for node in mesh.nodes()],
        )
        config = VectorizedConfig(mesh=mesh, buffer_entries=1)
        ref = assert_replay_identical(config, trace, context=" (storm)")
        assert ref.stats.retransmissions > 0
        assert ref.stats.packets_delivered == ref.stats.packets_generated

    def test_abandoned_multicast_loses_its_remaining_taps(self):
        mesh = MeshGeometry(4, 4)
        trace = Trace(
            "lossy", mesh.num_nodes,
            events=[TraceEvent(cycle, 0, None) for cycle in range(6)],
        )
        faults = FaultConfig(seed=1, link_flip_prob=0.3, retry_limit=1)
        ref = assert_replay_identical(
            VectorizedConfig(mesh=mesh), trace, faults, " (lossy)"
        )
        stats = ref.stats
        assert stats.packets_lost > 0
        assert stats.packets_generated == stats.packets_delivered + stats.packets_lost

    @pytest.mark.parametrize("label", ["Vector4", "Vector4X"])
    @pytest.mark.parametrize("app", ["fft", "radix"])
    def test_splash2_runs_equal_optical4(self, label, app):
        # What ``repro run --config Vector4 --trace <SPLASH2 trace>`` replays.
        mode = "exact" if label == "Vector4X" else "fast"
        vec_config = VectorizedConfig(mesh=MeshGeometry(4, 4), mode=mode)
        ref, vec = pair_specs(
            vec_config, Splash2Workload(app), cycles=300, seed=2
        )
        reference = assert_exact_runs_identical(ref, vec, f" ({label} {app})")
        assert reference.multicast_packets > 0


# -- footnote 3: round-robin arbitration, on the kernel as on the oracle -----


def saturating_source(config, pattern, rate, seed):
    return SyntheticSource(
        pattern_by_name(pattern, topology_of(config)),
        lambda: BernoulliInjector(rate),
        seed=seed, stop_cycle=150,
    )


def assert_round_robin_identical_and_biting(
    vec_config, make_source, faults=None, context=""
):
    """Round-robin on the oracle and as dispatched agree on every stats
    field and event for event, and differ from the fixed-priority twin: a
    case in which no same-wave contest occurs (transpose never has one)
    would prove nothing about the axis."""
    ref = assert_traced_drives_identical(
        vec_config, make_source, faults, context, arbitration="round_robin"
    )
    fixed = drive(as_phastlane(vec_config), make_source(), faults=faults)
    assert stats_to_dict(fixed.stats) != stats_to_dict(ref.stats), (
        f"round-robin never changed an outcome{context}"
    )
    return ref


class TestRoundRobinBitIdentity:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("pattern,rate", [("uniform", 0.5), ("hotspot", 0.2)])
    @pytest.mark.parametrize(
        "max_hops",
        [pytest.param(3, marks=pytest.mark.slow), 4,
         pytest.param(5, marks=pytest.mark.slow)],
    )
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_saturated_8x8_runs_bit_identical(
        self, topology, max_hops, pattern, rate, seed
    ):
        config = VectorizedConfig(
            mesh=MeshGeometry(8, 8), topology=topology, max_hops_per_cycle=max_hops
        )
        assert_round_robin_identical_and_biting(
            config, lambda: saturating_source(config, pattern, rate, seed),
            context=f" ({topology} hops={max_hops} {pattern}@{rate} seed={seed})",
        )

    def test_mixed_unicast_and_broadcast_storm_bit_identical(self):
        # Every node broadcasts and sends into two-entry buffers: multicast
        # packets meet unicast ones at the same output ports, wave after wave.
        mesh = MeshGeometry(4, 4)
        nodes = mesh.num_nodes
        events = [
            TraceEvent(cycle, node, None if (node + cycle) % 3 == 0 else (node + 5) % nodes)
            for cycle in range(6) for node in mesh.nodes()
        ]
        trace = Trace("mixed-storm", nodes, events=events)
        config = VectorizedConfig(mesh=mesh, buffer_entries=2)
        ref = assert_round_robin_identical_and_biting(
            config, lambda: TraceSource(trace), context=" (mixed storm)"
        )
        assert ref.stats.multicast_packets > 0 and ref.stats.retransmissions > 0

    def test_faulted_run_with_a_retry_limit_bit_identical(self):
        config = VectorizedConfig(mesh=MeshGeometry(8, 8))
        faults = FaultConfig(seed=2, link_flip_prob=0.05, retry_limit=2)
        ref = assert_round_robin_identical_and_biting(
            config, lambda: saturating_source(config, "uniform", 0.4, seed=3),
            faults, " (faulted)",
        )
        assert ref.stats.packets_lost > 0 and ref.stats.faults_masked > 0


# -- backoff: a router whose queue heads all wait leaves the launch scan -----


def scattered_trace(mesh, packets, seed):
    """``packets`` unicasts from scattered sources over the first cycles."""
    nodes = mesh.num_nodes
    rng = random.Random(seed)
    events = []
    for index in range(packets):
        source, destination = rng.sample(range(nodes), 2)
        events.append(TraceEvent(index % 8, source, destination))
    events.sort(key=lambda event: event.cycle)
    return Trace("scattered", nodes, events=events)


class TestBackoffSleep:
    @pytest.mark.parametrize("arbitration", ARBITRATIONS)
    @pytest.mark.parametrize("flip", [0.05, 0.1, 0.2])
    def test_flip_storms_on_16x16_bit_identical(self, flip, arbitration):
        """Kernel == oracle, stats and events, at flip rates where resends
        reach the backoff cap: routers sleep through their backoffs, are
        woken early by arrivals and rejoin the scan at the eligible cycle."""
        mesh = MeshGeometry(16, 16)
        trace = scattered_trace(mesh, 600, seed=2)
        faults = FaultConfig(seed=2, link_flip_prob=flip, retry_limit=8)
        config = VectorizedConfig(mesh=mesh)
        ref = assert_replay_identical(
            config, trace, faults, f" (16x16 flips={flip})", arbitration
        )
        assert ref.stats.retransmissions > 0
        tracer = CollectingTracer()
        drive(as_phastlane(config), TraceSource(trace), faults=faults, tracer=tracer)
        attempts = max(
            event.extra["attempts"] for event in tracer.by_kind("retransmitted")
        )
        assert attempts > BACKOFF_CAP_LOG2, "the backoff window never capped"

    def test_a_sleeping_router_is_not_scanned_until_it_wakes(self):
        """Every crossing fails, so the one packet's router waits out each
        backoff asleep: put to sleep at cycle c with wake cycle w, it keeps
        ``pointer_cycle == c`` (no scan moved it) until w, when it launches."""
        mesh = MeshGeometry(4, 4)
        trace = Trace("one", 16, events=[TraceEvent(0, 0, 3)])
        network = make_network(
            VectorizedConfig(mesh=mesh), TraceSource(trace),
            faults=FaultConfig(link_flip_prob=1.0, retry_limit=4),
        )
        router = network.routers[0]
        sleeps = 0
        cycle = 0
        while cycle < 400 and not network.idle(cycle):
            network.step(cycle)
            asleep = [wake for wake, nodes in network._wakes.items() if 0 in nodes]
            if asleep:
                (wake,) = asleep
                slept = cycle
                assert 0 not in network._active and wake > slept + 1
                for cycle in range(slept + 1, wake):
                    network.step(cycle)
                    assert router.pointer_cycle == slept
                    assert 0 not in network._active
                network.step(wake)
                assert router.pointer_cycle == wake and router.pending
                sleeps += 1
                cycle = wake
            cycle += 1
        assert network.idle(cycle)
        assert sleeps == 4 and network.stats.packets_lost == 1


# -- observability: reduced fidelity, zero perturbation ----------------------


def normalized_events(tracer):
    """Event stream with packet uids renumbered by first appearance."""
    order: dict = {}
    stream = []
    for event in tracer.events:
        uid = order.setdefault(event.uid, len(order))
        stream.append((event.kind, event.cycle, event.node, uid))
    return stream


def bursty_source(mesh, rate=0.5):
    return SyntheticSource(
        pattern_by_name("uniform", mesh),
        lambda: BurstyInjector(rate, 2.0, 6.0),
        seed=11, stop_cycle=100,
    )


class TestObservability:
    def check_tracer_neutral(self, vec_config, rate):
        """Traced == untraced == reference stats; returns the tracer."""
        mesh = vec_config.mesh
        tracer = CollectingTracer()
        traced = drive(vec_config, bursty_source(mesh, rate), tracer=tracer)
        # Bursty sources replay the reference draws in either mode.
        ref = assert_drives_identical(
            vec_config, lambda: bursty_source(mesh, rate), " (vs reference)"
        )
        assert_stats_identical(ref.stats, traced.stats, " (tracer attached)")
        assert tracer.events, "tracer attached but saw no events"
        kinds = {event.kind for event in tracer.events}
        assert {"generated", "injected", "delivered"} <= kinds
        return tracer

    @pytest.mark.parametrize("mode", MODES)
    def test_tracer_attachment_never_perturbs_stats(self, mode):
        config = VectorizedConfig(mesh=MeshGeometry(4, 4), mode=mode)
        self.check_tracer_neutral(config, rate=0.5)

    @pytest.mark.parametrize("mode", MODES)
    def test_tracer_attachment_never_perturbs_saturated_stats(self, mode):
        # One-entry router buffers under a heavy bursty load: drop storms,
        # and LOCAL queues that refuse the NIC so arrivals back up behind
        # it (the sparse path's per-node ``_pump``).
        config = VectorizedConfig(
            mesh=MeshGeometry(4, 4), mode=mode, buffer_entries=1
        )
        tracer = self.check_tracer_neutral(config, rate=0.9)
        assert tracer.by_kind("dropped")
        generated = {
            event.uid: event.cycle for event in tracer.by_kind("generated")
        }
        assert any(
            event.cycle > generated[event.uid]
            for event in tracer.by_kind("injected")
        ), "no packet ever waited in a NIC: the case is not saturated"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "faults",
        [None, FaultConfig(seed=2, link_flip_prob=0.08, retry_limit=5)],
        ids=["fault-free", "faulted"],
    )
    def test_mid_run_tracer_attachment_is_neutral(self, mode, faults):
        # Attaching a tracer while packets are in flight must change
        # nothing but what is observed: stats equal the never-traced
        # run's, and the events seen are exactly the tail of a run traced
        # from cycle 0 (uids included: the allocator is per network).
        mesh = MeshGeometry(4, 4)
        vec_config = VectorizedConfig(mesh=mesh, mode=mode)
        attach_at = 40
        full, late = CollectingTracer(), CollectingTracer()
        bare = drive(vec_config, bursty_source(mesh), faults=faults)
        drive(vec_config, bursty_source(mesh), faults=faults, tracer=full)
        attached = drive(
            vec_config, bursty_source(mesh), faults=faults, tracer=late,
            attach_at=attach_at,
        )
        assert_stats_identical(bare.stats, attached.stats, " (attached mid-run)")
        tail = [event for event in full.events if event.cycle >= attach_at]
        assert late.events == tail
        assert 0 < len(tail) < len(full.events)
        if faults is not None:
            assert any(event.kind.startswith("fault") for event in tail)

    def test_fault_event_streams_bit_identical_in_exact_mode(self):
        mesh = MeshGeometry(4, 4)
        faults = FaultConfig(seed=2, link_flip_prob=0.08, retry_limit=5)
        vec_config = VectorizedConfig(mesh=mesh, mode="exact")
        ref_tracer, vec_tracer = CollectingTracer(), CollectingTracer()
        ref = drive(as_phastlane(vec_config), bursty_source(mesh), reference=True,
                    faults=faults, tracer=ref_tracer)
        vec = drive(vec_config, bursty_source(mesh), faults=faults,
                    tracer=vec_tracer)
        assert_stats_identical(ref.stats, vec.stats, " (faulted, traced)")
        # Packet uids come from each backend's own allocator (the reference
        # counter is process-global), so compare streams with uids
        # normalized to first-appearance order — same events, same order,
        # same per-packet correspondence.
        ref_events = normalized_events(ref_tracer)
        vec_events = normalized_events(vec_tracer)
        assert ref_events == vec_events
        assert any(kind.startswith("fault") for kind, *_ in ref_events)


# -- parallel execution: serial == pooled, bit-for-bit -----------------------


class TestExecutorBitIdentity:
    def test_pooled_map_identical_to_serial(self):
        mesh = MeshGeometry(4, 4)
        specs = [
            RunSpec(VectorizedConfig(mesh=mesh), SyntheticWorkload("uniform", 0.15),
                    cycles=200, seed=seed)
            for seed in (1, 2, 3)
        ] + [
            RunSpec(VectorizedConfig(mesh=mesh, mode="exact"),
                    SyntheticWorkload("transpose", 0.2), cycles=200, seed=4),
        ]
        serial = [stats_to_dict(run(spec).stats) for spec in specs]
        pooled = [
            stats_to_dict(result.stats)
            for result in Executor(workers=2).map(specs)
        ]
        assert serial == pooled


# -- the oracle is real -------------------------------------------------------


class TestOracleIsReal:
    """The canary: the two sides of the comparisons above are two engines."""

    CONFIG = as_phastlane(VectorizedConfig(mesh=MeshGeometry(4, 4)))

    @pytest.mark.parametrize("arbitration", ARBITRATIONS)
    def test_registry_dispatches_the_reference_config_to_the_kernel(
        self, arbitration
    ):
        config = replace(self.CONFIG, network_arbitration=arbitration)
        network = make_network(config)
        assert type(network) is VectorizedNetwork and network.config is config

    def test_the_oracle_block_builds_the_reference_and_restores_the_dispatch(self):
        with reference_oracle():
            assert type(make_network(self.CONFIG)) is PhastlaneNetwork
            assert type(make_network(VectorizedConfig())) is VectorizedNetwork
        assert type(make_network(self.CONFIG)) is VectorizedNetwork

    def test_the_dispatch_comes_back_after_a_failure_inside_the_block(self):
        with pytest.raises(RuntimeError):
            with reference_oracle():
                raise RuntimeError("a failing comparison")
        assert type(make_network(self.CONFIG)) is VectorizedNetwork

    def test_the_two_engines_share_no_simulation_code(self):
        # Not a subclass either way: only the MeshNetworkBase scaffolding.
        assert not issubclass(VectorizedNetwork, PhastlaneNetwork)
        assert not issubclass(PhastlaneNetwork, VectorizedNetwork)
        for phase in ("_step_cycle", "_run_waves", "_launch_transmissions",
                      "_resolve_drop_signals", "_buffer_or_drop"):
            assert getattr(VectorizedNetwork, phase) is not getattr(
                PhastlaneNetwork, phase
            )

    def test_drive_asserts_the_class_it_built(self):
        trace = Trace("t", 16, events=[TraceEvent(0, 0, 5)])
        with reference_oracle(), pytest.raises(AssertionError):
            drive(self.CONFIG, TraceSource(trace))  # the reference, unasked


# -- refusals -----------------------------------------------------------------


class TestRefusals:
    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="unknown engine mode"):
            VectorizedConfig(mesh=MeshGeometry(4, 4), mode="warp")

    def test_unknown_topology_refused(self):
        with pytest.raises(ValueError, match="unknown topology"):
            VectorizedConfig(mesh=MeshGeometry(4, 4), topology="hypercube")


# -- compiled plans: bit-identical to build_plan -----------------------------


def flat_steps(plan, origin=0):
    """A compiled plan from ``origin`` on as ``(node, exit, multicast)`` per
    router; the router at ``origin`` holds the packet and taps nothing."""
    nodes, exits = plan_hops(plan)
    return [
        (nodes[i], exits[i], i > origin and bool(plan.taps >> i & 1))
        for i in range(origin, plan.length)
    ]


def reference_steps(reference):
    return [
        (step.node, -1 if step.exit is None else int(step.exit), step.multicast)
        for step in reference
    ]


def local_marks(reference):
    """Indices past the first where a reference plan stops a flight."""
    return [i for i, step in enumerate(reference) if step.local and i]


def positional_stops(length, origin, max_hops):
    """Where a packet launched at plan index ``origin`` and never blocked
    comes to rest, cycle by cycle, as the kernel decides it: the last wave
    (``max_hops`` routers on) or the final router, from each new origin."""
    stops = []
    while origin < length - 1:
        origin = min(origin + max_hops, length - 1)
        stops.append(origin)
    return stops


SHAPES = [(4, 4), (5, 3), (2, 6), (8, 8)]


@st.composite
def routed_pairs(draw):
    """A mesh or torus grid and two distinct nodes on it."""
    shape = draw(st.sampled_from([(1, 4), (4, 1), (2, 2), *SHAPES, (16, 16)]))
    grid = topology_for(draw(st.sampled_from(["mesh", "torus"])), MeshGeometry(*shape))
    nodes = st.integers(0, grid.num_nodes - 1)
    pair = draw(st.lists(nodes, min_size=2, max_size=2, unique=True))
    return grid, *pair


#: Bytes a full 16x16 mesh table spends per router of its routes (plan,
#: route tuple and table; the keys are the grid's line ints, shared): ~21
#: as one tuple per plan, ~45 when a plan held nodes, exits and keys.
BYTES_PER_ROUTER_16X16 = 28


class TestCompiledPlans:
    """The three laws a shared plan rests on.  (i) Suffix: a route's tail is
    the route of the router it starts at, so a buffered packet's fresh plan
    in the reference is the old one from there on.  (ii) Positional stops:
    the reference's Local marks are ``k * max_hops`` and the last index,
    re-based wherever it replans, which is what the kernel computes from
    ``(origin, wave)``.  (iii) Taps and laser: the taps a replanned
    reference packet carries are the plan's bits ahead, a resend clears the
    same bits, and a launch from ``(plan, origin)`` charges the reference's
    first segment."""

    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_route_tail_is_the_route_from_there(self, shape, topology):
        table = PlanTable(topology_for(topology, MeshGeometry(*shape)))
        for source in range(table.num_nodes):
            for destination in range(table.num_nodes):
                if source == destination:
                    continue
                plan = table.plan(source, destination)
                nodes, exits = plan_hops(plan)
                for index in range(1, plan.length - 1):
                    tail = table.plan(nodes[index], destination)
                    assert plan_hops(tail) == (nodes[index:], exits[index:])
                    assert tail.keys == plan.keys[index:]

    @pytest.mark.parametrize("max_hops", [1, 3, 4, 5])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_compile_plan_matches_build_plan(self, shape, topology, max_hops):
        mesh = MeshGeometry(*shape)
        topo = topology_of(
            VectorizedConfig(mesh=mesh, topology=topology,
                             max_hops_per_cycle=max_hops)
        )
        neighbors = neighbor_table(topo)
        for source in range(mesh.num_nodes):
            for destination in range(mesh.num_nodes):
                if source == destination:
                    continue
                plan = compile_plan(topo, neighbors, source, destination)
                reference = build_plan(topo, source, destination, max_hops)
                assert flat_steps(plan) == reference_steps(reference)
                assert plan.final == destination
                assert local_marks(reference) == positional_stops(
                    plan.length, 0, max_hops
                )
                for index in range(1, plan.length - 1):
                    assert local_marks(
                        replan_from(topo, reference, index, max_hops)
                    ) == [
                        stop - index
                        for stop in positional_stops(plan.length, index, max_hops)
                    ]

    @pytest.mark.parametrize("max_hops", [1, 3, 4, 5])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_tapped_plans_match_the_reference_exhaustively(
        self, shape, topology, max_hops
    ):
        """Every source's broadcast plans against ``broadcast_plans``, every
        drop index of each against ``clear_passed_taps``, every buffering
        index against ``replan_from`` — and on 4x4 each rewrite of each
        rewrite, which is as deep as a packet's history distinguishes.  The
        kernel's side of a buffering is ``(plan, origin)``; its launch
        charge is read off a real launch."""
        mesh = MeshGeometry(*shape)
        topo = topology_for(topology, mesh)
        network = VectorizedNetwork(
            VectorizedConfig(mesh=mesh, topology=topology,
                             max_hops_per_cycle=max_hops, mode="exact")
        )
        table = network._plans
        energy = network.stats.energy_pj
        cycles = itertools.count(0, 2)

        def launch_charge(plan, origin):
            packet = VecPacket(0, plan, 0)
            packet.origin = origin
            node = plan_hops(plan)[0][origin]
            router = network.routers[node]
            router.queues[LOCAL_QUEUE].append(packet)
            router.mask |= 1 << LOCAL_QUEUE
            router.queued += 1
            network._active.add(node)
            cycle = next(cycles)
            energy["laser"] = 0.0
            assert network._launch_transmissions(cycle, None) == [packet]
            assert packet.hop == origin
            network._resolve_drop_signals(cycle + 1, None)  # confirms it
            return energy["laser"]

        def check(plan, origin, reference, depth):
            assert flat_steps(plan, origin) == reference_steps(reference)
            assert launch_charge(plan, origin) == network._laser[laser_index(
                *PhastlaneNetwork._first_segment(SimpleNamespace(plan=reference))
            )]
            if depth == 0:
                return
            for index in range(origin + 1, plan.length):
                check(
                    table.cleared(plan, index),
                    origin,
                    clear_passed_taps(reference, index - origin),
                    depth - 1,
                )
            for index in range(origin + 1, plan.length - 1):
                check(
                    plan,
                    index,
                    replan_from(topo, reference, index - origin, max_hops),
                    depth - 1,
                )

        for source in topo.nodes():
            plans = table.broadcast(source)
            references = broadcast_plans(topo, source, max_hops)
            assert len(plans) == len(references)
            for plan, reference in zip(plans, references):
                check(plan, 0, reference, depth=2 if shape == (4, 4) else 1)

    @given(pair=routed_pairs(), taps=st.integers(0, (1 << 32) - 1),
           drop=st.integers(1, 31))
    def test_a_route_is_its_contention_keys(self, pair, taps, drop):
        """``route[i] >> 2`` and ``route[i] & 3`` walk the DOR route, and
        every tap rewrite of a plan shares its route."""
        grid, source, destination = pair
        table = PlanTable(grid)
        plan = table.plan(source, destination)
        route, walk = plan.route, grid.dor_route(source, destination)
        assert route[-1] == STOP and plan.final == destination == walk[-1]
        assert [key >> 2 for key in route[:-1]] == walk[:-1]
        assert [Direction(key & 3) for key in route[:-1]] == grid.dor_directions(
            source, destination
        )
        assert plan.keys is route and plan.length == len(walk)
        tapped = table.tapped(plan, taps & ((1 << plan.length) - 2))
        for rewrite in (tapped, table.cleared(tapped, drop)):
            assert rewrite.route is table.plan(source, rewrite.final).route
            assert rewrite.final == destination

    def test_a_full_16x16_table_is_one_tuple_per_route(self):
        table = PlanTable(topology_for("mesh", MeshGeometry(16, 16)))
        pairs = itertools.permutations(range(table.num_nodes), 2)
        plans = [table.plan(source, destination) for source, destination in pairs]
        assert all(plan.keys is plan.route for plan in plans)
        size = sys.getsizeof(table) + sum(
            sys.getsizeof(plan) + sys.getsizeof(plan.route) for plan in plans
        )
        routers = sum(plan.length for plan in plans)
        assert size / routers < BYTES_PER_ROUTER_16X16

    def test_tapped_keys_fold_the_tap_into_the_contention_key(self):
        topo = topology_for("mesh", MeshGeometry(4, 4))
        table = PlanTable(topo)
        for plan in table.broadcast(5):
            assert plan.taps and not plan.taps & 1  # the source is never tapped
            nodes, exits = plan_hops(plan)
            for index in range(plan.length):
                fly = nodes[index] * 4 + exits[index]
                tapped = plan.taps >> index & 1
                if index == plan.length - 1:
                    assert plan.keys[index] == (TAP_STOP if tapped else STOP)
                else:
                    assert plan.keys[index] == (TAP_FLY - fly if tapped else fly)
                    assert TAP_FLY - plan.keys[index] == fly or not tapped

    def test_a_resend_that_passed_every_tap_is_the_untapped_plan(self):
        topo = topology_for("mesh", MeshGeometry(4, 4))
        table = PlanTable(topo)
        plan = table.broadcast(0)[0]
        assert table.cleared(plan, 1) is plan  # nothing before the first hop
        bare = table.tapped(plan, 0)
        assert bare is table.plan(plan_hops(plan)[0][0], plan.final) and bare.taps == 0
        assert table.cleared(plan, plan.length) is bare

    def test_stray_taps_refused_like_build_plan(self):
        topo = topology_for("mesh", MeshGeometry(4, 4))
        with pytest.raises(ValueError, match="not on the DOR path"):
            PlanTable(topo)._sweep(0, 3, {1, 7})

    def test_self_route_refused_like_build_plan(self):
        mesh = MeshGeometry(4, 4)
        topo = topology_of(VectorizedConfig(mesh=mesh))
        with pytest.raises(ValueError, match="distinct endpoints"):
            compile_plan(topo, neighbor_table(topo), 3, 3)

    def test_plan_keys_mirror_exit_marks(self):
        """A key stops only at the final router, at any hop budget: the
        trailing parameter ``bench/probes.py`` still passes is not read."""
        mesh = MeshGeometry(4, 4)
        topo = topology_of(VectorizedConfig(mesh=mesh))
        neighbors = neighbor_table(topo)
        plan = compile_plan(topo, neighbors, 0, 15, 2)
        assert plan.keys == compile_plan(topo, neighbors, 0, 15).keys
        nodes, exits = plan_hops(plan)
        for index in range(plan.length):
            if index == plan.length - 1:
                assert plan.keys[index] == STOP and exits[index] == -1
            else:
                assert plan.keys[index] == nodes[index] * 4 + exits[index]


class TestPlanStore:
    """One route per injected pair, per grid, and never more than the cap."""

    def contended_run(self, max_hops, tracer=None):
        config = VectorizedConfig(
            mesh=MeshGeometry(16, 16), max_hops_per_cycle=max_hops, mode="exact"
        )
        source = SyntheticSource(
            pattern_by_name("uniform", topology_of(config)),
            lambda: BernoulliInjector(0.1),
            seed=3, stop_cycle=300,
        )
        return drive(config, source, tracer=tracer, cycles=300)

    def test_a_run_compiles_one_plan_per_injected_pair(self, monkeypatch):
        """The gain of sharing as a count: buffering compiles nothing (it
        used to compile a route per buffering router), nor does a second
        hop budget on the same grid."""
        monkeypatch.setattr("repro.vectorized.network._PLAN_CACHES", {})
        tracer = CollectingTracer()
        network = self.contended_run(4, tracer)
        assert network.stats.energy_pj["buffer_write"] > 0  # packets did buffer
        pairs = {
            (event.node, event.extra["dst"]) for event in tracer.by_kind("generated")
        }
        table = network._plans
        assert len(table) == len(pairs)
        assert set(table) == {src * 256 + dst for src, dst in pairs}
        for max_hops in (2, 5):
            assert self.contended_run(max_hops)._plans is table
            assert len(table) == len(pairs)

    def test_a_table_filled_past_the_cap_still_returns_the_route(self, monkeypatch):
        monkeypatch.setattr("repro.vectorized.plans.PLAN_CAP", 50)
        topo = topology_for("torus", MeshGeometry(4, 4))
        table, neighbors = PlanTable(topo), neighbor_table(topo)
        for _sweep in range(2):
            for source in topo.nodes():
                for destination in set(topo.nodes()) - {source}:
                    plan = table.plan(source, destination)
                    fresh = compile_plan(topo, neighbors, source, destination)
                    assert (plan_hops(plan), plan.keys, plan.taps) == (
                        plan_hops(fresh), fresh.keys, 0
                    )
                    assert len(table) <= 50
                for plan in table.broadcast(source):
                    for index in range(1, plan.length):
                        resend = table.cleared(plan, index)
                        assert plan_hops(resend) == plan_hops(plan)
                        assert resend.taps == plan.taps >> index << index
                assert len(table._tapped) <= 50 and len(table._sweeps) <= 50

    @pytest.mark.parametrize(
        "workload", [SyntheticWorkload("uniform", 0.3), Splash2Workload("fft")],
        ids=lambda workload: workload.name,
    )
    def test_crossing_the_cap_mid_run_changes_nothing(self, monkeypatch, workload):
        """Emptying a store while packets fly on its plans is invisible: a
        packet holds its own reference and a recompiled plan is equal."""
        spec = RunSpec(
            VectorizedConfig(mesh=MeshGeometry(8, 8), buffer_entries=2, mode="exact"),
            workload, cycles=200, seed=4,
        )
        monkeypatch.setattr("repro.vectorized.network._PLAN_CACHES", {})
        roomy = run(spec).stats
        monkeypatch.setattr("repro.vectorized.network._PLAN_CACHES", caches := {})
        monkeypatch.setattr("repro.vectorized.plans.PLAN_CAP", 7)
        assert_stats_identical(roomy, run(spec).stats, " (cap 7)")
        (table,) = caches.values()
        assert len(table) <= 7 and roomy.packets_generated > 7
        assert roomy.packets_dropped > 0  # resends crossed the cap too


# -- config surface ----------------------------------------------------------


class TestVectorizedConfig:
    def test_labels_distinguish_modes(self):
        assert VectorizedConfig(mesh=MeshGeometry(4, 4)).label == "Vector4"
        assert (
            VectorizedConfig(mesh=MeshGeometry(4, 4), mode="exact").label
            == "Vector4X"
        )

    def test_as_phastlane_mirrors_physics(self):
        config = VectorizedConfig(
            mesh=MeshGeometry(4, 2), topology="torus", max_hops_per_cycle=3,
            buffer_entries=7,
        )
        mirror = as_phastlane(config)
        for field in ("mesh", "topology", "max_hops_per_cycle", "buffer_entries"):
            assert getattr(mirror, field) == getattr(config, field), field

    def test_direction_ints_are_the_plan_port_ids(self):
        # compile_plan/neighbor_table assume N/E/S/W are 0..3.
        assert [int(d) for d in (
            Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST
        )] == [0, 1, 2, 3]
