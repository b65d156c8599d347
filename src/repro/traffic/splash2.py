"""SPLASH2-like trace generation (substitute for the paper's SESC traces).

The paper drives both simulators with per-node packet-injection traces
produced by running the ten SPLASH2 benchmarks of Table 3 to completion on
SESC with the Table 4 cache configuration.  We cannot run SESC here, so this
module synthesises traces with one calibrated :class:`Splash2Profile` per
benchmark capturing the traffic characteristics the paper's findings hinge
on:

- **load** — the mean injection rate (cache sizes were shrunk in the paper
  precisely to "obtain sufficient network traffic"); the heavy codes
  (Ocean, FMM, Barnes, Cholesky at 0.22-0.30 packets/node/cycle) exhaust
  the small Phastlane input buffers and cause drop storms (section 5);
- **injection process** — every profile but Raytrace is a memoryless
  Bernoulli process at its mean rate; Raytrace alone alternates bursts
  and gaps of 25 cycles on average, independently on each node;
- **spatial structure** — stencil codes talk to neighbours, transform codes
  (FFT, Radix) perform all-to-all permutations, tree codes hammer hotspots;
- **broadcast fraction** — snoopy L2 miss requests and invalidates are
  broadcast, which the 8-hop network pays heavily for in Fig 11.

The generator is deterministic given the seed, so the same trace drives the
electrical and optical networks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import DeterministicRng
from repro.traffic.coherence import CoherenceMessageMix, MessageKind, memory_controller_for
from repro.traffic.injection import BernoulliInjector, BurstyInjector, InjectionProcess
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import Trace, TraceEvent
from repro.util.errors import SpecError
from repro.util.geometry import MeshGeometry

#: The share of data responses served by the line's memory controller
#: rather than by the benchmark's spatial pattern.
MC_FRACTION = 0.3


@dataclass(frozen=True)
class Splash2Profile:
    """Traffic characteristics of one SPLASH2 benchmark.

    ``pattern_mix`` maps synthetic-pattern names to relative weights for
    point-to-point messages; writebacks, and data responses with probability
    :data:`MC_FRACTION`, target the line's interleaved memory controller.
    """

    name: str
    mean_rate: float  # packets/node/cycle, long-run
    burst_length: float  # mean cycles per burst (1 => memoryless)
    gap_length: float  # mean cycles between bursts
    pattern_mix: dict[str, float]
    coherence: CoherenceMessageMix

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_rate < 1.0:
            raise ValueError(f"{self.name}: mean rate must be in (0, 1)")
        if self.burst_length < 1.0 or self.gap_length < 0.0:
            raise ValueError(f"{self.name}: invalid burst/gap lengths")
        if not self.pattern_mix or any(w < 0 for w in self.pattern_mix.values()):
            raise ValueError(f"{self.name}: invalid pattern mix")
        self.burst_rate  # validate reachability

    @property
    def burst_rate(self) -> float:
        """Within-burst injection probability achieving ``mean_rate``."""
        duty = self.burst_length / (self.burst_length + self.gap_length)
        rate = self.mean_rate / duty
        if rate > 1.0:
            raise ValueError(
                f"{self.name}: mean rate {self.mean_rate} unreachable with "
                f"duty cycle {duty:.3f}"
            )
        return rate

    def make_injector(self) -> InjectionProcess:
        if self.gap_length == 0:
            return BernoulliInjector(self.mean_rate)
        return BurstyInjector(self.burst_rate, self.burst_length, self.gap_length)


def _mix(
    miss: float, invalidate: float, response: float, writeback: float
) -> CoherenceMessageMix:
    return CoherenceMessageMix(
        miss_request=miss,
        invalidate=invalidate,
        data_response=response,
        writeback=writeback,
    )


#: Calibrated per-benchmark profiles.  Load/pattern choices are qualitative
#: models of each code's communication (comments), calibrated so the Fig
#: 10/11 shapes reproduce: smooth transform codes show the largest optical
#: speedups; the heavily loaded hotspot codes (Barnes, Cholesky) are buffer
#: sensitive; Ocean and FMM drop enough packets at 10 buffers to fall below
#: the electrical baseline, recovering with 64 and 32 buffers respectively.
SPLASH2_PROFILES: dict[str, Splash2Profile] = {
    # Barnes-Hut N-body: heavy load (the shrunken caches thrash on tree
    # walks) with a hotspot component at the tree-root home nodes.  High
    # enough load that the 10-entry Phastlane buffers drop packets.
    "barnes": Splash2Profile(
        name="barnes",
        mean_rate=0.22,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"hotspot": 0.26, "uniform": 0.74},
        coherence=_mix(0.030, 0.010, 0.660, 0.30),
    ),
    # Sparse Cholesky: supernode panel updates hotspot along the
    # elimination tree at sustained high load.
    "cholesky": Splash2Profile(
        name="cholesky",
        mean_rate=0.25,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"hotspot": 0.32, "uniform": 0.68},
        coherence=_mix(0.025, 0.010, 0.665, 0.30),
    ),
    # FFT: staged all-to-all transpose, smooth and moderate.
    "fft": Splash2Profile(
        name="fft",
        mean_rate=0.080,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"transpose": 0.7, "uniform": 0.3},
        coherence=_mix(0.020, 0.005, 0.675, 0.30),
    ),
    # LU: blocked factorisation, regular owner-compute traffic.
    "lu": Splash2Profile(
        name="lu",
        mean_rate=0.075,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"uniform": 0.5, "neighbor": 0.5},
        coherence=_mix(0.020, 0.010, 0.670, 0.30),
    ),
    # Ocean: the memory-bound stencil code; the 2050x2050 grid blows the
    # shrunken caches, producing the heaviest sustained load of the suite
    # (nearest-neighbour exchanges plus broadcast miss requests).  This is
    # the benchmark whose drops saturate the 10-entry network (section 5).
    "ocean": Splash2Profile(
        name="ocean",
        mean_rate=0.30,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"neighbor": 0.45, "hotspot": 0.15, "uniform": 0.40},
        coherence=_mix(0.035, 0.010, 0.705, 0.25),
    ),
    # Radix sort: key permutation, the smoothest all-to-all of the suite.
    "radix": Splash2Profile(
        name="radix",
        mean_rate=0.090,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"shuffle": 0.6, "uniform": 0.4},
        coherence=_mix(0.015, 0.005, 0.680, 0.30),
    ),
    # Raytrace: irregular read-mostly scene access, mildly bursty per ray
    # bundle but not barrier-synchronised.
    "raytrace": Splash2Profile(
        name="raytrace",
        mean_rate=0.070,
        burst_length=25.0,
        gap_length=25.0,
        pattern_mix={"uniform": 0.8, "hotspot": 0.2},
        coherence=_mix(0.030, 0.005, 0.665, 0.30),
    ),
    # Water-NSquared: O(n^2) molecule interactions, fairly smooth.
    "water-nsquared": Splash2Profile(
        name="water-nsquared",
        mean_rate=0.060,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"uniform": 0.7, "neighbor": 0.3},
        coherence=_mix(0.025, 0.010, 0.665, 0.30),
    ),
    # Water-Spatial: cell-list spatial decomposition -> neighbour traffic.
    "water-spatial": Splash2Profile(
        name="water-spatial",
        mean_rate=0.050,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"neighbor": 0.7, "uniform": 0.3},
        coherence=_mix(0.025, 0.010, 0.665, 0.30),
    ),
    # FMM: adaptive fast-multipole passes; nearly as memory-bound as Ocean
    # with a mild hotspot at the multipole tree roots.
    "fmm": Splash2Profile(
        name="fmm",
        mean_rate=0.30,
        burst_length=1.0,
        gap_length=0.0,
        pattern_mix={"neighbor": 0.40, "hotspot": 0.15, "uniform": 0.45},
        coherence=_mix(0.030, 0.010, 0.710, 0.25),
    ),
}

#: Figure 10/11 bar order.
SPLASH2_ORDER = (
    "barnes",
    "cholesky",
    "fft",
    "lu",
    "ocean",
    "radix",
    "raytrace",
    "water-nsquared",
    "water-spatial",
    "fmm",
)


def generate_splash2_trace(
    benchmark: str,
    mesh: MeshGeometry | None = None,
    seed: int = 1,
    *,
    duration_cycles: int,
) -> Trace:
    """Generate the synthetic trace for one SPLASH2 benchmark.

    The same ``(benchmark, mesh, seed, duration)`` always produces the
    identical trace, so optical and electrical runs see the same workload.
    A duration below one cycle is refused.
    """
    if benchmark not in SPLASH2_PROFILES:
        raise ValueError(
            f"unknown SPLASH2 benchmark {benchmark!r}; "
            f"available: {sorted(SPLASH2_PROFILES)}"
        )
    profile = SPLASH2_PROFILES[benchmark]
    mesh = mesh or MeshGeometry(8, 8)
    if duration_cycles < 1:
        raise SpecError(
            f"a trace lasts at least one cycle, got {duration_cycles} cycles"
        )

    patterns = {
        name: pattern_by_name(name, mesh) for name in profile.pattern_mix
    }
    pattern_names = sorted(profile.pattern_mix)
    pattern_weights = [profile.pattern_mix[name] for name in pattern_names]

    injectors = [profile.make_injector() for _ in range(mesh.num_nodes)]
    rngs = [
        DeterministicRng(seed, f"splash2/{benchmark}/node{node}")
        for node in range(mesh.num_nodes)
    ]
    line_counters = [node * 7919 for node in range(mesh.num_nodes)]

    events: list[TraceEvent] = []
    for cycle in range(duration_cycles):
        for node in range(mesh.num_nodes):
            rng = rngs[node]
            if not injectors[node].should_inject(cycle, rng):
                continue
            kind = profile.coherence.draw(rng)
            if kind.is_broadcast:
                events.append(TraceEvent(cycle, node, None, kind))
                continue
            destination = _pick_destination(
                node, kind, patterns, pattern_names, pattern_weights,
                line_counters, mesh, rng,
            )
            if destination != node:
                events.append(TraceEvent(cycle, node, destination, kind))
    return Trace(name=benchmark, num_nodes=mesh.num_nodes, events=events)


def _pick_destination(
    node: int,
    kind: MessageKind,
    patterns: dict,
    pattern_names: list[str],
    pattern_weights: list[float],
    line_counters: list[int],
    mesh: MeshGeometry,
    rng: DeterministicRng,
) -> int:
    """Destination for a point-to-point message.

    Writebacks (and a slice of responses) go to the cache line's home
    memory controller; everything else follows the benchmark's spatial
    pattern mix.
    """
    if kind is MessageKind.WRITEBACK or (
        kind is MessageKind.DATA_RESPONSE and rng.bernoulli(MC_FRACTION)
    ):
        line_counters[node] += rng.randrange(1, 17)
        return memory_controller_for(line_counters[node], mesh.num_nodes)
    chosen = rng.choices(pattern_names, weights=pattern_weights, k=1)[0]
    return patterns[chosen].destination(node, rng)
