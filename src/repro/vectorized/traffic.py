"""Fast-mode traffic for the vectorized engine: the Philox schedule.

Every mesh backend reads its traffic as one injection schedule built when
the run starts (:mod:`repro.traffic.schedule`, whose ``replay_synthetic``
consumes exactly the reference draws).  A ``VectorizedConfig`` in
``mode="fast"`` may take a synthetic schedule from here instead:

``philox_events`` (supported patterns only)
    Skips the per-draw Python loop entirely: one numpy Philox generator,
    keyed by ``sha256(f"{seed}/vectorized/{pattern}")`` (the documented,
    digest-distinguished calibration stream), draws the full
    cycles × nodes Bernoulli mask in one shot, then the destination matrix
    (uniform) or a precomputed permutation (the deterministic address
    patterns).  The schedule is *statistically* equivalent to the
    reference, not draw-identical — the differential harness bounds it
    with explicit tolerance bands instead of bit-equality.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

from repro.sim.rng import stream_key
from repro.traffic.injection import BernoulliInjector
from repro.traffic.schedule import Injection, Schedule

# ``bench/probes.py`` times the exact replay under this module's name.
from repro.traffic.schedule import replay_synthetic as replay_synthetic
from repro.traffic.trace import SyntheticSource

#: Patterns the Philox path can generate without consulting the reference
#: RNG: destination is either rng-free (the address permutations and
#: tornado) or uniform-random (vectorizable directly).
PHILOX_PATTERNS = frozenset(
    {"bitcomp", "bitrev", "shuffle", "transpose", "tornado", "uniform"}
)


def philox_key(seed: int, pattern_name: str) -> int:
    """The fast-mode Philox key: a distinct, documented stream per
    (seed, pattern), disjoint by construction from every
    :class:`~repro.sim.rng.DeterministicRng` stream label."""
    return stream_key(seed, f"vectorized/{pattern_name}")


def philox_supported(source: SyntheticSource) -> bool:
    """True when ``philox_events`` can generate this source's schedule."""
    if source.stop_cycle is None:
        return False
    if source.pattern.name not in PHILOX_PATTERNS:
        return False
    if source.pattern.mesh.num_nodes < 2:
        return False
    return all(
        type(injector) is BernoulliInjector for injector in source._injectors
    )


def philox_events(source: SyntheticSource, ingest_cycle: int) -> Schedule:
    """Vectorized fast-mode schedule generation (see module docstring)."""
    stop_cycle = source.stop_cycle
    assert stop_cycle is not None and philox_supported(source)
    pattern = source.pattern
    num_nodes = pattern.mesh.num_nodes
    span = stop_cycle - ingest_cycle
    if span <= 0:
        return {}, 0
    # numpy loads here, not with the module: every Phastlane run imports
    # this module, and only fast-mode schedules draw.
    import numpy as np

    generator = np.random.Generator(
        np.random.Philox(key=philox_key(source.seed, pattern.name))
    )
    rates = np.array(
        [injector.rate for injector in source._injectors], dtype=np.float64
    )
    node_ids = np.arange(num_nodes)
    mask = generator.random((span, num_nodes)) < rates
    if pattern.name == "uniform":
        # Same source-exclusion mapping as the reference pattern: draw in
        # [0, n-2], shift draws at or above the source up by one.
        draws = generator.integers(0, num_nodes - 1, size=(span, num_nodes))
        destinations = draws + (draws >= node_ids)
    else:
        # These patterns never consult the rng they are handed.
        no_rng: Any = None
        permutation = np.array(
            [pattern.destination(node, no_rng) for node in range(num_nodes)]
        )
        destinations = np.broadcast_to(permutation, (span, num_nodes))
    mask &= destinations != node_ids  # self-traffic never enters the network
    rows, cols = np.nonzero(mask)
    events: dict[int, list[Injection]] = {}
    chosen = destinations[rows, cols]
    # ``np.nonzero`` is row-major, so each cycle's bucket is a contiguous,
    # node-ascending slice — build them with C-speed zips.
    cols_list = cols.tolist()
    chosen_list = chosen.tolist()
    unique_rows, first = np.unique(rows, return_index=True)
    starts = first.tolist()
    ends = starts[1:] + [len(cols_list)]
    for row, start, end in zip(unique_rows.tolist(), starts, ends):
        cycle = ingest_cycle + row
        events[cycle] = list(
            zip(cols_list[start:end], chosen_list[start:end], repeat(cycle))
        )
    return events, len(cols_list)
