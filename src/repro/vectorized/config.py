"""Configuration of the vectorized batched engine.

:class:`VectorizedConfig` exposes the physics surface of
:class:`~repro.core.config.PhastlaneConfig` — the paper's preferred
operating point plus the grid-topology axis — and adds one engine knob,
``mode``:

- ``"exact"`` replays the reference simulators' RNG draws and execution
  order, so every stats field (counters, latency distribution, energy
  ledger) is bit-identical to :class:`~repro.core.network.PhastlaneNetwork`
  on the same workload;
- ``"fast"`` (the default) keeps the engine bit-exact but pre-generates
  synthetic traffic from a numpy Philox stream instead of replaying the
  per-node Mersenne draws, so synthetic runs are *statistically* equivalent
  to the reference, and trace runs remain bit-identical.

The one field of ``PhastlaneConfig`` this type does not carry is
``network_arbitration`` (paper footnote 3): a ``VectorizedConfig`` is the
paper's fixed priority.  The engine itself runs every ``PhastlaneConfig``,
round-robin included, and is registered for both types; the differential
harness proves each against :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PhastlaneConfig
from repro.util.geometry import MeshGeometry

#: The engine's traffic-generation modes (see module docstring).
MODES = ("fast", "exact")


@dataclass(frozen=True)
class VectorizedConfig:
    """Parameters of a vectorized Phastlane network instance.

    Physics fields mirror :class:`~repro.core.config.PhastlaneConfig`
    defaults (Table 1: four-hop network, 10 buffer entries, 50-entry NIC,
    64-way payload WDM); ``mode`` selects the traffic calibration.
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered grid topology family over the mesh (``"mesh"``/``"torus"``).
    topology: str = "mesh"
    max_hops_per_cycle: int = 4
    buffer_entries: int | None = 10
    nic_buffer_entries: int = 50
    payload_wdm: int = 64
    crossing_efficiency: float = 0.98
    retry_penalty_cycles: int = 4
    backoff_cap_log2: int = 5
    packet_bits: int = 80 * 8
    seed: int = 1
    #: Traffic calibration: ``"fast"`` (Philox synthetic pre-generation) or
    #: ``"exact"`` (bit-identical replay of the reference draws).
    mode: str = "fast"

    def __post_init__(self) -> None:
        from repro.topology import registered_topologies

        if self.topology not in registered_topologies():
            raise ValueError(
                f"unknown topology {self.topology!r}; registered: "
                f"{', '.join(registered_topologies())}"
            )
        if self.max_hops_per_cycle < 1:
            raise ValueError("max hops per cycle must be at least 1")
        if self.buffer_entries is not None and self.buffer_entries < 1:
            raise ValueError("buffer entries must be at least 1 (or None)")
        if self.nic_buffer_entries < 1:
            raise ValueError("NIC needs at least one buffer entry")
        if self.payload_wdm < 1:
            raise ValueError("payload WDM degree must be positive")
        if not 0.0 < self.crossing_efficiency <= 1.0:
            raise ValueError("crossing efficiency must be in (0, 1]")
        if self.backoff_cap_log2 < 0:
            raise ValueError("backoff cap must be non-negative")
        if self.retry_penalty_cycles < 1:
            raise ValueError("retry penalty must be at least one cycle")
        if self.packet_bits < 1:
            raise ValueError("packets must carry at least one bit")
        if self.mode not in MODES:
            raise ValueError(
                f"unknown engine mode {self.mode!r}; choose from {MODES}"
            )

    @property
    def label(self) -> str:
        """Configuration label, e.g. ``Vector4`` (``Vector4X`` in exact mode)."""
        suffix = "X" if self.mode == "exact" else ""
        return f"Vector{self.max_hops_per_cycle}{suffix}"


def as_phastlane(config: VectorizedConfig | PhastlaneConfig) -> PhastlaneConfig:
    """The paper's design point with this config's physics: every field
    the two types share, copied; ``network_arbitration`` at its default, the
    paper's choice.

    For a ``VectorizedConfig`` that is the reference configuration it is
    calibrated to (the differential harness runs both and compares stats
    field by field).
    """
    return PhastlaneConfig(
        mesh=config.mesh,
        topology=config.topology,
        max_hops_per_cycle=config.max_hops_per_cycle,
        buffer_entries=config.buffer_entries,
        nic_buffer_entries=config.nic_buffer_entries,
        payload_wdm=config.payload_wdm,
        crossing_efficiency=config.crossing_efficiency,
        retry_penalty_cycles=config.retry_penalty_cycles,
        backoff_cap_log2=config.backoff_cap_log2,
        packet_bits=config.packet_bits,
        seed=config.seed,
    )
