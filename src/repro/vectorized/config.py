"""Configuration of the vectorized batched engine.

:class:`VectorizedConfig` exposes the physics surface of
:class:`~repro.core.config.PhastlaneConfig` — the paper's preferred
operating point plus the grid-topology axis — and adds one engine knob,
``mode``:

- ``"exact"`` replays the reference simulators' RNG draws and execution
  order, so every stats field (counters, latency distribution, energy
  ledger) is bit-identical to the reference oracle (``tests/oracle``) on
  the same workload;
- ``"fast"`` (the default) keeps the engine bit-exact but pre-generates
  synthetic traffic from a numpy Philox stream instead of replaying the
  per-node Mersenne draws, so synthetic runs are *statistically* equivalent
  to the reference, and trace runs remain bit-identical.

The one field of ``PhastlaneConfig`` this type does not carry is
``network_arbitration`` (paper footnote 3): a ``VectorizedConfig`` is the
paper's fixed priority.  The engine itself runs every ``PhastlaneConfig``,
round-robin included, and is the backend of both types; the differential
harness proves each against the reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PhastlaneConfig, check_design_point
from repro.util.geometry import MeshGeometry

#: The engine's traffic-generation modes (see module docstring).
MODES = ("fast", "exact")


@dataclass(frozen=True)
class VectorizedConfig:
    """Parameters of a vectorized Phastlane network instance.

    Physics fields mirror :class:`~repro.core.config.PhastlaneConfig`
    defaults (Table 1: four-hop network, 10 buffer entries); ``mode``
    selects the traffic calibration.
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered grid topology family over the mesh (``"mesh"``/``"torus"``).
    topology: str = "mesh"
    max_hops_per_cycle: int = 4
    buffer_entries: int | None = 10
    #: Traffic calibration: ``"fast"`` (Philox synthetic pre-generation) or
    #: ``"exact"`` (bit-identical replay of the reference draws).
    mode: str = "fast"

    def __post_init__(self) -> None:
        check_design_point(self)
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
    )
