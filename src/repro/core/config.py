"""Phastlane network configuration (paper Table 1 and section 5 variants).

``network_arbitration`` is the one design alternative carried as a field:
the only one the paper states a claim about (footnote 3).  Section 7's
"future work" ideas (oldest-first buffer arbitration, shared buffer pools,
deflection) are not options: the paper never evaluates them, and what they
measured here is on record in EXPERIMENTS.md, "Ablations".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.photonics.constants import SCALING_SCENARIOS
from repro.util.geometry import MeshGeometry

#: Section 5 maps hop budgets to the scaling scenario that affords them.
HOPS_FOR_SCENARIO = {"pessimistic": 4, "average": 5, "optimistic": 8}


@dataclass(frozen=True)
class PhastlaneConfig:
    """Parameters of a Phastlane network instance.

    The defaults are the paper's preferred configuration: the four-hop
    network (pessimistic component scaling) with 10 electrical buffer
    entries per router input port and local queue, a 50-entry NIC and
    64-way payload WDM.  Section 5 additionally evaluates ``max_hops`` of 5
    and 8 and ``buffer_entries`` of 32, 64 and infinite (``None``).
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered topology family over the mesh's addressable grid
    #: (``"mesh"``, ``"torus"``, ...).  Part of spec identity, but the
    #: default normalises away in serialisation so pre-topology digests
    #: and cache keys stay byte-identical.
    topology: str = "mesh"
    max_hops_per_cycle: int = 4
    buffer_entries: int | None = 10
    nic_buffer_entries: int = 50
    payload_wdm: int = 64
    crossing_efficiency: float = 0.98
    #: Base resend delay after a drop: the drop signal arrives the next
    #: cycle, but the node's protocol engine re-issues the message through
    #: its retry path, and backing off prevents retry storms from
    #: re-colliding at the still-congested router.
    retry_penalty_cycles: int = 4
    #: Maximum exponent for binary exponential backoff after a drop.
    backoff_cap_log2: int = 5
    packet_bits: int = 80 * 8
    seed: int = 1
    #: Optical output-port arbitration among same-wave contenders.
    #: ``"fixed"`` is the paper's choice (straight beats turns, then fixed
    #: input-port order); ``"round_robin"`` is the fairer alternative the
    #: paper's footnote 3 evaluated and rejected (no performance advantage,
    #: higher crossbar latency).
    network_arbitration: str = "fixed"

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
        if self.network_arbitration not in ("fixed", "round_robin"):
            raise ValueError(
                f"unknown network arbitration {self.network_arbitration!r}"
            )
        if self.packet_bits < 1:
            raise ValueError("packets must carry at least one bit")

    @property
    def scenario(self) -> str:
        """The scaling scenario that affords this hop budget (section 5)."""
        for scenario, hops in HOPS_FOR_SCENARIO.items():
            if hops == self.max_hops_per_cycle:
                return scenario
        return "average"

    @property
    def label(self) -> str:
        """Figure 10/11 configuration label, e.g. ``Optical4B32``."""
        if self.buffer_entries is None:
            return f"Optical{self.max_hops_per_cycle}IB"
        if self.buffer_entries == 10:
            return f"Optical{self.max_hops_per_cycle}"
        return f"Optical{self.max_hops_per_cycle}B{self.buffer_entries}"

    @classmethod
    def for_scenario(cls, scenario: str, **overrides) -> "PhastlaneConfig":
        """The configuration implied by a scaling scenario (Fig 6 hops)."""
        if scenario not in SCALING_SCENARIOS:
            raise ValueError(f"unknown scaling scenario {scenario!r}")
        return cls(max_hops_per_cycle=HOPS_FOR_SCENARIO[scenario], **overrides)
