"""Phastlane network configuration (paper Table 1 and section 5 variants).

A config holds what section 5 varies: the hop budget and the router
buffer.  The section 5 budgets are not typed here: the standard configs
(``repro.harness.experiments.configs``) read them from the Fig 6 solver,
:func:`repro.photonics.latency.max_hops_per_cycle`.
``network_arbitration`` is the one design alternative carried as a field:
the only one the paper states a claim about (footnote 3).  Section
7's "future work" ideas (oldest-first buffer arbitration, shared buffer
pools, deflection) are not options: the paper never evaluates them, and
what they measured here is on record in EXPERIMENTS.md, "Ablations".  The
rest of the design point is constants: the packet layout, WDM degree,
crossing efficiency and NIC size of :mod:`repro.photonics.constants`, and
the drop-retry backoff below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.geometry import MeshGeometry

#: Base resend delay after a drop: the drop signal arrives the next cycle,
#: but the node's protocol engine re-issues the message through its retry
#: path, and backing off prevents retry storms from re-colliding at the
#: still-congested router.
RETRY_PENALTY_CYCLES = 4
#: Maximum exponent for binary exponential backoff after a drop.
BACKOFF_CAP_LOG2 = 5
#: Seed of every router's backoff jitter stream.
BACKOFF_SEED = 1


def check_design_point(config: Any) -> None:
    """The checks every Phastlane config type shares: a known topology,
    a positive hop budget and a positive (or infinite) buffer."""
    from repro.topology.registry import check_topology

    check_topology(config.topology)
    if config.max_hops_per_cycle < 1:
        raise ValueError("max hops per cycle must be at least 1")
    if config.buffer_entries is not None and config.buffer_entries < 1:
        raise ValueError("buffer entries must be at least 1 (or None)")


@dataclass(frozen=True)
class PhastlaneConfig:
    """Parameters of a Phastlane network instance.

    The defaults are the paper's preferred configuration: the four-hop
    network (the solver's budget under pessimistic component scaling; a
    test pins the two equal) with 10 electrical buffer entries per router
    input port and local queue.  Section 5 additionally evaluates
    ``max_hops`` of 5 and 8 and ``buffer_entries`` of 32, 64 and infinite
    (``None``).
    """

    mesh: MeshGeometry = field(default_factory=lambda: MeshGeometry(8, 8))
    #: Registered topology family over the mesh's addressable grid
    #: (``"mesh"``, ``"torus"``, ...).  Part of spec identity, but the
    #: default normalises away in serialisation so pre-topology spec
    #: digests (pinned, and written into trace headers and manifests) stay
    #: byte-identical.
    topology: str = "mesh"
    max_hops_per_cycle: int = 4
    buffer_entries: int | None = 10
    #: Optical output-port arbitration among same-wave contenders.
    #: ``"fixed"`` is the paper's choice (straight beats turns, then fixed
    #: input-port order); ``"round_robin"`` is the fairer alternative the
    #: paper's footnote 3 evaluated and rejected (no performance advantage,
    #: higher crossbar latency).
    network_arbitration: str = "fixed"

    def __post_init__(self) -> None:
        check_design_point(self)
        if self.network_arbitration not in ("fixed", "round_robin"):
            raise ValueError(
                f"unknown network arbitration {self.network_arbitration!r}"
            )

    @property
    def label(self) -> str:
        """Figure 10/11 configuration label, e.g. ``Optical4B32``."""
        if self.buffer_entries is None:
            return f"Optical{self.max_hops_per_cycle}IB"
        if self.buffer_entries == 10:
            return f"Optical{self.max_hops_per_cycle}"
        return f"Optical{self.max_hops_per_cycle}B{self.buffer_entries}"
