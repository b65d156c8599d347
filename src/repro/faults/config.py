"""The frozen fault-model description threaded through run specs.

:class:`FaultConfig` is deliberately the *opposite* of
:class:`~repro.obs.config.ObsConfig` in one crucial respect: it is part of
a run spec's identity.  Two specs differing only in their fault config (or
fault seed) simulate different physics, so they hash, compare and digest
differently — which is exactly what keeps the on-disk result cache honest.
A disabled config (the default) is normalised away by the spec, so the
no-fault serialisation — and therefore every pre-existing cache key — is
byte-identical to a tree that predates this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.util.errors import SpecError

#: The fault-kind vocabulary a schedule can report for one crossing, in
#: severity order.  ``dead_port`` is permanent; the rest are transient.
#: Stats ledgers and trace events carry these strings.
FAULT_KINDS = ("dead_port", "link", "burst")

#: Per-cycle probability that a link in a burst returns to its good state.
#: While bad it loses every crossing.
BURST_EXIT_PROB = 0.25

#: Keys a serialised fault config still carries although the fields are
#: gone, at the only values left: the burst chain's exit and loss
#: probabilities, and control corruption and NIC stall windows, which no
#: run switches on.  Written so that every faulted spec digest and cache
#: key stays byte-identical.
RETIRED_FAULT_KEYS: dict[str, Any] = {
    "burst_exit_prob": BURST_EXIT_PROB,
    "burst_loss_prob": 1.0,
    "corrupt_prob": 0.0,
    "nic_stall_prob": 0.0,
    "nic_stall_cycles": 10,
}


@dataclass(frozen=True)
class FaultConfig:
    """One experiment's fault models.  Everything defaults to off.

    Permanent device faults
        ``dead_ports`` lists ``(node, port)`` pairs whose output port (a
        ring-resonator group / link driver) is permanently broken;
        ``dead_port_count`` additionally kills that many ports chosen
        uniformly by the fault seed.

    Transient link faults
        ``link_flip_prob`` is a per-crossing Bernoulli loss probability.
        ``burst_enter_prob`` > 0 enables a per-link Gilbert–Elliott chain:
        a link leaves its good state with that per-cycle probability,
        returns with :data:`BURST_EXIT_PROB`, and loses every crossing
        while bad, so in the long run it is bad for ``burst_enter_prob /
        (burst_enter_prob + BURST_EXIT_PROB)`` of its cycles (3.8 % at
        0.01, 16.7 % at 0.05).

    ``retry_limit`` bounds recovery: a packet abandoned after that many
    failed resends is counted as lost (``packets_lost``) instead of
    retrying forever — the escape hatch that lets runs with *permanent*
    faults drain instead of livelocking.
    """

    seed: int = 0
    dead_ports: tuple[tuple[int, int], ...] = ()
    dead_port_count: int = 0
    link_flip_prob: float = 0.0
    burst_enter_prob: float = 0.0
    retry_limit: int = 16

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SpecError("fault seed must be non-negative")
        normalised = tuple(
            sorted({(int(node), int(port)) for node, port in self.dead_ports})
        )
        for node, port in normalised:
            if node < 0:
                raise SpecError(f"dead port names negative node {node}")
            if not 0 <= port <= 3:
                raise SpecError(
                    f"dead port {port} for node {node} is not a mesh port (0-3)"
                )
        object.__setattr__(self, "dead_ports", normalised)
        if self.dead_port_count < 0:
            raise SpecError("dead port count must be non-negative")
        for name in ("link_flip_prob", "burst_enter_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} must be in [0, 1], got {value}")
        if self.retry_limit < 1:
            raise SpecError("retry limit must be at least one attempt")

    @property
    def enabled(self) -> bool:
        """True when any fault model is switched on."""
        return bool(
            self.dead_ports
            or self.dead_port_count
            or self.link_flip_prob
            or self.burst_enter_prob
        )

    def to_dict(self) -> dict[str, Any]:
        """Flatten to JSON-friendly types (feeds the run-spec digest)."""
        return {
            "seed": self.seed,
            "dead_ports": [list(pair) for pair in self.dead_ports],
            "dead_port_count": self.dead_port_count,
            "link_flip_prob": self.link_flip_prob,
            "burst_enter_prob": self.burst_enter_prob,
            **RETIRED_FAULT_KEYS,
            "retry_limit": self.retry_limit,
        }
