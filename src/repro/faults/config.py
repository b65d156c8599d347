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

from dataclasses import dataclass, fields
from typing import Any

from repro.util.errors import SpecError

#: The fault-kind vocabulary a schedule can report for one crossing or
#: node, in rough severity order.  ``dead_port`` is permanent; the rest
#: are transient.  Stats ledgers and trace events carry these strings.
FAULT_KINDS = ("dead_port", "link", "burst", "corrupt", "nic_stall")

_PROBABILITY_FIELDS = (
    "link_flip_prob",
    "burst_enter_prob",
    "burst_exit_prob",
    "burst_loss_prob",
    "corrupt_prob",
    "nic_stall_prob",
)


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
        returns with ``burst_exit_prob``, and while bad each crossing is
        lost with ``burst_loss_prob``.

    Control corruption
        ``corrupt_prob`` flips control bits on a crossing; the CRC-
        equivalent check catches the corruption at the next router, so the
        packet is discarded there and the sender's recovery machinery
        (drop signal / link nack) engages exactly as for a loss.

    NIC stalls
        ``nic_stall_prob`` is the per-cycle probability an un-stalled NIC
        freezes for ``nic_stall_cycles`` cycles (it keeps queueing
        generated packets but injects nothing).

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
    burst_exit_prob: float = 0.25
    burst_loss_prob: float = 1.0
    corrupt_prob: float = 0.0
    nic_stall_prob: float = 0.0
    nic_stall_cycles: int = 10
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
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} must be in [0, 1], got {value}")
        if self.burst_enter_prob > 0.0 and self.burst_exit_prob <= 0.0:
            raise SpecError("burst faults need burst_exit_prob > 0 to end")
        if self.nic_stall_cycles < 1:
            raise SpecError("NIC stalls must last at least one cycle")
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
            or self.corrupt_prob
            or self.nic_stall_prob
        )

    def to_dict(self) -> dict[str, Any]:
        """Flatten to JSON-friendly types (feeds the run-spec digest)."""
        payload: dict[str, Any] = {}
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if field_.name == "dead_ports":
                payload["dead_ports"] = [list(pair) for pair in value]
            else:
                payload[field_.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultConfig":
        payload = dict(payload)
        dead_ports = tuple(
            (int(node), int(port)) for node, port in payload.pop("dead_ports", ())
        )
        return cls(dead_ports=dead_ports, **payload)
