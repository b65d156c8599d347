"""Deterministic fault injection for the network fabric.

Nanophotonic NoCs live or die by device reliability: ring resonators
detune and waveguide crossings degrade.  This package models those
failure modes as *data*, not code paths: a frozen
:class:`~repro.faults.config.FaultConfig` describes the fault models of
one experiment and is part of a :class:`~repro.harness.exec.RunSpec`'s
identity (unlike observability, faults change simulated physics), and
:class:`~repro.faults.schedule.FaultSchedule` compiles it — with dedicated
random streams keyed by the fault seed — into per-link fault timelines
that are reproducible bit-for-bit and independent of traffic randomness.

Degradation semantics are the backend's job (see DESIGN.md section 10):
Phastlane absorbs a faulted crossing through the paper's drop-signal +
exponential-backoff machinery, the electrical baseline retries at the
link level (nack/resend), and the analytic ideal reference rejects fault
configs outright with a :class:`~repro.util.errors.FabricError`.  Import
the module that defines a name; the package itself loads none of them.
"""
