#!/usr/bin/env python
"""Watchdog escalation under a dead-port fault storm.

Runs the same workload twice with the runtime health monitor enabled:

1. a **healthy baseline** — the electrical mesh under uniform traffic,
   where every watchdog (flit conservation, credit-leak audit, progress)
   stays quiet for the whole run;
2. a **livelocked storm** — both directions of a link are dead and the
   retry budget is effectively infinite, so every flit retries forever.
   Deliveries and losses both sit at zero while the routers stay busy:
   the classic livelock signature.  The progress watchdog first warns,
   then escalates to critical, and stamps the cycle of first violation.

The point of the demo is the *shape* of the escalation: nothing in the
stats ledger looks alarming cycle-to-cycle (no drops, no losses), yet
the per-window watchdog catches the flat delivery streak within a few
metric windows.

Run:  python examples/health_watch.py [--cycles N] [--interval N]
"""

import argparse

from repro.electrical.config import ElectricalConfig
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.util.geometry import Direction, MeshGeometry
from repro.util.tables import AsciiTable

EAST = int(Direction.EAST)
WEST = int(Direction.WEST)


def watched_run(config, cycles, interval, stall_windows, faults=None, rate=0.15):
    obs = ObsConfig(
        health=True,
        health_interval=interval,
        health_stall_windows=stall_windows,
    )
    return run(
        RunSpec(
            config,
            SyntheticWorkload("uniform", rate),
            cycles=cycles,
            seed=2,
            faults=faults,
            obs=obs,
        )
    )


def describe(title: str, result) -> None:
    report = result.health
    stats = result.stats
    print(f"== {title} ==")
    print(
        f"  delivered {stats.packets_delivered}, lost {stats.packets_lost},"
        f" retransmissions {stats.retransmissions}"
    )
    table = AsciiTable(["check", "status", "violations"])
    for name, summary in sorted(report.checks.items()):
        table.add_row([name, summary["status"], summary["violations"]])
    print("\n".join("  " + line for line in table.render().splitlines()))
    print(f"  health: {report.status}", end="")
    if report.first_violation_cycle is not None:
        print(f" (first violation at cycle {report.first_violation_cycle})")
    else:
        print()
    for finding in report.findings:
        where = "global" if finding.node is None else f"node {finding.node}"
        print(
            f"    [{finding.severity:8s}] cycle {finding.cycle:4d}"
            f" {finding.check} ({where}): {finding.message}"
        )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=500)
    parser.add_argument("--interval", type=int, default=50, metavar="CYCLES")
    parser.add_argument("--stall-windows", type=int, default=3)
    args = parser.parse_args()

    healthy = watched_run(
        ElectricalConfig(mesh=MeshGeometry(4, 4)),
        args.cycles,
        args.interval,
        args.stall_windows,
    )
    describe("healthy baseline (electrical 4x4, uniform)", healthy)

    # The storm: the only link of a 2x1 mesh is dead in both directions
    # and the retry budget never runs out, so no flit is ever delivered
    # or declared lost -- the watchdog has to catch the livelock.
    storm = watched_run(
        ElectricalConfig(mesh=MeshGeometry(2, 1)),
        args.cycles,
        args.interval,
        args.stall_windows,
        faults=FaultConfig(
            seed=1, dead_ports=((0, EAST), (1, WEST)), retry_limit=1_000_000
        ),
        rate=0.3,
    )
    describe("dead-port storm (2x1 mesh, both directions dead)", storm)

    assert healthy.health.status == "ok", "baseline must stay healthy"
    assert storm.health.status == "critical", "storm must escalate"
    windows = (
        storm.health.first_violation_cycle or args.cycles
    ) // args.interval
    print(
        f"watchdog verdict: livelock flagged after {windows} windows of"
        f" {args.interval} cycles, long before the run's {args.cycles}-cycle"
        " budget expired."
    )


if __name__ == "__main__":
    main()
