#!/usr/bin/env python
"""Broadcast anatomy: Phastlane multicast vs electrical VCTM trees.

Dissects one snoopy-coherence broadcast (an L2 miss request reaching all 63
other nodes) in both networks: the up-to-16 multicast packets with their
power taps on the optical side (section 2.1.4), and the dimension-order
replication tree on the electrical side.  Then measures delivery latency and
energy for a broadcast-heavy workload.

Run:  python examples/multicast_broadcast.py
"""

import tempfile
from pathlib import Path

from repro import (
    ElectricalConfig,
    PhastlaneConfig,
    RunSpec,
    Trace,
    TraceEvent,
    TraceFileWorkload,
    run,
)
from repro.electrical.vctm import split_by_output
from repro.topology.registry import topology_of
from repro.traffic.coherence import MessageKind
from repro.util.tables import AsciiTable
from repro.vectorized.plans import PlanTable

TOPOLOGY = topology_of(PhastlaneConfig())  # the paper's 8x8 mesh
SOURCE = 27  # an interior node: full 16-packet fan-out


def show_optical_plans() -> None:
    # The plans the simulator launches: a route is one contention key
    # ``router * 4 + exit`` per router it flies through, and bit i of the
    # tap mask is the Multicast bit of router i.
    plans = PlanTable(TOPOLOGY).broadcast(SOURCE)
    print(
        f"Phastlane broadcast from node {SOURCE}: {len(plans)} multicast packets"
    )
    table = AsciiTable(["packet", "route", "hops", "taps"])
    covered = set()
    for index, plan in enumerate(plans):
        routers = [key >> 2 for key in plan.route[:-1]] + [plan.final]
        tapped = {node for i, node in enumerate(routers) if plan.taps >> i & 1}
        route = "->".join(str(node) for node in routers)
        table.add_row([index, route, plan.length - 1, len(tapped)])
        covered |= tapped
    print(table.render())
    print(f"Union of taps covers {len(covered)} of 63 destinations.\n")


def show_electrical_tree() -> None:
    destinations = set(TOPOLOGY.nodes()) - {SOURCE}
    partitions = split_by_output(SOURCE, destinations, TOPOLOGY)
    print(f"Electrical VCTM tree root at node {SOURCE}:")
    for direction, dests in sorted(partitions.items()):
        print(f"  {direction.name:<6} branch carries {len(dests)} destinations")
    print()


def measure_broadcast_storm() -> None:
    events = [
        TraceEvent(cycle, node, None, MessageKind.MISS_REQUEST)
        for cycle in range(0, 200, 10)
        for node in (9, 27, 36, 54)
    ]
    trace = Trace("broadcast-storm", TOPOLOGY.num_nodes, events=events)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "broadcast-storm.trace"
        trace.save(path)
        workload = TraceFileWorkload(str(path))
        table = AsciiTable(
            ["network", "deliveries", "mean latency", "power (W)"],
            title=f"Broadcast storm: {len(events)} broadcasts from four nodes",
        )
        for config in (
            PhastlaneConfig(),
            PhastlaneConfig(buffer_entries=64),
            ElectricalConfig(),
        ):
            result = run(RunSpec(config, workload))
            table.add_row(
                [
                    result.label,
                    result.stats.packets_delivered,
                    f"{result.mean_latency:.1f}",
                    f"{result.power_w:.2f}",
                ]
            )
    print(table.render())
    print(
        "\nNote: a broadcast costs Phastlane up to 16 serialized multicast\n"
        "packets per source (section 2.1.4), so back-to-back broadcast storms\n"
        "stress its small buffers — the weakness the paper's section 5\n"
        "attributes Ocean/FMM's buffer sensitivity to.  Larger buffers help;\n"
        "the electrical VCTM tree injects a single flit per broadcast."
    )


def main() -> None:
    show_optical_plans()
    show_electrical_tree()
    measure_broadcast_storm()


if __name__ == "__main__":
    main()
