#!/usr/bin/env python
"""Drop anatomy: where Phastlane's packet drops happen, and why.

Instruments the optical network with a spatial probe while replaying the
Ocean trace (the paper's most drop-prone workload, section 5), then prints
heatmaps of drops, deliveries and mean buffer occupancy across the 8x8
mesh, for 10- versus 64-entry buffers.

Run:  python examples/drop_anatomy.py [--cycles N]
"""

import argparse

from repro.core import PhastlaneConfig, PhastlaneNetwork
from repro.sim.engine import SimulationEngine
from repro.sim.probes import attach_probe
from repro.traffic.splash2 import generate_splash2_trace
from repro.traffic.trace import TraceSource


def run_instrumented(buffers, trace):
    config = PhastlaneConfig(buffer_entries=buffers)
    network = PhastlaneNetwork(config, TraceSource(trace))
    probe = attach_probe(network)
    engine = SimulationEngine()
    engine.register(network)
    engine.run(trace.last_cycle + 1)
    engine.run_until(lambda: network.idle(engine.cycle), 100_000)
    return network, probe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1000)
    args = parser.parse_args()

    trace = generate_splash2_trace("ocean", duration_cycles=args.cycles)
    print(
        f"Ocean trace: {len(trace)} events, {trace.broadcast_count} broadcasts, "
        f"offered load {trace.offered_load():.3f}\n"
    )

    for buffers in (10, 64):
        network, probe = run_instrumented(buffers, trace)
        stats = network.stats
        print(
            f"=== {buffers}-entry buffers: "
            f"latency {stats.mean_latency:.1f} cycles, "
            f"{stats.packets_dropped} drops, "
            f"{stats.retransmissions} retransmissions ==="
        )
        print(probe.heatmap("drops", title="drops per router:"))
        print()
        hottest = probe.hottest_nodes("drops", top=3)
        if hottest and probe.drops[hottest[0]]:
            print(
                "hottest droppers: "
                + ", ".join(f"node {n} ({probe.drops[n]})" for n in hottest)
            )
        print(probe.heatmap("deliveries", title="deliveries per node:"))
        print()


if __name__ == "__main__":
    main()
