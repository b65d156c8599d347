#!/usr/bin/env python
"""Tail anatomy: why Phastlane's slowest packets are slow.

Drives a hotspot workload (everyone sending toward one corner — the
paper's worst case for the drop/retransmit machinery), reconstructs every
packet's span from the lifecycle trace, and prints the latency blame
split plus the full anatomy of the five slowest deliveries: where each
one queued, contended, crossed links and backed off, cycle by cycle.

The same analysis runs post-hoc on any JSONL trace via
``repro analyze trace.jsonl``.

Run:  python examples/tail_anatomy.py [--cycles N]
"""

import argparse

from repro.core.config import PhastlaneConfig
from repro.core.network import PhastlaneNetwork
from repro.obs import CollectingTracer, analyze_events, render_markdown
from repro.sim.engine import SimulationEngine
from repro.sim.stats import NetworkStats
from repro.topology import topology_of
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import SyntheticSource


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=400)
    parser.add_argument("--rate", type=float, default=0.2)
    args = parser.parse_args()

    config = PhastlaneConfig()
    source = SyntheticSource(
        pattern_by_name("hotspot", topology_of(config)),
        lambda: BernoulliInjector(args.rate),
        seed=7,
        stop_cycle=args.cycles,
    )
    network = PhastlaneNetwork(config, source, NetworkStats())
    tracer = CollectingTracer()
    network.add_tracer(tracer)
    engine = SimulationEngine()
    engine.register(network)
    engine.run(args.cycles)

    report = analyze_events(tracer.events, link_delay=0, top=5)
    print(render_markdown(report, blame="routers", top=5))

    print("## Slowest packet, step by step")
    print()
    anatomy = report.anatomies[0]
    print(
        f"packet {anatomy['packet']}: node {anatomy['origin']} -> "
        f"{anatomy['destination']}, {anatomy['latency']} cycles end to end"
    )
    for cycle, kind, node in anatomy["timeline"]:
        print(f"  cycle {cycle:>5}  {kind:<14} node {node}")


if __name__ == "__main__":
    main()
