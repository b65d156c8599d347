#!/usr/bin/env python
"""Tail anatomy: why Phastlane's slowest packets are slow.

Drives a hotspot workload (everyone sending toward one corner — the
paper's worst case for the drop/retransmit machinery) with a JSONL
lifecycle trace, reconstructs every packet's span from it, and prints the
latency blame split plus the full anatomy of the five slowest deliveries:
where each one queued, contended, crossed links and backed off, cycle by
cycle.

It takes the path ``repro sweep --trace-out t.jsonl`` and then
``repro analyze t.jsonl`` take; the analysis runs on any JSONL trace.

Run:  python examples/tail_anatomy.py [--cycles N]
"""

import argparse
import tempfile
from pathlib import Path

from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.runner import run
from repro.obs.analysis import analyze_trace_file, render_markdown
from repro.obs.config import ObsConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=400)
    parser.add_argument("--rate", type=float, default=0.2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        trace = Path(scratch) / "hotspot.jsonl"
        run(
            RunSpec(
                PhastlaneConfig(),
                SyntheticWorkload("hotspot", args.rate),
                cycles=args.cycles,
                seed=7,
                obs=ObsConfig(trace_path=str(trace)),
            )
        )
        report = analyze_trace_file(trace, top=5)
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
