"""Ablation bench for the design choice the paper states a claim about.

**Network arbitration** (footnote 3): fixed priority (straight beats
turns) versus round-robin — the paper found "no performance advantage"
for round-robin while it would increase crossbar latency.  Both rows run
on the sparse kernel.

The buffer-management and drop-network ablations (section 7, "future
work", which the paper never evaluates) were retired with the options they
varied; their last tables are in EXPERIMENTS.md, "Ablations".
"""

import tempfile
from pathlib import Path

from conftest import bench_cycles, run_once
from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, TraceFileWorkload
from repro.harness.runner import run
from repro.traffic.splash2 import generate_splash2_trace
from repro.util.tables import AsciiTable


def _run_variants(variants, benchmark_name, cycles):
    trace = generate_splash2_trace(benchmark_name, duration_cycles=cycles)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{benchmark_name}.trace"
        trace.save(path)
        workload = TraceFileWorkload(str(path))
        for label, config in variants.items():
            results[label] = run(RunSpec(config, workload))
    return results


def _print_table(title, results):
    table = AsciiTable(
        ["variant", "mean latency", "drops", "retx", "power (W)"], title=title
    )
    for label, result in results.items():
        stats = result.stats
        table.add_row(
            [
                label,
                f"{stats.mean_latency:.1f}",
                stats.packets_dropped,
                stats.retransmissions,
                f"{result.power_w:.2f}",
            ]
        )
    print()
    print(table.render())


def test_ablation_network_arbitration(benchmark):
    """Footnote 3: round-robin buys nothing over fixed priority."""
    cycles = min(bench_cycles(), 1000)
    variants = {
        "fixed-priority (paper)": PhastlaneConfig(),
        "round-robin": PhastlaneConfig(network_arbitration="round_robin"),
    }
    results = run_once(benchmark, _run_variants, variants, "ocean", cycles)
    _print_table("Ablation: optical output-port arbitration (ocean)", results)
    fixed = results["fixed-priority (paper)"].mean_latency
    rr = results["round-robin"].mean_latency
    # "a more complicated scheme such as round-robin yielded no
    # performance advantage over fixed-priority"
    assert rr > 0.8 * fixed, (fixed, rr)

    # ...and round-robin "increases crossbar latency": the extra grant
    # stage costs hops per cycle in the analytic model.
    from repro.photonics.latency import RouterLatencyModel

    hops_fixed = RouterLatencyModel("pessimistic").max_hops_per_cycle()
    hops_rr = RouterLatencyModel(
        "pessimistic", round_robin_arbitration=True
    ).max_hops_per_cycle()
    print(
        f"\nAnalytic hop budget (pessimistic): fixed={hops_fixed} hops/cycle, "
        f"round-robin={hops_rr} hops/cycle"
    )
    assert hops_rr < hops_fixed
