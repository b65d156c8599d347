"""Figure 10: SPLASH2 network speedup relative to the electrical baseline.

Network speedup of a configuration on a benchmark is the ratio of mean
packet latencies, ``Electrical3 / configuration``, on the identical trace
(see DESIGN.md section 6 for why latency ratio is the metric for the
paper's open-loop traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.harness.experiments.configs import BASELINE_LABEL
from repro.harness.experiments.splash2_runs import Splash2Matrix
from repro.util.tables import AsciiTable


@dataclass(frozen=True)
class Figure10:
    """{benchmark: {config label: speedup}} plus geometric means."""

    benchmarks: tuple[str, ...]
    labels: tuple[str, ...]
    speedups: dict[str, dict[str, float]]

    def geomean(self, label: str) -> float:
        values = [self.speedups[b][label] for b in self.benchmarks]
        return math.exp(sum(math.log(v) for v in values) / len(values))


def from_matrix(matrix: Splash2Matrix) -> Figure10:
    speedups: dict[str, dict[str, float]] = {}
    for benchmark in matrix.benchmarks:
        baseline = matrix.result(benchmark, BASELINE_LABEL).mean_latency
        speedups[benchmark] = {
            label: baseline / matrix.result(benchmark, label).mean_latency
            for label in matrix.labels
        }
    return Figure10(
        benchmarks=matrix.benchmarks, labels=matrix.labels, speedups=speedups
    )


def render(data: Figure10) -> str:
    table = AsciiTable(
        ["benchmark"] + list(data.labels),
        title="Figure 10: network speedup vs Electrical3 (= 1.0)",
    )
    for benchmark in data.benchmarks:
        table.add_row(
            [benchmark]
            + [f"{data.speedups[benchmark][label]:.2f}" for label in data.labels]
        )
    table.add_row(
        ["geomean"] + [f"{data.geomean(label):.2f}" for label in data.labels]
    )
    return table.render()
