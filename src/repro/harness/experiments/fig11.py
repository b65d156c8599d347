"""Figure 11: network power of the optical configurations vs electrical."""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiments.configs import BASELINE_LABEL
from repro.harness.experiments.splash2_runs import Splash2Matrix
from repro.util.tables import AsciiTable


@dataclass(frozen=True)
class Figure11:
    """{benchmark: {config label: mean network power in watts}}."""

    benchmarks: tuple[str, ...]
    labels: tuple[str, ...]
    power_w: dict[str, dict[str, float]]

    def savings_vs_baseline(self, benchmark: str, label: str) -> float:
        """Fractional power saving of ``label`` vs the electrical baseline."""
        baseline = self.power_w[benchmark][BASELINE_LABEL]
        return 1.0 - self.power_w[benchmark][label] / baseline

    def mean_savings(self, label: str) -> float:
        return sum(
            self.savings_vs_baseline(benchmark, label)
            for benchmark in self.benchmarks
        ) / len(self.benchmarks)


def from_matrix(matrix: Splash2Matrix) -> Figure11:
    power: dict[str, dict[str, float]] = {}
    for benchmark in matrix.benchmarks:
        power[benchmark] = {
            label: matrix.result(benchmark, label).power_w
            for label in matrix.labels
        }
    return Figure11(
        benchmarks=matrix.benchmarks, labels=matrix.labels, power_w=power
    )


def render(data: Figure11) -> str:
    table = AsciiTable(
        ["benchmark"] + list(data.labels),
        title="Figure 11: mean network power (W)",
    )
    for benchmark in data.benchmarks:
        table.add_row(
            [benchmark]
            + [f"{data.power_w[benchmark][label]:.2f}" for label in data.labels]
        )
    savings = [
        f"{100 * data.mean_savings(label):.0f}%" if label != BASELINE_LABEL else "-"
        for label in data.labels
    ]
    table.add_row(["mean saving vs E3"] + savings)
    return table.render()
