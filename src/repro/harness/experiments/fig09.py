"""Figure 9: average packet latency vs injection rate on synthetic traffic.

Four panels — Bit Complement, Bit Reverse, Shuffle, Transpose — each
comparing the optical 4/5/8-hop networks against the 2- and 3-cycle
electrical routers on the 8x8 mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.harness.exec import Executor
from repro.harness.experiments.configs import FIG9_LABELS, standard_configs
from repro.harness.sweeps import LatencyPoint, point_from_result, sweep_specs
from repro.traffic.patterns import FIGURE9_PATTERNS
from repro.util.plot import plot_latency_curves
from repro.util.tables import AsciiTable

DEFAULT_RATES = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class Figure9:
    """{pattern: {config label: [LatencyPoint, ...]}}."""

    rates: tuple[float, ...]
    curves: dict[str, dict[str, list[LatencyPoint]]]


def compute(
    patterns: Sequence[str] = FIGURE9_PATTERNS,
    labels: Sequence[str] = FIG9_LABELS,
    rates: Sequence[float] = DEFAULT_RATES,
    cycles: int = 1500,
    seed: int = 1,
    executor: Executor | None = None,
) -> Figure9:
    """All panels as one flat campaign, so every run fans out in parallel."""
    configs = standard_configs()
    executor = executor or Executor()
    specs = [
        spec
        for pattern in patterns
        for label in labels
        for spec in sweep_specs(configs[label], pattern, rates, cycles, seed)
    ]
    results = iter(executor.map(specs))
    curves: dict[str, dict[str, list[LatencyPoint]]] = {}
    for pattern in patterns:
        curves[pattern] = {
            label: [
                point_from_result(rate, next(results), configs[label].mesh.num_nodes)
                for rate in rates
            ]
            for label in labels
        }
    return Figure9(rates=tuple(rates), curves=curves)


def render(data: Figure9) -> str:
    blocks = []
    for pattern, by_label in data.curves.items():
        table = AsciiTable(
            ["config"] + [f"{rate:g}" for rate in data.rates],
            title=f"Figure 9 ({pattern}): mean latency (cycles) vs injection rate",
        )
        for label, points in by_label.items():
            table.add_row(
                [label]
                + [
                    "sat" if p.saturated else f"{p.mean_latency:.1f}"
                    for p in points
                ]
            )
        blocks.append(table.render())
        blocks.append(
            plot_latency_curves(by_label, title=f"Figure 9 panel: {pattern}")
        )
    return "\n\n".join(blocks)
