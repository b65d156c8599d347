"""Shared SPLASH2 trace-run matrix backing Figures 10 and 11.

The benchmark x configuration campaign is expressed as a flat list of
:class:`~repro.harness.exec.RunSpec` and executed through an
:class:`~repro.harness.exec.Executor`, so it fans out across worker
processes and is served from the on-disk result cache on reruns.  An
in-process memo additionally lets one interpreter's Fig 10 and Fig 11
share a single campaign.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.exec import Executor, RunSpec, Splash2Workload
from repro.harness.experiments.configs import standard_configs
from repro.harness.runner import RunResult
from repro.traffic.splash2 import SPLASH2_ORDER


@dataclass(frozen=True)
class Splash2Matrix:
    """Results of the full benchmark x configuration campaign."""

    benchmarks: tuple[str, ...]
    labels: tuple[str, ...]
    results: dict[tuple[str, str], RunResult]  # (benchmark, label) -> result

    def result(self, benchmark: str, label: str) -> RunResult:
        return self.results[(benchmark, label)]


_CACHE: dict[tuple, Splash2Matrix] = {}


def matrix_specs(
    benchmarks: tuple[str, ...] = SPLASH2_ORDER,
    labels: tuple[str, ...] | None = None,
    duration_cycles: int = 4000,
    seed: int = 1,
) -> list[RunSpec]:
    """The campaign's run specs, ordered benchmark-major then by label."""
    configs = standard_configs()
    labels = labels or tuple(configs)
    return [
        RunSpec(
            config=configs[label],
            workload=Splash2Workload(benchmark),
            cycles=duration_cycles,
            seed=seed,
        )
        for benchmark in benchmarks
        for label in labels
    ]


def compute_matrix(
    benchmarks: tuple[str, ...] = SPLASH2_ORDER,
    labels: tuple[str, ...] | None = None,
    duration_cycles: int = 4000,
    seed: int = 1,
    executor: Executor | None = None,
) -> Splash2Matrix:
    """Run (or fetch from the in-process memo) the benchmark/config matrix.

    When an ``executor`` is passed explicitly the memo is bypassed, so the
    executor's event log reflects what this campaign actually did (cache
    hits come from the executor's on-disk cache instead).
    """
    labels = labels or tuple(standard_configs())
    key = (benchmarks, labels, duration_cycles, seed)
    if executor is None and key in _CACHE:
        return _CACHE[key]

    specs = matrix_specs(benchmarks, labels, duration_cycles, seed)
    run_results = (executor or Executor()).map(specs)
    pairs = [(b, l) for b in benchmarks for l in labels]
    results = dict(zip(pairs, run_results))
    matrix = Splash2Matrix(benchmarks=benchmarks, labels=labels, results=results)
    _CACHE[key] = matrix
    return matrix
