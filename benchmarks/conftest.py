"""Shared configuration for the reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper and
prints the rows/series the paper reports (captured with ``pytest -s`` or in
the benchmark log).  Simulation length is controlled by the
``REPRO_BENCH_CYCLES`` environment variable (default 1500 cycles of
injection per workload), trading fidelity against wall-clock time.
"""

from __future__ import annotations

import os

import pytest


def bench_cycles(default: int = 1500) -> int:
    """Injection window from ``REPRO_BENCH_CYCLES`` (or ``default``)."""
    return int(os.environ.get("REPRO_BENCH_CYCLES", default))


@pytest.fixture(scope="session")
def campaign_cycles() -> int:
    return bench_cycles()


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-experiment benchmark exactly once (they are minutes-long
    simulations, not microbenchmarks)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
