"""One fresh measuring process of the benchmark: a single workload, one mode.

``run.py`` spawns this file; it is the process whose imports, caches and
memory the metrics describe.  Modes:

- ``setup`` — import ``repro``, build the workload's inputs, report
  ``setup_s`` (``run.py`` takes the median over several such processes);
- ``cold``  — the same, then the job once in the fresh process: a second
  cold sample beside the one ``full`` takes;
- ``full``  — set up, run the job once cold, then warm repeats (at least
  three, more while the ``--budget`` lasts); reports the cold pieces,
  ``wall_s``, ``peak_rss_mb`` and the output checks;
- ``trace`` — the job with spans recorded (once cold, once warm), once more
  untraced for the tracing overhead, then the standalone layer probes;
  reports the per-layer metrics and writes ``bench/out/spans-<name>.json``.

Host times of the end-to-end metrics are speed-calibrated (see
``yardstick.py``); the raw ``perf_counter`` seconds are reported beside
them.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import spans as span_tools
import yardstick

#: Everything the worker does after this line is ``setup_s`` until the
#: first job call: importing ``repro`` and building the workload's inputs.
T0 = perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
MIN_WARM_REPEATS = 3


@dataclass
class Repeat:
    """One job repeat: its output and its host time, raw and calibrated."""

    out: Any  # JobOutput, or None if the job raised
    raw_s: float  # the job's own wall: yardstick time taken out
    pieces_s: list[float]  # calibrated seconds per piece, glue last
    speed: float  # mean relative host speed while it ran
    speed_spread: float = 0.0  # (fastest - slowest yardstick sample) / mean

    @property
    def calibrated_s(self) -> float:
        return sum(self.pieces_s)


class Measurement:
    """Runs job repeats, counting attempted/failed runs and check results."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict[str, Any]] = []
        self.first: Any = None
        self.first_sha: str | None = None
        self.unequal_repeats = 0

    def repeat(self) -> Repeat:
        workload = self.workload
        self.attempted += workload.planned_runs
        meter = yardstick.Meter()
        out = None
        started = perf_counter()
        try:
            out = workload.job(meter)
        except Exception:  # boundary: a failed job is a counted failure
            self.failed += workload.planned_runs
            self.check("job_completed", False, traceback.format_exc(limit=4))
        raw_s = perf_counter() - started - meter.spent
        if out is not None:
            self.attempted += out.launches
            self.failed += out.launches_failed
            if self.first is None:
                self.first, self.first_sha = out, out.sha256()
            elif out.sha256() != self.first_sha:
                self.unequal_repeats += 1
        spread = (max(meter.speeds) - min(meter.speeds)) / meter.mean_speed
        return Repeat(out, raw_s, meter.calibrated(raw_s), meter.mean_speed, spread)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def verify(self, broken: bool) -> None:
        if self.first is None:
            return
        self.check("repeats_equal_first", self.unequal_repeats == 0,
                   f"{self.unequal_repeats} repeats differ from repeat 1")
        try:
            for result in self.workload.verify(self.first):
                self.check(result.name, result.ok, result.detail)
        except Exception:  # boundary: a check that cannot run has failed
            self.check("verify_completed", False, traceback.format_exc(limit=4))
        if broken:
            self.check("deliberately_broken", False, "--break-check was given")

    def summary(self) -> dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "checks_failed": sum(not c["ok"] for c in self.checks),
            "stats_sha256": self.first_sha,
            "flits": 0 if self.first is None else self.first.flits,
        }


def measure_setup(setup_raw_s: float) -> dict[str, Any]:
    speed = yardstick.sample()
    return {"setup_s": setup_raw_s * speed, "setup_raw_s": setup_raw_s,
            "speed": speed}


def measure_untraced(args: argparse.Namespace, workload: Any, setup: dict) -> dict:
    measurement = Measurement(workload)
    cold = measurement.repeat()
    result: dict[str, Any] = dict(setup)
    result.update({
        "cold_pieces_s": cold.pieces_s,
        "cold_raw_s": cold.raw_s,
        "speeds": [setup["speed"], cold.speed],
    })
    if args.mode == "cold":
        result.update(measurement.summary())
        return result
    warm: list[Repeat] = []
    while len(warm) < MIN_WARM_REPEATS or (
        perf_counter() - T0 + statistics.median(r.raw_s for r in warm) < args.budget
    ):
        warm.append(measurement.repeat())
        if warm[-1].out is None:
            break
    extras = [r.out.extras for r in [cold, *warm] if r.out is not None]
    result.update({
        "wall_s": yardstick.best_of([r.pieces_s for r in warm]),
        "warm_calibrated_s": [r.calibrated_s for r in warm],
        "warm_raw_s": [r.raw_s for r in warm],
        "speeds": result["speeds"] + [r.speed for r in warm],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "extras": {
            key: statistics.median(e[key] for e in extras) for key in extras[0]
        } if extras else {},
    })
    measurement.verify(args.break_check)
    fidelity = workload.fidelity
    if fidelity is not None and measurement.first is not None:
        result["extras"]["fidelity_err"] = fidelity(measurement.first)
    result.update(measurement.summary())
    return result


def measure_traced(args: argparse.Namespace, workload: Any, setup: dict) -> dict:
    recorder = span_tools.SpanRecorder()
    measurement = Measurement(workload)

    recorder.install()
    roots = []
    for label in ("cold", "warm"):
        with recorder.span(f"job.{label}", "bench") as root:
            traced = measurement.repeat()
        roots.append(root)
    recorder.uninstall()
    untraced = measurement.repeat()

    import probes

    metrics: dict[str, tuple[float, str]] = {}
    try:
        metrics.update(probes.run_all(recorder, args.seed, args.smoke))
        measurement.check("probes_completed", True)
    except probes.ProbeError as exc:
        measurement.check("probes_completed", False, str(exc))

    cold = recorder.descendants_of(roots[0]["id"])
    warm = recorder.descendants_of(roots[1]["id"])
    metrics.update(job_layer_metrics(cold, warm, traced.out))
    metrics["bench.trace_overhead_share"] = (
        (traced.calibrated_s - untraced.calibrated_s) / untraced.calibrated_s,
        "ratio")
    metrics["bench.host_speed"] = (traced.speed, "ratio")
    metrics["bench.host_speed_spread"] = (traced.speed_spread, "ratio")
    fidelity = workload.fidelity
    metrics["fidelity.err"] = (
        fidelity(traced.out) if fidelity and traced.out is not None else 0.0,
        "ratio")

    measurement.verify(args.break_check)
    measurement.check("spans_nest", *spans_nest(recorder.spans))

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{workload.name}.json"
    span_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "spans": recorder.spans,
        "self_s_by_layer": {
            "job.cold": span_tools.self_time_by_layer(cold),
            "job.warm": span_tools.self_time_by_layer(warm),
            "all": span_tools.self_time_by_layer(recorder.spans),
        },
    }, indent=1) + "\n")

    result: dict[str, Any] = dict(setup)
    result.update({
        "per_layer": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
        "span_file": str(span_file.relative_to(BENCH_DIR.parent)),
        "spans": len(recorder.spans),
    })
    result.update(measurement.summary())
    return result


def job_layer_metrics(
    cold: list[dict], warm: list[dict], out: Any
) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced warm job repeat (zero where the job never
    enters the layer); the cold repeat only feeds ``vectorized.cold_extra_s``.
    Span times are raw host seconds.
    """
    metrics: dict[str, tuple[float, str]] = {
        "harness.runner.run_s": (span_tools.total(warm, "harness.runner.run"), "s"),
        "fabric.make_network_ms": (
            span_tools.total(warm, "fabric.make_network") * 1e3, "ms"),
        "obs.job_s": (span_tools.self_time_by_layer(warm).get("obs", 0.0), "s"),
    }
    runs = [] if out is None else out.runs
    for layer in ("core", "electrical", "vectorized"):
        results = [
            r for spec, r in runs if span_tools.backend_layer(spec.config) == layer
        ]
        flits = sum(r.stats.flits_processed for r in results)
        sim_s = span_tools.total(warm, "sim.engine.run", layer)
        metrics[f"{layer}.sim_s"] = (sim_s, "s")
        metrics[f"{layer}.flits"] = (float(flits), "count")
        metrics[f"{layer}.us_per_flit"] = (
            sim_s * 1e6 / flits if flits else 0.0, "us")
        if layer == "core":
            metrics["core.drops"] = (
                float(sum(r.stats.packets_dropped for r in results)), "count")
            metrics["core.retransmissions"] = (
                float(sum(r.stats.retransmissions for r in results)), "count")

    def backend_run_s(spans: list[dict], layer: str) -> float:
        return sum(
            span_tools.duration(s) for s in spans
            if s["name"] == "harness.runner.run" and s.get("backend") == layer
        )

    metrics["vectorized.cold_extra_s"] = (
        backend_run_s(cold, "vectorized") - backend_run_s(warm, "vectorized"), "s")
    stats = [r.stats for _, r in runs]
    metrics["traffic.injections"] = (
        float(sum(s.packets_generated for s in stats)), "count")
    metrics["faults.injected"] = (float(sum(s.faults_injected for s in stats)), "count")
    metrics["faults.masked"] = (float(sum(s.faults_masked for s in stats)), "count")
    return metrics


def spans_nest(spans: list[dict]) -> tuple[bool, str]:
    """Every span lies inside its parent (so self times are never negative)."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent and not (
            parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        ):
            return False, f"span {span['id']} escapes its parent"
    return True, ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "cold", "full", "trace"), required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds since process start the warm loop may use")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-check", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import workloads

    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    result = measure_setup(perf_counter() - T0)
    if args.mode in ("cold", "full"):
        result = measure_untraced(args, workload, result)
    elif args.mode == "trace":
        result = measure_traced(args, workload, result)
    result.update(workload=args.workload, seed=args.seed, mode=args.mode,
                  sizes=workload.sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
