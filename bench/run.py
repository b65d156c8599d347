"""The repo benchmark driver (see bench/README.md and BENCHMARK.json).

Two ways to call it, both from the repository root:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the way the PR gate calls it.  The last line of stdout is
    ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 bench/run.py [--seed N] [--trace] [--out FILE]``
    All five workloads serially (untraced, then traced with ``--trace``),
    with provenance, written to ``FILE`` for ``bench/compare.py``.

This process only orchestrates: every measurement comes from a fresh
``bench/worker.py`` subprocess, one at a time (closed loop, one client, no
worker pool, no result cache).  Exits 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from yardstick import best_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}

#: Fresh set-up-only processes per run, then one cold-only process
#: (set-up, then the job once).  With the measuring process that is five
#: set-up samples behind the ``setup_s`` median and two cold samples behind
#: ``cold_wall_s``.
SETUP_PROCESSES = 3
#: The cold-only process is skipped when the set-up processes saw the host
#: below this relative speed: a run must fit the gate's total time even
#: when a neighbour takes half the machine, and the calibration already
#: corrects the one cold sample that is left.
SLOW_HOST_SPEED = 0.6
#: Host speeds (yardstick, per job repeat) further apart than this mark the
#: result ``noisy``: compare.py then reports an out-of-bound row as
#: ``unresolved`` instead of ``worse``/``better``.
NOISY_SPEED_RATIO = 1.10
WORKER_TIMEOUT_S = 170


def spawn_worker(workload: str, seed: int, mode: str, extra: list[str]) -> dict:
    """Run one worker to completion and parse its last stdout line."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: worker {mode}/{workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict[str, Any]:
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def run_untraced(workload: str, seed: int, seconds: float, flags: list[str]) -> dict:
    """The end-to-end protocol for one workload (see the module docstring).

    ``seconds`` is the measuring time of the whole run: what the set-up and
    cold processes leave of it is the measuring process's budget for warm
    repeats beyond the minimum of three.
    """
    started = perf_counter()
    setups = [
        spawn_worker(workload, seed, "setup", flags) for _ in range(SETUP_PROCESSES)
    ]
    slow_host = statistics.median(e["speed"] for e in setups) < SLOW_HOST_SPEED
    colds = [] if slow_host else [spawn_worker(workload, seed, "cold", flags)]
    budget = seconds - (perf_counter() - started)
    full = spawn_worker(workload, seed, "full", flags + ["--budget", str(budget)])
    for cold in colds:
        for key in ("attempted", "failed", "checks_failed"):
            full[key] += cold[key]
        full["checks"] += cold["checks"]
    colds.append(full)
    setups += colds
    cold_pieces = [entry["cold_pieces_s"] for entry in colds]
    # wall_s and cold_wall_s are per-piece bests (yardstick.best_of), so
    # they can sit below the fastest whole repeat shown as ``min``.
    wall = summarise(full["warm_calibrated_s"])
    wall["value"] = full["wall_s"]
    per_flit = 1e6 / max(1, full["flits"])
    measured = {
        "wall_s": wall,
        "cold_wall_s": {
            **summarise([sum(pieces) for pieces in cold_pieces]),
            "value": best_of(cold_pieces),
        },
        "host_us_per_flit": {
            key: value * per_flit if key != "n" else value
            for key, value in wall.items()
        },
        "peak_rss_mb": summarise([full["peak_rss_mb"]]),
        "setup_s": summarise([entry["setup_s"] for entry in setups]),
    }
    for name, entry in measured.items():
        entry["unit"] = END_TO_END[name]["unit"]
    speeds = [speed for entry in setups for speed in entry.get("speeds", [entry["speed"]])]
    return {
        "metrics": measured,
        "raw_host_s": {
            "setup": statistics.median(entry["setup_raw_s"] for entry in setups),
            "cold": [entry["cold_raw_s"] for entry in colds],
            "warm": full["warm_raw_s"],
        },
        "extras": full["extras"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "checks": full["checks"],
        "checks_failed": full["checks_failed"],
        "stats_sha256": full["stats_sha256"],
        "flits": full["flits"],
        "sizes": full["sizes"],
        "host_speed": {"min": min(speeds), "max": max(speeds)},
        "noisy": max(speeds) / min(speeds) > NOISY_SPEED_RATIO,
    }


def run_traced(workload: str, seed: int, flags: list[str]) -> dict:
    traced = spawn_worker(workload, seed, "trace", flags)
    missing = sorted(set(PER_LAYER) - set(traced["per_layer"]))
    extra = sorted(set(traced["per_layer"]) - set(PER_LAYER))
    if missing or extra:
        traced["checks"].append({
            "name": "per_layer_names_match_BENCHMARK.json", "ok": False,
            "detail": f"missing {missing}, undeclared {extra}",
        })
        traced["checks_failed"] += 1
    return traced


def print_table(title: str, metrics: dict[str, dict[str, Any]]) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        spread = ""
        if entry.get("n", 1) > 1:
            spread = f"  (n={entry['n']} min={entry['min']:.6g} max={entry['max']:.6g})"
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}{spread}")


def print_checks(result: dict) -> None:
    print(f"  runs attempted {result['attempted']}, failed {result['failed']}; "
          f"checks {len(result['checks'])}, failed {result['checks_failed']}; "
          f"stats_sha256 {result['stats_sha256']}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")


def contract_line(result: dict, metrics: dict[str, dict[str, Any]]) -> str:
    return json.dumps({
        "correct": result["checks_failed"] == 0 and result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    })


def provenance(seed: int, smoke: bool) -> dict[str, Any]:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "sizes": "smoke" if smoke else "full",
        "run_seconds": SPEC["run_seconds"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the full result set here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises the plumbing in seconds")
    parser.add_argument("--break-check", action="store_true",
                        help="fail one output check on purpose (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2

    flags = ["--smoke"] * args.smoke + ["--break-check"] * args.break_check
    started = perf_counter()
    failed_checks = 0
    results: dict[str, Any] = {}
    last_line = ""
    for workload in [args.workload] if args.workload else WORKLOADS:
        entry: dict[str, Any] = {}
        if not (args.workload and args.trace):
            # Smoke sizes run the minimum repeats only (a zero budget).
            seconds = 0.0 if args.smoke else args.seconds
            entry = run_untraced(workload, args.seed, seconds, flags)
            print_table(f"{workload} (seed {args.seed}): end to end", entry["metrics"])
            if entry["extras"]:
                print("  job-reported: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in entry["extras"].items()))
            print_checks(entry)
            raw = entry["raw_host_s"]
            print(f"  raw host seconds: setup {raw['setup']:.3f}, cold "
                  + " ".join(f"{w:.3f}" for w in raw["cold"]) + ", warm "
                  + " ".join(f"{w:.3f}" for w in raw["warm"])
                  + "; host speed {min:.2f}-{max:.2f}".format(**entry["host_speed"])
                  + (" NOISY" if entry["noisy"] else ""))
            failed_checks += entry["checks_failed"] + entry["failed"]
            last_line = contract_line(entry, entry["metrics"])
        if args.trace:
            traced = run_traced(workload, args.seed, flags)
            print_table(f"{workload} (seed {args.seed}): per layer, traced run",
                        traced["per_layer"])
            print(f"  spans: {traced['spans']} in {traced['span_file']}")
            print_checks(traced)
            failed_checks += traced["checks_failed"] + traced["failed"]
            entry["traced"] = traced
            if args.workload:
                last_line = contract_line(traced, traced["per_layer"])
        results[workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "repro-benchmark/v1",
            "provenance": provenance(args.seed, args.smoke),
            "elapsed_s": perf_counter() - started,
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.workload:
        print(last_line)
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
