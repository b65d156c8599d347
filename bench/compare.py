"""Compare two result sets of ``bench/run.py --out`` under the gate's bounds.

``python3 bench/compare.py A.json B.json`` prints one row per workload x
end-to-end metric: B against A, with the bound ``BENCHMARK.json`` fixes for
that metric.  A row is ``worse`` / ``better`` when B's median moved past
the bound, ``ok`` inside it, and ``unresolved`` when either side's spin
yardstick marked the run ``noisy``.  Simulated outputs are compared
exactly (``stats_sha256``).  Exits 1 when any row is ``worse`` or a side
has failed checks; use it for "two sets of runs of one commit agree" and
for parent-vs-change runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def classify(a: float, b: float, entry: dict[str, Any], noisy: bool) -> tuple[str, float]:
    """(status, relative change in the *worse* direction) of B against A."""
    if a == 0:
        return ("ok" if b == 0 else "unresolved"), 0.0
    change = (b - a) / abs(a)
    worse_by = change if entry["better"] == "lower" else -change
    if noisy and abs(worse_by) > entry["bound"]:
        return "unresolved", worse_by
    if worse_by > entry["bound"]:
        return "worse", worse_by
    if worse_by < -entry["bound"]:
        return "better", worse_by
    return "ok", worse_by


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[list[str]], bool]:
    rows = [["workload", "metric", "A", "B", "unit", "worse by", "bound", "status"]]
    failed = False
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        side_a = a["workloads"].get(workload, {})
        side_b = b["workloads"].get(workload, {})
        if "metrics" not in side_a or "metrics" not in side_b:
            rows.append([workload, "-", "-", "-", "-", "-", "-", "missing"])
            continue
        noisy = bool(side_a.get("noisy") or side_b.get("noisy"))
        for entry in SPEC["end_to_end"]:
            name = entry["name"]
            value_a = side_a["metrics"][name]["value"]
            value_b = side_b["metrics"][name]["value"]
            status, worse_by = classify(value_a, value_b, entry, noisy)
            failed |= status == "worse"
            rows.append([
                workload, name, f"{value_a:.5g}", f"{value_b:.5g}", entry["unit"],
                f"{worse_by:+.1%}", f"{entry['bound']:.0%}", status,
            ])
        same = side_a.get("stats_sha256") == side_b.get("stats_sha256")
        rows.append([workload, "stats_sha256", str(side_a.get("stats_sha256"))[:12],
                     str(side_b.get("stats_sha256"))[:12], "-", "-", "exact",
                     "same" if same else "differs"])
        for side, label in ((side_a, "A"), (side_b, "B")):
            bad = side.get("checks_failed", 0) + side.get("failed", 0)
            if bad:
                failed = True
                rows.append([workload, f"checks ({label})", "-", "-", "count",
                             str(bad), "0", "failed"])
    return rows, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline result set")
    parser.add_argument("b", type=Path, help="result set judged against it")
    args = parser.parse_args()
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    for label, side in (("A", a), ("B", b)):
        p = side["provenance"]
        print(f"{label}: commit {p['commit']} dirty={p['dirty']} seed={p['seed']} "
              f"sizes={p['sizes']} python={p['python']} nproc={p['nproc']}")
    rows, failed = compare(a, b)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print("FAIL: at least one metric is worse past its bound, or checks failed"
          if failed else "OK: no metric is worse past its bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
