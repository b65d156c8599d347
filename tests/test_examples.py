"""Smoke tests: every example script runs end-to-end (scaled down).

Each runs in a temporary directory, as a user's script would run in
theirs: an example that caches results writes ``./.repro-cache`` there.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
#: Where this interpreter found ``repro``, as an absolute path: a relative
#: ``PYTHONPATH`` would not hold in the example's directory.
SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def run_example(name: str, *args: str) -> str:
    with tempfile.TemporaryDirectory() as cwd:
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / name), *args],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
        )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_design_space(self):
        out = run_example("design_space.py")
        assert "Selected WDM degree: 64" in out
        assert "Figure 6" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "lower latency" in out
        assert "less network power" in out

    def test_synthetic_sweep(self):
        out = run_example("synthetic_sweep.py", "--cycles", "300")
        assert "zero-load" in out
        assert "Figure 9 panel" in out  # the ASCII plot

    def test_splash2_campaign_subset(self):
        out = run_example(
            "splash2_campaign.py", "--cycles", "300", "--benchmarks", "radix,lu"
        )
        assert "Figure 10" in out and "Figure 11" in out
        assert "Headline" in out

    def test_multicast_broadcast(self):
        out = run_example("multicast_broadcast.py")
        assert "16 multicast packets" in out
        assert "Union of taps covers 63 of 63" in out

    def test_topology_compare(self):
        out = run_example("topology_compare.py", "--cycles", "300")
        assert "Phastlane on mesh vs torus" in out
        assert "every registered topology" in out
        assert "mesh" in out and "torus" in out
        assert "path delay (ps)" in out

    def test_drop_anatomy(self):
        out = run_example("drop_anatomy.py", "--cycles", "300")
        assert "drops per router" in out
        assert "64-entry buffers" in out

    def test_drop_storm_timeline(self):
        out = run_example("drop_storm_timeline.py", "--cycles", "400")
        assert "drop-rate timeline" in out
        assert "0-100" in out and "300-400" in out
        lines = out.splitlines()
        at = lines.index("where the drops happen:")
        heatmap, droppers = lines[at + 1 : at + 9], lines[at + 9]
        assert [len(row) for row in heatmap] == [8] * 8
        assert droppers.startswith("hottest droppers: ")
        total = int(re.search(r"(\d+) drops", lines[0]).group(1))
        hottest = [int(n) for n in re.findall(r"node \d+ \((\d+)\)", droppers)]
        assert 0 < sum(hottest) <= total

    def test_congestion_heatmap(self, tmp_path):
        out_json = tmp_path / "spatial.json"
        out = run_example(
            "congestion_heatmap.py", "--cycles", "300", "--out", str(out_json)
        )
        assert "mean occupancy" in out
        assert "hottest router over the run" in out
        assert out_json.exists()

    def test_health_watch(self):
        out = run_example("health_watch.py", "--cycles", "400")
        assert "health: ok" in out
        assert "health: critical (first violation at cycle" in out
        assert "livelock" in out
        assert "watchdog verdict" in out

    def test_tail_anatomy(self):
        out = run_example("tail_anatomy.py", "--cycles", "300")
        assert "Where the delivered cycles went" in out
        assert "router_contention" in out
        assert "Slowest 5 packets" in out
        assert "Slowest packet, step by step" in out
        assert "cycles end to end" in out

    def test_fault_sweep(self):
        out = run_example(
            "fault_sweep.py",
            "--cycles", "300",
            "--fault-rates", "0.0,0.05",
            "--no-cache",
        )
        assert "Degradation under link faults" in out
        assert "Delivery ratio vs per-crossing fault rate" in out
