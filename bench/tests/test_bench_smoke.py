"""Schema and plumbing checks of the benchmark at ``--smoke`` sizes.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly:

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def bench(*args: str, script: str = "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def contract_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        WORKLOADS
        + [e["name"] for e in SPEC["end_to_end"]]
        + [e["name"] for e in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = contract_line(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for name in declared:  # printed by name, with its unit, for humans too
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {declared[name]}", done.stdout,
                         re.MULTILINE)


def test_traced_run_prints_every_per_layer_metric_and_nesting_spans():
    done = bench("--workload", "trace_analyze", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = contract_line(done)
    assert line["correct"] is True
    declared = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared

    recorded = json.loads((ROOT / "bench/out/spans-trace_analyze.json").read_text())
    spans = recorded["spans"]
    by_id = {span["id"]: span for span in spans}
    assert {"id", "parent", "run", "name", "layer", "start", "end"} <= set(spans[0])
    assert all(NAME.fullmatch(span["name"]) for span in spans)
    children: dict[int, float] = {}
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["run"] == parent["run"]
            children[parent["id"]] = (
                children.get(parent["id"], 0.0) + span["end"] - span["start"]
            )
    for span_id, covered in children.items():  # self time is never negative
        assert covered <= by_id[span_id]["end"] - by_id[span_id]["start"] + 1e-9
    for scope in ("job.cold", "job.warm"):
        root = next(s for s in spans if s["name"] == scope)
        self_sum = sum(recorded["self_s_by_layer"][scope].values())
        assert self_sum <= root["end"] - root["start"] + 1e-9
    # The re-enacted pipeline ran, and its stats equalled run(spec)'s
    # (the probe raises, failing "probes_completed", when they differ).
    assert any(span["name"] == "bench.enact" for span in spans)
    assert "CHECK FAILED" not in done.stdout


def test_a_broken_check_makes_the_driver_exit_1():
    done = bench("--workload", "vector_scale", "--trace", "0", "--smoke",
                 "--break-check")
    assert done.returncode == 1
    assert "CHECK FAILED deliberately_broken" in done.stdout
    assert contract_line(done)["correct"] is False


def test_full_set_result_file_and_compare(tmp_path):
    out = tmp_path / "a.json"
    done = bench("--smoke", "--seed", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    provenance = result["provenance"]
    assert {"commit", "dirty", "python", "platform", "nproc", "seed", "sizes"} <= set(
        provenance)
    assert set(result["workloads"]) == set(WORKLOADS)
    for entry in result["workloads"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["stats_sha256"])
        assert set(entry["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
        assert {"n", "min", "max", "value", "unit"} <= set(entry["metrics"]["wall_s"])
        assert entry["metrics"]["wall_s"]["n"] >= 3
    same = bench(str(out), str(out), script="compare.py")
    assert same.returncode == 0, same.stdout
    assert not re.search(r"\sworse\s*$", same.stdout, re.MULTILINE)

    slower = json.loads(out.read_text())
    slower["workloads"]["fig9_sweep"]["metrics"]["wall_s"]["value"] *= 2
    slower["workloads"]["fig9_sweep"]["noisy"] = False
    result["workloads"]["fig9_sweep"]["noisy"] = False
    out.write_text(json.dumps(result))
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    judged = bench(str(out), str(worse), script="compare.py")
    assert judged.returncode == 1
    assert re.search(r"fig9_sweep\s+wall_s.*\sworse\s*$", judged.stdout, re.MULTILINE)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig9_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode not in (0, 1)
    assert not done.stdout.strip()
