"""Tests for the parallel campaign executor, run-spec API and result cache."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import config as core_config
from repro.core.config import PhastlaneConfig
from repro.electrical import config as electrical_config
from repro.electrical.config import ElectricalConfig
from repro.fabric.ideal import IdealConfig
from repro.faults.config import RETIRED_FAULT_KEYS, FaultConfig
from repro.harness.exec import (
    RETIRED_KEYS,
    Executor,
    ResultCache,
    RunSpec,
    Splash2Workload,
    SyntheticWorkload,
    TraceFileWorkload,
    calibration_stamp,
    config_from_dict,
    config_to_dict,
    workload_from_dict,
)
from repro.harness.report import (
    manifest_to_dict,
    point_to_dict,
    result_to_dict,
    write_report,
)
from repro.harness.runner import MAX_DRAIN_CYCLES, run
from repro.photonics import constants
from repro.traffic.splash2 import generate_splash2_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.util.errors import FabricError
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

from helpers import sweep_points

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELECTRICAL = ElectricalConfig(mesh=MESH)
#: The electrical rows retired from the config, at the paper's values.
ELECTRICAL_RETIRED = {
    "vc_depth": 1,
    "input_speedup": 4,
    "output_speedup": 1,
    "wait_for_tail_credit": True,
    "islip_iterations": 1,
    "credit_delay_cycles": 1,
}
#: One config of every kind with retired keys.
RETIRED_KIND_CONFIGS = {
    "phastlane": OPTICAL,
    "vectorized": VectorizedConfig(mesh=MESH),
    "electrical": ELECTRICAL,
    "ideal": IdealConfig(mesh=MESH),
}
#: The named constant that states each retired key's value; the section 7
#: knobs, which nothing reads, at the paper's choice.
PAPER_VALUES = {
    "nic_buffer_entries": constants.NIC_BUFFER_ENTRIES,
    "packet_bits": constants.PACKET_PAYLOAD_BITS,
    "payload_wdm": constants.PAYLOAD_WDM,
    "crossing_efficiency": constants.CROSSING_EFFICIENCY,
    "retry_penalty_cycles": core_config.RETRY_PENALTY_CYCLES,
    "backoff_cap_log2": core_config.BACKOFF_CAP_LOG2,
    "seed": core_config.BACKOFF_SEED,
    **{key: getattr(electrical_config, key.upper()) for key in ELECTRICAL_RETIRED},
    "buffer_arbitration": "rotating",
    "contention_policy": "drop",
    "buffer_sharing": False,
}
#: A value other than the paper's for each retired key.
OTHER_VALUES = {
    "nic_buffer_entries": 100_000,
    "packet_bits": 128,
    "payload_wdm": 32,
    "crossing_efficiency": 0.9,
    "retry_penalty_cycles": 2,
    "backoff_cap_log2": 3,
    "seed": 6,
    "vc_depth": 4,
    "input_speedup": 1,
    "output_speedup": 2,
    "wait_for_tail_credit": False,
    "islip_iterations": 2,
    "credit_delay_cycles": 0,
    "buffer_arbitration": "oldest_first",
    "contention_policy": "deflect",
    "buffer_sharing": True,
}


#: One faulted spec of each model a run switches on.
FAULTED_SPECS = {
    "flips": RunSpec(
        OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=300,
        faults=FaultConfig(seed=1, link_flip_prob=0.05),
    ),
    "bursts": RunSpec(
        ELECTRICAL, SyntheticWorkload("transpose", 0.1), cycles=300,
        faults=FaultConfig(seed=2, burst_enter_prob=0.02, retry_limit=4),
    ),
    "dead-ports": RunSpec(
        OPTICAL, Splash2Workload("ocean"), cycles=300,
        faults=FaultConfig(seed=3, dead_ports=((5, 1),), dead_port_count=2),
    ),
}
FAULTED_DIGESTS = {
    "flips": "ce5e90b82a6a99d2adb0d6f53dbf53d59289eb59ebedd844071c49b6b467c367",
    "bursts": "566467af74fd4823af213491086c38b9f39605e0a51b40f3b44ec7c1c246da9d",
    "dead-ports": "891aad49650c2c29febfbbc6caf6713f39d32a88f652630ef4ddd83fccdd82ae",
}


def small_specs(rates=(0.05, 0.1, 0.2), cycles=150):
    return [
        RunSpec(config, SyntheticWorkload("uniform", rate), cycles=cycles)
        for config in (OPTICAL, ELECTRICAL)
        for rate in rates
    ]


class TestLabels:
    def test_label_property_on_both_configs(self):
        assert OPTICAL.label == "Optical4"
        assert ELECTRICAL.label == "Electrical3"
        assert ElectricalConfig(mesh=MESH, router_delay_cycles=2).label == (
            "Electrical2"
        )


class TestSpecSerialisation:
    @pytest.mark.parametrize(
        "config",
        [OPTICAL, ELECTRICAL, replace(OPTICAL, network_arbitration="round_robin")],
    )
    def test_config_round_trip(self, config):
        restored = config_from_dict(config_to_dict(config))
        assert restored == config

    def test_retired_phastlane_keys_stay_on_the_wire_at_the_papers_values(self):
        # The three section 7 knobs are no longer fields, but the spec a
        # digest or a cache entry was made of still spells them out.
        payload = config_to_dict(OPTICAL)
        retired = {
            "buffer_arbitration": "rotating",
            "contention_policy": "drop",
            "buffer_sharing": False,
        }
        assert {key: payload[key] for key in retired} == retired
        assert "buffer_sharing" not in config_to_dict(ELECTRICAL)
        bare = {key: value for key, value in payload.items() if key not in retired}
        assert config_from_dict(bare) == OPTICAL == config_from_dict(payload)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("contention_policy", "deflect"),
            ("buffer_arbitration", "oldest_first"),
            ("buffer_sharing", True),
        ],
    )
    def test_a_retired_alternative_is_refused_in_one_line(self, key, value):
        spec = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=200)
        payload = spec.to_dict()
        payload["config"][key] = value
        with pytest.raises(FabricError, match=f"{key}=.*retired") as refusal:
            RunSpec.from_dict(payload)
        assert "\n" not in str(refusal.value)

    def test_retired_electrical_keys_stay_on_the_wire_at_the_papers_values(self):
        # The six Table 2 rows no figure varies are module constants now;
        # the spec a digest or a cache entry was made of still spells them
        # out, at the values the constants state.
        payload = config_to_dict(ELECTRICAL)
        assert {key: payload[key] for key in ELECTRICAL_RETIRED} == ELECTRICAL_RETIRED
        assert ELECTRICAL_RETIRED == {
            key: getattr(electrical_config, key.upper()) for key in ELECTRICAL_RETIRED
        }
        assert "input_speedup" not in config_to_dict(OPTICAL)
        bare = {
            key: value for key, value in payload.items() if key not in ELECTRICAL_RETIRED
        }
        assert config_from_dict(bare) == ELECTRICAL == config_from_dict(payload)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("vc_depth", 4),
            ("wait_for_tail_credit", False),
            ("input_speedup", 1),
            ("output_speedup", 2),
            ("islip_iterations", 2),
            ("credit_delay_cycles", 0),
        ],
    )
    def test_a_retired_electrical_setting_is_refused_in_one_line(self, key, value):
        """Nothing in the simulator ever read ``vc_depth`` or
        ``wait_for_tail_credit``: a value other than the paper's used to run
        the defaults under a different cache key.  The other four chose
        allocator and credit modes no figure runs."""
        spec = RunSpec(ELECTRICAL, SyntheticWorkload("uniform", 0.1), cycles=200)
        payload = spec.to_dict()
        payload["config"][key] = value
        with pytest.raises(FabricError, match=f"{key}=.*retired") as refusal:
            RunSpec.from_dict(payload)
        assert "\n" not in str(refusal.value)

    def test_a_retired_electrical_field_is_not_a_keyword(self):
        for key, paper in ELECTRICAL_RETIRED.items():
            with pytest.raises(TypeError):
                ElectricalConfig(**{key: paper})

    @pytest.mark.parametrize("kind", sorted(RETIRED_KEYS))
    def test_retired_keys_stay_on_the_wire_at_the_papers_values(self, kind):
        """Design-point rows no figure varies are constants, not fields; the
        spec a digest or a cache entry was made of still spells them out,
        at the values the constants state.  Nothing read ``vc_depth`` or
        ``wait_for_tail_credit``, and no result could see the NIC size: a
        value other than the paper's used to run the same physics under
        another cache key, so it is refused."""
        config = RETIRED_KIND_CONFIGS[kind]
        retired = RETIRED_KEYS[kind]
        payload = RunSpec(config, SyntheticWorkload("uniform", 0.1)).to_dict()
        wire = payload["config"]
        assert {key: wire[key] for key in retired} == retired
        assert retired == {key: PAPER_VALUES[key] for key in retired}
        bare = {key: value for key, value in wire.items() if key not in retired}
        assert config_from_dict(bare) == config == config_from_dict(wire)
        for key in retired:
            other = dict(payload, config={**wire, key: OTHER_VALUES[key]})
            with pytest.raises(FabricError, match=f"{key}=.*retired") as refusal:
                RunSpec.from_dict(other)
            assert "\n" not in str(refusal.value)
            with pytest.raises(TypeError):
                type(config)(**{key: retired[key]})

    def test_retired_fault_keys_stay_on_the_wire_at_their_values(self):
        """Control corruption, NIC stall windows and the burst chain's exit
        and loss probabilities are no fields; a stored faulted spec still
        spells them out at the only values any run used, and loads."""
        spec = FAULTED_SPECS["bursts"]
        wire = spec.to_dict()["faults"]
        assert {key: wire[key] for key in RETIRED_FAULT_KEYS} == {
            "burst_exit_prob": 0.25,
            "burst_loss_prob": 1.0,
            "corrupt_prob": 0.0,
            "nic_stall_prob": 0.0,
            "nic_stall_cycles": 10,
        }
        assert RunSpec.from_dict(spec.to_dict()) == spec
        bare = {key: wire[key] for key in set(wire) - set(RETIRED_FAULT_KEYS)}
        assert FaultConfig.from_dict(bare) == spec.faults
        for key, value in {
            "burst_exit_prob": 0.3,
            "burst_loss_prob": 0.5,
            "corrupt_prob": 0.05,
            "nic_stall_prob": 0.01,
            "nic_stall_cycles": 4,
        }.items():
            other = dict(spec.to_dict(), faults={**wire, key: value})
            with pytest.raises(FabricError, match=f"{key}=.*retired") as refusal:
                RunSpec.from_dict(other)
            assert isinstance(refusal.value, ValueError)
            assert "\n" not in str(refusal.value)
            with pytest.raises(TypeError):
                FaultConfig(**{key: RETIRED_FAULT_KEYS[key]})

    @pytest.mark.parametrize("name", sorted(FAULTED_SPECS))
    def test_faulted_digests_are_pinned(self, name):
        """Recorded at commit 8dafc95, before the retired fault knobs left
        ``FaultConfig``: the wire they write is the wire it wrote."""
        assert FAULTED_SPECS[name].digest() == FAULTED_DIGESTS[name]

    def test_unknown_config_kind_rejected(self):
        with pytest.raises(FabricError):
            config_from_dict({"kind": "quantum", "mesh": [4, 4]})
        with pytest.raises(FabricError):
            config_to_dict(object())

    def test_a_stored_spec_on_a_retired_topology_is_refused_in_one_line(self):
        """``cmesh`` ran only on the ideal backend; a spec stored with it
        names the topologies there are instead of building something else."""
        spec = RunSpec(IdealConfig(mesh=MESH), SyntheticWorkload("uniform", 0.1))
        payload = spec.to_dict()
        payload["config"]["topology"] = "cmesh"
        with pytest.raises(FabricError, match="unknown topology 'cmesh'") as refusal:
            RunSpec.from_dict(payload)
        assert isinstance(refusal.value, ValueError)
        assert str(refusal.value).endswith("mesh, torus")
        assert "\n" not in str(refusal.value)

    @pytest.mark.parametrize(
        "workload",
        [SyntheticWorkload("transpose", 0.25), Splash2Workload("radix")],
    )
    def test_workload_round_trip(self, workload):
        assert workload_from_dict(workload.to_dict()) == workload

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError):
            workload_from_dict({"kind": "quantum"})

    def test_spec_round_trip(self):
        spec = RunSpec(
            OPTICAL,
            SyntheticWorkload("transpose", 0.1),
            cycles=300,
            seed=7,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_warmup_and_drain_budget_stay_on_the_wire_at_their_one_value(self):
        payload = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1)).to_dict()
        assert payload["warmup"] is None
        assert payload["max_drain_cycles"] == MAX_DRAIN_CYCLES == 200_000
        bare = {
            key: value
            for key, value in payload.items()
            if key not in ("warmup", "max_drain_cycles")
        }
        assert RunSpec.from_dict(bare) == RunSpec.from_dict(payload)

    @pytest.mark.parametrize("key,value", [("warmup", 50), ("max_drain_cycles", 0)])
    def test_another_warmup_or_drain_budget_is_refused_in_one_line(self, key, value):
        payload = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1)).to_dict()
        payload[key] = value
        with pytest.raises(FabricError, match=f"{key}={value}.*retired") as refusal:
            RunSpec.from_dict(payload)
        assert "\n" not in str(refusal.value)

    def test_trace_file_workload_digests_content(self, tmp_path):
        path = tmp_path / "t.trace"
        trace = Trace("t", 16, events=[TraceEvent(0, 0, 5)])
        trace.save(path)
        spec = RunSpec(OPTICAL, TraceFileWorkload(str(path)))
        before = spec.digest()
        trace.append(TraceEvent(3, 1, 2))
        trace.save(path)
        assert spec.digest() != before  # editing the file invalidates the digest

    def test_digest_stable_and_sensitive(self):
        spec = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=200)
        assert spec.digest() == spec.digest()
        assert len(spec.digest()) == 64
        for other in (
            RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.2), cycles=200),
            RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=201),
            RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=200, seed=2),
            RunSpec(ELECTRICAL, SyntheticWorkload("uniform", 0.1), cycles=200),
        ):
            assert other.digest() != spec.digest()

    def test_invalid_spec_rejected(self):
        # Both: a ValueError to whoever guards construction, a FabricError
        # so the CLI prints one line wherever the spec was built.
        for build in (
            lambda: RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=0),
            lambda: SyntheticWorkload("uniform", 1.5),
        ):
            with pytest.raises(ValueError) as refusal:
                build()
            assert isinstance(refusal.value, FabricError)


class TestRun:
    def test_synthetic_run_is_deterministic(self):
        spec = RunSpec(OPTICAL, SyntheticWorkload("transpose", 0.1), cycles=200)
        first = run(spec)
        second = run(spec)
        assert first == second  # wall time is excluded from equality
        assert first.workload == "transpose@0.1"

    def test_wall_time_and_packet_rate_recorded(self):
        result = run(RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1), cycles=200))
        assert result.wall_time_s > 0
        assert result.packets_per_second > 0

    def test_splash2_workload(self):
        result = run(RunSpec(OPTICAL, Splash2Workload("radix"), cycles=120))
        assert result.workload == "radix"
        assert result.drained

    def test_trace_file_workload_runs(self, tmp_path):
        path = tmp_path / "fft.trace"
        trace = generate_splash2_trace("fft", mesh=MESH, duration_cycles=100)
        trace.save(path)
        result = run(RunSpec(OPTICAL, TraceFileWorkload(str(path))))
        assert result.workload == trace.name
        assert result.stats.packets_delivered > 0
        assert result.drained

    def test_unknown_workload_type_rejected(self):
        spec = RunSpec(OPTICAL, SyntheticWorkload("uniform", 0.1))
        object.__setattr__(spec, "workload", "not a workload")
        with pytest.raises(TypeError):
            run(spec)


class TestExecutorDeterminism:
    def test_parallel_equals_serial(self):
        specs = small_specs()
        serial = Executor(workers=1).map(specs)
        parallel = Executor(workers=4).map(specs)
        assert serial == parallel

    def test_sweep_points_identical_across_worker_counts(self):
        serial = sweep_points(
            OPTICAL, "transpose", (0.05, 0.2), 150, executor=Executor()
        )
        parallel = sweep_points(
            OPTICAL, "transpose", (0.05, 0.2), 150, executor=Executor(workers=4)
        )
        assert serial == parallel

    def test_order_preserved(self):
        specs = small_specs()
        results = Executor(workers=3).map(specs)
        assert [r.label for r in results] == [s.label for s in specs]
        assert [r.workload for r in results] == [s.workload_name for s in specs]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            Executor(workers=0)

    def test_pool_results_do_not_depend_on_live_telemetry(self):
        # One pool path: the live queue is an argument of it, not a fork.
        specs = small_specs(rates=(0.05, 0.1))
        plain = Executor(workers=2).map(specs)
        records = []
        live = Executor(workers=2, live=records.append).map(specs)
        assert [result_to_dict(r) for r in live] == [
            result_to_dict(r) for r in plain
        ]
        assert {record.index for record in records} == set(range(len(specs)))
        assert all(
            [r for r in records if r.index == index][-1].sample.done
            for index in range(len(specs))
        )
        # A later plain pool installs no queue: nothing more is forwarded.
        forwarded = len(records)
        assert Executor(workers=2).map(specs) == plain
        assert len(records) == forwarded


    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_runs_the_compute_generator_to_its_end(self, workers):
        """``map`` used to drop ``_compute`` at its last yield, so the pool
        was terminated the moment the last result arrived; a worker killed
        while its live-queue feeder held the queue's write lock left the
        parent's sentinel unwritable and ``map`` hung for ever (about one
        full tier-1 run in four).  The pool must wind down instead."""

        class Watched(Executor):
            wound_down = False

            def _compute(self, specs, indices, total):
                yield from super()._compute(specs, indices, total)
                self.wound_down = True

        executor = Watched(workers=workers, live=lambda record: None)
        specs = small_specs(rates=(0.05, 0.1), cycles=60)
        assert len(executor.map(specs)) == len(specs)
        assert executor.wound_down


class TestResultCache:
    def test_second_campaign_is_all_hits_and_byte_identical(self, tmp_path):
        specs = small_specs(rates=(0.05, 0.1), cycles=120)
        cache = ResultCache(tmp_path / "cache")

        first = Executor(workers=2, cache=cache)
        results_a = first.map(specs)
        assert first.cache_hits == 0

        second = Executor(workers=1, cache=cache)
        results_b = second.map(specs)
        assert second.cache_hits == len(specs)
        assert results_a == results_b

        payload_a = {"results": [result_to_dict(r) for r in results_a]}
        payload_b = {"results": [result_to_dict(r) for r in results_b]}
        path_a = write_report(tmp_path / "a.json", payload_a)
        path_b = write_report(tmp_path / "b.json", payload_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_manifest_counts_cache_hits(self, tmp_path):
        specs = small_specs(rates=(0.05,), cycles=100)
        cache = ResultCache(tmp_path)
        Executor(cache=cache).map(specs)
        executor = Executor(cache=cache)
        executor.map(specs)
        manifest = manifest_to_dict(executor.events)
        assert manifest["runs"] == len(specs)
        assert manifest["cache_hits"] == len(specs)
        assert [entry["index"] for entry in manifest["entries"]] == [0, 1]
        assert manifest["entries"][0]["digest"] == specs[0].digest()

    def test_calibration_stamp_invalidates(self, tmp_path, monkeypatch):
        spec = small_specs(rates=(0.05,), cycles=100)[0]
        cache = ResultCache(tmp_path)
        Executor(cache=cache).map([spec])
        monkeypatch.setattr(
            "repro.harness.exec.calibration_stamp", lambda: "recalibrated"
        )
        recalibrated = Executor(cache=cache)
        recalibrated.map([spec])
        assert recalibrated.cache_hits == 0
        assert (tmp_path / "vrecalibrated" / f"{spec.digest()}.json").is_file()

    def test_an_entry_stored_under_another_stamp_is_a_miss(self, tmp_path):
        spec = small_specs(rates=(0.05,), cycles=100)[0]
        cache = ResultCache(tmp_path)
        Executor(cache=cache).map([spec])
        path = cache.path_for(spec)
        payload = json.loads(path.read_text())
        payload["calibration"] = "2026.10.0"  # the last hand-typed stamp
        path.write_text(json.dumps(payload))
        assert cache.load(spec) is None
        executor = Executor(cache=cache)
        executor.map([spec])
        assert executor.cache_hits == 0
        assert json.loads(path.read_text())["calibration"] == calibration_stamp()

    def test_editing_one_simulator_file_misses_the_cache(self, tmp_path):
        """The stamp is the package's source: a copy of the tree serves its
        own entries to a new process until one simulator file changes."""
        tree = tmp_path / "src"
        shutil.copytree(
            Path(sys.modules["repro"].__file__).parent,
            tree / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "import sys\n"
            "from repro.core.config import PhastlaneConfig\n"
            "from repro.harness import exec\n"
            "from repro.util.geometry import MeshGeometry\n"
            "spec = exec.RunSpec(PhastlaneConfig(mesh=MeshGeometry(4, 4)),\n"
            "                    exec.SyntheticWorkload('uniform', 0.05), cycles=30)\n"
            "executor = exec.Executor(cache=exec.ResultCache(sys.argv[1]))\n"
            "executor.map([spec])\n"
            "print(executor.cache_hits, exec.__file__)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(tree), "PYTHONDONTWRITEBYTECODE": "1"}

        def hits():
            done = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "cache")],
                capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
            )
            assert done.returncode == 0, done.stderr
            count, module = done.stdout.split()
            assert Path(module).is_relative_to(tree)
            return int(count)

        assert (hits(), hits()) == (0, 1)
        simulator = tree / "repro" / "vectorized" / "network.py"
        simulator.write_text(simulator.read_text() + "# edited\n")
        assert hits() == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = small_specs(rates=(0.05,), cycles=100)[0]
        cache = ResultCache(tmp_path)
        Executor(cache=cache).map([spec])
        cache.path_for(spec).write_text("{not json")
        executor = Executor(cache=cache)
        executor.map([spec])
        assert executor.cache_hits == 0
        # ... and the entry was rewritten intact.
        assert json.loads(cache.path_for(spec).read_text())["digest"] == spec.digest()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda intact: b"[]",
            lambda intact: b"null",
            lambda intact: b"\xff\xfe\x00 not utf-8",
            lambda intact: json.dumps(
                {"calibration": calibration_stamp(), "result": []}
            ).encode(),
            lambda intact: intact[: len(intact) // 2],  # torn mid-write
        ],
        ids=["list", "null", "non-utf8", "result-not-object", "torn"],
    )
    def test_malformed_entry_recovers_by_resimulating(self, tmp_path, corrupt):
        spec = small_specs(rates=(0.05,), cycles=100)[0]
        cache = ResultCache(tmp_path)
        cold = Executor(cache=cache).map([spec])
        path = cache.path_for(spec)
        path.write_bytes(corrupt(path.read_bytes()))
        assert cache.load(spec) is None
        executor = Executor(cache=cache)
        assert executor.map([spec]) == cold
        assert executor.cache_hits == 0
        assert cache.load(spec) == cold[0]  # the bad file was overwritten

    def test_no_cache_executor_never_touches_disk(self, tmp_path):
        executor = Executor(workers=1, cache=None)
        executor.map(small_specs(rates=(0.05,), cycles=100))
        assert list(tmp_path.iterdir()) == []


class TestProgress:
    def test_callback_sees_every_run(self):
        seen = []
        specs = small_specs(rates=(0.05, 0.1), cycles=100)
        Executor(progress=seen.append).map(specs)
        assert len(seen) == len(specs)
        assert sorted(event.index for event in seen) == list(range(len(specs)))
        assert all(event.total == len(specs) for event in seen)
        assert not any(event.cache_hit for event in seen)

    def test_events_accumulate_across_maps(self):
        executor = Executor()
        specs = small_specs(rates=(0.05,), cycles=100)
        executor.map(specs)
        executor.map(specs)
        assert len(executor.events) == 2 * len(specs)


class TestCampaignWiring:
    def test_compute_matrix_through_executor_and_cache(self, tmp_path):
        from repro.harness.experiments.splash2_runs import compute_matrix

        kwargs = dict(
            benchmarks=("radix",), labels=("Optical4",), duration_cycles=300
        )
        first = Executor(cache=ResultCache(tmp_path))
        matrix = compute_matrix(executor=first, **kwargs)
        assert ("radix", "Optical4") in matrix.results
        assert first.cache_hits == 0

        second = Executor(cache=ResultCache(tmp_path))
        rerun = compute_matrix(executor=second, **kwargs)
        assert second.cache_hits == 1
        assert rerun.results == matrix.results


class TestSweepReport:
    def test_point_payload_marks_saturation_as_null(self):
        points = sweep_points(ELECTRICAL, "transpose", (0.05, 0.95), 400)
        payloads = [point_to_dict(p) for p in points]
        assert payloads[0]["mean_latency"] is not None
        assert payloads[-1]["mean_latency"] is None
