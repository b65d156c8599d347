"""Tests for the parallel campaign executor, run-spec API and result cache."""

import json
from dataclasses import replace

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical import config as electrical_config
from repro.electrical.config import ElectricalConfig
from repro.fabric import FabricError
from repro.harness.exec import (
    CALIBRATION_STAMP,
    Executor,
    ResultCache,
    RunSpec,
    Splash2Workload,
    SyntheticWorkload,
    TraceFileWorkload,
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
from repro.harness.runner import run
from repro.harness.sweeps import latency_vs_injection
from repro.traffic.splash2 import generate_splash2_trace
from repro.traffic.trace import Trace, TraceEvent
from repro.util.geometry import MeshGeometry

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

    def test_unknown_config_kind_rejected(self):
        with pytest.raises(FabricError):
            config_from_dict({"kind": "quantum", "mesh": [4, 4]})
        with pytest.raises(FabricError):
            config_to_dict(object())

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
            warmup=50,
            seed=7,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

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
        serial = latency_vs_injection(
            OPTICAL, "transpose", (0.05, 0.2), cycles=150, executor=Executor()
        )
        parallel = latency_vs_injection(
            OPTICAL, "transpose", (0.05, 0.2), cycles=150,
            executor=Executor(workers=4),
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

    def test_calibration_stamp_invalidates(self, tmp_path):
        spec = small_specs(rates=(0.05,), cycles=100)[0]
        cache = ResultCache(tmp_path, calibration=CALIBRATION_STAMP)
        Executor(cache=cache).map([spec])
        recalibrated = Executor(
            cache=ResultCache(tmp_path, calibration="recalibrated")
        )
        recalibrated.map([spec])
        assert recalibrated.cache_hits == 0

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
                {"calibration": CALIBRATION_STAMP, "result": []}
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
        points = latency_vs_injection(
            ELECTRICAL, "transpose", (0.05, 0.95), cycles=400
        )
        payloads = [point_to_dict(p) for p in points]
        assert payloads[0]["mean_latency"] is not None
        assert payloads[-1]["mean_latency"] is None
