"""Byte-identity regression pins for the fabric refactor.

The hashes below were captured on the pre-fabric tree (commit 65665da,
where ``make_network`` was an isinstance chain inside the runner).  They
pin two independent guarantees:

* ``RunSpec`` digests are part of the on-disk cache key — if they drift,
  every cached campaign silently invalidates.
* Fig 9/10 payload hashes prove the refactored simulators produce
  *bit-identical* results, not merely statistically similar ones.

If a change legitimately alters simulated behaviour, recapture these
constants in the same commit and say so in the commit message.
"""

import hashlib
import json

import pytest

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.faults import FaultConfig
from repro.harness.exec import RunSpec, Splash2Workload, SyntheticWorkload
from repro.harness.report import point_to_dict, result_to_dict, stats_to_dict
from repro.harness.runner import run
from repro.harness.sweeps import latency_vs_injection
from repro.util.geometry import MeshGeometry
from repro.vectorized import VECTORIZED_CALIBRATION, VectorizedConfig

MESH = MeshGeometry(4, 4)
OPT = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)
ELE = ElectricalConfig(mesh=MESH)
VEC = VectorizedConfig(mesh=MESH)

SPEC_DIGESTS = {
    "opt_default_uniform": (
        "aa3a2d8f953aab3ecfe8daa70deab87c0dda9ba559073bfbd0f2465ba44fd32c"
    ),
    "ele_default_uniform": (
        "09c9172508610de1c7132954d6d2f26b7851eb4bae69ebb41d6899101b56c188"
    ),
    "opt_4x4_transpose": (
        "d2ef78f7f7247f5b7e63f75999a5fdc95fe7a79c399360c1c6e0317df6a7f19b"
    ),
    "ele_4x4_radix": (
        "6d5921419789f164839ad60f540deb2dfe4a3703c171e34d8ec84b8a66ded458"
    ),
}

# Vectorized-backend pins.  The digests join the cache-key guarantee
# above; the stats hashes pin both calibrations — note the exact-mode
# hash *equals* ``VEC_REF_STATS_SHA`` (the reference Phastlane stats on
# the mirrored config), which is the bit-identity claim as a constant.
VEC_SPEC_DIGESTS = {
    "vec_fast_uniform": (
        "d44e622895e72bec013801e43a8d641c7419c037eb93a179fff7723e3a4ef9a1"
    ),
    "vec_exact_uniform": (
        "cdef6c44a96fc6abb9b4d8f97ff2f4cc22eef4ae5e0e8ef6924f41df5f607bd1"
    ),
}

VEC_FAST_STATS_SHA = (
    "2a909936830f5c5dc4a77bb4fb741d52120478c87fa994010006094070865b86"
)
VEC_REF_STATS_SHA = (
    "9ea39c78d60608566faad89fbd1b56b3c9ce0d9afc5b1bae4157bc07a6929841"
)

#: The calibration stamp is part of the backend's public contract (it
#: names the fast-mode stream); changing it is a baseline-refresh event.
VEC_CALIBRATION_PIN = (
    "vectorized-1 exact=bit-identical "
    "fast=philox(sha256('{seed}/vectorized/{pattern}')[:8]) "
    "traces=bit-identical"
)

FIG9_HASHES = {
    "Optical4": "87f877ae035fc8d7f74b4ba1e1945ecdd1e2c9556584aa70ce996100af9092ae",
    "Electrical3": "0b5f8b324a9f092bbabdea1d97cc95ce65be87e3b5f6961af7515f2e8f14e6e8",
}

FIG10_HASHES = {
    "Optical4": "6c169430e522a342f325409123b700e97373ecce4fd9923e438c306fb1fe32f7",
    "Electrical3": "09bd6dd2094a58fe36ee0935caa47bf2a7578e35c400ad93cb1ec4258fce8473",
}

# Canonical result-report pins (the whole ``result_to_dict`` payload, not
# only the stats): what a plain ``run()`` of these two specs serialises to.
PIN_SPECS = {
    "opt": RunSpec(OPT, SyntheticWorkload("uniform", 0.1), cycles=200),
    "ele": RunSpec(ELE, SyntheticWorkload("uniform", 0.1), cycles=200),
}

REPORT_SHAS = {
    "opt": "a9f6605bb88a3287d8b374beee3959e76440f31705e1065ede18b8288d2b2d1a",
    "ele": "a737c04fc49c3ac26824988654d479ef7252eac0e1bf09a233629454b14bfc9e",
}


def canonical_sha(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def test_run_spec_digests_unchanged():
    specs = {
        "opt_default_uniform": RunSpec(
            PhastlaneConfig(), SyntheticWorkload("uniform", 0.1), cycles=200
        ),
        "ele_default_uniform": RunSpec(
            ElectricalConfig(), SyntheticWorkload("uniform", 0.1), cycles=200
        ),
        "opt_4x4_transpose": RunSpec(
            OPT, SyntheticWorkload("transpose", 0.25), cycles=300, seed=7
        ),
        "ele_4x4_radix": RunSpec(ELE, Splash2Workload("radix"), cycles=300, seed=3),
    }
    digests = {name: spec.digest() for name, spec in specs.items()}
    assert digests == SPEC_DIGESTS


def test_disabled_fault_config_keeps_pre_fault_digests():
    """A default (disabled) FaultConfig is normalised away by the spec, so
    it must reproduce the digests captured before fault injection existed
    — otherwise every cached campaign on disk silently invalidates."""
    specs = {
        "opt_default_uniform": RunSpec(
            PhastlaneConfig(),
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
            faults=FaultConfig(),
        ),
        "ele_default_uniform": RunSpec(
            ElectricalConfig(),
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
            faults=FaultConfig(),
        ),
        "opt_4x4_transpose": RunSpec(
            OPT,
            SyntheticWorkload("transpose", 0.25),
            cycles=300,
            seed=7,
            faults=FaultConfig(),
        ),
        "ele_4x4_radix": RunSpec(
            ELE, Splash2Workload("radix"), cycles=300, seed=3, faults=FaultConfig()
        ),
    }
    digests = {name: spec.digest() for name, spec in specs.items()}
    assert digests == SPEC_DIGESTS


def test_fig9_sweep_payloads_byte_identical():
    hashes = {}
    for label, config in (("Optical4", OPT), ("Electrical3", ELE)):
        points = latency_vs_injection(
            config, "uniform", (0.02, 0.05, 0.1, 0.2), cycles=300, seed=1
        )
        hashes[label] = canonical_sha([point_to_dict(point) for point in points])
    assert hashes == FIG9_HASHES


def test_vectorized_spec_digests_unchanged():
    specs = {
        "vec_fast_uniform": RunSpec(
            VEC, SyntheticWorkload("uniform", 0.1), cycles=200
        ),
        "vec_exact_uniform": RunSpec(
            VectorizedConfig(mesh=MESH, mode="exact"),
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
        ),
    }
    digests = {name: spec.digest() for name, spec in specs.items()}
    assert digests == VEC_SPEC_DIGESTS


def test_vectorized_calibration_stamp_pinned():
    assert VECTORIZED_CALIBRATION == VEC_CALIBRATION_PIN


def test_vectorized_stats_byte_identical():
    fast = run(RunSpec(VEC, SyntheticWorkload("uniform", 0.1), cycles=200))
    assert canonical_sha(stats_to_dict(fast.stats)) == VEC_FAST_STATS_SHA
    exact = run(
        RunSpec(
            VectorizedConfig(mesh=MESH, mode="exact"),
            SyntheticWorkload("uniform", 0.1),
            cycles=200,
        )
    )
    reference = run(RunSpec(OPT, SyntheticWorkload("uniform", 0.1), cycles=200))
    assert canonical_sha(stats_to_dict(reference.stats)) == VEC_REF_STATS_SHA
    # Exact mode hashes to the *reference* constant: bit-identity, pinned.
    assert canonical_sha(stats_to_dict(exact.stats)) == VEC_REF_STATS_SHA


def test_fig10_splash2_stats_byte_identical():
    hashes = {}
    for label, config in (("Optical4", OPT), ("Electrical3", ELE)):
        result = run(RunSpec(config, Splash2Workload("radix"), cycles=300, seed=2))
        hashes[label] = canonical_sha(stats_to_dict(result.stats))
    assert hashes == FIG10_HASHES


@pytest.mark.parametrize("key", sorted(PIN_SPECS))
def test_canonical_report_byte_identical(key):
    assert canonical_sha(result_to_dict(run(PIN_SPECS[key]))) == REPORT_SHAS[key]
