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
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, Splash2Workload, SyntheticWorkload
from repro.harness.report import point_to_dict, result_to_dict, stats_to_dict
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig
from repro.vectorized.network import VECTORIZED_CALIBRATION, VectorizedNetwork

from helpers import plan_hops, sweep_points

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
    "Optical4": "7c0645a64958fd33793de2b3da36df25154399673d44ebd20db85beea4d1498d",
    "Electrical3": "afa89f041c72f6ad8c407c9774c9e06bd0b78c6ab3d8f91d1da0909e52ae6e00",
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
        points = sweep_points(config, "uniform", (0.02, 0.05, 0.1, 0.2), 300, seed=1)
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


def test_plan_cache_key_does_not_alias_above_65536_nodes(monkeypatch):
    """``(source << 16) | destination`` gave (1, 65541) the key of (1, 5) on
    any grid past 65 536 nodes, so one pair routed on the other's plan.
    Routers and NICs are stubbed out: the 257x256 network is two lists of
    None around the plan cache under test, which goes with the test."""
    monkeypatch.setattr("repro.vectorized.network._PLAN_CACHES", {})
    monkeypatch.setattr("repro.vectorized.network.VecRouter", lambda node: None)
    monkeypatch.setattr("repro.vectorized.network.VecNic", lambda node, network: None)
    network = VectorizedNetwork(VectorizedConfig(mesh=MeshGeometry(257, 256)))
    far, near = network.plan(1, 65541), network.plan(1, 5)
    assert (far.final, near.final) == (65541, 5)
    assert plan_hops(far)[0][0] == plan_hops(near)[0][0] == 1


# -- SPLASH2 broadcast pins, recorded from the reference ---------------------
#
# Recorded at commit 1e4c010, where every ``PhastlaneConfig`` run executes
# ``repro.core`` — the reference whose snoopy broadcasts are multicast
# packets over power taps (section 2.1.4).  Each case is one traced
# ``run()`` of a 300-cycle 8x8 SPLASH2 trace; the pair is the sha256 of
# ``result_to_dict`` and of the JSONL trace file (packet uids count per
# network, so the file hashes as written).  The fault-free grid is
# benchmark x topology x hop budget x buffer entries; a 2-entry buffer is
# what makes multicast packets drop and resend with passed taps cleared.
# The faulted cases pin multicast retransmission under ``retry_limit``,
# tap clearing and the taps an abandoned multicast loses (the trailing
# comments record what each run exercised).  Whatever engine serves a
# ``PhastlaneConfig`` has to reproduce every one of them byte for byte.
# The ``retry2-flip0.05`` pairs were recorded from the reference at commit
# 8dafc95, where the sparse kernel gave the same bytes; they keep multicast
# abandonment at retry 2 pinned.

SPLASH2_FAULTS = {
    "flip0.1-retry1": FaultConfig(seed=1, link_flip_prob=0.1, retry_limit=1),
    "retry2-flip0.05": FaultConfig(seed=1, link_flip_prob=0.05, retry_limit=2),
    "flip0.05": FaultConfig(seed=1, link_flip_prob=0.05),
}

SPLASH2_PINS = {
    ("radix", "mesh", 4, 10): (
        "0ec48fafa37da684e9a2b6f2b4a17b8c97ed29ad7d13371767a953ae55bbc0d3",
        "3b88820d5881b211132aac28702f97afd790f0932d6643349748d335de70c481",
    ),
    ("radix", "mesh", 4, 2): (
        "a1b401fcc432869ecf258aac622306c33438e56183251bc81850c0a2383e1f84",
        "547b98aae75de4dcb08fdcf1a6b91707c6df7d64e1c814080d7372f7f0fc8358",
    ),
    ("radix", "mesh", 4, None): (
        "301e278247749a5808d42192d9830bd4e8811eb19694271119d1cae04ce87678",
        "35d2d67dc564a4169dde5d1525765188836dae5665e1e5ff63205cb9e5bf9a0e",
    ),
    ("radix", "mesh", 5, 10): (
        "183c320e8829a31ad7bc0c9c1708e5ea81988b5d1d36d0b5cf3721b92d7c23bd",
        "5efb408cbef5d681e95ffc431b6b14caffe09cf33a4f6cc9bfe067805792a79a",
    ),
    ("radix", "mesh", 5, 2): (
        "5b7ec8f3e274bc4e4b4394eda6718c7da979ed3b879dd0f5be3dde2dc3506074",
        "e231a4a1f0f78ca502dd2ce78700c57cd9f72586b45b5120f9489e5a7551e261",
    ),
    ("radix", "mesh", 5, None): (
        "01abf0bbbd06937cb4c6520499bedfbfadc5d4a0f6e1cd3380b05db767fff109",
        "423d40a93303a3cea6411d4505f324de4c8b1870837b39cd5f33fa03311afef1",
    ),
    ("radix", "mesh", 8, 10): (
        "eb32cf7c3baeae61225097627edb37afcb2d925b5d53d9f625e4ec0a8ac6a714",
        "c9d6345c04a6f13ef5027f736619f91d00c4b19d92ae374612b1a20fd040f8fd",
    ),
    ("radix", "mesh", 8, 2): (
        "45e1da699d3cfd393ec392476e34a92aa4854b2fa9702867ee1cc469a9ace42b",
        "2bacd1860213ae8544aa7dfeea0e8a04c1eef6e9a20377753627c7cfcd85ec8f",
    ),
    ("radix", "mesh", 8, None): (
        "3aee051c77452a66ea38134d03742c129b2cab0797ef37c7d46b4a7ae4f2096d",
        "ab0cc4d7c89b39a2fc1cf5eca2dc5afda81a437b26e5e74b4acaa0cfaa461040",
    ),
    ("radix", "torus", 4, 10): (
        "26abc98f75b12f1eea4f91db0963298d4b994c780c652a25da6298d5f82e3481",
        "0bf33e05966cbdcbc4aef74cdf97f5dffe5ed02ba8a5e190f438af73b0293557",
    ),
    ("radix", "torus", 4, 2): (
        "28cbbe4b6d0701bd89953589c86ba89fc9b94b48f97a55dbb2fe615d7864aa10",
        "501076b3514d875eb5e98059f85169c0d9d628c0e7759f0137f282b1f2e240f5",
    ),
    ("radix", "torus", 4, None): (
        "c8c21b546c0c130fefbddf55ccde589d4b42df51729971498110538f2d897a4b",
        "905e9732fa567ab0091a603fce73453ff343496a58d3142852b79122df680e23",
    ),
    ("radix", "torus", 5, 10): (
        "cef8e2bb5547c8229d3abd1c8a6b2ae400820ab6b03caf2fdfa79adbf4336d8e",
        "caff2ad80aa12061102100abf4f73f1a591c74a3096da5df8b1deef17df56ff5",
    ),
    ("radix", "torus", 5, 2): (
        "f04bc2dbab3a5f89b00c5ac3d151ad74f176e3f23a9ae6569099f735aa8f3df8",
        "3f45d698ef169e2ff06629957a2b5e94fb5e5520e3cc7c9e23e04f23f454b67d",
    ),
    ("radix", "torus", 5, None): (
        "9c423d89a57d1601188a1a701944cc6b1a8ab651b10551bf343d739d14a4ff35",
        "3b2a1823b65e441f417b1e7be3fe8c4de987c9421eb16687641419a6b6ec7e6d",
    ),
    ("radix", "torus", 8, 10): (
        "ea51f073155e7ccb0cc0c4079a0561f131b557baa170d912c2653141cf4593a7",
        "d83baf43c1834a98f8fe75fa54b25a143e04c720e0dda29bca1bd2825c5a692e",
    ),
    ("radix", "torus", 8, 2): (
        "79fec4bf56c837ef36fc4a4d7aacf1becf8241382de0b85a5fd85fcf5fcdc9af",
        "4355ac4d15d0411adbea1ea365f6fd7d108e8cc9f81b020c1ca429c5bf48d1fb",
    ),
    ("radix", "torus", 8, None): (
        "64eba529b4a8c7dff90755eee16d3dc1f2eebc5f8799aa74b90e30a308e4a628",
        "22ab54d4fd65dc36998180d5f4911652bcb805e44fbf0ad4ea32be2d8044c74e",
    ),
    ("fft", "mesh", 4, 10): (
        "b1ab7e6acced97e91f6f1eb3b4dbf1f740ed59d50418ba1b9b629a0ce217075c",
        "38633bfae9c112d15a4b40d62ceb29498632008ccd96ad4b02563f354db413d3",
    ),
    ("fft", "mesh", 4, 2): (
        "17d1c1428468c99cd2d80cd01265b7a4c63cc07108d5f3047e53d11a16c8b7e7",
        "333bb6eeeb520e7bee8a655cf1a2d89d1c4f36ca6cb71fc73cfdf8f010172735",
    ),
    ("fft", "mesh", 4, None): (
        "b727bf7ab6a2297faeb17ca4a153a18ce1dc3ee55be45e556807fda383523593",
        "dd179a36d60af879fc41afec4dd79f45871575db8b8ec3cc731a44e7e25354b1",
    ),
    ("fft", "mesh", 5, 10): (
        "08ec33113ae6edf0a8f911aa690782c5a27fcb4857a0a4eee4f4613ad1a5cf29",
        "c647290acba013c8f49333abda602283ac0088f1e8dfe9ae50782f50fc4189f8",
    ),
    ("fft", "mesh", 5, 2): (
        "8b5f61b5a69ac0cebc27dd5671d7a72b562a8b2732208954865005ed181d7cea",
        "9c9af5514efb9cca5cdcf5135287b68b5d85e678dad2b8f1ba4507e0f1519af6",
    ),
    ("fft", "mesh", 5, None): (
        "f63d0befb04732773226ff5b73164c8838f59aee978e905446a9cedc44843f68",
        "98dcbca698bbe06f4aacfe6c916d257e158c58f4028016affc4d8c436dcebc76",
    ),
    ("fft", "mesh", 8, 10): (
        "8c957e52c7ab305a4d1346a11e211d924a81f7398b3de936641e97549d3ecad3",
        "ec913a9bba2affc6acea385b73d588c721442749d2ff83b24772f7fd96a92f2d",
    ),
    ("fft", "mesh", 8, 2): (
        "57937921ecb9dda33e503cebdf0e4a16cc853b95ec0528a63089a4dd5d39f8a3",
        "137235c3771221365030aeda5b598f21b2b11caa1100dc8decd141aefdb13649",
    ),
    ("fft", "mesh", 8, None): (
        "7d7d070e61784c674d5c45de9e82e9603468d67f687f44367620c34917333391",
        "09c30d50d38b7def322969e496eda423a4c2b78396382a8ce954ae4cc262ff9f",
    ),
    ("fft", "torus", 4, 10): (
        "03a52417562824429a2714bdb44128f6770c96b81bf381c64a1a8f9c72c9aae4",
        "fe35d782cae991f5f7d4f9d5a74e4edaebf582032dd4773f079ac25f807f3b1d",
    ),
    ("fft", "torus", 4, 2): (
        "edf722d01a2587beee6ced11c8ea54c0eada9c71625223be338d7a6a4b5413dc",
        "c08596f7519947d61ac5a69a2ee8b47d46fd2c0fb092415dac7683dd2021b0e1",
    ),
    ("fft", "torus", 4, None): (
        "d4bfbb18a967c717929d1e157f1b8c022e2821444bedd97dfa7f5b455ecc62a8",
        "0c090b917d63b43495923bc49f19f3aaef68db649c5ecfe7c843346c3a9c1660",
    ),
    ("fft", "torus", 5, 10): (
        "7f1327ec069b146b61a3c6d0ce652cd3679ff46a2b881cd4439022860758e4a6",
        "e0800280a6d1a35c7fa77a5a1e75dfce544288e10f618af8e299aab40b0f6470",
    ),
    ("fft", "torus", 5, 2): (
        "6d7768de353efeb0db37085bcfb0e57dcb70b49602277c183d080a78f89b473f",
        "43689b87e17a9cf00e55089b74aa60011bfa0a3d8d93279814c6cc1de7b3b3f7",
    ),
    ("fft", "torus", 5, None): (
        "8ab071e7515727b2a2b947fd64e2d35e11a63cd7c90b800b2c11926fb98433c5",
        "6ff4972ac3957567733df495f6f0c68c6225cdc3fc32f6ccdb12a1fb778b0f9e",
    ),
    ("fft", "torus", 8, 10): (
        "ed161a88235ce03a9a80453f6830670bd19a0ba8c3c818b928d41e446174a981",
        "a9d576f910fe5a61220ecf09dcc2e287d4ab5437ae60c4bbd6f5f0b45c10a246",
    ),
    ("fft", "torus", 8, 2): (
        "5d40aa7351c278e9b5295ccdad05a43b4ce01ececc6c96aeace3b20b0c8474a2",
        "cc89f2c124046aaed12bfbc02197b1bff47d85e4bf9fd4e1ef699f12f41ea7d7",
    ),
    ("fft", "torus", 8, None): (
        "e0f4cc4cfdd78bb12a7dec7732a2950bc4c5079a36192a7e5ba8f303df2902d4",
        "6ff44a35ad9a4dc88c7ee3df9e36debd042a93a7ca791bc496adf87bf07f1141",
    ),
}

SPLASH2_FAULT_PINS = {
    ("radix", "mesh", "flip0.1-retry1"): (
        "69ff7d2822f734b70b13be9c52d2806de44518418eaeb756e35992a3a799d7e4",
        "161f677b474d703c425c89cf55ec34d0f5dd8215294c48021f6022f3aae524a9",
    ),  # lost=593 retx=886 drops=1229 faults=1182 survivors=898
    ("radix", "mesh", "retry2-flip0.05"): (
        "3c080b6c29d14f1398ca8e6f07214ac1c61e0ea6d2a74a1cd19aed45330f1d37",
        "1dba1c4a8a0650d9060a8bcabc047aeaf906394d6e31e0eadbc55cd26ae76726",
    ),  # lost=30 retx=626 drops=647 faults=599 survivors=729
    ("radix", "mesh", "flip0.05"): (
        "8a24d17a0b4a7f2981b4d4d131f0056b21a1c5bd55f1242afa0a3796c611c1fd",
        "7b73de0f3c40264b41526bddf402efea3507bd686f083e52af6017aa708af786",
    ),  # lost=0 retx=681 drops=681 faults=616 survivors=800
    ("fft", "torus", "flip0.1-retry1"): (
        "66a84c295b716283d3468f7df62f53c5037648b9f70b29c77c9cc46518f16add",
        "c09fffed64ffb7db2d23aab5f42fed7fca9cbfb46ca80501c2fdd13ba9bdcade",
    ),  # lost=492 retx=820 drops=1107 faults=1083 survivors=935
    ("fft", "torus", "retry2-flip0.05"): (
        "f9872a72fd23339db478c0a416703bf636c0bbf37d7c5730c1319bd20c84bf0e",
        "5aa8be647e12d9fbeea8a15e820cd0957e1cb1a13bdc739514ece40591ff2402",
    ),  # lost=32 retx=563 drops=580 faults=561 survivors=745
    ("fft", "torus", "flip0.05"): (
        "f942b0ea2efff67cf81fa294aa687b1047608ba7987888e9fbfc07f5f723bf18",
        "d923f619b672040865f941ed19ad37b5a245a7d7ca917d7afbcafc72f3141f2f",
    ),  # lost=0 retx=596 drops=596 faults=559 survivors=785
}


def splash2_pin(tmp_path, benchmark, topology, max_hops, buffer_entries, faults=None):
    """(result sha256, trace-file sha256) of one traced 8x8 SPLASH2 run."""
    config = PhastlaneConfig(
        mesh=MeshGeometry(8, 8), topology=topology,
        max_hops_per_cycle=max_hops, buffer_entries=buffer_entries,
    )
    path = tmp_path / "trace.jsonl"
    result = run(
        RunSpec(
            config, Splash2Workload(benchmark), cycles=300, faults=faults,
            obs=ObsConfig(trace_path=str(path)),
        )
    )
    return (
        canonical_sha(result_to_dict(result)),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize(
    "case",
    [
        # The paper's four-hop network is tier-1; the 5- and 8-hop grids
        # run with the slow set (CI's differential job, ``-m ""``).
        pytest.param(case, marks=[pytest.mark.slow] if case[2] != 4 else [])
        for case in SPLASH2_PINS
    ],
    ids=lambda case: "-".join(map(str, case)),
)
def test_splash2_broadcast_runs_byte_identical(tmp_path, case):
    assert splash2_pin(tmp_path, *case) == SPLASH2_PINS[case]


@pytest.mark.parametrize(
    "case", SPLASH2_FAULT_PINS, ids=lambda case: "-".join(case)
)
def test_splash2_faulted_broadcast_runs_byte_identical(tmp_path, case):
    benchmark, topology, faults = case
    pin = splash2_pin(tmp_path, benchmark, topology, 4, 2, SPLASH2_FAULTS[faults])
    assert pin == SPLASH2_FAULT_PINS[case]
