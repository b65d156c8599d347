"""Byte-identity pins for fully observed runs.

``tests/test_fabric_regression.py`` pins only uninstrumented payloads;
these pin what an *observed* run writes: the JSON result (time series,
spatial slices, health report), the ``--stream-out`` file, the JSONL
trace with its ``health_*`` lines (packet uids renumbered), and the progress samples.  The two
window lengths (50 and 70 cycles) are non-aligned on purpose, and the
run lengths are multiples of neither, so both trailing partial windows
and the interleaving of window and health records are part of the pin.

The hashes were captured on the tree before the observers were folded
into one :class:`~repro.obs.session.ObsSession` (commit d31932f).  If a
change legitimately alters an observed output, recapture the constants
in the same commit and say which output moved and why.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.electrical.config import ElectricalConfig
from repro.faults import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs
from repro.harness.report import result_to_dict
from repro.harness.runner import run
from repro.obs import ObsConfig
from repro.util.geometry import Direction, MeshGeometry
from repro.vectorized import VectorizedConfig

MESH = MeshGeometry(8, 8)
CONFIGS = {
    "Optical4": standard_configs(MESH)["Optical4"],
    "Electrical3": standard_configs(MESH)["Electrical3"],
    "Vector8x8": VectorizedConfig(mesh=MESH),
}

#: label -> cycles -> (result sha, stream sha, trace sha, progress sha).
#: The vectorized engine is exact here, so its stream, trace events and
#: progress equal Optical4's; its result and trace header carry its label.
OBSERVED = {
    "Optical4": {
        460: (
            "d472c930a5f2caf201cedbc50c3a522fef113ba79f24579df0b6f6a275f8b7dc",
            "0d8a5222965ccde87bbf6c7e08ff9d6a711ff186fb955ebb1b968a69f4c45552",
            "7709f634e4a4b0b04cd28280f10a64df2c4eec6932fb328fe55d45094fb9b959",
            "cdf0e8eea35020a106cca514f703bc2b37dc6c62b84c4c30da9e2e185b3a5fe1",
        ),
        1490: (
            "4b25296ec33cb0770f825abe52edb6eba818ee1a65c297741a4e9f2c9c7e81e6",
            "bcc37a7cc300ca709e8ba2cb3ae9717023f646d84793b64c8c25add40e0abe53",
            "60556bfd4a964af5ffb3ea6046d975f69bea381e1ae520c366545a7c5ddc4af1",
            "cf62b1c27808e01387c264510cdfdc049c7e12eeb62f4bef6e9d74f61c8df7fb",
        ),
    },
    "Electrical3": {
        460: (
            "391db2a14ec4fe5c4e431471ddfab92fa96ba675067afe73216e74fd83272f21",
            "05f2999fff5f45ccfa7022c892ac2765c112ef2525ff59735c42e6dbaf78e1c1",
            "bf914554aac04d08f5bf41322e174106691541f1ac6d6de81f3558fa37984b23",
            "b199ae9ba59576ca8ae230e6053239e27ab5875a16b21ebae1f33cc55cb986cf",
        ),
        1490: (
            "c18a91840ebabc10e69879a5dd9f0d855e4cd3c83e6bb916594d956bcf9849b2",
            "15a3796bf358871a8af680dc04772e8c6ddc727b1c0014b43c7cf8b556b166d4",
            "ee7a9d80009f7252ea038f19a502fb903af7ca9fdda488b6c1fd7a96867e6c94",
            "a0e9f425ea0a5b69f1378b85cf0dc8e234ddf7196af190559b40a617e747902f",
        ),
    },
    "Vector8x8": {
        460: (
            "6509db886bae1cf2baf951799e39e2883f99937d84b2e93e7e7ef4709ebb7d50",
            "0d8a5222965ccde87bbf6c7e08ff9d6a711ff186fb955ebb1b968a69f4c45552",
            "eff1d43a85b5f2be3a5c707974036426e0dce864bb8392f2cf3fc0955d26ed10",
            "cdf0e8eea35020a106cca514f703bc2b37dc6c62b84c4c30da9e2e185b3a5fe1",
        ),
        1490: (
            "58d6fb6dda4fe6b6424dae306d64587af325024b0fead5674f9a347e3148ea43",
            "bcc37a7cc300ca709e8ba2cb3ae9717023f646d84793b64c8c25add40e0abe53",
            "2a10567304a9944d9b205cf916c3d5a048b232dea277e83109aaf2d4f839826d",
            "cf62b1c27808e01387c264510cdfdc049c7e12eeb62f4bef6e9d74f61c8df7fb",
        ),
    },
}


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _trace_sha(path):
    """sha256 of a JSONL trace with packet uids renumbered by first
    appearance.  The pins below predate per-network uid counters, when
    absolute uids depended on what had run in the process before."""
    header, *lines = path.read_text().splitlines()
    renumbered = {}
    out = [header]
    for line in lines:
        record = json.loads(line)
        if record["uid"] >= 0:
            record["uid"] = renumbered.setdefault(record["uid"], len(renumbered))
        out.append(json.dumps(record, sort_keys=True))
    return _sha("\n".join(out))


def observe(label, cycles, tmp_path):
    """One hotspot run with every leg of the observer switched on."""
    stream = tmp_path / "stream.jsonl"
    trace = tmp_path / "trace.jsonl"
    obs = ObsConfig(
        metrics_interval=50,
        spatial=True,
        health=True,
        health_interval=70,
        stream_path=str(stream),
        trace_path=str(trace),
    )
    samples = []
    result = run(
        RunSpec(
            CONFIGS[label],
            SyntheticWorkload("hotspot", 0.2),
            cycles=cycles,
            seed=11,
            obs=obs,
        ),
        progress=samples.append,
    )
    return result, (
        _sha(json.dumps(result_to_dict(result), sort_keys=True)),
        _sha(stream.read_bytes()),
        _trace_sha(trace),
        _sha(repr([dataclasses.astuple(sample) for sample in samples])),
    )


def _check(label, cycles, tmp_path):
    result, shas = observe(label, cycles, tmp_path)
    # The pin must exercise findings, not just quiet windows.
    assert result.health.status == "warn" and result.health.findings
    names = ("result", "stream", "trace", "progress")
    assert dict(zip(names, shas)) == dict(zip(names, OBSERVED[label][cycles]))


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_observed_run_outputs_are_pinned(label, tmp_path):
    _check(label, 460, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_observed_long_run_outputs_are_pinned(label, tmp_path):
    _check(label, 1490, tmp_path)


def test_results_do_not_depend_on_which_sinks_are_open(tmp_path):
    """Stream and trace files are sinks: the JSON result is the same
    with and without them."""
    result = run(
        RunSpec(
            CONFIGS["Optical4"],
            SyntheticWorkload("hotspot", 0.2),
            cycles=460,
            seed=11,
            obs=ObsConfig(
                metrics_interval=50, spatial=True, health=True, health_interval=70
            ),
        )
    )
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    assert _sha(payload) == OBSERVED["Optical4"][460][0]


# -- the dead-port storm of examples/health_watch.py ---------------------------

EAST = int(Direction.EAST)
WEST = int(Direction.WEST)


def _finding(severity, cycle, message, node=None):
    return {
        "check": "progress",
        "severity": severity,
        "cycle": cycle,
        "message": message,
        "node": node,
    }


STORM_REPORT = {
    "status": "critical",
    "first_violation_cycle": 100,
    "interval": 50,
    "windows": 10,
    "checks": {
        "credit_leak": {"status": "ok", "violations": 0},
        "flit_conservation": {"status": "ok", "violations": 0},
        "progress": {"status": "critical", "violations": 6},
    },
    "findings": [
        _finding(
            "warn", 100,
            "no forward progress for 1 windows (4 routers/NICs still hold work)",
        ),
        _finding(
            "critical", 200,
            "livelock: no forward progress for 3 windows while 4 routers/NICs "
            "still hold work",
        ),
        _finding(
            "warn", 250,
            "NIC 0 starved: backlogged with zero injections for 3 windows", 0,
        ),
        _finding(
            "warn", 250,
            "NIC 1 starved: backlogged with zero injections for 3 windows", 1,
        ),
        _finding(
            "critical", 350,
            "livelock: no forward progress for 6 windows while 4 routers/NICs "
            "still hold work",
        ),
        _finding(
            "critical", 500,
            "livelock: no forward progress for 9 windows while 4 routers/NICs "
            "still hold work",
        ),
    ],
    "truncated": 0,
}

#: (stream sha, trace sha) of the storm with 40-cycle metric windows
#: beside its 50-cycle health windows.
STORM_FILES = (
    "dd2e7db0746355acbad2abd2af0352dcab05f417053774f75caf6cc64da9d68d",
    "99513b40e12f7eb945c3eab59c1364546e2fe470554f71fb7622f0f6b741f90e",
)


def storm(obs):
    return run(
        RunSpec(
            ElectricalConfig(mesh=MeshGeometry(2, 1)),
            SyntheticWorkload("uniform", 0.3),
            cycles=500,
            seed=2,
            faults=FaultConfig(
                seed=1, dead_ports=((0, EAST), (1, WEST)), retry_limit=1_000_000
            ),
            obs=obs,
        )
    )


def test_dead_port_storm_health_report_is_pinned():
    report = storm(
        ObsConfig(health=True, health_interval=50, health_stall_windows=3)
    ).health
    assert report.to_dict() == STORM_REPORT
    severities = [finding.severity for finding in report.findings]
    assert severities.index("warn") < severities.index("critical")


def test_dead_port_storm_stream_and_trace_are_pinned(tmp_path):
    stream = tmp_path / "stream.jsonl"
    trace = tmp_path / "trace.jsonl"
    result = storm(
        ObsConfig(
            health=True,
            health_interval=50,
            health_stall_windows=3,
            metrics_interval=40,
            stream_path=str(stream),
            trace_path=str(trace),
        )
    )
    assert result.health.to_dict() == STORM_REPORT
    assert (_sha(stream.read_bytes()), _trace_sha(trace)) == STORM_FILES
    kinds = [json.loads(line).get("kind") for line in trace.read_text().splitlines()]
    assert "health_warn" in kinds and "health_critical" in kinds
