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
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs
from repro.harness.report import result_to_dict
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.util.geometry import Direction, MeshGeometry
from repro.vectorized.config import VectorizedConfig

MESH = MeshGeometry(8, 8)
CONFIGS = {
    "Optical4": standard_configs(MESH)["Optical4"],
    "Electrical3": standard_configs(MESH)["Electrical3"],
    "Vector8x8": VectorizedConfig(mesh=MESH),
}

#: label -> cycles -> (result sha, stream sha, trace sha, progress sha).
#: The vectorized engine is exact here, so its stream, trace events and
#: progress equal Optical4's; its result and trace header carry its label.
#: Each trace ends with the health lines of the trailing partial window,
#: which ``ObsSession.finish`` closes before it closes the trace.
OBSERVED = {
    "Optical4": {
        460: (
            "d472c930a5f2caf201cedbc50c3a522fef113ba79f24579df0b6f6a275f8b7dc",
            "0d8a5222965ccde87bbf6c7e08ff9d6a711ff186fb955ebb1b968a69f4c45552",
            "7cd0d030cba7c16a06ca9eed3e58ce0f43e002492791f6700cdb48864eb28915",
            "cdf0e8eea35020a106cca514f703bc2b37dc6c62b84c4c30da9e2e185b3a5fe1",
        ),
        1490: (
            "4b25296ec33cb0770f825abe52edb6eba818ee1a65c297741a4e9f2c9c7e81e6",
            "bcc37a7cc300ca709e8ba2cb3ae9717023f646d84793b64c8c25add40e0abe53",
            "f5e30f6617918d2cc44e7d18873e0e81d3034bea269b016acf0124f76731eaed",
            "cf62b1c27808e01387c264510cdfdc049c7e12eeb62f4bef6e9d74f61c8df7fb",
        ),
    },
    "Electrical3": {
        460: (
            "391db2a14ec4fe5c4e431471ddfab92fa96ba675067afe73216e74fd83272f21",
            "05f2999fff5f45ccfa7022c892ac2765c112ef2525ff59735c42e6dbaf78e1c1",
            "cb3eb5de971592e91f80addc0f77d9bd32ff47736908b4244f9ebd606eb71f74",
            "b199ae9ba59576ca8ae230e6053239e27ab5875a16b21ebae1f33cc55cb986cf",
        ),
        1490: (
            "c18a91840ebabc10e69879a5dd9f0d855e4cd3c83e6bb916594d956bcf9849b2",
            "15a3796bf358871a8af680dc04772e8c6ddc727b1c0014b43c7cf8b556b166d4",
            "d9b78e7fa710e5a1d020f23584958ccfcfba717a8611dedeb462239ede6071d4",
            "a0e9f425ea0a5b69f1378b85cf0dc8e234ddf7196af190559b40a617e747902f",
        ),
    },
    "Vector8x8": {
        460: (
            "6509db886bae1cf2baf951799e39e2883f99937d84b2e93e7e7ef4709ebb7d50",
            "0d8a5222965ccde87bbf6c7e08ff9d6a711ff186fb955ebb1b968a69f4c45552",
            "36272a07a45fc9936b175f12771974822284922cc5fb23c3770d2db50ffe9385",
            "cdf0e8eea35020a106cca514f703bc2b37dc6c62b84c4c30da9e2e185b3a5fe1",
        ),
        1490: (
            "58d6fb6dda4fe6b6424dae306d64587af325024b0fead5674f9a347e3148ea43",
            "bcc37a7cc300ca709e8ba2cb3ae9717023f646d84793b64c8c25add40e0abe53",
            "ce143b3ead5b216adae573cd74219396977bf33c59a61ef054497880c0542179",
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


def storm(obs, cycles=500):
    return run(
        RunSpec(
            ElectricalConfig(mesh=MeshGeometry(2, 1)),
            SyntheticWorkload("uniform", 0.3),
            cycles=cycles,
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


def test_the_last_windows_findings_reach_the_trace(tmp_path):
    """460 cycles end inside a 50-cycle health window: the trailing window
    that ``finish`` closes finds the livelock at 460, and its trace line is
    written before the trace file is closed."""
    trace = tmp_path / "trace.jsonl"
    report = storm(
        ObsConfig(
            health=True,
            health_interval=50,
            health_stall_windows=3,
            trace_path=str(trace),
        ),
        cycles=460,
    ).health
    assert ("critical", 460) in [(f.severity, f.cycle) for f in report.findings]
    records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
    traced = [
        (record["kind"], record["cycle"])
        for record in records
        if record["kind"].startswith("health_")
    ]
    assert traced == [(f"health_{f.severity}", f.cycle) for f in report.findings]
