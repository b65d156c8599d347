"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import main
from test_cold_start import CLI_IMPORT_LOADS

ROOT = Path(__file__).resolve().parent.parent


def run_rows(out: str) -> list[tuple[str, str]]:
    """The ``(metric, value)`` rows of a rendered ``repro run`` table."""
    cells = [
        tuple(cell.strip() for cell in line.split("|"))
        for line in out.splitlines()
        if "|" in line
    ]
    assert cells[0] == ("metric", "value")
    return cells[1:]


def write_small_trace(path: Path, link_delay: int = 0) -> str:
    """One packet's JSONL trace, delivered after one hop."""
    from repro.obs.events import PacketEvent
    from repro.obs.tracers import JsonlTraceWriter

    writer = JsonlTraceWriter(path, meta={"label": "Optical4", "link_delay": link_delay})
    for event in (
        PacketEvent("generated", 0, 5, 1, {"dst": 9}),
        PacketEvent("injected", 2, 5, 1),
        PacketEvent("hop", 3, 9, 1),
        PacketEvent("delivered", 3, 9, 1),
    ):
        writer.emit(event)
    writer.close()
    return str(path)


class TestTablesAndFigures:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out

    @pytest.mark.parametrize("name", ["fig04", "fig05", "fig06", "fig07", "fig08"])
    def test_analytic_figures(self, name, capsys):
        assert main(["figure", name]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace-out", "x.jsonl", "--manifest", "m.json", "--health",
             "--cycles", "5"],
            ["--metrics-interval", "0"],
            ["--workers", "2"],
            ["--no-cache"],
        ],
        ids=" ".join,
    )
    def test_analytic_figures_refuse_simulation_flags(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        # Before, fig06 took these, ran nothing and wrote no file: exit 0.
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "fig06", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: fig06 ")
        named = [flag for flag in flags if flag.startswith("--")]
        assert all(flag in line for flag in named)

    def test_fig06_content(self, capsys):
        main(["figure", "fig06"])
        out = capsys.readouterr().out
        assert "max hops per 4 GHz cycle" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSweep:
    def test_small_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    "Optical4",
                    "--pattern",
                    "uniform",
                    "--rates",
                    "0.05",
                    "--cycles",
                    "200",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Optical4 / uniform" in out

    def test_unknown_config_errors(self, capsys):
        assert main(["sweep", "--config", "Optical99", "--rates", "0.05"]) == 2

    def test_sweep_with_workers_cache_and_report(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        manifest = tmp_path / "manifest.json"
        argv = [
            "sweep",
            "--config", "Optical4",
            "--pattern", "uniform",
            "--rates", "0.05,0.1",
            "--cycles", "150",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report),
            "--manifest", str(manifest),
        ]
        assert main(argv) == 0
        first = report.read_bytes()
        loaded = json.loads(first)
        assert loaded["kind"] == "sweep"
        assert len(loaded["points"]) == 2
        first_manifest = json.loads(manifest.read_text())
        assert first_manifest["runs"] == 2
        assert first_manifest["cache_hits"] == 0
        err = capsys.readouterr().err
        assert "[2/2]" in err and "campaign: 2 runs" in err

        # Second invocation: all cache hits, byte-identical report.
        assert main(argv) == 0
        assert report.read_bytes() == first
        assert json.loads(manifest.read_text())["cache_hits"] == 2

    def test_closing_lines_name_the_files_written(self, tmp_path, capsys):
        argv = [
            "sweep", "--rates", "0.05,0.1,0.2", "--cycles", "50", "--no-cache",
            "--trace-out", str(tmp_path / "t.jsonl"), "--metrics-interval", "10",
            "--stream-out", str(tmp_path / "s.jsonl"),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        named = {}
        for prefix in ("wrote packet trace(s) to ", "streamed metrics to "):
            (line,) = [line for line in lines if line.startswith(prefix)]
            named[prefix] = tuple(
                line.removeprefix(prefix).removesuffix(" (3 files)").split(" ... ")
            )
        assert named == {
            "wrote packet trace(s) to ": (
                str(tmp_path / "t-0000.jsonl"), str(tmp_path / "t-0002.jsonl")
            ),
            "streamed metrics to ": (
                str(tmp_path / "s-0000.jsonl"), str(tmp_path / "s-0002.jsonl")
            ),
        }
        assert all(Path(path).exists() for pair in named.values() for path in pair)
        assert not (tmp_path / "t.jsonl").exists()

    def test_one_run_names_its_one_file(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        argv = ["sweep", "--rates", "0.05", "--cycles", "50", "--no-cache",
                "--trace-out", str(trace)]
        assert main(argv) == 0
        assert f"wrote packet trace(s) to {trace}\n" in capsys.readouterr().err
        assert trace.exists()

    def test_sweep_no_cache_skips_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep",
            "--rates", "0.05",
            "--cycles", "100",
            "--no-cache",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        assert not cache_dir.exists()


class TestTraceWorkflow:
    def test_generate_info_run_round_trip(self, tmp_path, capsys):
        path = tmp_path / "fft.trace"
        assert (
            main(
                ["trace", "generate", "fft", "--out", str(path), "--cycles", "150"]
            )
            == 0
        )
        assert path.exists()

        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "offered load" in out

        argv = ["run", "--config", "Optical4", "--trace", str(path), "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Optical4 on fft" in out
        assert "delivery_ratio" in out and "1.000" in out

    @pytest.mark.parametrize("label", ["Vector4", "Vector4X"])
    def test_vectorized_configs_replay_a_splash2_trace(self, label, tmp_path, capsys):
        # Snoopy broadcasts included: the same stats table as Optical4,
        # wall-clock rows and the title aside.
        path = tmp_path / "fft.trace"
        main(["trace", "generate", "fft", "--out", str(path), "--cycles", "150"])
        capsys.readouterr()

        # Parsed rows, not rendered lines: the rule under the header is as
        # wide as the widest value, which is the wall-clock row left out.
        def table(config):
            argv = ["run", "--config", config, "--trace", str(path), "--no-cache"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"{config} on fft" in out
            return [
                row for row in run_rows(out)
                if row[0] not in ("wall_time_s", "packets_per_second")
            ]

        assert " * " in path.read_text(), "the trace carries no broadcast"
        rows = table(label)
        assert rows == table("Optical4")
        assert len(rows) >= 7

    def test_run_prints_each_metric_once(self, tmp_path, capsys):
        path = tmp_path / "fft.trace"
        main(["trace", "generate", "fft", "--out", str(path), "--cycles", "100"])
        capsys.readouterr()
        argv = ["run", "--config", "Vector4", "--trace", str(path), "--no-cache"]
        assert main(argv) == 0
        labels = [metric for metric, _ in run_rows(capsys.readouterr().out)]
        assert len(labels) == len(set(labels)), labels
        assert {"power_w", "cycles", "wall_time_s"} <= set(labels)

    def test_run_unknown_config_errors(self, tmp_path):
        path = tmp_path / "t.trace"
        main(["trace", "generate", "lu", "--out", str(path), "--cycles", "50"])
        assert main(["run", "--config", "Nope", "--trace", str(path)]) == 2

    def test_spatial_metrics_requires_interval(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["trace", "generate", "lu", "--out", str(path), "--cycles", "50"])
        argv = ["run", "--config", "Optical4", "--trace", str(path)]
        assert main(argv + ["--spatial-metrics"]) == 2
        assert "invalid observability config" in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestRefusals:
    """Every refusal is one ``repro: <message>`` stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--trace", "/nonexistent.trace"],
            ["trace", "info", "/nonexistent"],
            ["analyze", "/nonexistent.jsonl"],
            ["analyze"],
            ["sweep", "--link-flip-prob", "2"],
            ["sweep", "--health-interval", "10"],
            ["sweep", "--stream-out", "s.jsonl"],
            # Flags that change nothing without the leg they tune.
            ["sweep", "--trace-sample", "0.3"],
            ["sweep", "--stall-windows", "2"],
            # The sweep sets the probability itself.
            ["fault-sweep", "--link-flip-prob", "0.1"],
            # A value a run spec refuses is refused in the spec's own words
            # wherever the spec is built: before PR 22 the first ran 0.1 to
            # the end and died inside run() (under --workers 2 inside the
            # pool).
            ["sweep", "--rates", "0.1,1.5"],
            ["fault-sweep", "--fault-rates", "0.0,2.0"],
            ["sweep", "--cycles", "0"],
            # ... also deep inside compute_matrix / fig09.compute, where
            # these three ended in a ValueError traceback before PR 23.
            ["campaign", "--cycles", "0", "--no-cache"],
            ["figure", "fig09", "--cycles", "0", "--no-cache"],
            ["figure", "fig10", "--cycles", "0", "--no-cache"],
            # A dead port off the grid ended in a ValueError traceback.
            ["sweep", "--dead-ports", "999:E", "--rates", "0.02",
             "--cycles", "30", "--no-cache"],
            # Refused by the config the flag fills, in its words: the
            # parser states no check of its own.
            ["sweep", "--workers", "0"],
            ["sweep", "--metrics-interval", "0"],
            ["sweep", "--trace-sample", "2", "--trace-out", "x.jsonl"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_one_line_and_exit_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ")

    @pytest.mark.parametrize(
        "argv",
        [
            # argparse's refusals printed the multi-line usage block.
            ["sweep", "--trace-sample", "x"],
            ["sweep", "--dead-ports", "5"],
            ["sweep", "--metrics-interval", "abc"],
            ["sweep", "--bogus"],
            ["sweep", "--pattern", "zigzag"],
            ["figure", "fig99"],
            ["trace", "generate", "ocean"],
            [],
        ],
        ids=lambda argv: " ".join(argv) or "no command",
    )
    def test_argparse_refusals_are_one_line_too(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_trace_for_another_grid_names_both_counts(self, tmp_path, capsys):
        from repro.traffic.trace import Trace, TraceEvent

        path = tmp_path / "wide.trace"
        Trace("wide", 100, [TraceEvent(0, 0, 99), TraceEvent(1, 3, 70)]).save(path)
        argv = ["run", "--config", "Optical4", "--trace", str(path), "--no-cache"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ") and "100 nodes" in line and " 64 " in line

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_a_trace_of_no_cycles_is_refused(self, cycles, tmp_path, capsys):
        # Before, 0 wrote the profile's 4 000-cycle trace and -5 an empty
        # one, both with exit 0.
        path = tmp_path / "ocean.trace"
        argv = ["trace", "generate", "ocean", "--cycles", cycles, "--out", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not path.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ")

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            ("# nodes 4\n1 2 3\n", 2),  # a field short
            ("# nodes 4\n0 1 2 data_response\n1 x 2 data_response\n", 3),
            ("# nodes 4\n1 2 3 gossip\n", 2),  # an unknown kind
            ("# nodes 4\n-1 2 3 data_response\n", 2),
            ("# trace t\n# nodes four\n", 2),
            ("# nodes 0\n", 1),
        ],
        ids=["fields", "integer", "kind", "negative", "header", "no nodes"],
    )
    @pytest.mark.parametrize("command", ["trace info", "run"])
    def test_a_malformed_trace_names_its_line(
        self, command, text, bad_line, tmp_path, capsys
    ):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        argv = (
            ["trace", "info", str(path)] if command == "trace info"
            else ["run", "--config", "Optical4", "--trace", str(path), "--no-cache"]
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro: {path}:{bad_line}: ")


    @pytest.mark.parametrize(
        "flags, header_delay",
        [(["--top", "-1"], 0), (["--link-delay", "-5"], 0), ([], -5)],
        ids=["--top -1", "--link-delay -5", "header link_delay -5"],
    )
    def test_analyze_refuses_a_negative_count(
        self, flags, header_delay, tmp_path, capsys
    ):
        path = write_small_trace(tmp_path / "small.jsonl", header_delay)
        assert main(["analyze", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ") and "must be >= 0" in line

    def test_a_closed_stdout_exits_one_with_nothing_on_stderr(self):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "tables"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")


class TestFaultFlags:
    def test_dead_ports_accept_letters_and_digits(self):
        from repro.cli import _dead_ports

        assert _dead_ports("5:E,10:n, 3:2") == ((5, 1), (10, 0), (3, 2))

    @pytest.mark.parametrize("text", ["bogus", "5:X", "x:E", "5"])
    def test_dead_ports_reject_malformed(self, text):
        import argparse

        from repro.cli import _dead_ports

        with pytest.raises(argparse.ArgumentTypeError):
            _dead_ports(text)

    def test_sweep_accepts_fault_flags(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        argv = [
            "sweep",
            "--rates", "0.05",
            "--cycles", "150",
            "--no-cache",
            "--fault-seed", "3",
            "--link-flip-prob", "0.02",
            "--dead-ports", "5:E",
            "--report", str(report),
        ]
        assert main(argv) == 0
        payload = json.loads(report.read_text())
        assert payload["faults"]["link_flip_prob"] == 0.02
        assert payload["faults"]["dead_ports"] == [[5, 1]]

    def test_fault_sweep_prints_curve_and_report(self, tmp_path, capsys):
        report = tmp_path / "curve.json"
        argv = [
            "fault-sweep",
            "--rate", "0.05",
            "--fault-rates", "0.0,0.05",
            "--cycles", "150",
            "--no-cache",
            "--report", str(report),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        payload = json.loads(report.read_text())
        assert payload["kind"] == "fault-sweep"
        assert [p["fault_rate"] for p in payload["points"]] == [0.0, 0.05]
        assert payload["points"][1]["faults_injected"] > 0

    def test_a_burst_sweep_varies_the_burst_entry_probability(self, tmp_path, capsys):
        """``--fault-model burst`` used to sweep link flips: every fault of
        the curve is a burst, and the curve is not the bernoulli one."""
        def curve(model):
            report = tmp_path / f"{model}.json"
            argv = [
                "fault-sweep", "--fault-model", model,
                "--fault-rates", "0.0,0.05", "--cycles", "200", "--no-cache",
                "--report", str(report),
                "--trace-out", str(tmp_path / f"{model}.jsonl"),
            ]
            assert main(argv) == 0
            kinds = [
                json.loads(line)["fault"]
                for path in sorted(tmp_path.glob(f"{model}-*.jsonl"))
                for line in path.read_text().splitlines()
                if '"kind": "fault_injected"' in line
            ]
            return json.loads(report.read_text())["points"], kinds

        bursts, burst_kinds = curve("burst")
        flips, flip_kinds = curve("bernoulli")
        assert burst_kinds and set(burst_kinds) == {"burst"}
        assert set(flip_kinds) == {"link"}
        assert bursts[0] == flips[0]  # rate 0: the same fault-free run
        assert bursts[1] != flips[1]
        assert bursts[1]["faults_injected"] == len(burst_kinds)

    def test_burst_model_maps_flip_prob(self):
        from repro.cli import _faults_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "--fault-model", "burst", "--link-flip-prob", "0.1"]
        )
        faults = _faults_from_args(args)
        assert faults is not None
        assert faults.burst_enter_prob == 0.1
        assert faults.link_flip_prob == 0.0

    def test_invalid_fault_config_exits(self, capsys):
        assert main(["sweep", "--link-flip-prob", "2.0"]) == 2
        assert "invalid fault config" in capsys.readouterr().err


#: A value each field-filling flag accepts; all of one group's are valid
#: together.
FLAG_VALUES = {
    "--workers": "3",
    "--cache-dir": "elsewhere",
    "--trace-out": "t.jsonl",
    "--trace-sample": "0.5",
    "--metrics-interval": "7",
    "--spatial-metrics": None,
    "--health": None,
    "--health-interval": "9",
    "--stall-windows": "2",
    "--stream-out": "s.jsonl",
    "--fault-seed": "4",
    "--link-flip-prob": "0.25",
    "--dead-ports": "5:E,3:1",
    "--retry-limit": "3",
}


def flag_configs():
    """Each flag group's config type, built the way the CLI builds it."""
    from repro.faults.config import FaultConfig
    from repro.harness.exec import Executor, ResultCache
    from repro.obs.config import ObsConfig

    return {
        "executor": Executor,
        "cache": ResultCache,
        "observability": ObsConfig,
        "fault": FaultConfig,
    }


class TestFlagTable:
    """Each simulation flag is one row that fills one config field by name."""

    def test_every_row_names_a_field_of_its_config(self):
        import inspect

        from repro.cli import _FLAGS

        configs = flag_configs()
        assert set(_FLAGS) == set(configs)
        for group, rows in _FLAGS.items():
            parameters = inspect.signature(configs[group]).parameters
            for flag, field, _, _ in rows:
                assert field is None or field in parameters, (group, flag)

    def test_no_row_states_a_default_or_a_check(self):
        from repro.cli import _FLAGS, _dead_ports

        rows = [row for rows in _FLAGS.values() for row in rows]
        assert [flag for flag, _, _, keywords in rows if "default" in keywords] == [
            "--fault-model"  # fills no field
        ]
        types = {keywords.get("type") for _, _, _, keywords in rows}
        # Parsers only: every value's check is its config's.
        assert types <= {None, int, float, _dead_ports}

    def test_an_unset_flag_leaves_the_fields_default(self):
        from repro.cli import _from_flags, build_parser

        args = build_parser().parse_args(["sweep"])
        for group, config_type in flag_configs().items():
            built = _from_flags(config_type, args, group)
            assert vars(built) == vars(config_type()), group

    def test_a_set_flag_reaches_its_field(self):
        from repro.cli import _FLAGS, _from_flags, build_parser

        filled = {flag for rows in _FLAGS.values() for flag, field, _, _ in rows
                  if field is not None}
        assert set(FLAG_VALUES) == filled
        for group, config_type in flag_configs().items():
            argv = ["sweep"]
            for flag, field, _, _ in _FLAGS[group]:
                if field is not None:
                    value = FLAG_VALUES[flag]
                    argv += [flag] if value is None else [flag, value]
            args = build_parser().parse_args(argv)
            built = _from_flags(config_type, args, group)
            default = config_type()
            for flag, field, _, _ in _FLAGS[group]:
                if field is None:
                    continue
                dest = flag[2:].replace("-", "_")
                value = getattr(built, field)
                assert value != getattr(default, field), flag
                expected = getattr(args, dest)
                if field == "dead_ports":
                    expected = tuple(sorted(expected))  # the config sorts them
                assert str(value) == str(expected), flag  # root is a Path


#: What a command that simulates nothing must not import: numpy, the
#: simulators, the fabric and fault layers and the run path.
HEAVY = (
    "numpy",
    "repro.core",
    "repro.vectorized",
    "repro.electrical.network",
    "repro.fabric",
    "repro.faults",
    "repro.harness.exec",
    "repro.harness.runner",
    "repro.harness.sweeps",
)

#: Runs ``repro.cli.main`` on argv and reports which of HEAVY got imported.
PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        code = main(sys.argv[2:])
    except SystemExit as exit:
        code = exit.code
heavy = tuple(sys.argv[1].split(","))
inside = tuple(name + "." for name in heavy)
loaded = sorted(m for m in sys.modules if m in heavy or m.startswith(inside))
print(code, len(out.getvalue()), ",".join(loaded))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter finding ``repro`` the way this one did."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )


class TestImportsFollowTheCommand:
    @pytest.fixture(scope="class")
    def small_trace(self, tmp_path_factory):
        return write_small_trace(tmp_path_factory.mktemp("hygiene") / "small.jsonl")

    @pytest.mark.parametrize("command", CLI_IMPORT_LOADS)
    def test_no_simulator_and_no_numpy(self, command, small_trace):
        # Exactly the pinned modules, and no HEAVY one among them.
        pinned = sorted(CLI_IMPORT_LOADS[command])
        assert not [m for m in pinned if m.startswith(tuple(HEAVY))]
        argv = [small_trace if arg == "TRACE" else arg for arg in command.split()]
        done = python("-c", PROBE, "repro,numpy", *argv)
        assert done.returncode == 0, done.stderr
        code, printed, loaded = done.stdout.rstrip("\n").split(" ")
        assert code == "0" and int(printed) > 0
        assert loaded.split(",") == pinned

    def test_the_parser_choices_restate_their_tables(self):
        # The parser imports none of these tables, so each literal is
        # pinned to the one it restates: a pattern added to PATTERNS alone
        # fails here.
        from repro.topology.registry import registered_topologies
        from repro.traffic.patterns import PATTERNS
        from repro.traffic.splash2 import SPLASH2_PROFILES
        from repro.util.geometry import Direction

        assert cli._TOPOLOGIES == registered_topologies()
        assert cli._PATTERNS == tuple(sorted(PATTERNS))
        assert cli._BENCHMARKS == tuple(sorted(SPLASH2_PROFILES))
        assert cli._PORT_LETTERS == {
            d.name[0]: str(int(d)) for d in Direction if d is not Direction.LOCAL
        }

    def test_the_probe_sees_a_command_that_simulates(self):
        # The canary: a sweep runs a simulator, so the probe reports it —
        # an empty answer above is not the probe's blindness.
        done = python("-c", PROBE, ",".join(HEAVY), *self.SWEEP)
        assert done.returncode == 0, done.stderr
        assert "repro.electrical.network" in done.stdout
        assert "repro.harness.runner" in done.stdout

    #: What an unfaulted electrical sweep never runs: numpy, the reference
    #: oracle's route builder, the live dashboard and the figure-only
    #: photonic models.
    UNRUN = (
        "numpy",
        "repro.core.routing",
        "repro.obs.live",
        *(f"repro.photonics.{name}"
          for name in ("area", "dse", "lossbudget", "scaling")),
    )
    SWEEP = ["sweep", "--config", "Electrical3", "--pattern", "uniform",
             "--rates", "0.02", "--cycles", "30", "--no-cache"]

    def test_a_sweep_loads_only_what_it_runs(self):
        done = python("-c", PROBE, ",".join(self.UNRUN), *self.SWEEP)
        assert done.returncode == 0, done.stderr
        code, printed, loaded = done.stdout.rstrip("\n").split(" ")
        assert code == "0" and int(printed) > 0
        assert loaded == ""

    def test_the_probe_sees_numpy_in_a_faulted_sweep(self):
        # The canary: fault draws load numpy, so the probe reports it.
        argv = [*self.SWEEP, "--link-flip-prob", "0.01"]
        done = python("-c", PROBE, ",".join(self.UNRUN), *argv)
        assert done.returncode == 0, done.stderr
        assert "numpy" in done.stdout.rstrip("\n").split(" ")[2].split(",")

    def test_module_entry_point_prints_help(self):
        done = python("-m", "repro", "--help")
        assert done.returncode == 0
        assert "analyze" in done.stdout and "campaign" in done.stdout


class TestPackageRoot:
    def test_import_loads_no_subpackage(self):
        done = python(
            "-c",
            "import repro, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.')))",
        )
        assert done.stdout.strip() == "[]", done.stdout + done.stderr

    def test_every_public_name_is_its_defining_modules_object(self):
        from importlib import import_module

        assert isinstance(repro.__version__, str)
        for name in set(repro.__all__) - {"__version__"}:
            value = getattr(repro, name)
            assert value is getattr(import_module(value.__module__), name), name
            assert repro.__dict__[name] is value  # resolved once

    def test_dir_and_star_import(self):
        assert "__all__" in dir(repro)
        assert set(repro.__all__) <= set(dir(repro))
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["run"] is repro.run

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="'repro'.*'warp_drive'"):
            repro.warp_drive
        assert not hasattr(repro, "warp_drive")

    def test_readme_quick_start_runs_as_written(self):
        text = (ROOT / "README.md").read_text()
        fence = "```python\n"
        start = text.index(fence, text.index("## Quickstart")) + len(fence)
        snippet = text[start:text.index("```", start)]
        assert snippet.startswith("from repro import PhastlaneConfig")
        done = python("-c", snippet)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()

    def test_one_version_statement(self):
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        # setuptools reads the attribute as a literal, without importing.
        literal = [
            line for line in (ROOT / "src/repro/__init__.py").read_text().splitlines()
            if line.startswith("__version__ = ")
        ]
        assert literal == [f'__version__ = "{repro.__version__}"']
