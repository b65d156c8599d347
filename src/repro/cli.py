"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment harness without writing any Python:

- ``repro tables`` — print Tables 1-4;
- ``repro figure fig06`` — regenerate one figure (fig04..fig11);
- ``repro sweep --pattern transpose`` — a Fig 9-style latency sweep;
- ``repro trace generate ocean --out ocean.trace`` — write a SPLASH2 trace;
- ``repro trace info ocean.trace`` — summarise a trace file;
- ``repro run --config Optical4 --trace ocean.trace`` — replay a trace;
- ``repro fault-sweep --fault-model burst`` — a degradation curve;
- ``repro campaign`` — the full Fig 10/11 SPLASH2 campaign;
- ``repro analyze run.jsonl`` — a latency blame report from a JSONL trace.

``repro <command> --help`` lists a command's flags.  The simulation flags
are the rows of :data:`_FLAGS`: each fills one field of its config by
name and states no default or check of its own.  Every refusal is one
``repro: ...`` line on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence, TypeVar

# Imports follow the command: the parser is built from literals, so
# ``import repro.cli`` loads ``repro.util.errors`` and nothing else of the
# package, and every handler imports what it runs.
from repro.util.errors import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.protocol import NetworkConfig
    from repro.faults.config import FaultConfig
    from repro.harness.exec import Executor, ProgressCallback, RunEvent

_ANALYTIC_FIGURES = ("fig04", "fig05", "fig06", "fig07", "fig08")

#: Cycles per run of a simulated figure when ``--cycles`` is not given.
_FIGURE_CYCLES = 1500

# The parser's choices, restated from the tables they name so that building
# it imports none of them; tests/test_cli.py pins each equal to its table.
#: ``repro.topology.registry.registered_topologies()``.
_TOPOLOGIES = ("mesh", "torus")
#: ``sorted(repro.traffic.patterns.PATTERNS)``.
_PATTERNS = ("bitcomp", "bitrev", "hotspot", "neighbor", "shuffle", "tornado",
             "transpose", "uniform")
#: ``sorted(repro.traffic.splash2.SPLASH2_PROFILES)``.
_BENCHMARKS = ("barnes", "cholesky", "fft", "fmm", "lu", "ocean", "radix",
               "raytrace", "water-nsquared", "water-spatial")
#: ``--dead-ports`` letters: the mesh ``repro.util.geometry.Direction``s.
_PORT_LETTERS = {"N": "0", "E": "1", "S": "2", "W": "3"}


def _dead_ports(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``--dead-ports``: comma-separated ``node:port`` pairs.

    The port is a mesh direction — ``N``/``E``/``S``/``W`` or the matching
    integer 0-3 — e.g. ``--dead-ports 5:E,10:N``.
    """
    ports = []
    for item in filter(None, (item.strip() for item in text.split(","))):
        node, _, port = item.partition(":")
        port = port.strip().upper()
        try:
            ports.append((int(node), int(_PORT_LETTERS.get(port, port))))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid dead port {item!r}; expected node:port with port "
                "N/E/S/W or 0-3 (e.g. 5:E)"
            )
    return tuple(ports)


def _trace_sample(text: str) -> float:
    """Parse ``--trace-sample``, refusing a fraction no trace can keep
    while parsing, in :class:`~repro.obs.config.ObsConfig`'s own words (the
    stand-in path leaves only the value's check to fail)."""
    from repro.obs.config import ObsConfig

    try:
        return ObsConfig(trace_path="-", trace_sample=float(text)).trace_sample
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: The field each fault model fills with ``--link-flip-prob`` (and with
#: each of ``fault-sweep``'s ``--fault-rates``).
_FAULT_MODELS = {"bernoulli": "link_flip_prob", "burst": "burst_enter_prob"}

_PATH, _SWITCH = {"metavar": "PATH"}, {"action": "store_true"}

#: The simulation flags by group, one row per flag: the flag, the field of
#: the group's config it fills (None: the command reads it), its help and
#: its argparse keywords.  No row has a default but ``--fault-model``, which
#: fills no field: an unset flag is absent from the parsed arguments, so
#: the field keeps its own default and the config's checks are the only
#: ones.
_FLAGS: dict[str, tuple[tuple[str, str | None, str, dict[str, Any]], ...]] = {
    "executor": (  # repro.harness.exec.Executor
        ("--workers", "workers", "worker processes for campaign fan-out "
         "(1: in-process)", {"type": int, "metavar": "N"}),
        ("--manifest", None, "write the campaign manifest JSON here", _PATH),
    ),
    "cache": (  # repro.harness.exec.ResultCache
        ("--no-cache", None, "always simulate; do not read or write the "
         "result cache", _SWITCH),
        ("--cache-dir", "root", "result cache location", _PATH),
    ),
    "observability": (  # repro.obs.config.ObsConfig
        ("--trace-out", "trace_path", "write a packet-lifecycle trace here "
         "(Chrome trace_event JSON, Perfetto-loadable; a .jsonl suffix "
         "selects JSONL); campaigns with several runs get per-run suffixed "
         "paths", _PATH),
        ("--trace-sample", "trace_sample", "fraction of packet lifecycles to "
         "trace; requires --trace-out", {"type": _trace_sample, "metavar": "RATE"}),
        ("--metrics-interval", "metrics_interval", "collect windowed "
         "time-series metrics every CYCLES cycles (serialised into JSON "
         "reports)", {"type": int, "metavar": "CYCLES"}),
        ("--spatial-metrics", "spatial", "extend the windowed metrics with "
         "per-router occupancy/drop/delivery series (requires "
         "--metrics-interval)", _SWITCH),
        ("--health", "health", "run the health watchdogs (flit conservation, "
         "credit leaks, stall/livelock detection) at metrics-window "
         "boundaries; the verdict lands in JSON reports and the campaign "
         "manifest", _SWITCH),
        ("--health-interval", "health_interval", "health audit window "
         "(default: the metrics window); requires --health",
         {"type": int, "metavar": "CYCLES"}),
        ("--stall-windows", "health_stall_windows", "flat windows of zero "
         "delivery progress before the livelock watchdog escalates to "
         "critical; requires --health", {"type": int, "metavar": "N"}),
        ("--stream-out", "stream_path", "stream per-window metrics and health "
         "findings to this JSONL file while the run executes (requires "
         "--metrics-interval); campaigns with several runs get per-run "
         "suffixed paths", _PATH),
    ),
    "fault": (  # repro.faults.config.FaultConfig
        ("--fault-seed", "seed", "root seed of the fault schedule "
         "(independent of traffic seed)", {"type": int, "metavar": "SEED"}),
        ("--fault-model", None, "how --link-flip-prob is applied: independent "
         "per-crossing flips (bernoulli) or Gilbert-Elliott bursts entered at "
         "that probability (burst)",
         {"choices": tuple(_FAULT_MODELS), "default": "bernoulli"}),
        ("--link-flip-prob", "link_flip_prob", "transient link-fault "
         "probability per crossing", {"type": float, "metavar": "PROB"}),
        ("--dead-ports", "dead_ports", "permanently dead router ports as "
         "node:port pairs, comma-separated; ports are N/E/S/W or 0-3 (e.g. "
         "5:E,10:N)", {"type": _dead_ports, "metavar": "LIST"}),
        ("--retry-limit", "retry_limit", "retransmissions before a faulted "
         "packet is abandoned", {"type": int, "metavar": "N"}),
    ),
}


class _UsageError(Exception):
    """A refused command line: ``main`` prints ``repro: <message>``, exits 2."""


class _Parser(argparse.ArgumentParser):
    """argparse, refusing a bad command line in one ``repro:`` line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"repro: {message} (see {self.prog} --help)\n")


_Config = TypeVar("_Config")


def _from_flags(
    config_type: Callable[..., _Config],
    args: argparse.Namespace,
    group: str,
    moved: dict[str, str] | None = None,
    **fields: Any,
) -> _Config:
    """``config_type(**fields)`` with the field of each ``group`` flag given.

    ``moved`` sends a row's value to another field.  A bad value is
    refused in the config's own words.
    """
    for flag, field, _, _ in _FLAGS[group]:
        dest = flag[2:].replace("-", "_")
        if field is not None and dest in args:
            fields[(moved or {}).get(field, field)] = getattr(args, dest)
    try:
        return config_type(**fields)
    except ValueError as exc:
        raise _UsageError(f"invalid {group} config: {exc}")


def _config_from_args(args: argparse.Namespace) -> NetworkConfig:
    """Look ``--config`` up among the configs built on ``--topology``."""
    from repro.harness.experiments.configs import cli_configs

    configs = cli_configs(args.topology)
    if args.config not in configs:
        raise _UsageError(
            f"unknown config {args.config!r}; choose from {sorted(configs)}"
        )
    return configs[args.config]


def _float_list(text: str, flag: str) -> list[float]:
    """Parse the comma-separated floats given to ``flag``."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise _UsageError(
            f"invalid {flag} {text!r}; expected comma-separated floats"
        )


def _faults_from_args(args: argparse.Namespace) -> FaultConfig | None:
    """The fault config the fault flags ask for (None if it injects nothing)."""
    from repro.faults.config import FaultConfig

    # The one rule beyond the table: the fault model names the field that
    # --link-flip-prob fills.
    moved = {"link_flip_prob": _FAULT_MODELS[args.fault_model]}
    faults = _from_flags(FaultConfig, args, "fault", moved)
    return faults if faults.enabled else None


def _progress_lines() -> ProgressCallback:
    """Off a terminal, one plain stderr line per completed run."""
    done = {"runs": 0, "hits": 0}

    def callback(event: RunEvent) -> None:
        done["runs"] += 1
        done["hits"] += event.cache_hit
        status = "cache" if event.cache_hit else f"{event.wall_time_s:.2f}s"
        health = event.result.health
        verdict = "" if health is None else f" health={health.status}"
        print(
            f"[{done['runs']}/{event.total}] {event.spec.label} "
            f"{event.spec.workload_name} ({status}, {done['hits']} cached)"
            f"{verdict}",
            file=sys.stderr,
            flush=True,
        )

    return callback


def _executor_from_args(args: argparse.Namespace) -> Executor:
    """The executor the executor, cache and observability flags ask for."""
    from repro.harness.exec import Executor, ResultCache
    from repro.obs.config import ObsConfig

    obs = _from_flags(ObsConfig, args, "observability")
    cache = None if "no_cache" in args else _from_flags(ResultCache, args, "cache")
    progress, live = _progress_lines(), None
    if sys.stderr.isatty():
        # On a terminal the live panel is the progress line: each run's
        # samples move its bar and each completion repaints it.
        from repro.obs.live import LiveDashboard

        dashboard = LiveDashboard()
        progress, live = dashboard.on_event, dashboard.on_progress
    return _from_flags(
        Executor,
        args,
        "executor",
        cache=cache,
        progress=progress,
        obs=obs if obs.enabled else None,
        live=live,
    )


def _finish_campaign(executor: Executor, args: argparse.Namespace) -> None:
    """Summarise the executor's event log; write the manifest if asked."""
    from repro.harness.report import manifest_to_dict, write_report

    manifest = manifest_to_dict(executor.events)
    print(
        f"campaign: {manifest['runs']} runs, {manifest['cache_hits']} cache "
        f"hits, {manifest['total_wall_time_s']:.2f}s simulated wall time",
        file=sys.stderr,
    )
    if getattr(args, "manifest", None):
        path = write_report(args.manifest, manifest)
        print(f"wrote manifest to {path}", file=sys.stderr)
    if getattr(args, "html", None):
        from repro.harness.htmlreport import write_campaign_html

        path = write_campaign_html(args.html, executor.events)
        print(f"wrote HTML campaign report to {path}", file=sys.stderr)
    traces = _obs_paths(executor, "trace_path")
    if traces:
        print(f"wrote packet trace(s) to {traces}", file=sys.stderr)
    streams = _obs_paths(executor, "stream_path")
    if streams:
        print(f"streamed metrics to {streams}", file=sys.stderr)


def _obs_paths(executor: Executor, attribute: str) -> str:
    """The files the runs wrote for one ``ObsConfig`` path: the one path,
    else the first, the last and the count."""
    written = {getattr(event.spec.obs, attribute, None) for event in executor.events}
    paths = sorted(written - {None})
    if len(paths) <= 1:
        return "".join(paths)
    return f"{paths[0]} ... {paths[-1]} ({len(paths)} files)"


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.harness.experiments import tables

    print(tables.render_all())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name in _ANALYTIC_FIGURES:
        given = sorted(set(vars(args)) - {"command", "func", "name"})
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise _UsageError(
                f"{name} is analytic and runs no simulation; drop {flags}"
            )
        # One import per name: a figure loads only its own models.
        if name == "fig04":
            from repro.harness.experiments import fig04

            print(fig04.render(fig04.compute()))
        elif name == "fig05":
            from repro.harness.experiments import fig05

            print(fig05.render(fig05.compute()))
        elif name == "fig06":
            from repro.harness.experiments import fig06

            print(fig06.render(fig06.compute()))
        elif name == "fig07":
            from repro.harness.experiments import fig07

            print(fig07.render(fig07.compute()))
        else:
            from repro.harness.experiments import fig08

            print(fig08.render(fig08.compute()))
        return 0
    from repro.harness.experiments import fig09, fig10, fig11
    from repro.harness.experiments.splash2_runs import compute_matrix

    cycles = getattr(args, "cycles", _FIGURE_CYCLES)
    executor = _executor_from_args(args)
    if name == "fig09":
        print(fig09.render(fig09.compute(cycles=cycles, executor=executor)))
    else:
        matrix = compute_matrix(duration_cycles=cycles, executor=executor)
        figure = fig10 if name == "fig10" else fig11
        print(figure.render(figure.from_matrix(matrix)))
    _finish_campaign(executor, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.report import point_to_dict, write_report
    from repro.harness.sweeps import point_from_result, sweep_specs
    from repro.util.tables import AsciiTable

    config = _config_from_args(args)
    rates = _float_list(args.rates, "--rates")
    faults = _faults_from_args(args)
    specs = sweep_specs(config, args.pattern, rates, args.cycles, args.seed, faults)
    executor = _executor_from_args(args)
    num_nodes = config.mesh.num_nodes
    points = [
        point_from_result(rate, result, num_nodes)
        for rate, result in zip(rates, executor.map(specs))
    ]
    table = AsciiTable(
        ["rate", "mean latency", "throughput", "delivered"],
        title=f"{args.config} / {args.pattern}",
    )
    for point in points:
        table.add_row(
            [
                point.rate,
                "sat" if point.saturated else f"{point.mean_latency:.2f}",
                f"{point.throughput:.3f}",
                point.delivered,
            ]
        )
    print(table.render())
    if args.report:
        payload = {
            "kind": "sweep",
            "config": args.config,
            "pattern": args.pattern,
            "cycles": args.cycles,
            "seed": args.seed,
            "rates": rates,
            "points": [point_to_dict(point) for point in points],
        }
        if faults is not None:
            payload["faults"] = faults.to_dict()
        path = write_report(args.report, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    _finish_campaign(executor, args)
    return 0


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.traffic.splash2 import generate_splash2_trace

    trace = generate_splash2_trace(
        args.benchmark, seed=args.seed, duration_cycles=args.cycles
    )
    trace.save(args.out)
    print(
        f"wrote {len(trace)} events ({trace.broadcast_count} broadcasts, "
        f"offered load {trace.offered_load():.3f}) to {args.out}"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.traffic.trace import Trace
    from repro.util.tables import AsciiTable

    trace = Trace.load(args.file)
    table = AsciiTable(["property", "value"], title=f"Trace {trace.name}")
    table.add_row(["nodes", trace.num_nodes])
    table.add_row(["events", len(trace)])
    table.add_row(["broadcasts", trace.broadcast_count])
    table.add_row(["span (cycles)", trace.last_cycle + 1])
    table.add_row(["offered load (pkts/node/cycle)", f"{trace.offered_load():.4f}"])
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.exec import RunSpec, TraceFileWorkload
    from repro.util.tables import AsciiTable

    spec = RunSpec(
        config=_config_from_args(args),
        workload=TraceFileWorkload(args.trace),
        faults=_faults_from_args(args),
    )
    executor = _executor_from_args(args)
    result = executor.map([spec])[0]
    table = AsciiTable(
        ["metric", "value"], title=f"{result.label} on {spec.workload_name}"
    )
    for key, value in result.summary().items():
        table.add_row([key, f"{value:.3f}" if isinstance(value, float) else value])
    if result.stats.faults_injected or result.stats.packets_lost:
        table.add_row(["faults_injected", result.stats.faults_injected])
        table.add_row(["faults_masked", result.stats.faults_masked])
        table.add_row(["packets_lost", result.stats.packets_lost])
    table.add_row(["cycles", result.cycles])
    table.add_row(["wall_time_s", f"{result.wall_time_s:.3f}"])
    table.add_row(["packets_per_second", f"{result.packets_per_second:.0f}"])
    print(table.render())
    _finish_campaign(executor, args)
    return 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    from repro.faults.config import FaultConfig
    from repro.harness.report import write_report
    from repro.harness.sweeps import throughput_vs_fault_rate
    from repro.util.tables import AsciiTable

    config = _config_from_args(args)
    fault_rates = _float_list(args.fault_rates, "--fault-rates")
    if "link_flip_prob" in args:
        raise _UsageError(
            "fault-sweep sets the swept probability from --fault-rates; "
            "drop --link-flip-prob"
        )
    # The template carries every knob but the probability the model sweeps.
    template = _from_flags(FaultConfig, args, "fault")
    executor = _executor_from_args(args)
    points = throughput_vs_fault_rate(
        config, args.pattern, args.rate, fault_rates, args.cycles, args.seed,
        template, executor, swept=_FAULT_MODELS[args.fault_model],
    )
    table = AsciiTable(
        ["fault rate", "throughput", "delivered", "lost", "faults", "mean latency"],
        title=f"{args.config} / {args.pattern}@{args.rate:g} degradation",
    )
    for point in points:
        latency = point.mean_latency
        table.add_row(
            [
                point.fault_rate,
                f"{point.throughput:.4f}",
                point.delivered,
                point.lost,
                point.faults_injected,
                "-" if latency == float("inf") else f"{latency:.2f}",
            ]
        )
    print(table.render())
    if args.report:
        payload = {
            "kind": "fault-sweep",
            "config": args.config,
            "pattern": args.pattern,
            "rate": args.rate,
            "cycles": args.cycles,
            "seed": args.seed,
            "fault_rates": fault_rates,
            "fault_template": template.to_dict(),
            "points": [point.to_dict() for point in points],
        }
        path = write_report(args.report, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    _finish_campaign(executor, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.harness.experiments import fig10, fig11
    from repro.harness.experiments.splash2_runs import compute_matrix
    from repro.harness.report import result_to_dict, write_report

    executor = _executor_from_args(args)
    matrix = compute_matrix(
        duration_cycles=args.cycles, seed=args.seed, executor=executor
    )
    print(fig10.render(fig10.from_matrix(matrix)))
    print()
    print(fig11.render(fig11.from_matrix(matrix)))
    if args.report:
        payload = {
            "kind": "campaign",
            "cycles": args.cycles,
            "seed": args.seed,
            "results": {
                f"{benchmark}/{label}": result_to_dict(result)
                for (benchmark, label), result in matrix.results.items()
            },
        }
        path = write_report(args.report, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    _finish_campaign(executor, args)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.analysis import (
        analyze_trace_file,
        diff_reports,
        render_diff_markdown,
        render_markdown,
    )

    if args.out:
        # The report writer lives beside the runner: only --out pays for
        # the simulators that module imports.
        from repro.harness.report import write_report

    if args.diff and args.trace:
        raise _UsageError("give either a trace or --diff A B, not both")
    if not args.diff and not args.trace:
        raise _UsageError("need a trace file to analyze (or --diff A B)")
    try:
        if args.diff:
            first, second = (
                analyze_trace_file(
                    path, top=args.top, link_delay=args.link_delay
                )
                for path in args.diff
            )
            diff = diff_reports(first, second)
            if args.format == "json":
                print(json.dumps(diff, indent=2, sort_keys=True))
            else:
                print(render_diff_markdown(diff, args.top))
            if args.out:
                path = write_report(args.out, diff)
                print(f"wrote blame diff to {path}", file=sys.stderr)
            return 0
        report = analyze_trace_file(
            args.trace, top=args.top, link_delay=args.link_delay
        )
    except ValueError as exc:  # a malformed trace names its file and line
        raise _UsageError(str(exc))
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(render_markdown(report, blame=args.blame, top=args.top))
    if args.out:
        path = write_report(args.out, report.to_dict())
        print(f"wrote blame report to {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro", description="Phastlane (ISCA 2009) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--config", default="Optical4")
    network.add_argument(
        "--topology", default="mesh", choices=_TOPOLOGIES,
        help="network topology to run the configs on (default mesh)",
    )

    def command(
        name: str, func: Any, summary: str, *groups: str, **kwargs: Any
    ) -> argparse.ArgumentParser:
        """A subcommand with the flag rows of ``groups``."""
        parsed = sub.add_parser(name, help=summary, **kwargs)
        parsed.set_defaults(func=func)
        for group in groups:
            section = parsed.add_argument_group(f"{group} flags")
            for flag, _, text, keywords in _FLAGS[group]:
                keywords = {"default": argparse.SUPPRESS, **keywords}
                section.add_argument(flag, help=text, **keywords)
        return parsed

    simulation = ("executor", "cache", "observability")
    command("tables", _cmd_tables, "print Tables 1-4")

    figure = command("figure", _cmd_figure, "regenerate one figure", *simulation)
    figure.add_argument("name", choices=[*_ANALYTIC_FIGURES, "fig09", "fig10", "fig11"])
    figure.add_argument(
        "--cycles", type=int, default=argparse.SUPPRESS,
        help=f"cycles per run of fig09-fig11 (default {_FIGURE_CYCLES})",
    )

    sweep = command(
        "sweep", _cmd_sweep, "latency vs injection-rate sweep",
        *simulation, "fault", parents=[network],
    )
    sweep.add_argument("--pattern", default="uniform", choices=_PATTERNS)
    sweep.add_argument("--rates", default="0.02,0.05,0.1,0.2,0.3,0.4,0.5")
    sweep.add_argument("--cycles", type=int, default=900)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--report", help="write the sweep points as JSON here")

    trace = sub.add_parser("trace", help="generate or inspect trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate", help="write a SPLASH2-like trace")
    generate.add_argument("benchmark", choices=_BENCHMARKS)
    generate.add_argument("--out", required=True)
    generate.add_argument("--cycles", type=int, default=1500)
    generate.add_argument("--seed", type=int, default=1)
    generate.set_defaults(func=_cmd_trace_generate)
    info = trace_sub.add_parser("info", help="summarise a trace file")
    info.add_argument("file")
    info.set_defaults(func=_cmd_trace_info)

    run = command(
        "run", _cmd_run, "replay a trace through one configuration",
        *simulation, "fault", parents=[network],
    )
    run.add_argument("--trace", required=True)

    fault_sweep = command(
        "fault-sweep", _cmd_fault_sweep,
        "throughput vs fault-rate degradation curve",
        *simulation, "fault", parents=[network],
    )
    fault_sweep.add_argument("--pattern", default="uniform", choices=_PATTERNS)
    fault_sweep.add_argument(
        "--rate", type=float, default=0.05,
        help="fixed injection rate of the workload (default 0.05)",
    )
    fault_sweep.add_argument(
        "--fault-rates", default="0.0,0.001,0.005,0.01,0.05,0.1",
        help="comma-separated probabilities of --fault-model to sweep",
    )
    fault_sweep.add_argument("--cycles", type=int, default=900)
    fault_sweep.add_argument("--seed", type=int, default=1)
    fault_sweep.add_argument("--report", help="write the curve points as JSON here")

    campaign = command(
        "campaign", _cmd_campaign, "full Fig 10/11 SPLASH2 campaign", *simulation
    )
    campaign.add_argument("--cycles", type=int, default=1500)
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--report", help="write all run results as JSON here")
    campaign.add_argument(
        "--html", metavar="PATH",
        help="write a self-contained HTML campaign report here (per-run "
        "timing, health badges, delivered-per-window sparklines)",
    )

    analyze = command(
        "analyze",
        _cmd_analyze,
        "latency blame report from a JSONL packet trace",
        description=(
            "Reconstruct per-packet spans from a JSONL trace (written with "
            "--trace-out ....jsonl on any simulation command) and report "
            "where the delivered cycles went: source queueing, per-router "
            "contention, link transit, retransmit backoff."
        ),
    )
    analyze.add_argument("trace", nargs="?", help="JSONL trace file")
    analyze.add_argument(
        "--diff", nargs=2, metavar=("A", "B"),
        help="compare two traces: blame deltas keyed by RunSpec digest",
    )
    analyze.add_argument(
        "--top", type=int, default=5,
        help="slowest-packet anatomies / table rows to show (default 5)",
    )
    analyze.add_argument(
        "--blame", default="routers", choices=("routers", "links", "causes"),
        help="which attribution table to render (default routers)",
    )
    analyze.add_argument(
        "--format", default="markdown", choices=("markdown", "json"),
    )
    analyze.add_argument(
        "--out", help="also write the JSON blame report (or diff) here"
    )
    analyze.add_argument(
        "--link-delay", type=int, default=None,
        help="per-hop transit cycles (default: the trace header's value)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code: int = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``repro tables | head -1``).  Point stdout
        # at devnull so the flush at exit cannot raise again, and exit 1
        # with nothing on stderr: the Python docs' SIGPIPE recipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_UsageError, FabricError, OSError) as exc:
        # Refused flags, honest refusals (e.g. a cycle-accurate backend
        # asked to run on a non-grid topology) and unreadable or unwritable
        # files print as one-line errors, not tracebacks.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
