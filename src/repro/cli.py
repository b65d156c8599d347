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

``sweep``, ``run`` and ``fault-sweep`` also accept the fault-injection
flags (``--fault-seed``, ``--fault-model``, ``--link-flip-prob``,
``--dead-ports``, ``--retry-limit``); a fault config is part of run-spec
identity, so faulted runs never collide with fault-free cache entries.

Simulation commands (``figure fig09..fig11``, ``sweep``, ``run``,
``campaign``) share the campaign-executor flags: ``--workers N`` fans the
runs across a process pool, results are cached under ``.repro-cache/``
(disable with ``--no-cache``, relocate with ``--cache-dir``), an ASCII
progress line tracks the campaign on stderr, and ``--report``/``--manifest``
write the deterministic results and the observability manifest as JSON.
They also accept the runtime-health flags (``--health``,
``--health-interval``, ``--stall-windows``), ``--stream-out`` for live
JSONL window/finding streaming, and ``--live`` for the in-terminal
campaign dashboard; ``repro campaign --html PATH`` additionally writes a
self-contained HTML report of the finished campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Sequence, TextIO

# Imports follow the command: only what building the parser needs is
# loaded here, and every handler imports what it runs.  ``--help`` and
# ``repro analyze`` therefore never import numpy or a simulator.
from repro.topology import registered_topologies
from repro.traffic.patterns import PATTERNS
from repro.traffic.splash2 import SPLASH2_PROFILES
from repro.util.errors import FabricError
from repro.util.geometry import Direction
from repro.util.tables import AsciiTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import NetworkConfig
    from repro.faults import FaultConfig
    from repro.harness.exec import Executor, RunEvent
    from repro.obs import ObsConfig

_ANALYTIC_FIGURES = ("fig04", "fig05", "fig06", "fig07", "fig08")


def _ascii_progress(stream: TextIO):
    """Progress callback: an in-place line on a TTY, one line per run otherwise."""
    done = {"runs": 0, "hits": 0}

    def callback(event: RunEvent) -> None:
        done["runs"] += 1
        done["hits"] += event.cache_hit
        status = "cache" if event.cache_hit else f"{event.wall_time_s:.2f}s"
        line = (
            f"[{done['runs']}/{event.total}] {event.spec.label} "
            f"{event.spec.workload_name} ({status}, {done['hits']} cached)"
        )
        if stream.isatty():
            stream.write("\r" + line.ljust(78))
            if done["runs"] == event.total:
                stream.write("\n")
        else:
            stream.write(line + "\n")
        stream.flush()

    return callback


# Derived from the canonical Direction enum rather than hard-coded, so the
# accepted letters track the geometry layer (N/E/S/W -> 0-3).
_PORT_LETTERS = {
    d.name[0]: int(d) for d in Direction if d is not Direction.LOCAL
}


def _dead_ports(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``--dead-ports``: comma-separated ``node:port`` pairs.

    The port is a mesh direction — ``N``/``E``/``S``/``W`` or the matching
    integer 0-3 — e.g. ``--dead-ports 5:E,10:N``.
    """
    ports = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        node_text, sep, port_text = item.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"invalid dead port {item!r}; expected node:port (e.g. 5:E)"
            )
        try:
            node = int(node_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid node {node_text!r}")
        port_text = port_text.strip().upper()
        if port_text in _PORT_LETTERS:
            port = _PORT_LETTERS[port_text]
        else:
            try:
                port = int(port_text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid port {port_text!r}; expected N/E/S/W or 0-3"
                )
        ports.append((node, port))
    return tuple(ports)


class _UsageError(Exception):
    """A bad flag value: ``main`` prints the message and exits 2."""


def _config_from_args(args: argparse.Namespace) -> NetworkConfig:
    """Look ``--config`` up among the configs built on ``--topology``."""
    from repro.harness.experiments.configs import cli_configs

    configs = cli_configs(topology=args.topology)
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
    """Build the fault config from the shared CLI flags (None if disabled)."""
    from repro.faults import FaultConfig

    if args.fault_model == "burst":
        enter, flip = args.link_flip_prob, 0.0
    else:
        enter, flip = 0.0, args.link_flip_prob
    try:
        faults = FaultConfig(
            seed=args.fault_seed,
            dead_ports=args.dead_ports,
            link_flip_prob=flip,
            burst_enter_prob=enter,
            retry_limit=args.retry_limit,
        )
    except ValueError as exc:
        raise _UsageError(f"repro: invalid fault config: {exc}")
    return faults if faults.enabled else None


def _obs_from_args(args: argparse.Namespace) -> ObsConfig | None:
    """Build the observability config from the shared CLI flags."""
    from repro.obs import ObsConfig

    try:
        obs = ObsConfig(
            trace_path=args.trace_out,
            trace_sample=args.trace_sample,
            metrics_interval=args.metrics_interval,
            spatial=args.spatial_metrics,
            health=args.health,
            health_interval=args.health_interval,
            health_stall_windows=args.stall_windows,
            stream_path=args.stream_out,
        )
    except ValueError as exc:
        raise _UsageError(f"repro: invalid observability config: {exc}")
    return obs if obs.enabled else None


def _executor_from_args(args: argparse.Namespace) -> Executor:
    from repro.harness.exec import Executor, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    kwargs: dict = {
        "workers": args.workers,
        "cache": cache,
        "progress": _ascii_progress(sys.stderr),
        "obs": _obs_from_args(args),
    }
    if getattr(args, "live", False):
        # The dashboard replaces the plain progress line entirely — it
        # prints its own per-completion lines off-TTY.
        from repro.obs import LiveDashboard

        dashboard = LiveDashboard()
        kwargs["progress"] = dashboard.on_event
        kwargs["live"] = dashboard.on_progress
        args._dashboard = dashboard
    return Executor(**kwargs)


def _finish_campaign(executor: Executor, args: argparse.Namespace) -> None:
    """Summarise the executor's event log; write the manifest if asked."""
    from repro.harness.report import manifest_to_dict, write_report

    dashboard = getattr(args, "_dashboard", None)
    if dashboard is not None:
        dashboard.close()
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
        module = import_module(f"repro.harness.experiments.{name}")
        print(module.render(module.compute()))
        return 0
    from repro.harness.experiments import fig09, fig10, fig11
    from repro.harness.experiments.splash2_runs import compute_matrix

    executor = _executor_from_args(args)
    if name == "fig09":
        data = fig09.compute(cycles=args.cycles, executor=executor)
        print(fig09.render(data))
    elif name in ("fig10", "fig11"):
        matrix = compute_matrix(duration_cycles=args.cycles, executor=executor)
        if name == "fig10":
            print(fig10.render(fig10.from_matrix(matrix)))
        else:
            print(fig11.render(fig11.from_matrix(matrix)))
    else:
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    _finish_campaign(executor, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.report import point_to_dict, write_report
    from repro.harness.sweeps import point_from_result, sweep_specs

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
    from dataclasses import replace

    from repro.faults import FaultConfig
    from repro.harness.exec import RunSpec, SyntheticWorkload
    from repro.harness.report import write_report
    from repro.harness.sweeps import fault_point_from_result

    config = _config_from_args(args)
    fault_rates = _float_list(args.fault_rates, "--fault-rates")
    if args.link_flip_prob:
        raise _UsageError(
            "repro: fault-sweep sets the swept probability from --fault-rates; "
            "drop --link-flip-prob"
        )
    # The template carries every knob except the swept probability: the
    # flip probability of a bernoulli sweep, the entry one of a burst sweep.
    template = _faults_from_args(args) or FaultConfig(
        seed=args.fault_seed, retry_limit=args.retry_limit
    )
    swept = "burst_enter_prob" if args.fault_model == "burst" else "link_flip_prob"
    specs = [
        RunSpec(
            config,
            SyntheticWorkload(args.pattern, args.rate),
            cycles=args.cycles,
            seed=args.seed,
            faults=replace(template, **{swept: fault_rate}),
        )
        for fault_rate in fault_rates
    ]
    executor = _executor_from_args(args)
    num_nodes = config.mesh.num_nodes
    points = [
        fault_point_from_result(fault_rate, result, num_nodes)
        for fault_rate, result in zip(fault_rates, executor.map(specs))
    ]
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
        raise _UsageError("repro: give either a trace or --diff A B, not both")
    if not args.diff and not args.trace:
        raise _UsageError("repro: need a trace file to analyze (or --diff A B)")
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
                print(render_diff_markdown(diff))
            if args.out:
                path = write_report(args.out, diff)
                print(f"wrote blame diff to {path}", file=sys.stderr)
            return 0
        report = analyze_trace_file(
            args.trace, top=args.top, link_delay=args.link_delay
        )
    except ValueError as exc:  # a malformed trace names its file and line
        raise _UsageError(f"repro: {exc}")
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(render_markdown(report, blame=args.blame, top=args.top))
    if args.out:
        path = write_report(args.out, report.to_dict())
        print(f"wrote blame report to {path}", file=sys.stderr)
    return 0


def _sample_rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid sample rate {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("sample rate must be in [0, 1]")
    return value


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("need at least one worker")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Phastlane (ISCA 2009) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    executor_flags = argparse.ArgumentParser(add_help=False)
    executor_flags.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for campaign fan-out (default 1: in-process)",
    )
    executor_flags.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; do not read or write the result cache",
    )
    executor_flags.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache location (default .repro-cache)",
    )
    executor_flags.add_argument(
        "--trace-out", metavar="PATH",
        help="write a packet-lifecycle trace here (Chrome trace_event JSON, "
        "Perfetto-loadable; a .jsonl suffix selects JSONL); campaigns with "
        "several runs get per-run suffixed paths",
    )
    executor_flags.add_argument(
        "--trace-sample", type=_sample_rate, default=1.0, metavar="RATE",
        help="fraction of packet lifecycles to trace, in [0, 1] (default 1); "
        "requires --trace-out",
    )
    executor_flags.add_argument(
        "--metrics-interval", type=int, metavar="CYCLES",
        help="collect windowed time-series metrics every CYCLES cycles "
        "(serialised into JSON reports)",
    )
    executor_flags.add_argument(
        "--spatial-metrics", action="store_true",
        help="extend the windowed metrics with per-router occupancy/drop/"
        "delivery series (requires --metrics-interval)",
    )
    executor_flags.add_argument(
        "--health", action="store_true",
        help="run the health watchdogs (flit conservation, credit leaks, "
        "stall/livelock detection) at metrics-window boundaries; the "
        "verdict lands in JSON reports and the campaign manifest",
    )
    executor_flags.add_argument(
        "--health-interval", type=int, metavar="CYCLES",
        help="health audit window (default: --metrics-interval, else 100); "
        "requires --health",
    )
    executor_flags.add_argument(
        "--stall-windows", type=int, default=5, metavar="N",
        help="flat windows of zero delivery progress before the livelock "
        "watchdog escalates to critical (default 5); requires --health",
    )
    executor_flags.add_argument(
        "--stream-out", metavar="PATH",
        help="stream per-window metrics and health findings to this JSONL "
        "file while the run executes (requires --metrics-interval); "
        "campaigns with several runs get per-run suffixed paths",
    )
    executor_flags.add_argument(
        "--live", action="store_true",
        help="render a live campaign dashboard on stderr (in-place panel "
        "on a TTY, one line per completed run otherwise)",
    )

    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="root seed of the fault schedule (independent of traffic seed)",
    )
    fault_flags.add_argument(
        "--fault-model", choices=("bernoulli", "burst"), default="bernoulli",
        help="how --link-flip-prob is applied: independent per-crossing "
        "flips (bernoulli) or Gilbert-Elliott bursts entered at that "
        "probability (burst)",
    )
    fault_flags.add_argument(
        "--link-flip-prob", type=float, default=0.0, metavar="PROB",
        help="transient link-fault probability per crossing (default 0: off)",
    )
    fault_flags.add_argument(
        "--dead-ports", type=_dead_ports, default=(), metavar="LIST",
        help="permanently dead router ports as node:port pairs, "
        "comma-separated; ports are N/E/S/W or 0-3 (e.g. 5:E,10:N)",
    )
    fault_flags.add_argument(
        "--retry-limit", type=int, default=16, metavar="N",
        help="retransmissions before a faulted packet is abandoned (default 16)",
    )

    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", default="Optical4")
    config_flags.add_argument(
        "--topology", default="mesh", choices=registered_topologies(),
        help="network topology to run the configs on (default mesh)",
    )

    sub.add_parser("tables", help="print Tables 1-4").set_defaults(func=_cmd_tables)

    figure = sub.add_parser(
        "figure", help="regenerate one figure", parents=[executor_flags]
    )
    figure.add_argument("name", choices=[*_ANALYTIC_FIGURES, "fig09", "fig10", "fig11"])
    figure.add_argument("--cycles", type=int, default=1500)
    figure.add_argument("--manifest", help="write the campaign manifest JSON here")
    figure.set_defaults(func=_cmd_figure)

    sweep = sub.add_parser(
        "sweep",
        help="latency vs injection-rate sweep",
        parents=[config_flags, executor_flags, fault_flags],
    )
    sweep.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
    sweep.add_argument("--rates", default="0.02,0.05,0.1,0.2,0.3,0.4,0.5")
    sweep.add_argument("--cycles", type=int, default=900)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--report", help="write the sweep points as JSON here")
    sweep.add_argument("--manifest", help="write the campaign manifest JSON here")
    sweep.set_defaults(func=_cmd_sweep)

    trace = sub.add_parser("trace", help="generate or inspect trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate", help="write a SPLASH2-like trace")
    generate.add_argument("benchmark", choices=sorted(SPLASH2_PROFILES))
    generate.add_argument("--out", required=True)
    generate.add_argument("--cycles", type=int, default=1500)
    generate.add_argument("--seed", type=int, default=1)
    generate.set_defaults(func=_cmd_trace_generate)
    info = trace_sub.add_parser("info", help="summarise a trace file")
    info.add_argument("file")
    info.set_defaults(func=_cmd_trace_info)

    run = sub.add_parser(
        "run",
        help="replay a trace through one configuration",
        parents=[config_flags, executor_flags, fault_flags],
    )
    run.add_argument("--trace", required=True)
    run.add_argument("--manifest", help="write the campaign manifest JSON here")
    run.set_defaults(func=_cmd_run)

    fault_sweep = sub.add_parser(
        "fault-sweep",
        help="throughput vs fault-rate degradation curve",
        parents=[config_flags, executor_flags, fault_flags],
    )
    fault_sweep.add_argument("--pattern", default="uniform", choices=sorted(PATTERNS))
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
    fault_sweep.add_argument("--manifest", help="write the campaign manifest JSON here")
    fault_sweep.set_defaults(func=_cmd_fault_sweep)

    campaign = sub.add_parser(
        "campaign", help="full Fig 10/11 SPLASH2 campaign", parents=[executor_flags]
    )
    campaign.add_argument("--cycles", type=int, default=1500)
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--report", help="write all run results as JSON here")
    campaign.add_argument("--manifest", help="write the campaign manifest JSON here")
    campaign.add_argument(
        "--html", metavar="PATH",
        help="write a self-contained HTML campaign report here (per-run "
        "timing, health badges, delivered-per-window sparklines)",
    )
    campaign.set_defaults(func=_cmd_campaign)

    analyze = sub.add_parser(
        "analyze",
        help="latency blame report from a JSONL packet trace",
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
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``repro tables | head -1``).  Point stdout
        # at devnull so the flush at exit cannot raise again, and exit 1
        # with nothing on stderr: the Python docs' SIGPIPE recipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (FabricError, OSError) as exc:
        # Honest refusals (e.g. a cycle-accurate backend asked to run on a
        # non-grid topology) and unreadable or unwritable files print as
        # one-line errors, not tracebacks.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
