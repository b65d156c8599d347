"""Tests for live campaign telemetry: executor progress forwarding, the
ASCII panel (silent off a TTY, painted in place on one), the CLI's choice
of progress renderer and the HTML campaign report."""

import io
import itertools
import threading
from types import SimpleNamespace

import pytest

from repro.core.config import PhastlaneConfig
from repro.fabric.registry import make_network
from repro.harness.exec import (
    Executor,
    RunProgress,
    RunSpec,
    Splash2Workload,
    SyntheticWorkload,
)
from repro.harness.htmlreport import render_campaign_html, write_campaign_html
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.live import LiveDashboard
from repro.obs.session import ObsSession, ProgressSample
from repro.obs.tracers import EventTally, JsonlTraceWriter
from repro.sim.engine import SimulationEngine
from repro.util.geometry import MeshGeometry

MESH = MeshGeometry(4, 4)
OPTICAL = PhastlaneConfig(mesh=MESH, max_hops_per_cycle=4)


def spec(rate=0.15, cycles=300, obs=None):
    return RunSpec(
        OPTICAL, SyntheticWorkload("uniform", rate), cycles=cycles, seed=7, obs=obs
    )


def sample(cycle=100, health=None):
    return ProgressSample(
        cycle=cycle,
        cycles_total=300,
        flits=500,
        worst_node=5,
        worst_occupancy=3,
        health=health,
    )


def fake_event(index=0, cache_hit=False, health_status="ok"):
    stats = SimpleNamespace(
        flits_processed=1200, packets_delivered=90, packets_dropped=2
    )
    health = None if health_status is None else SimpleNamespace(status=health_status)
    return SimpleNamespace(
        index=index,
        total=2,
        spec=SimpleNamespace(label="Optical4", workload_name="uniform@0.15"),
        cache_hit=cache_hit,
        wall_time_s=0.25,
        result=SimpleNamespace(stats=stats, health=health),
    )


class TestRunProgressPlumbing:
    def test_serial_executor_forwards_intra_run_samples(self):
        records = []
        executor = Executor(workers=1, live=records.append)
        executor.map([spec(obs=ObsConfig(metrics_interval=100))])
        assert records and all(isinstance(r, RunProgress) for r in records)
        assert records[0].label == "Optical4"
        assert records[0].workload == "uniform@0.15"
        cycles = [r.sample.cycle for r in records]
        assert cycles == sorted(cycles)
        assert records[-1].sample.cycles_total == 300
        # One sample per window boundary, the last at the final cycle.
        assert cycles == [100, 200, 300]

    def test_pool_executor_forwards_samples_from_workers(self):
        records = []
        executor = Executor(workers=2, live=records.append)
        results = executor.map(
            [spec(rate=0.05), spec(rate=0.1)],
        )
        assert len(results) == 2
        indices = {r.index for r in records}
        assert indices == {0, 1}
        for index in indices:
            mine = [r for r in records if r.index == index]
            assert mine[-1].sample.cycle == results[index].cycles
        # Order within one run is preserved even across the queue.
        for index in indices:
            cycles = [r.sample.cycle for r in records if r.index == index]
            assert cycles == sorted(cycles)

    def test_a_pools_samples_reach_the_caller_before_their_runs_completion(self):
        # One list logs both callbacks, as a consumer of both sees them.
        for _ in range(3):
            calls = []

            def log(record):
                calls.append((record, threading.get_ident()))

            executor = Executor(workers=2, progress=log, live=log)
            executor.map([spec(rate=rate) for rate in (0.05, 0.1, 0.15, 0.2)])
            assert {thread for _, thread in calls} == {threading.get_ident()}
            cycles = {index: [] for index in range(4)}
            completed = set()
            for record, _ in calls:
                if isinstance(record, RunProgress):
                    assert record.index not in completed
                    cycles[record.index].append(record.sample.cycle)
                else:
                    completed.add(record.index)
            assert completed == set(cycles)
            for seen in cycles.values():
                assert seen and seen == sorted(seen)

    def test_progress_samples_track_cycles_completed(self):
        seen = []
        run(spec(obs=ObsConfig(metrics_interval=100)), progress=seen.append)
        assert [s.cycle for s in seen] == [100, 200, 300]
        assert seen[-1].flits > 0

    @pytest.mark.parametrize(
        "run_spec",
        [
            spec(cycles=250, obs=ObsConfig(metrics_interval=100)),
            spec(cycles=250),  # a twentieth of the run per sample
            RunSpec(OPTICAL, Splash2Workload("fft"), cycles=200, seed=7),
        ],
        ids=["partial", "twentieths", "drained-trace"],
    )
    def test_the_last_sample_is_at_the_final_cycle(self, run_spec):
        seen = []
        result = run(run_spec, progress=seen.append)
        cycles = [s.cycle for s in seen]
        assert cycles == sorted(set(cycles))  # one sample per cycle at most
        assert cycles[-1] == result.cycles
        if isinstance(run_spec.workload, Splash2Workload):
            # The replay drained past its span: the samples followed it.
            assert result.cycles > seen[-1].cycles_total

    def test_no_live_callback_means_no_overhead_path(self):
        executor = Executor(workers=1)
        results = executor.map([spec()])
        assert results[0].stats.packets_delivered > 0

    def test_live_run_results_match_plain_results(self):
        live = Executor(workers=1, live=lambda record: None)
        plain = Executor(workers=1)
        assert live.map([spec()]) == plain.map([spec()])


class TestAttachSet:
    """Zero cost when off, known cost when on — as structure, not timing:
    what a session registers on a real network and engine."""

    def _attach(self, obs, progress=False):
        network = make_network(OPTICAL)
        engine = SimulationEngine()
        engine.register(network)
        session = ObsSession(obs, network, engine)
        if progress:
            session.report_progress(lambda sample: None, 100)
        return session, engine, tuple(network.trace_hub)

    @pytest.mark.parametrize("obs", [None, ObsConfig()])
    def test_off_registers_nothing(self, obs):
        _, engine, tracers = self._attach(obs)
        assert engine._watchers == [] and tracers == ()

    def test_trace_only_registers_the_file_tracer_and_no_watcher(self, tmp_path):
        obs = ObsConfig(trace_path=str(tmp_path / "t.jsonl"))
        _, engine, tracers = self._attach(obs)
        assert engine._watchers == []
        assert [type(tracer) for tracer in tracers] == [JsonlTraceWriter]

    def test_every_other_combination_is_one_watcher_and_at_most_one_tally(
        self, tmp_path
    ):
        legs = itertools.product(
            (None, str(tmp_path / "t.jsonl")),  # trace_path
            (None, 50),  # metrics_interval
            (False, True),  # spatial
            (False, True),  # health
            (None, 70),  # health_interval
            (None, str(tmp_path / "s.jsonl")),  # stream_path
            (False, True),  # a progress sink
        )
        checked = 0
        for trace, metrics, spatial, health, interval, stream, progress in legs:
            try:
                obs = ObsConfig(
                    trace_path=trace,
                    metrics_interval=metrics,
                    spatial=spatial,
                    health=health,
                    health_interval=interval,
                    stream_path=stream,
                )
            except ValueError:
                continue  # e.g. spatial without a metrics window
            if not (metrics or health or progress):
                continue  # off and trace-only are pinned above
            session, engine, tracers = self._attach(obs, progress)
            assert engine._watchers == [session]
            tallies = [t for t in tracers if isinstance(t, EventTally)]
            assert len(tallies) == (1 if spatial or health else 0)
            assert len(tracers) - len(tallies) == (1 if trace else 0)
            session.finish()
            checked += 1
        assert checked == 58  # every valid config x sink, minus off and trace-only

    def test_an_observed_run_is_freed_without_the_cycle_collector(self):
        # The network drags the trace buffers along: a session <-> engine
        # cycle would keep a whole run alive until the next gc pass.
        import gc
        import weakref

        obs = ObsConfig(metrics_interval=5, spatial=True, health=True)
        gc.disable()
        try:
            network = make_network(OPTICAL)
            engine = SimulationEngine()
            engine.register(network)
            session = ObsSession(obs, network, engine)
            session.report_progress(lambda sample: None, 20)
            engine.run(20)
            session.finish()
            freed = weakref.ref(network)
            del network, engine, session
            assert freed() is None
        finally:
            gc.enable()


class TestLiveDashboardNonTty:
    def _dashboard(self):
        stream = io.StringIO()
        return LiveDashboard(stream=stream), stream

    def test_progress_samples_do_not_spam_plain_streams(self):
        dashboard, stream = self._dashboard()
        for cycle in (100, 200):
            dashboard.on_progress(
                RunProgress(
                    index=0, total=2, label="Optical4",
                    workload="uniform@0.15", sample=sample(cycle),
                )
            )
        assert stream.getvalue() == ""


class TestLiveDashboardTty:
    class _Tty(io.StringIO):
        def isatty(self):
            return True

    @pytest.fixture(autouse=True)
    def _repaint_every_sample(self, monkeypatch):
        monkeypatch.setattr("repro.obs.live.MIN_REDRAW_S", 0.0)

    def test_panel_repaints_in_place(self):
        stream = self._Tty()
        dashboard = LiveDashboard(stream=stream)
        dashboard.on_progress(
            RunProgress(
                index=0, total=1, label="Optical4",
                workload="uniform@0.15", sample=sample(150),
            )
        )
        out = stream.getvalue()
        assert "\x1b[K" in out  # clears lines rather than appending
        assert "Optical4" in out and "150/300" in out
        assert "#" in out  # the progress bar is partially filled
        dashboard.on_event(fake_event(index=0))
        assert stream.getvalue().endswith("\n")

    def test_nothing_is_written_after_the_last_completion(self):
        # A repaint after the command's stdout would move the cursor up and
        # erase the last table row: the last completion paints the final
        # frame and ends its line, and no callback fires after the
        # executor returns.
        stream = self._Tty()
        dashboard = LiveDashboard(stream=stream)
        progress = RunProgress(
            index=0, total=1, label="Optical4",
            workload="uniform@0.15", sample=sample(100),
        )
        dashboard.on_progress(progress)
        dashboard.on_event(fake_event(index=0))
        painted = stream.getvalue()
        assert painted.endswith("\n")
        assert "runs: 1/2" in painted.rpartition("\x1b[")[2]

    def test_second_frame_moves_the_cursor_up(self):
        stream = self._Tty()
        dashboard = LiveDashboard(stream=stream)
        progress = RunProgress(
            index=0, total=1, label="Optical4",
            workload="uniform@0.15", sample=sample(100),
        )
        dashboard.on_progress(progress)
        dashboard.on_progress(progress)
        assert "\x1b[2F" in stream.getvalue()


class TestHtmlReport:
    def _events(self):
        executor = Executor(
            workers=1, obs=ObsConfig(metrics_interval=100, health=True)
        )
        executor.map([spec(rate=0.05), spec(rate=0.1)])
        return executor.events

    def test_report_contains_rows_badges_and_sparklines(self):
        html_text = render_campaign_html(self._events())
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<title>Campaign report</title>" in html_text
        assert html_text.count("uniform@0.05") == 1
        assert html_text.count("uniform@0.1") >= 1
        assert html_text.count('class="badge"') >= 3  # 2 rows + summary
        assert html_text.count("<svg") == 2  # one sparkline per run
        assert "2 runs" in html_text

    def test_overall_health_is_the_worst_run(self):
        from dataclasses import replace

        from repro.harness.htmlreport import _badge
        from repro.obs.health import HealthReport

        events = self._events()
        for statuses, overall in [
            (("ok", "warn"), "warn"),
            (("critical", "warn"), "critical"),
            (("warn", "critical"), "critical"),
            ((None, None), "ok"),
        ]:
            varied = [
                replace(
                    event,
                    result=replace(
                        event.result,
                        health=None if status is None else HealthReport(status),
                    ),
                )
                for event, status in zip(events, statuses)
            ]
            html_text = render_campaign_html(varied)
            assert f"overall health {_badge(overall)}" in html_text, statuses

    def test_runs_without_obs_render_dashes(self):
        executor = Executor(workers=1)
        executor.map([spec()])
        html_text = render_campaign_html(executor.events)
        assert "&mdash;" in html_text  # no health verdict
        assert "<svg" not in html_text  # no time series, no sparkline

    def test_write_creates_parent_dirs(self, tmp_path):
        path = write_campaign_html(tmp_path / "a" / "b.html", self._events())
        assert path.read_text().endswith("</html>\n")


class TestCliProgress:
    """The progress renderer follows stderr: the live panel on a terminal,
    one plain line per run elsewhere; one ``campaign:`` line either way."""

    ARGV = ["sweep", "--rates", "0.05,0.1", "--cycles", "150", "--no-cache",
            "--workers", "2", "--health"]

    def test_off_a_terminal_each_run_is_one_plain_line(self, capsys):
        from repro.cli import main

        assert main(self.ARGV) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line[:5] for line in lines[:2]] == ["[1/2]", "[2/2]"]
        assert all(line.endswith(" health=ok") for line in lines[:2])
        assert [line for line in lines if "campaign:" in line] == lines[2:3]
        assert "\x1b[" not in "".join(lines)

    def test_on_a_terminal_the_panel_is_the_progress_line(self, monkeypatch, capsys):
        from repro.cli import main

        samples = []
        on_progress = LiveDashboard.on_progress

        def spy(dashboard, progress):
            samples.append(progress)
            on_progress(dashboard, progress)

        monkeypatch.setattr(LiveDashboard, "on_progress", spy)
        stderr = TestLiveDashboardTty._Tty()
        monkeypatch.setattr("sys.stderr", stderr)
        assert main(self.ARGV) == 0
        err = stderr.getvalue()
        assert {progress.index for progress in samples} == {0, 1}  # the pool's
        assert "runs: 2/2" in err and "[1/2]" not in err
        (summary,) = [line for line in err.splitlines() if "campaign:" in line]
        assert err.endswith(summary + "\n")
        assert "\x1b[" not in err[err.index(summary):]
        assert "Optical4 / uniform" in capsys.readouterr().out


class TestCampaignHtml:
    def test_campaign_writes_html(self, tmp_path, capsys):
        from repro.cli import main

        html = tmp_path / "campaign.html"
        argv = [
            "campaign", "--cycles", "20", "--no-cache",
            "--workers", "2", "--html", str(html),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.count("campaign:") == 1
        assert html.read_text().startswith("<!DOCTYPE html>")
