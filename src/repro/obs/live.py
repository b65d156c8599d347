"""ASCII live campaign panel: runs-in-flight, rates and health flags.

:class:`LiveDashboard` consumes the two telemetry streams the
:class:`~repro.harness.exec.Executor` produces — intra-run
:class:`~repro.harness.exec.RunProgress` records (its ``live`` callback)
and completion :class:`~repro.harness.exec.RunEvent` records (its
``progress`` callback) — and paints them on a terminal as one in-place
panel (ANSI cursor movement): a header with the runs done, aggregate
flits/s, the worst router occupancy seen and the health flags, then one
progress bar per run in flight, drawn from that run's latest
:class:`~repro.harness.exec.RunProgress`.  It writes nothing to a stream
that is not a TTY; the CLI prints plain lines there instead.

The panel is thread-safe: with a worker pool the ``live`` callback
fires on the executor's queue-drain thread while completions arrive on
the main thread, so a run's last samples can arrive after its
completion; they are ignored.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the harness imports obs, not vice versa
    from repro.harness.exec import RunEvent, RunProgress

#: Severity glyphs for the health column.
_HEALTH_FLAGS = {None: " ", "ok": "+", "warn": "!", "critical": "X"}
#: In-flight runs the panel lists (the rest are counted on one line), the
#: least time between two repaints, and the width of a progress bar.
MAX_ROWS = 12
MIN_REDRAW_S = 0.1
BAR_WIDTH = 12


def _bar(cycle: int, cycles_total: int) -> str:
    fraction = min(1.0, cycle / cycles_total) if cycles_total > 0 else 0.0
    filled = int(round(fraction * BAR_WIDTH))
    return "#" * filled + "-" * (BAR_WIDTH - filled)


class LiveDashboard:
    """Paint campaign telemetry live on a terminal; see the module docstring."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._lock = threading.Lock()
        #: The latest sample of each run in flight, by index.
        self._running: dict[int, RunProgress] = {}
        self._finished: set[int] = set()
        self._finished_flits = 0
        self._total = 0
        self._cache_hits = 0
        self._started = time.perf_counter()
        self._painted_lines = 0
        self._last_paint = 0.0
        self._worst_ever = (0, 0)  # (occupancy, node)
        self._health_counts = {"warn": 0, "critical": 0}

    # -- executor callbacks ----------------------------------------------------

    def on_progress(self, progress: RunProgress) -> None:
        """Executor ``live`` callback: one intra-run sample."""
        sample = progress.sample
        with self._lock:
            if progress.index in self._finished:
                return
            self._total = max(self._total, progress.total)
            self._running[progress.index] = progress
            if sample.worst_occupancy > self._worst_ever[0]:
                self._worst_ever = (sample.worst_occupancy, sample.worst_node)
            self._paint()

    def on_event(self, event: RunEvent) -> None:
        """Executor ``progress`` callback: one completed run."""
        with self._lock:
            self._total = max(self._total, event.total)
            self._running.pop(event.index, None)
            self._finished.add(event.index)
            self._finished_flits += event.result.stats.flits_processed
            self._cache_hits += event.cache_hit
            health = event.result.health
            if health is not None and health.status in self._health_counts:
                self._health_counts[health.status] += 1
            self._paint(force=True)

    # -- rendering -------------------------------------------------------------

    def _aggregate_flits_per_s(self) -> float:
        elapsed = time.perf_counter() - self._started
        if elapsed <= 0.0:
            return 0.0
        running = sum(progress.sample.flits for progress in self._running.values())
        return (self._finished_flits + running) / elapsed

    def _header(self) -> str:
        worst_occ, worst_node = self._worst_ever
        flags = []
        if self._health_counts["critical"]:
            flags.append(f"{self._health_counts['critical']} critical")
        if self._health_counts["warn"]:
            flags.append(f"{self._health_counts['warn']} warn")
        health = ", ".join(flags) if flags else "all ok"
        return (
            f"runs: {len(self._finished)}/{self._total} "
            f"({self._cache_hits} cached) | {self._aggregate_flits_per_s():,.0f} "
            f"flits/s | worst router occupancy {worst_occ} (node {worst_node}) "
            f"| health: {health}"
        )

    def _render_lines(self) -> list[str]:
        lines = [self._header()]
        in_flight = [self._running[index] for index in sorted(self._running)]
        for progress in in_flight[:MAX_ROWS]:
            sample = progress.sample
            flag = _HEALTH_FLAGS.get(sample.health, "?")
            lines.append(
                f" [{_bar(sample.cycle, sample.cycles_total)}] {flag} "
                f"{progress.label:<14} {progress.workload:<16} "
                f"{sample.cycle}/{sample.cycles_total} "
                f"occ {sample.worst_occupancy}@{sample.worst_node}"
            )
        hidden = len(in_flight) - MAX_ROWS
        if hidden > 0:
            lines.append(f" ... and {hidden} more runs in flight")
        return lines

    def _paint(self, force: bool = False) -> None:
        """Repaint the panel in place (throttled); no-op off a TTY."""
        if not self._tty:
            return
        now = time.perf_counter()
        if not force and now - self._last_paint < MIN_REDRAW_S:
            return
        self._last_paint = now
        lines = self._render_lines()
        out = []
        if self._painted_lines:
            out.append(f"\x1b[{self._painted_lines}F")  # cursor to panel top
            if len(lines) < self._painted_lines:
                out.append("\x1b[J")  # a shorter frame: clear the taller one
        # Each frame ends on a fresh line below itself, where whatever the
        # command prints next goes.
        out.extend("\x1b[K" + line + "\n" for line in lines)
        self._painted_lines = len(lines)
        self.stream.write("".join(out))
        self.stream.flush()
