"""ASCII live campaign panel: runs-in-flight, rates and health flags.

:class:`LiveDashboard` consumes the two telemetry streams the
:class:`~repro.harness.exec.Executor` produces — intra-run
:class:`~repro.harness.exec.RunProgress` records (its ``live`` callback)
and completion :class:`~repro.harness.exec.RunEvent` records (its
``progress`` callback) — and paints them on a terminal as one in-place
panel (ANSI cursor movement): a header with the runs done, aggregate
flits/s, the worst router occupancy seen and the health flags, then one
progress bar per run in flight.  It writes nothing to a stream that is
not a TTY; the CLI prints plain lines there instead.

The panel is thread-safe: with a worker pool the ``live`` callback
fires on the executor's queue-drain thread while completions arrive on
the main thread.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the harness imports obs, not vice versa
    from repro.harness.exec import RunEvent, RunProgress

#: Severity glyphs for the health column.
_HEALTH_FLAGS = {None: " ", "ok": "+", "warn": "!", "critical": "X"}


@dataclass
class _Row:
    """Live state of one campaign run."""

    label: str
    workload: str
    cycle: int = 0
    cycles_total: int = 0
    flits: int = 0
    worst_node: int = 0
    worst_occupancy: int = 0
    health: str | None = None
    done: bool = False

    @property
    def fraction(self) -> float:
        if self.done:
            return 1.0
        if self.cycles_total <= 0:
            return 0.0
        return min(1.0, self.cycle / self.cycles_total)


def _bar(fraction: float, width: int = 12) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


class LiveDashboard:
    """Paint campaign telemetry live on a terminal; see the module docstring."""

    def __init__(
        self,
        stream: IO[str] | None = None,
        max_rows: int = 12,
        min_redraw_s: float = 0.1,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._lock = threading.Lock()
        self._rows: dict[int, _Row] = {}
        self._total = 0
        self._completed = 0
        self._cache_hits = 0
        self._max_rows = max_rows
        self._min_redraw_s = min_redraw_s
        self._started = time.perf_counter()
        self._painted_lines = 0
        self._last_paint = 0.0
        self._worst_ever = (0, 0)  # (occupancy, node)
        self._health_counts = {"warn": 0, "critical": 0}
        self._closed = False

    # -- executor callbacks ----------------------------------------------------

    def on_progress(self, progress: RunProgress) -> None:
        """Executor ``live`` callback: one intra-run sample."""
        sample = progress.sample
        with self._lock:
            self._total = max(self._total, progress.total)
            row = self._rows.setdefault(
                progress.index, _Row(label=progress.label, workload=progress.workload)
            )
            row.cycle = sample.cycle
            row.cycles_total = sample.cycles_total
            row.flits = sample.flits
            row.worst_node = sample.worst_node
            row.worst_occupancy = sample.worst_occupancy
            row.health = sample.health
            if sample.done:
                row.done = True
            if sample.worst_occupancy > self._worst_ever[0]:
                self._worst_ever = (sample.worst_occupancy, sample.worst_node)
            self._paint()

    def on_event(self, event: RunEvent) -> None:
        """Executor ``progress`` callback: one completed run."""
        with self._lock:
            self._total = max(self._total, event.total)
            row = self._rows.setdefault(
                event.index,
                _Row(label=event.spec.label, workload=event.spec.workload_name),
            )
            row.done = True
            row.flits = event.result.stats.flits_processed
            if event.result.health is not None:
                row.health = event.result.health.status
            self._completed += 1
            if event.cache_hit:
                self._cache_hits += 1
            if row.health in self._health_counts:
                self._health_counts[row.health] += 1
            self._paint(force=True)

    def close(self) -> None:
        """Freeze the panel: nothing paints after this, so the cursor stays
        below the last frame (every completion already painted one) and
        output printed beneath it is never overwritten."""
        with self._lock:
            self._closed = True

    # -- rendering -------------------------------------------------------------

    def _aggregate_flits_per_s(self) -> float:
        elapsed = time.perf_counter() - self._started
        if elapsed <= 0.0:
            return 0.0
        return sum(row.flits for row in self._rows.values()) / elapsed

    def _header(self) -> str:
        worst_occ, worst_node = self._worst_ever
        flags = []
        if self._health_counts["critical"]:
            flags.append(f"{self._health_counts['critical']} critical")
        if self._health_counts["warn"]:
            flags.append(f"{self._health_counts['warn']} warn")
        health = ", ".join(flags) if flags else "all ok"
        return (
            f"runs: {self._completed}/{self._total or len(self._rows)} "
            f"({self._cache_hits} cached) | {self._aggregate_flits_per_s():,.0f} "
            f"flits/s | worst router occupancy {worst_occ} (node {worst_node}) "
            f"| health: {health}"
        )

    def _render_lines(self) -> list[str]:
        lines = [self._header()]
        in_flight = [
            (index, row) for index, row in sorted(self._rows.items()) if not row.done
        ]
        for index, row in in_flight[: self._max_rows]:
            flag = _HEALTH_FLAGS.get(row.health, "?")
            lines.append(
                f" [{_bar(row.fraction)}] {flag} {row.label:<14} "
                f"{row.workload:<16} {row.cycle}/{row.cycles_total} "
                f"occ {row.worst_occupancy}@{row.worst_node}"
            )
        hidden = len(in_flight) - self._max_rows
        if hidden > 0:
            lines.append(f" ... and {hidden} more runs in flight")
        return lines

    def _paint(self, force: bool = False) -> None:
        """Repaint the panel in place (throttled); no-op off a TTY or closed."""
        if not self._tty or self._closed:
            return
        now = time.perf_counter()
        if not force and now - self._last_paint < self._min_redraw_s:
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
