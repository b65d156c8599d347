"""Static HTML campaign report: one self-contained file, no dependencies.

:func:`render_campaign_html` turns an executor's
:class:`~repro.harness.exec.RunEvent` log into a single HTML document —
inline CSS, inline SVG sparklines, zero external assets — so a finished
campaign can be archived next to its JSON report and opened anywhere
(including as a CI artifact).  Each run row shows identity, timing, cache
provenance, headline counters, the watchdog verdict as a colour badge and
a delivered-per-window sparkline when the run collected a time series.

When runs wrote JSONL packet traces (``ObsConfig(trace_path=...jsonl)``),
the report gains a *latency blame* section per traced run: the
component split (source queue / contention / transit / backoff), tail
percentiles including p99.9, and the hottest routers — the
:mod:`repro.obs.analysis` engine run over each trace file at render time.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.harness.exec import RunEvent
from repro.obs.analysis import BlameReport, analyze_trace_file
from repro.obs.health import SEVERITIES

_BADGE_COLOURS = {"ok": "#2e7d32", "warn": "#ef6c00", "critical": "#c62828"}

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #222; }
h1 { font-size: 1.4rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { padding: 0.35rem 0.6rem; text-align: left;
         border-bottom: 1px solid #ddd; white-space: nowrap; }
th { background: #f5f5f5; position: sticky; top: 0; }
tr:hover td { background: #fafafa; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: 0.05rem 0.5rem; border-radius: 0.6rem;
         color: #fff; font-size: 0.75rem; }
.cache { color: #666; font-style: italic; }
.summary { margin: 0.8rem 0 1.4rem; color: #444; }
svg.spark { vertical-align: middle; }
"""


def _sparkline(values: Sequence[float]) -> str:
    """A 120 x 22 inline SVG polyline of one window series (empty string if
    flat)."""
    if len(values) < 2:
        return ""
    width, height = 120, 22
    top = max(values)
    span = top if top > 0 else 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{index * step:.1f},{height - 2 - (value / span) * (height - 4):.1f}"
        for index, value in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#1565c0" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def _badge(status: str | None) -> str:
    if status is None:
        return "&mdash;"
    colour = _BADGE_COLOURS.get(status, "#616161")
    return f'<span class="badge" style="background:{colour}">{html.escape(status)}</span>'


def _blame_report_for(event: RunEvent) -> BlameReport | None:
    """Analyze the run's JSONL trace file, if it wrote one."""
    obs = event.spec.obs
    if obs is None or obs.trace_path is None or obs.trace_format != "jsonl":
        return None
    path = Path(obs.trace_path)
    if not path.exists():
        return None
    try:
        return analyze_trace_file(path, top=3)
    except (OSError, ValueError):
        # A truncated or foreign trace never breaks the report render.
        return None


def _blame_section(entries: list[tuple[RunEvent, Any]]) -> str:
    """The latency-blame block: one sub-table per traced run."""
    blocks = []
    for event, report in entries:
        total = report.total_latency or 1
        components = " &middot; ".join(
            f"{html.escape(name)} {100.0 * cycles / total:.1f}%"
            for name, cycles in report.components.items()
        )
        tail = " &middot; ".join(
            f"{name} {report.tail.get(name)}"
            for name in ("p50", "p95", "p99", "p999")
            if report.tail.get(name) is not None
        )
        rows = "".join(
            "<tr>"
            f'<td class="num">{node}</td>'
            f'<td class="num">{entry["contention"]}</td>'
            f'<td class="num">{entry["backoff"]}</td>'
            f'<td class="num">{entry["source_queue"]}</td>'
            f'<td class="num">{entry["total"]}</td>'
            "</tr>"
            for node, entry in report.top_routers(3)
        )
        blocks.append(
            f"<h3>{html.escape(event.spec.label)} &middot; "
            f"{html.escape(event.spec.workload_name)}</h3>"
            f'<p class="summary">{report.delivered} delivered / '
            f"{report.packets} traced &middot; {components}"
            + (f"<br>tail latency (cycles): {tail}" if tail else "")
            + "</p>"
            "<table><thead><tr><th>router</th><th>contention</th>"
            "<th>backoff</th><th>source queue</th><th>total</th>"
            "</tr></thead><tbody>" + rows + "</tbody></table>"
        )
    return "<h2>Latency blame</h2>" + "".join(blocks)


def render_campaign_html(events: Iterable[RunEvent]) -> str:
    """Render a complete HTML document from a campaign's run events."""
    ordered = sorted(events, key=lambda event: event.index)
    total_wall = sum(event.wall_time_s for event in ordered)
    cache_hits = sum(1 for event in ordered if event.cache_hit)
    total_flits = sum(event.result.stats.flits_processed for event in ordered)
    worst = max(
        (
            event.result.health.status
            for event in ordered
            if event.result.health is not None
        ),
        key=SEVERITIES.index,
        default="ok",
    )
    rows = []
    for event in ordered:
        result = event.result
        stats = result.stats
        spark = ""
        if result.timeseries is not None and result.timeseries.windows:
            spark = _sparkline([w.delivered for w in result.timeseries.windows])
        health = result.health.status if result.health is not None else None
        wall = (
            '<span class="cache">cache</span>'
            if event.cache_hit
            else f"{event.wall_time_s:.2f}s"
        )
        rows.append(
            "<tr>"
            f'<td class="num">{event.index}</td>'
            f"<td>{html.escape(event.spec.label)}</td>"
            f"<td>{html.escape(event.spec.workload_name)}</td>"
            f'<td class="num">{result.cycles}</td>'
            f'<td class="num">{wall}</td>'
            f'<td class="num">{stats.packets_delivered}</td>'
            f'<td class="num">{stats.packets_dropped}</td>'
            f'<td class="num">{stats.retransmissions}</td>'
            f"<td>{_badge(health)}</td>"
            f"<td>{spark}</td>"
            "</tr>"
        )
    summary = (
        f"{len(ordered)} runs &middot; {cache_hits} cache hits &middot; "
        f"{total_wall:.1f}s simulated wall time &middot; "
        f"{total_flits:,} flits processed &middot; overall health {_badge(worst)}"
    )
    table = (
        "<table><thead><tr>"
        "<th>#</th><th>config</th><th>workload</th><th>cycles</th>"
        "<th>wall</th><th>delivered</th><th>dropped</th><th>retx</th>"
        "<th>health</th><th>delivered/window</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )
    blamed = [
        (event, report)
        for event in ordered
        for report in [_blame_report_for(event)]
        if report is not None and report.delivered
    ]
    blame = _blame_section(blamed) if blamed else ""
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>Campaign report</title><style>{_STYLE}</style></head>"
        "<body><h1>Campaign report</h1>"
        f'<p class="summary">{summary}</p>{table}{blame}</body></html>\n'
    )


def write_campaign_html(path: str | Path, events: Iterable[RunEvent]) -> Path:
    """Render and write the report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_campaign_html(events))
    return path
