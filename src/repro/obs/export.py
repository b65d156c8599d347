"""Live JSONL streaming of closed windows and health findings.

:class:`JsonlStreamWriter` is the file sink :class:`~repro.obs.session.ObsSession`
feeds while a run executes: one line per closed metrics window and per
health finding as they happen (flushing each line), so ``tail -f``
follows a run in progress.  Enable it with ``ObsConfig(stream_path=...)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import IO, Any

from repro.obs.health import HealthFinding
from repro.obs.timeseries import Window


class JsonlStreamWriter:
    """Append window/health records to a JSONL file *during* the run.

    Each record carries an ``event`` discriminator: ``window`` (one closed
    metrics window, with an optional per-node spatial slice), ``health``
    (one watchdog finding) and a final ``end`` summary.  Lines are flushed
    as written, so ``tail -f`` (or any log shipper) follows the run live —
    no record is buffered.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w")

    def window(
        self, window: Window, spatial_slice: dict[str, Any] | None = None
    ) -> None:
        """One closed metrics window, with its per-node slice if spatial."""
        payload: dict[str, Any] = {"event": "window", **asdict(window)}
        if spatial_slice is not None:
            payload["spatial"] = spatial_slice
        self._write(payload)

    def finding(self, finding: HealthFinding) -> None:
        """One watchdog finding."""
        self._write({"event": "health", **finding.to_dict()})

    def close(self, summary: dict[str, Any]) -> None:
        """Write the final ``end`` record and close the file."""
        if self._handle is None:
            return
        self._write({"event": "end", **summary})
        self._handle.close()
        self._handle = None

    def _write(self, payload: dict[str, Any]) -> None:
        if self._handle is None:  # pragma: no cover - defensive
            return
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()


def read_stream(path: str | Path) -> list[dict[str, Any]]:
    """Parse a stream file back into its records (tests, tooling)."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records
