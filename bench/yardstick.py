"""Speed calibration: a fixed pure-Python loop interleaved with the job.

This sandbox's CPU speed is not constant: a noisy neighbour slows the same
code by 20-50 % for anything from milliseconds to minutes, which is wider
than any regression bound worth gating on.  So every job is measured in
*pieces* (each simulation run, each analysis stage, each CLI launch), a
yardstick sample is taken before the job and after every piece, and a
piece's host time is scaled by the relative speed the yardstick saw around
it.  Calibrated seconds are host seconds on a machine that runs one
yardstick chunk in :data:`REFERENCE_CHUNK_S`; at this sandbox's undisturbed
speed they equal raw seconds.

The calibration cancels slow drift.  Bursts are handled by
:func:`best_of`: per piece, the fastest calibrated time over the repeats.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Iterations of the yardstick loop per chunk (about 1.2 ms on this
#: sandbox).  A sample is at least :data:`MIN_CHUNKS` chunks and otherwise
#: :data:`SAMPLE_SHARE` of the piece it follows, up to :data:`MAX_CHUNKS`,
#: so long pieces get a proportionally better speed estimate.
CHUNK_ITERATIONS = 20_000
MIN_CHUNKS = 12
MAX_CHUNKS = 80
SAMPLE_SHARE = 0.05
#: Wall time of one chunk at this sandbox's undisturbed speed.  A constant,
#: not a measurement: it only fixes the unit, so results of different runs,
#: commits and days are comparable.
REFERENCE_CHUNK_S = 1.15e-3


def sample(after_piece_s: float = 0.0) -> float:
    """One yardstick sample: the mean relative speed over its chunks
    (1.0 = reference speed, 0.5 = the host runs Python at half of it)."""
    chunks = int(after_piece_s * SAMPLE_SHARE / REFERENCE_CHUNK_S)
    speeds = []
    for _ in range(max(MIN_CHUNKS, min(MAX_CHUNKS, chunks))):
        started = perf_counter()
        total = 0
        for i in range(CHUNK_ITERATIONS):
            total += i * i % 7
        speeds.append(REFERENCE_CHUNK_S / (perf_counter() - started))
    return statistics.fmean(speeds)


class Meter:
    """Records a job's pieces with a yardstick sample between them.

    The job calls :meth:`piece` right after each piece completes, passing
    the piece's own host time.  Time spent inside the yardstick is tracked
    in :attr:`spent` so the worker can take it out of the job's wall.
    """

    def __init__(self) -> None:
        self.pieces: list[tuple[str, float]] = []
        self.spent = 0.0
        self.speeds = [sample()]  # before the job starts: not job time

    def piece(self, name: str, wall_s: float) -> None:
        self.pieces.append((name, wall_s))
        started = perf_counter()
        self.speeds.append(sample(wall_s))
        self.spent += perf_counter() - started

    def calibrated(self, own_wall_s: float) -> list[float]:
        """Calibrated seconds per piece, plus one last entry for the glue:
        the job's own wall (yardstick time already removed) not covered by
        any piece, scaled by the job's mean speed."""
        scaled = [
            wall * (self.speeds[i] + self.speeds[i + 1]) / 2
            for i, (_, wall) in enumerate(self.pieces)
        ]
        glue = max(0.0, own_wall_s - sum(wall for _, wall in self.pieces))
        return scaled + [glue * statistics.fmean(self.speeds)]

    @property
    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds)


def best_of(repeats: list[list[float]]) -> float:
    """Σ over the job's pieces of the fastest calibrated repeat of that piece.

    A burst of interference hits some pieces of some repeats; taking each
    piece from the repeat that ran it undisturbed removes the burst without
    needing one entirely quiet repeat.  Falls back to the fastest whole
    repeat if the repeats disagree on the number of pieces.
    """
    if len({len(pieces) for pieces in repeats}) != 1:
        return min(sum(pieces) for pieces in repeats)
    return sum(min(column) for column in zip(*repeats))
