"""The vectorized batched simulation engine (fourth fabric backend).

A sparse, event-driven reimplementation of the Phastlane cycle-accurate
pipeline that pre-generates traffic and visits only busy components.  It
is backend kind ``"vectorized"`` and it also serves every
``PhastlaneConfig`` on the paper's design point (kind ``"phastlane"``),
bit for bit what the :mod:`repro.core` reference computes.  See
:mod:`repro.vectorized.network` for the engine, its calibration claims and
the dispatch rule, and ``tests/test_differential.py`` for the proof harness.
"""

from repro.vectorized.config import MODES, VectorizedConfig, as_phastlane
from repro.vectorized.network import VECTORIZED_CALIBRATION, VectorizedNetwork
from repro.vectorized.traffic import philox_key, philox_supported

__all__ = [
    "MODES",
    "VECTORIZED_CALIBRATION",
    "VectorizedConfig",
    "VectorizedNetwork",
    "as_phastlane",
    "philox_key",
    "philox_supported",
]
