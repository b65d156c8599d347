"""The vectorized batched simulation engine (fourth fabric backend).

A sparse, event-driven reimplementation of the Phastlane cycle-accurate
pipeline that pre-generates traffic and visits only busy components.  It
is backend kind ``"vectorized"`` and it also serves every
``PhastlaneConfig`` on the paper's design point (kind ``"phastlane"``),
bit for bit what the reference oracle (``tests/oracle``) computes.  See
:mod:`repro.vectorized.network` for the engine, its calibration claims and
the dispatch rule, and ``tests/test_differential.py`` for the proof harness.

Import the module that defines a name.  The package loads none of them;
it serves the name ``bench/`` imports from it on first access, until the
bench imports it from its home (ROADMAP item 1).
"""

from repro import lazy_names

_HOME_OF = {"VectorizedConfig": "repro.vectorized.config"}

__getattr__, __dir__ = lazy_names(globals(), _HOME_OF)
