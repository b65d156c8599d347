"""Phastlane: the paper's hybrid electrical/optical routing network (section 2).

The reproduction's primary contribution, one module per part (import the
module; the package itself loads none of them):

- :mod:`~repro.core.config` — :class:`PhastlaneConfig`, the Table 1 network
  configuration;
- :mod:`~repro.core.network` — :class:`PhastlaneNetwork`, the cycle-accurate
  flit-level reference simulator: the oracle of
  ``tests/test_differential.py`` and nothing else (every ``PhastlaneConfig``
  is run, bit for bit, by :mod:`repro.vectorized`; see DESIGN.md section 9);
- :mod:`~repro.core.routing` — :func:`build_plan` / :func:`broadcast_plans`,
  predecoded source routes;
- :mod:`~repro.core.router` — :class:`PhastlaneRouter`, electrical buffers +
  rotating-priority arbiter;
- :mod:`~repro.core.packet` — :class:`OpticalPacket`, a single-flit
  cache-line packet with its control groups (:mod:`~repro.core.control`).
"""
