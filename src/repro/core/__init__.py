"""Phastlane: the paper's hybrid electrical/optical routing network (section 2).

What the package keeps (import the module; the package itself loads
none of them):

- :mod:`~repro.core.config` — :class:`PhastlaneConfig`, the Table 1 network
  configuration, which every ``PhastlaneConfig`` run hands to the sparse
  kernel (:mod:`repro.vectorized`; see DESIGN.md section 9);
- :mod:`~repro.core.routing` — :func:`build_plan`, the naive statement of
  a predecoded source route, which the reference oracle under
  ``tests/oracle`` routes with.
"""
