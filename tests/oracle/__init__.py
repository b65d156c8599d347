"""The reference oracle: the paper's Phastlane network (section 2) as a
cycle-accurate, flit-level simulator that no command runs.

Every ``PhastlaneConfig`` runs on the sparse kernel (:mod:`repro.vectorized`);
this package is the independent statement of sections 2.1-2.1.4 it is
proven against, bit for bit (``tests/test_differential.py``).  Tests build
it directly or through ``helpers.reference_oracle``.  Import it as
``oracle.*`` only (``tests`` is on the path), so a class is one object.
It imports nothing from :mod:`repro.vectorized`.

- :mod:`~oracle.network` — :class:`PhastlaneNetwork`, the waves, drops and
  energy ledger;
- :mod:`~oracle.router` — :class:`PhastlaneRouter`, electrical buffers +
  rotating-priority arbiter;
- :mod:`~oracle.nic` — :class:`PhastlaneNic`, broadcast fan-out;
- :mod:`~oracle.packet` — :class:`OpticalPacket`, a single-flit packet and
  its plan;
- :mod:`~oracle.routing` — the route rewrites and the broadcast plans;
- :mod:`~oracle.control` — the 70-bit control-word layout.
"""
