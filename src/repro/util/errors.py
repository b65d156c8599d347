"""Shared exception types that sit below every layer of the stack.

:class:`FabricError` is the user-facing "you asked for something the
fabric cannot do" error: unknown backend kinds, bad registrations,
honest refusals (a backend that cannot model faults, a pattern that is
undefined on a topology).  It lives here, below every layer, so that
low-level packages (:mod:`repro.topology`, :mod:`repro.traffic`) raise it
without importing :mod:`repro.fabric`.
"""


class FabricError(Exception):
    """A fabric-layer failure: unknown backend, bad registration, etc."""


class SpecError(FabricError, ValueError):
    """A value a run spec, workload or fault model refuses (``--cycles 0``, a
    rate outside [0, 1]).

    A :class:`ValueError` for callers that guard construction with one, and
    a :class:`FabricError` so the CLI reports it in one line wherever the
    spec was built (``campaign`` and ``figure`` build theirs deep inside
    the experiment layer).
    """

