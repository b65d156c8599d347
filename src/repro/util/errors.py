"""Shared exception types that sit below every layer of the stack.

:class:`FabricError` is the user-facing "you asked for something the
fabric cannot do" error: unknown backend kinds, bad registrations,
honest refusals (a backend that cannot model faults, a pattern that is
undefined on a topology).  It historically lived in
:mod:`repro.fabric.protocol`, which still re-exports it; the class
itself lives here so that low-level packages (:mod:`repro.topology`,
:mod:`repro.traffic`) can raise it without importing :mod:`repro.fabric`
— whose package init pulls in the simulators and would create an import
cycle.
"""

from __future__ import annotations

from typing import Any


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


def drop_retired(payload: dict[str, Any], retired: dict[str, Any], owner: str) -> None:
    """Pop ``retired``'s keys, which the wire keeps at their one value, from
    a stored ``payload``; refuse any other value in one line."""
    for key, kept in retired.items():
        value = payload.pop(key, kept)
        if value != kept:
            raise SpecError(
                f"{key}={value!r} is retired: no paper figure varies it, and "
                f"{owner} simulates only {kept!r}"
            )
