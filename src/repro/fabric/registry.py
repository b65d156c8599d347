"""Config-type → backend registry: the one place networks get built.

Every simulator registers itself here (at import time, from its defining
module) as a :class:`BackendEntry` binding a serialisation ``kind`` string,
a config type and a factory.  The harness then constructs networks only
through :func:`make_network` and (de)serialises configs only through
:func:`config_kind` / :func:`config_type_for` — no layer above
:mod:`repro.fabric` dispatches on concrete config classes.

The registry is genuinely open: :func:`register_backend` accepts any
config type / factory pair, so an out-of-tree backend participates in run
specs, campaigns, caching and sweeps without touching the harness.  The
built-in backends (Phastlane optical, electrical baseline, analytic ideal)
are imported lazily on first lookup so importing this module stays cheap
and cycle-free.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable

from repro.fabric.protocol import FabricError, NetworkBackend, NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.config import FaultConfig
    from repro.sim.stats import NetworkStats
    from repro.traffic.trace import TrafficSource

#: A backend factory: ``(config, source, stats)`` -> backend, optionally
#: accepting a ``faults=`` :class:`~repro.faults.schedule.FaultSchedule`.
#: Concrete network classes satisfy this directly via their constructors;
#: factories predating fault injection keep working because
#: :func:`make_network` only passes ``faults`` when enabled, and only to a
#: factory whose signature takes it (read once, at registration).
BackendFactory = Callable[..., NetworkBackend]


@dataclass(frozen=True)
class BackendEntry:
    """One registered backend: serialisation kind, config type, factory."""

    kind: str
    config_type: type
    factory: BackendFactory
    #: Whether ``factory`` takes ``faults=``, from its signature.
    takes_faults: bool = True


#: Registration order is preserved: exact-type lookups never depend on it,
#: but isinstance fallback (config subclasses) scans in this order.
_REGISTRY: dict[str, BackendEntry] = {}

#: Modules whose import registers the built-in backends.  The vectorized
#: module registers both Phastlane kinds: one engine serves them (DESIGN.md
#: section 9).
_BUILTIN_MODULES = (
    "repro.vectorized.network",
    "repro.electrical.network",
    "repro.fabric.ideal",
)


def _ensure_builtins() -> None:
    """Import the built-in backend modules (each self-registers)."""
    for module in _BUILTIN_MODULES:
        import_module(module)


def _takes_faults(factory: BackendFactory) -> bool:
    """Whether ``factory(config, source, stats, faults=...)`` is callable."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):
        return True  # no signature to read: the call speaks for itself
    return any(
        parameter.name == "faults" or parameter.kind is parameter.VAR_KEYWORD
        for parameter in parameters
    )


def register_backend(
    kind: str,
    config_type: type,
    factory: BackendFactory,
) -> BackendEntry:
    """Register (or replace) the backend for one config type.

    ``kind`` is the stable string stored in serialised run specs (it feeds
    cache digests, so renaming a kind invalidates cached results).  Returns
    the new entry.  Registering an already-known kind replaces it, which
    lets tests and experiments shadow a backend; :func:`unregister_backend`
    restores nothing, so shadowing built-ins is on the caller.
    """
    if not kind:
        raise FabricError("backend kind must be a non-empty string")
    if not isinstance(config_type, type):
        raise FabricError(
            f"config_type must be a class, got {config_type!r}"
        )
    for entry in _REGISTRY.values():
        if entry.kind != kind and entry.config_type is config_type:
            raise FabricError(
                f"config type {config_type.__name__} is already registered "
                f"as backend {entry.kind!r}"
            )
    entry = BackendEntry(kind, config_type, factory, _takes_faults(factory))
    _REGISTRY[kind] = entry
    return entry


def unregister_backend(kind: str) -> None:
    """Drop one registered backend (primarily for test cleanup)."""
    _REGISTRY.pop(kind, None)


def registered_backends() -> dict[str, BackendEntry]:
    """A snapshot of every registered backend, keyed by kind."""
    _ensure_builtins()
    return dict(_REGISTRY)


def _known_kinds() -> str:
    kinds = ", ".join(sorted(_REGISTRY)) or "<none>"
    return kinds


def entry_for_config(config: NetworkConfig) -> BackendEntry:
    """The registry entry whose config type matches ``config``.

    Exact type match first; configs subclassing a registered type fall back
    to an ``isinstance`` scan in registration order.  Raises
    :class:`FabricError` naming the config class and every registered
    backend when nothing matches.
    """
    _ensure_builtins()
    for entry in _REGISTRY.values():
        if type(config) is entry.config_type:
            return entry
    for entry in _REGISTRY.values():
        if isinstance(config, entry.config_type):
            return entry
    raise FabricError(
        f"no backend registered for configuration type "
        f"{type(config).__name__}; registered backends: {_known_kinds()} "
        f"(register one with repro.fabric.register_backend)"
    )


def entry_for_kind(kind: str) -> BackendEntry:
    """The registry entry for one serialisation kind string."""
    _ensure_builtins()
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise FabricError(
            f"unknown backend kind {kind!r}; registered backends: "
            f"{_known_kinds()}"
        ) from None


def config_kind(config: NetworkConfig) -> str:
    """The serialisation kind string for a config instance."""
    return entry_for_config(config).kind


def config_type_for(kind: str) -> type:
    """The config class registered under ``kind``."""
    return entry_for_kind(kind).config_type


def make_network(
    config: NetworkConfig,
    source: "TrafficSource | None" = None,
    stats: "NetworkStats | None" = None,
    faults: "FaultConfig | None" = None,
) -> NetworkBackend:
    """Build the simulator registered for the configuration type.

    When ``faults`` is enabled it is compiled to a
    :class:`~repro.faults.schedule.FaultSchedule` on the config's resolved
    topology and passed to the factory as ``faults=``; a factory that does
    not model faults (its signature has no such parameter) is refused with
    a :class:`FabricError` rather than silently simulating fault-free
    physics, and an error the factory itself raises propagates as itself.
    Disabled or absent fault configs use the historical three-argument
    call, so factories registered before fault injection existed are
    untouched.
    """
    entry = entry_for_config(config)
    if faults is None or not faults.enabled:
        return entry.factory(config, source, stats)
    if not entry.takes_faults:
        raise FabricError(
            f"backend {entry.kind!r} does not support fault injection "
            f"(its factory takes no faults= parameter)"
        )
    from repro.faults.schedule import FaultSchedule
    from repro.topology import topology_of

    schedule = FaultSchedule(faults, topology_of(config))
    return entry.factory(config, source, stats, faults=schedule)
