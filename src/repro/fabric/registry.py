"""Config type → backend table: the one place networks get built.

The package has four backends, and :data:`BACKENDS` names them: each
serialisation ``kind`` maps to its config type and its network class.
The harness constructs networks only through :func:`make_network` and
(de)serialises configs only through :func:`config_kind` /
:func:`config_type_for` — no layer above :mod:`repro.fabric` dispatches
on concrete config classes.  The table holds dotted paths, so importing
this module loads no simulator: a backend module is imported by the
first lookup that needs it.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

from repro.fabric.protocol import NetworkBackend, NetworkConfig
from repro.util.errors import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.config import FaultConfig
    from repro.sim.stats import NetworkStats
    from repro.traffic.trace import TrafficSource

#: A backend factory: ``(config, source, stats, faults=None)`` -> backend.
#: Every network class's constructor is one.
BackendFactory = Callable[..., NetworkBackend]

#: kind -> (config type, network class), as dotted paths.  The sparse
#: kernel serves both Phastlane kinds: one engine runs them (DESIGN.md
#: section 9).
BACKENDS: dict[str, tuple[str, str]] = {
    "phastlane": (
        "repro.core.config.PhastlaneConfig",
        "repro.vectorized.network.VectorizedNetwork",
    ),
    "vectorized": (
        "repro.vectorized.config.VectorizedConfig",
        "repro.vectorized.network.VectorizedNetwork",
    ),
    "electrical": (
        "repro.electrical.config.ElectricalConfig",
        "repro.electrical.network.ElectricalNetwork",
    ),
    "ideal": ("repro.fabric.ideal.IdealConfig", "repro.fabric.ideal.IdealNetwork"),
}


def _load(path: str) -> Any:
    module, _, name = path.rpartition(".")
    return getattr(import_module(module), name)


def _known_kinds() -> str:
    return ", ".join(sorted(BACKENDS))


def config_kind(config: NetworkConfig) -> str:
    """The serialisation kind string for a config instance.

    Matched on the config's exact type, read by name, so no backend
    module is imported.  Raises :class:`FabricError` naming the config
    class and every backend when nothing matches.
    """
    config_type = type(config)
    path = f"{config_type.__module__}.{config_type.__qualname__}"
    for kind, (config_path, _) in BACKENDS.items():
        if config_path == path:
            return kind
    raise FabricError(
        f"no backend for configuration type {config_type.__name__}; "
        f"known backends: {_known_kinds()}"
    )


def config_type_for(kind: str) -> type:
    """The config class of backend ``kind``."""
    try:
        config_path, _ = BACKENDS[kind]
    except KeyError:
        raise FabricError(
            f"unknown backend kind {kind!r}; known backends: {_known_kinds()}"
        ) from None
    config_type: type = _load(config_path)
    return config_type


def make_network(
    config: NetworkConfig,
    source: "TrafficSource | None" = None,
    stats: "NetworkStats | None" = None,
    faults: "FaultConfig | None" = None,
) -> NetworkBackend:
    """Build the simulator for the configuration type.

    When ``faults`` is enabled it is compiled to a
    :class:`~repro.faults.schedule.FaultSchedule` on the config's resolved
    topology and passed as ``faults=``; a backend that cannot model faults
    refuses it in its own words.  Disabled or absent fault configs pass
    nothing.
    """
    factory: BackendFactory = _load(BACKENDS[config_kind(config)][1])
    if faults is None or not faults.enabled:
        return factory(config, source, stats)
    from repro.faults.schedule import FaultSchedule
    from repro.topology.registry import topology_of

    schedule = FaultSchedule(faults, topology_of(config))
    return factory(config, source, stats, faults=schedule)
