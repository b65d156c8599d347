"""The section-5 configuration matrix shared by the Fig 9-11 experiments."""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import PhastlaneConfig
from repro.electrical.config import ElectricalConfig
from repro.fabric.ideal import IdealConfig
from repro.fabric.protocol import NetworkConfig
from repro.photonics.constants import PAYLOAD_WDM, SCALING_SCENARIOS
from repro.photonics.latency import max_hops_per_cycle
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

#: Speedups in Fig 10 are relative to the three-cycle electrical router.
BASELINE_LABEL = "Electrical3"


def optical_configs(mesh: MeshGeometry | None = None) -> dict[str, PhastlaneConfig]:
    """The optical variants of section 5: Optical4/5/8 run the Fig 6
    solver's pessimistic / average / optimistic hop budget at the design
    point's WDM degree, and the buffer variants the pessimistic one."""
    mesh = mesh or MeshGeometry(8, 8)
    hops = {
        scenario: max_hops_per_cycle(scenario, PAYLOAD_WDM)
        for scenario in SCALING_SCENARIOS
    }
    configs = [
        PhastlaneConfig(mesh=mesh, max_hops_per_cycle=hops[scenario])
        for scenario in ("pessimistic", "average", "optimistic")
    ] + [
        PhastlaneConfig(
            mesh=mesh, max_hops_per_cycle=hops["pessimistic"], buffer_entries=buffers
        )
        for buffers in (32, 64, None)
    ]
    return {config.label: config for config in configs}


def electrical_configs(mesh: MeshGeometry | None = None) -> dict[str, ElectricalConfig]:
    """The electrical baselines: three- and two-cycle per-hop routers."""
    mesh = mesh or MeshGeometry(8, 8)
    return {
        "Electrical3": ElectricalConfig(mesh=mesh, router_delay_cycles=3),
        "Electrical2": ElectricalConfig(mesh=mesh, router_delay_cycles=2),
    }


def standard_configs(mesh: MeshGeometry | None = None) -> dict[str, NetworkConfig]:
    """Every section-5 configuration, electrical baselines first."""
    mesh = mesh or MeshGeometry(8, 8)
    configs: dict[str, NetworkConfig] = {}
    configs.update(electrical_configs(mesh))
    configs.update(optical_configs(mesh))
    return configs


def reference_configs() -> dict[str, NetworkConfig]:
    """Alternative engines that are *not* part of the paper's matrix.

    ``Ideal`` (the zero-contention fabric backend) is the
    contention-free floor for one-hop-per-cycle transport;
    ``Vector4``/``Vector4X`` are ``Optical4``'s engine asked for by its
    own config type: ``Vector4X`` computes exactly what ``Optical4``
    does, ``Vector4`` draws synthetic traffic from its Philox stream
    instead (traces, SPLASH2 broadcasts included, are bit-identical in
    both).  All are kept out of :func:`standard_configs` so the Fig 9-11
    campaigns keep reproducing exactly the paper's series.
    """
    return {
        "Ideal": IdealConfig(),
        "Vector4": VectorizedConfig(),
        "Vector4X": VectorizedConfig(mode="exact"),
    }


def cli_configs(topology: str) -> dict[str, NetworkConfig]:
    """Every configuration selectable from the CLI (paper + references).

    ``topology`` switches every config onto a registered topology (e.g.
    ``"torus"``); ``"mesh"`` keeps the paper's default, leaving run-spec
    digests untouched.
    """
    configs = standard_configs()
    configs.update(reference_configs())
    if topology != "mesh":
        configs = {
            label: replace(config, topology=topology)
            for label, config in configs.items()
        }
    return configs


#: The subset of configurations plotted in Fig 9 (synthetic sweeps).
FIG9_LABELS = ("Optical4", "Optical5", "Optical8", "Electrical2", "Electrical3")
