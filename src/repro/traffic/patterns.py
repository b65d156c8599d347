"""Synthetic traffic patterns (Dally & Towles; paper Fig 9).

The paper evaluates Bit Complement, Bit Reverse, Shuffle and Transpose; we
also provide the other standard mesh patterns (uniform random, tornado,
nearest-neighbour, hotspot) used by the wider test suite and examples.

A pattern maps a source node to a destination node for each generated
packet; deterministic permutations ignore the RNG argument.  Patterns
accept either a bare :class:`~repro.util.geometry.MeshGeometry` (the
historical signature) or any :class:`~repro.topology.base.Topology`; patterns
whose definition does not extend to a given topology refuse construction
with :class:`PatternUndefinedError` instead of silently producing
meaningless destinations.
"""

from __future__ import annotations

import abc
from typing import Union

from repro.sim.rng import DeterministicRng
from repro.topology.base import Topology
from repro.topology.registry import as_topology
from repro.util.bits import (
    bit_complement,
    bit_reverse,
    bit_width,
    shuffle_bits,
    transpose_bits,
)
from repro.util.errors import SpecError
from repro.util.geometry import MeshGeometry

#: What pattern constructors accept: the historical bare mesh or a topology.
MeshLike = Union[MeshGeometry, Topology]


class PatternUndefinedError(SpecError):
    """A traffic pattern is mathematically undefined on this topology.

    A spec refusal: a :class:`ValueError` for callers predating the
    topology layer (which guarded pattern construction with ``except
    ValueError``), and a :class:`FabricError` so the harness reports it as
    an honest refusal rather than a crash.
    """


class TrafficPattern(abc.ABC):
    """Maps source nodes to destination nodes on a topology."""

    name: str = "abstract"

    def __init__(self, mesh: MeshLike):
        self.topology = as_topology(mesh)
        self.mesh = self.topology.mesh

    @abc.abstractmethod
    def destination(self, source: int, rng: DeterministicRng) -> int:
        """Destination node for a packet generated at ``source``."""

    def _check_source(self, source: int) -> None:
        if source < 0 or source >= self.mesh.num_nodes:
            raise ValueError(f"source {source} outside {self.mesh}")


class _AddressPermutation(TrafficPattern):
    """Deterministic permutation on the bits of the node address."""

    def __init__(self, mesh: MeshLike):
        super().__init__(mesh)
        n = self.mesh.num_nodes
        if n & (n - 1):
            raise PatternUndefinedError(
                f"{self.name} requires a power-of-two node count, got {n}"
            )
        self._width = bit_width(n)

    def destination(self, source: int, rng: DeterministicRng) -> int:
        self._check_source(source)
        return self._permute(source, self._width)

    @staticmethod
    @abc.abstractmethod
    def _permute(addr: int, width: int) -> int: ...


class BitComplementPattern(_AddressPermutation):
    name = "bitcomp"
    _permute = staticmethod(bit_complement)


class BitReversePattern(_AddressPermutation):
    name = "bitrev"
    _permute = staticmethod(bit_reverse)


class ShufflePattern(_AddressPermutation):
    name = "shuffle"
    _permute = staticmethod(shuffle_bits)


class TransposePattern(_AddressPermutation):
    name = "transpose"
    _permute = staticmethod(transpose_bits)

    def __init__(self, mesh: MeshLike):
        super().__init__(mesh)
        # The bit transpose swaps the x/y halves of the address, which is
        # the coordinate transpose (x, y) -> (y, x) only on a square grid.
        if self.mesh.width != self.mesh.height:
            raise PatternUndefinedError(
                f"transpose is undefined on the non-square {self.topology}: "
                f"(x, y) -> (y, x) needs width == height"
            )


class UniformRandomPattern(TrafficPattern):
    """Uniform random destination, excluding the source itself."""

    name = "uniform"

    def destination(self, source: int, rng: DeterministicRng) -> int:
        self._check_source(source)
        if self.mesh.num_nodes == 1:
            raise ValueError("uniform traffic needs at least two nodes")
        dest = rng.randrange(self.mesh.num_nodes - 1)
        return dest if dest < source else dest + 1


class TornadoPattern(TrafficPattern):
    """Each node sends halfway around its row (worst-case for rings/meshes)."""

    name = "tornado"

    def destination(self, source: int, rng: DeterministicRng) -> int:
        self._check_source(source)
        coord = self.mesh.coord(source)
        shifted = coord._replace(x=(coord.x + self.mesh.width // 2) % self.mesh.width)
        return self.mesh.node(shifted)


class NeighborPattern(TrafficPattern):
    """Nearest-neighbour exchange: a random one of the node's neighbours.

    Models the stencil communication of Ocean/Water-style scientific codes.
    Neighbours come from the topology's port enumeration, so on a torus the
    wrap links count as neighbours (every node has four) while on a mesh
    the edge nodes keep their 2-3 choices, byte-identical to the historical
    cardinal-direction scan.
    """

    name = "neighbor"

    def destination(self, source: int, rng: DeterministicRng) -> int:
        self._check_source(source)
        neighbors = [
            n
            for port in self.topology.ports(source)
            if (n := self.topology.neighbor(source, port)) is not None
        ]
        if not neighbors:
            raise PatternUndefinedError(
                f"neighbor traffic is undefined on {self.topology}: "
                f"node {source} has no neighbours"
            )
        return rng.choice(neighbors)


#: The share of hotspot-pattern packets addressed to the hot node.
HOTSPOT_FRACTION = 0.5


class HotspotPattern(TrafficPattern):
    """Half the traffic targets one hot node; the rest is uniform.

    Models directory/lock/memory-controller hotspots (Cholesky, Barnes).
    The hotspot sits at the topology's most central node (minimum
    worst-case hop count), which on the historical even-sized meshes is the
    centre-of-grid node.
    """

    name = "hotspot"

    def __init__(self, mesh: MeshLike):
        super().__init__(mesh)
        self.hotspot = self._default_center()
        self._uniform = UniformRandomPattern(self.topology)

    def _default_center(self) -> int:
        mesh = self.mesh
        grid_center = mesh.node(mesh.coord(mesh.num_nodes // 2 + mesh.width // 2))
        if self.topology.name == "mesh":
            return grid_center
        # On a wrapped topology the grid centre is not necessarily central;
        # pick the node minimising its eccentricity (worst-case hop count),
        # breaking ties toward the grid centre then the lowest node id for
        # determinism.
        def eccentricity(node: int) -> tuple[int, int, int]:
            worst = max(
                self.topology.hop_count(node, other)
                for other in self.topology.nodes()
            )
            return (worst, node != grid_center, node)

        return min(self.topology.nodes(), key=eccentricity)

    def destination(self, source: int, rng: DeterministicRng) -> int:
        self._check_source(source)
        if rng.bernoulli(HOTSPOT_FRACTION) and source != self.hotspot:
            # A draw from one candidate still advances the stream, which
            # every recorded trace and run pin depends on.
            return rng.choice((self.hotspot,))
        return self._uniform.destination(source, rng)


PATTERNS: dict[str, type[TrafficPattern]] = {
    cls.name: cls
    for cls in (
        BitComplementPattern,
        BitReversePattern,
        ShufflePattern,
        TransposePattern,
        UniformRandomPattern,
        TornadoPattern,
        NeighborPattern,
        HotspotPattern,
    )
}

#: The four patterns of the paper's Fig 9, in figure order.
FIGURE9_PATTERNS = ("bitcomp", "bitrev", "shuffle", "transpose")


def pattern_by_name(name: str, mesh: MeshLike) -> TrafficPattern:
    """Instantiate a pattern by its short name.

    >>> pattern_by_name("transpose", MeshGeometry(8, 8)).name
    'transpose'
    """
    try:
        cls = PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; available: {sorted(PATTERNS)}"
        ) from None
    return cls(mesh)
