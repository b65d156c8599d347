"""iSLIP allocation (McKeown, ToN 1999) for the baseline router.

Table 2 of the paper specifies iSLIP for both the VC allocator and the
switch allocator.  iSLIP is a separable grant/accept scheme with rotating
priority pointers that advance only when their grant is accepted, which is
what de-synchronises the pointers and gives the algorithm its
100%-throughput behaviour under uniform traffic.  The baseline runs one
iteration with one grant per output, the only allocator here.

Request sets are integer bitmasks, as the request lines of the hardware
are: bit ``line = input_port * num_vcs + vc`` of an output port's mask is
set while that input VC requests the port, and an input's granted outputs
are a ``num_ports``-bit mask.  Rotating priority is then "the lowest set
bit at or after the pointer", which the allocators compute inline on each
:class:`RoundRobinArbiter`'s pointer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.electrical.config import INPUT_SPEEDUP


class RoundRobinArbiter:
    """A rotating-priority arbiter over a fixed number of request lines."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"arbiter needs at least one line, got {size}")
        self.size = size
        self.pointer = 0


@dataclass(frozen=True)
class Request:
    """One switch-allocation request: input VC ``(port, vc)`` -> output port."""

    input_port: int
    vc: int
    output_port: int


class SwitchAllocator:
    """One-iteration iSLIP switch allocation with input speedup.

    Grant pointers live per output port over the flattened (input, vc)
    space; accept pointers live per input port over the output space.  Each
    output grants one line per cycle; an input port may accept up to
    ``input_speedup`` grants (the paper's baseline has a 4x input-speedup
    crossbar, :data:`repro.electrical.config.INPUT_SPEEDUP`).
    """

    def __init__(
        self, num_ports: int, num_vcs: int, input_speedup: int = INPUT_SPEEDUP
    ):
        if num_ports < 1 or num_vcs < 1:
            raise ValueError("ports and VCs must be at least 1")
        if input_speedup < 1:
            raise ValueError("input speedup must be at least 1")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.input_speedup = input_speedup
        self._grant = [RoundRobinArbiter(num_ports * num_vcs) for _ in range(num_ports)]
        self._accept = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]

    def allocate(self, requests: Sequence[Request]) -> list[Request]:
        """Grant a conflict-free subset of ``requests`` (validating front)."""
        masks = [0] * self.num_ports
        order: list[tuple[int, int]] = []
        for request in requests:
            if not 0 <= request.input_port < self.num_ports:
                raise ValueError(f"bad input port in {request}")
            if not 0 <= request.output_port < self.num_ports:
                raise ValueError(f"bad output port in {request}")
            if not 0 <= request.vc < self.num_vcs:
                raise ValueError(f"bad vc in {request}")
            line = request.input_port * self.num_vcs + request.vc
            masks[request.output_port] |= 1 << line
            order.append((line, request.output_port))
        return [
            Request(line // self.num_vcs, line % self.num_vcs, output_port)
            for line, output_port in self.allocate_masks(masks, order)
        ]

    def allocate_one(self, output: int, mask: int) -> int:
        """:meth:`allocate_masks` when ``output`` is the only output with
        requests: its round-robin winner in ``mask``, which the input
        always accepts (one grant fits any ``input_speedup``).  Both
        pointers move past the grant, as they would there.
        """
        arbiter = self._grant[output]
        pointer = arbiter.pointer
        ahead = mask >> pointer  # the set bit at or after the pointer
        line = (
            pointer + (ahead & -ahead).bit_length() - 1
            if ahead
            else (mask & -mask).bit_length() - 1
        )
        arbiter.pointer = (line + 1) % arbiter.size
        self._accept[line // self.num_vcs].pointer = (output + 1) % self.num_ports
        return line

    def allocate_masks(
        self, masks: Sequence[int], order: Sequence[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Grant a conflict-free subset of the requests in ``masks``.

        ``masks[output_port]`` holds the requesting lines of each output
        (read, not changed).  ``order`` lists ``(line, output_port)`` pairs
        in arrival order; pairs whose bit is clear are ignored, so it may
        be a superset of the requests.

        Outputs grant in order of their first live pair in ``order``, one
        line each, the first at or after the grant pointer.  Inputs accept
        in order of their first grant, each taking its grants in
        accept-pointer rotation up to ``input_speedup``.  Returns the
        accepted pairs in that order, the crossbar's.  A refused grant
        moves no pointer; every other pointer moves one past the last
        grant it took.
        """
        num_ports, num_vcs = self.num_ports, self.num_vcs
        grants, accepts = self._grant, self._accept
        # Grant, each output the set bit at or after its unmoved pointer.
        accepted: list[tuple[int, int]] = []
        inputs = shared = visited = 0
        for line, output in order:
            mask = masks[output]
            if (visited >> output) & 1 or not (mask >> line) & 1:
                continue
            visited |= 1 << output
            pointer = grants[output].pointer
            ahead = mask >> pointer
            winner = (
                pointer + (ahead & -ahead).bit_length() - 1
                if ahead
                else (mask & -mask).bit_length() - 1
            )
            accepted.append((winner, output))
            bit = 1 << winner // num_vcs
            shared |= inputs & bit
            inputs |= bit
        if shared:  # an input holds several grants: it takes them in turn
            by_input: dict[int, list[tuple[int, int]]] = {}
            for grant in accepted:
                by_input.setdefault(grant[0] // num_vcs, []).append(grant)
            accepted = []
            for input_port, taken in by_input.items():
                start = accepts[input_port].pointer
                taken.sort(key=lambda grant: (grant[1] - start) % num_ports)
                accepted += taken[: self.input_speedup]
        size = num_ports * num_vcs
        for line, output in accepted:
            grants[output].pointer = (line + 1) % size
            accepts[line // num_vcs].pointer = (output + 1) % num_ports
        return accepted


class VcAllocator:
    """iSLIP-style output-VC allocation.

    Each requesting input VC asks for *any* free VC on one output port; each
    output port hands its free VCs to requesters in rotating-priority order.
    Output ports are independent of one another, so the unit of work is
    :meth:`assign` for one port.
    """

    def __init__(self, num_ports: int, num_vcs: int):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self._arbiters = [
            RoundRobinArbiter(num_ports * num_vcs) for _ in range(num_ports)
        ]

    def assign(
        self, output_port: int, mask: int, free_vcs: int
    ) -> list[tuple[int, int]]:
        """Hand the VCs set in ``free_vcs``, lowest first, to the lines of ``mask``.

        Returns ``(line, downstream vc)`` pairs; the pointer moves past
        every winner.
        """
        arbiter = self._arbiters[output_port]
        pointer, size = arbiter.pointer, arbiter.size
        grants: list[tuple[int, int]] = []
        while mask and free_vcs:
            ahead = mask >> pointer  # pick at or after the pointer, move past
            line = (
                pointer + (ahead & -ahead).bit_length() - 1
                if ahead
                else (mask & -mask).bit_length() - 1
            )
            mask ^= 1 << line
            pointer = (line + 1) % size
            lowest = free_vcs & -free_vcs
            free_vcs ^= lowest
            grants.append((line, lowest.bit_length() - 1))
        arbiter.pointer = pointer
        return grants
