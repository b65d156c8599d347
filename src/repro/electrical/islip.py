"""iSLIP allocation (McKeown, ToN 1999) for the baseline router.

Table 2 of the paper specifies iSLIP for both the VC allocator and the
switch allocator.  iSLIP is a separable grant/accept scheme with rotating
priority pointers that advance only when their grant is accepted in the
first iteration, which is what de-synchronises the pointers and gives the
algorithm its 100%-throughput behaviour under uniform traffic.

Request sets are integer bitmasks, as the request lines of the hardware
are: bit ``line = input_port * num_vcs + vc`` of an output port's mask is
set while that input VC requests the port, and an input's granted outputs
are a ``num_ports``-bit mask.  Rotating priority is then "the lowest set
bit at or after the pointer" (:meth:`RoundRobinArbiter.pick`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class RoundRobinArbiter:
    """A rotating-priority arbiter over a fixed number of request lines."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"arbiter needs at least one line, got {size}")
        self.size = size
        self.pointer = 0

    def pick(self, mask: int) -> int:
        """The set bit of ``mask`` at or after the pointer, wrapping around.

        ``-1`` for an empty mask; no pointer update.  ``mask`` may only
        have bits below ``size`` set.
        """
        ahead = mask >> self.pointer
        if ahead:
            return self.pointer + (ahead & -ahead).bit_length() - 1
        return (mask & -mask).bit_length() - 1

    def advance_past(self, line: int) -> None:
        """Move the pointer one past ``line`` (iSLIP accepted-grant rule)."""
        if not 0 <= line < self.size:
            raise ValueError(f"line {line} out of range")
        self.pointer = (line + 1) % self.size


@dataclass(frozen=True)
class Request:
    """One switch-allocation request: input VC ``(port, vc)`` -> output port."""

    input_port: int
    vc: int
    output_port: int


class SwitchAllocator:
    """iSLIP switch allocation with input speedup.

    Grant pointers live per output port over the flattened (input, vc)
    space; accept pointers live per input port over the output space.  An
    input port may accept up to ``input_speedup`` grants per cycle (the
    paper's baseline has a 4x input-speedup crossbar); each output port
    issues at most ``output_speedup`` grants (1 in the baseline).
    """

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        input_speedup: int = 1,
        output_speedup: int = 1,
        iterations: int = 1,
    ):
        if num_ports < 1 or num_vcs < 1:
            raise ValueError("ports and VCs must be at least 1")
        if input_speedup < 1 or output_speedup < 1 or iterations < 1:
            raise ValueError("speedups and iterations must be at least 1")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.input_speedup = input_speedup
        self.output_speedup = output_speedup
        self.iterations = iterations
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

    def allocate_masks(
        self, masks: list[int], order: Sequence[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Grant a conflict-free subset of the requests in ``masks``.

        ``masks[output_port]`` holds the requesting lines of each output
        and is consumed.  ``order`` lists ``(line, output_port)`` pairs in
        arrival order; pairs whose bit is clear are ignored, so it may be a
        superset of the requests.  Returns the accepted pairs in the order
        the crossbar serves them, which three rules fix: outputs grant in
        order of their first live pair in ``order``; inputs accept in order
        of their first grant; an input takes its grants in accept-pointer
        rotation.

        With one iteration, and no more grants in this call than an input
        has crossbar slots (outputs with requests × ``output_speedup`` ≤
        ``input_speedup``: the 4× baseline on every call, since only the
        four mesh outputs allocate), no input can refuse a grant.  Every
        grant is then accepted, served by those three rules, and every
        pointer moves one past the last grant it took; no slot is counted.
        Otherwise the general grant/accept rounds below run.
        """
        num_ports, num_vcs = self.num_ports, self.num_vcs
        output_speedup = self.output_speedup
        if self.iterations == 1 and (
            num_ports - masks.count(0)
        ) * output_speedup <= self.input_speedup:
            # Grant, each output from its unmoved pointer (``pick`` inlined).
            accepted: list[tuple[int, int]] = []
            inputs = shared = visited = 0
            for line, output in order:
                mask = masks[output]
                if (visited >> output) & 1 or not (mask >> line) & 1:
                    continue
                visited |= 1 << output
                pointer = self._grant[output].pointer
                for _ in range(output_speedup):
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
                    mask ^= 1 << winner
                    if not mask:
                        break
            if shared:  # an input holds several grants: serve them in turn
                accepted = self._serve_order(accepted)
            size = num_ports * num_vcs
            for line, output in accepted:
                self._grant[output].pointer = (line + 1) % size
                self._accept[line // num_vcs].pointer = (output + 1) % num_ports
            return accepted
        vc_field = (1 << num_vcs) - 1
        accepted = []
        output_slots = [output_speedup] * num_ports
        input_slots = [self.input_speedup] * num_ports

        for iteration in range(self.iterations):
            # Grant: every output offers its free slots to its requesters
            # in rotating priority from the (unmoved) grant pointer.
            granted = [0] * num_ports
            offers: dict[int, int] = {}  # input port -> outputs granting it
            visited = 0
            for line, output in order:
                if (visited >> output) & 1 or not (masks[output] >> line) & 1:
                    continue
                visited |= 1 << output
                mask = masks[output]
                arbiter = self._grant[output]
                for _ in range(output_slots[output]):
                    if not mask:
                        break
                    winner = arbiter.pick(mask)
                    mask ^= 1 << winner
                    granted[output] |= 1 << winner
                    input_port = winner // num_vcs
                    offers[input_port] = offers.get(input_port, 0) | (1 << output)

            # Accept: every input takes offers in rotating priority while
            # it has crossbar slots.  An output with several slots may have
            # granted more than one VC of the same input; they all ride.
            newly: list[tuple[int, int]] = []
            for input_port, offered in offers.items():
                accept = self._accept[input_port]
                slots = input_slots[input_port]
                while offered and slots > 0:
                    output = accept.pick(offered)
                    offered ^= 1 << output
                    grant = self._grant[output]
                    lines = granted[output] & (vc_field << input_port * num_vcs)
                    while lines and slots > 0:
                        line = grant.pick(lines)
                        lines ^= 1 << line
                        slots -= 1
                        newly.append((line, output))
                        if iteration == 0:
                            # iSLIP: pointers advance only on a
                            # first-iteration accept.
                            grant.advance_past(line)
                            accept.advance_past(output)
            if not newly:
                break
            accepted.extend(newly)
            if iteration + 1 == self.iterations:
                break
            # A VC may win several outputs in one cycle (multicast
            # replication through the speedup-4 crossbar), but each
            # (VC, output) pair at most once; ports out of slots withdraw.
            for line, output in newly:
                masks[output] ^= 1 << line
                output_slots[output] -= 1
                input_slots[line // num_vcs] -= 1
            for port in range(num_ports):
                if output_slots[port] <= 0:
                    masks[port] = 0
                if input_slots[port] <= 0:
                    keep = ~(vc_field << port * num_vcs)
                    masks[:] = [mask & keep for mask in masks]
        return accepted

    def _serve_order(self, grants: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """``grants`` (in grant order) in the order the accept phase serves
        them when it takes them all: inputs in order of their first grant;
        an input's outputs in accept-pointer rotation, and the lines one
        output granted it in rotation from that output's grant pointer as
        the inputs served before left it."""
        num_ports, num_vcs = self.num_ports, self.num_vcs
        size = num_ports * num_vcs
        by_input: dict[int, list[tuple[int, int]]] = {}
        for grant in grants:
            by_input.setdefault(grant[0] // num_vcs, []).append(grant)
        pointers = [arbiter.pointer for arbiter in self._grant]
        served: list[tuple[int, int]] = []
        for input_port, taken in by_input.items():
            accept = self._accept[input_port].pointer
            taken.sort(
                key=lambda grant: (
                    (grant[1] - accept) % num_ports,
                    (grant[0] - pointers[grant[1]]) % size,
                )
            )
            for line, output in taken:
                pointers[output] = line + 1
            served += taken
        return served


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
        grants: list[tuple[int, int]] = []
        while mask and free_vcs:
            line = arbiter.pick(mask)
            mask ^= 1 << line
            arbiter.advance_past(line)
            lowest = free_vcs & -free_vcs
            free_vcs ^= lowest
            grants.append((line, lowest.bit_length() - 1))
        return grants
