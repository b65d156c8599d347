"""The bitmask iSLIP core against the set-based allocators it replaced.

``Reference*`` below is the grant/accept/VC-allocation code this repo
shipped before ``repro.electrical.islip`` was restated over bitmasks, kept
here as the oracle.  It is restricted to ``output_speedup == 1``, where it
is correct (with more slots it drops a second grant to the same input).
Requests are plain ``(input_port, vc, output_port)`` tuples.

Input speedups 1, 2, 4 and 5 put the allocator on both sides of its slot
rule (one iteration, requesting outputs ≤ input slots: every grant is
accepted without counting slots; otherwise the general rounds).  Mutants
the comparison kills: an accept pointer moved past the *first* output an
input took; grants served in output-port order, or inputs in port order,
instead of first-grant order; the rule's ``≤`` turned into ``<`` (killed by
:func:`test_the_slot_rule_takes_the_side_it_states`, the only test that
sees which side ran: the two sides agree whenever both may run).
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.electrical.islip import (
    Request,
    RoundRobinArbiter,
    SwitchAllocator,
    VcAllocator,
)

PORTS = 5


def choose(pointer, size, lines):
    for offset in range(size):
        if (line := (pointer + offset) % size) in lines:
            return line
    return None


class ReferenceSwitchAllocator:
    def __init__(self, num_vcs, input_speedup, iterations):
        self.num_vcs = num_vcs
        self.input_speedup = input_speedup
        self.iterations = iterations
        self.grant = [0] * PORTS
        self.accept = [0] * PORTS

    def allocate(self, requests):
        pending, accepted = list(requests), []
        output_free = [True] * PORTS
        input_slots = [self.input_speedup] * PORTS
        for iteration in range(self.iterations):
            granted = self._grant_phase(pending)
            newly = self._accept_phase(granted, input_slots, first=iteration == 0)
            if not newly:
                break
            accepted.extend(newly)
            for input_port, _, output_port in newly:
                output_free[output_port] = False
                input_slots[input_port] -= 1
            pending = [
                r
                for r in pending
                if r not in accepted and output_free[r[2]] and input_slots[r[0]] > 0
            ]
        return accepted

    def _grant_phase(self, pending):
        by_output = {}
        for request in pending:
            by_output.setdefault(request[2], []).append(request)
        granted = []
        for output_port, candidates in by_output.items():
            lines = {p * self.num_vcs + v: (p, v, o) for p, v, o in candidates}
            size = PORTS * self.num_vcs
            granted.append(lines[choose(self.grant[output_port], size, lines)])
        return granted

    def _accept_phase(self, granted, input_slots, first):
        by_input = {}
        for request in granted:
            by_input.setdefault(request[0], []).append(request)
        accepted = []
        for input_port, candidates in by_input.items():
            by_output = {r[2]: r for r in candidates}
            for _ in range(input_slots[input_port]):
                output = choose(self.accept[input_port], PORTS, by_output)
                if output is None:
                    break
                _, vc, _ = request = by_output.pop(output)
                accepted.append(request)
                if first:
                    size = PORTS * self.num_vcs
                    self.grant[output] = (input_port * self.num_vcs + vc + 1) % size
                    self.accept[input_port] = (output + 1) % PORTS
        return accepted


class ReferenceVcAllocator:
    def __init__(self, num_vcs):
        self.num_vcs = num_vcs
        self.pointers = [0] * PORTS

    def allocate(self, requests, free_vcs):
        by_output = {}
        for input_port, vc, output_port in requests:
            by_output.setdefault(output_port, []).append((input_port, vc))
        grants = {}
        size = PORTS * self.num_vcs
        for output_port, requesters in by_output.items():
            available = list(free_vcs.get(output_port, []))
            remaining = {p * self.num_vcs + v: (p, v) for p, v in requesters}
            while available and remaining:
                line = choose(self.pointers[output_port], size, remaining)
                port, vc = remaining.pop(line)
                grants[(port, vc, output_port)] = available.pop(0)
                self.pointers[output_port] = (line + 1) % size
        return grants


@st.composite
def request_cycles(draw):
    """(num_vcs, cycles of unique requests in arbitrary order); a VC may ask
    for several outputs in one cycle, as a multicast flit does."""
    num_vcs = draw(st.sampled_from([1, 2, 4, 10]))
    request = st.tuples(
        st.integers(0, PORTS - 1), st.integers(0, num_vcs - 1), st.integers(0, PORTS - 1)
    )
    cycles = draw(
        st.lists(st.lists(request, max_size=24, unique=True), min_size=1, max_size=8)
    )
    return num_vcs, cycles


def slots_cannot_run_out(requests, input_speedup, iterations):
    """The allocator's rule for taking every grant (``output_speedup`` 1)."""
    return iterations == 1 and len({r[2] for r in requests}) <= input_speedup


@settings(max_examples=400, deadline=None)
@given(
    request_cycles(),
    st.sampled_from([1, 2, 4, 5]),
    st.sampled_from([1, 2, 3]),
)
def test_switch_allocation_matches_the_set_based_reference(
    drawn, input_speedup, iterations
):
    num_vcs, cycles = drawn
    allocator = SwitchAllocator(
        PORTS, num_vcs, input_speedup=input_speedup, iterations=iterations
    )
    reference = ReferenceSwitchAllocator(num_vcs, input_speedup, iterations)
    for requests in cycles:
        event(
            "every grant taken"
            if slots_cannot_run_out(requests, input_speedup, iterations)
            else "general rounds"
        )
        accepted = allocator.allocate([Request(*r) for r in requests])
        assert [(r.input_port, r.vc, r.output_port) for r in accepted] == (
            reference.allocate(requests)
        )
        assert [a.pointer for a in allocator._grant] == reference.grant
        assert [a.pointer for a in allocator._accept] == reference.accept


@pytest.mark.parametrize("input_speedup", [1, 2, 4, 5])
@pytest.mark.parametrize("iterations", [1, 2])
def test_the_slot_rule_takes_the_side_it_states(
    input_speedup, iterations, monkeypatch
):
    """A multicast VC asking for ``outputs`` ports beside a rival per port,
    on both sides of ``outputs == input_speedup``, against the reference.
    Only the general rounds call ``RoundRobinArbiter.pick`` (the other side
    inlines it), so the calls show which side ran."""
    picks = []
    pick = RoundRobinArbiter.pick
    monkeypatch.setattr(
        RoundRobinArbiter,
        "pick",
        lambda self, mask: picks.append(mask) or pick(self, mask),
    )
    for outputs in (input_speedup, input_speedup + 1):
        if outputs > PORTS:
            continue
        requests = [(0, 0, port) for port in range(outputs)] + [
            (port, 1, port) for port in range(1, outputs)
        ]
        allocator = SwitchAllocator(
            PORTS, 2, input_speedup=input_speedup, iterations=iterations
        )
        reference = ReferenceSwitchAllocator(2, input_speedup, iterations)
        for _ in range(3):  # the pointers move between calls
            picks.clear()
            accepted = allocator.allocate([Request(*r) for r in requests])
            assert [(r.input_port, r.vc, r.output_port) for r in accepted] == (
                reference.allocate(requests)
            )
            assert [a.pointer for a in allocator._grant] == reference.grant
            assert [a.pointer for a in allocator._accept] == reference.accept
            taken = slots_cannot_run_out(requests, input_speedup, iterations)
            assert taken == (iterations == 1 and outputs == input_speedup)
            assert not picks if taken else picks


@settings(max_examples=200, deadline=None)
@given(request_cycles(), st.sampled_from([1, 2, 3]))
# Output 1's pointer left at line 5, inside input 1's lines 4 and 6; input
# 0, first granted by output 0, takes its line of output 1 first and moves
# that pointer, so input 1 then takes lines 4 and 6 in that order.
@example(
    drawn=(4, [[(1, 0, 1)], [(0, 0, 0), (1, 0, 1), (1, 2, 1), (0, 1, 1)]]),
    output_speedup=3,
)
# Alone, input 1 takes them from the pointer: line 6, then line 4.
@example(drawn=(4, [[(1, 0, 1)], [(1, 0, 1), (1, 2, 1)]]), output_speedup=2)
def test_one_round_with_slots_to_spare_is_two_rounds(drawn, output_speedup):
    """With an input slot for every grant any call can make, a second round
    finds every output withdrawn or out of requesters, so two rounds (the
    general path) state what one round (every grant taken) must do: equal
    call for call, pointers included.  The reference stops at one grant per
    output; this is the check of several, to one input or to many (kills
    an input's lines served in line order, and the grant pointer read
    unmoved for a later input)."""
    num_vcs, cycles = drawn
    one, two = (
        SwitchAllocator(
            PORTS,
            num_vcs,
            input_speedup=PORTS * output_speedup,
            output_speedup=output_speedup,
            iterations=iterations,
        )
        for iterations in (1, 2)
    )
    for requests in cycles:
        batch = [Request(*r) for r in requests]
        assert one.allocate(batch) == two.allocate(batch)
        assert [a.pointer for a in one._grant + one._accept] == [
            a.pointer for a in two._grant + two._accept
        ]


@settings(max_examples=200, deadline=None)
@given(request_cycles(), st.data())
def test_vc_allocation_matches_the_set_based_reference(drawn, data):
    num_vcs, cycles = drawn
    allocator = VcAllocator(PORTS, num_vcs)
    reference = ReferenceVcAllocator(num_vcs)
    free = st.dictionaries(
        st.integers(0, PORTS - 1),
        st.lists(st.integers(0, num_vcs - 1), unique=True).map(sorted),
    )
    for requests in cycles:
        free_vcs = data.draw(free)
        masks = [0] * PORTS
        for input_port, vc, output_port in requests:
            masks[output_port] |= 1 << input_port * num_vcs + vc
        grants = {
            (*divmod(line, num_vcs), output_port): out_vc
            for output_port, mask in enumerate(masks)
            for line, out_vc in allocator.assign(
                output_port, mask, sum(1 << v for v in free_vcs.get(output_port, ()))
            )
        }
        assert grants == reference.allocate(requests, free_vcs)
        assert [a.pointer for a in allocator._arbiters] == reference.pointers


@pytest.mark.parametrize(
    "request_", [Request(5, 0, 0), Request(-1, 0, 0), Request(0, 2, 0), Request(0, 0, 5)]
)
def test_out_of_range_requests_still_raise(request_):
    allocator = SwitchAllocator(PORTS, 2, input_speedup=4, iterations=2)
    with pytest.raises(ValueError):
        allocator.allocate([Request(0, 0, 1), request_])
    # Validation precedes allocation: the valid request moved no pointer.
    assert [a.pointer for a in allocator._grant + allocator._accept] == [0] * 10
