"""The bitmask iSLIP core against the set-based allocators it replaced.

``Reference*`` below is the grant/accept/VC-allocation code this repo
shipped before ``repro.electrical.islip`` was restated over bitmasks, kept
here as the oracle, run at the allocator's one iteration and one grant per
output.  Requests are plain ``(input_port, vc, output_port)`` tuples.

Input speedups 1 to 5 put inputs on both sides of their slots: with more
grants than slots an input refuses the last ones in accept-pointer
rotation.  Mutants the comparison kills: a refused grant still moving its
output's grant pointer; grants cut to ``input_speedup`` before the rotation
sort; an accept pointer moved past the *first* output an input took;
inputs served in port order instead of first-grant order.
"""

from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.electrical.islip import Request, SwitchAllocator, VcAllocator

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


def assert_matches(allocator, reference, requests):
    accepted = allocator.allocate([Request(*r) for r in requests])
    assert [(r.input_port, r.vc, r.output_port) for r in accepted] == (
        reference.allocate(requests)
    )
    assert [a.pointer for a in allocator._grant] == reference.grant
    assert [a.pointer for a in allocator._accept] == reference.accept


@settings(max_examples=400, deadline=None)
@given(request_cycles(), st.sampled_from([1, 2, 3, 4, 5]))
def test_switch_allocation_matches_the_set_based_reference(drawn, input_speedup):
    num_vcs, cycles = drawn
    allocator = SwitchAllocator(PORTS, num_vcs, input_speedup=input_speedup)
    reference = ReferenceSwitchAllocator(num_vcs, input_speedup, iterations=1)
    for requests in cycles:
        grants = Counter(r[0] for r in reference._grant_phase(requests))
        refused = max(grants.values(), default=0) > input_speedup
        event("an input refuses a grant" if refused else "every grant taken")
        assert_matches(allocator, reference, requests)


@pytest.mark.parametrize("input_speedup", [1, 2, 3, 4])
def test_a_refused_grant_leaves_its_output_pointer_unmoved(input_speedup):
    """One multicast VC granted by ``input_speedup + 1`` outputs, with the
    accept pointer part-way round: the input takes its grants in rotation
    from that pointer and refuses the last, whose output keeps its grant
    pointer while every other moves past the line."""
    outputs = input_speedup + 1
    start = 2
    allocator = SwitchAllocator(PORTS, 2, input_speedup=input_speedup)
    reference = ReferenceSwitchAllocator(2, input_speedup, iterations=1)
    allocator._accept[0].pointer = reference.accept[0] = start
    requests = [(0, 0, output) for output in range(outputs)]
    assert_matches(allocator, reference, requests)
    rotation = sorted(range(outputs), key=lambda output: (output - start) % PORTS)
    refused = rotation[-1]
    assert [a.pointer for a in allocator._grant[:outputs]] == [
        0 if output == refused else 1 for output in range(outputs)
    ]
    assert allocator._accept[0].pointer == (rotation[-2] + 1) % PORTS


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 4, 10]), st.integers(1, 5), st.data())
def test_the_one_live_output_grant_equals_the_full_allocation(
    num_vcs, input_speedup, data
):
    """When one output holds every ready line, the router grants with
    ``allocate_one``: the same accepted pair as ``allocate_masks`` over all
    of that output's lines, in any order, and every pointer equal."""
    size = PORTS * num_vcs
    output = data.draw(st.integers(0, PORTS - 1))
    mask = data.draw(st.integers(1, (1 << size) - 1))
    grant = data.draw(st.lists(st.integers(0, size - 1), min_size=PORTS, max_size=PORTS))
    accept = data.draw(st.lists(st.integers(0, PORTS - 1), min_size=PORTS, max_size=PORTS))
    order = data.draw(
        st.permutations([(line, output) for line in range(size) if mask >> line & 1])
    )
    direct, full = (
        SwitchAllocator(PORTS, num_vcs, input_speedup=input_speedup) for _ in range(2)
    )
    for allocator in (direct, full):
        for arbiter, pointer in zip(allocator._grant, grant):
            arbiter.pointer = pointer
        for arbiter, pointer in zip(allocator._accept, accept):
            arbiter.pointer = pointer
    masks = [mask if port == output else 0 for port in range(PORTS)]
    assert [(direct.allocate_one(output, mask), output)] == full.allocate_masks(
        masks, order
    )
    assert [a.pointer for a in direct._grant + direct._accept] == [
        a.pointer for a in full._grant + full._accept
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
    allocator = SwitchAllocator(PORTS, 2, input_speedup=4)
    with pytest.raises(ValueError):
        allocator.allocate([Request(0, 0, 1), request_])
    # Validation precedes allocation: the valid request moved no pointer.
    assert [a.pointer for a in allocator._grant + allocator._accept] == [0] * 10
