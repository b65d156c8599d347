"""Tests for the iSLIP allocators."""

import pytest

from helpers import arbiter_advance_past, arbiter_pick
from repro.electrical.islip import (
    Request,
    RoundRobinArbiter,
    SwitchAllocator,
    VcAllocator,
)


class TestRoundRobinArbiter:
    """The one-arbiter statement (``helpers.arbiter_pick`` /
    ``arbiter_advance_past``) the mask allocators are tested against."""

    def test_picks_at_or_after_pointer(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.pointer = 2
        assert arbiter_pick(arbiter, 0b1001) == 3

    def test_wraps_around(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.pointer = 3
        assert arbiter_pick(arbiter, 0b0010) == 1

    def test_empty_requests_yield_none(self):
        assert arbiter_pick(RoundRobinArbiter(4), 0) == -1  # no line

    def test_advance_past(self):
        arbiter = RoundRobinArbiter(4)
        arbiter_advance_past(arbiter, 3)
        assert arbiter.pointer == 0

    def test_fairness_over_rounds(self):
        """With all lines always requesting, grants rotate evenly."""
        arbiter = RoundRobinArbiter(3)
        grants = []
        for _ in range(9):
            line = arbiter_pick(arbiter, 0b111)
            grants.append(line)
            arbiter_advance_past(arbiter, line)
        assert grants == [0, 1, 2] * 3

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_pick_is_choose_over_a_bitmask(self):
        """The winner is the requesting line nearest at or after the pointer."""
        arbiter = RoundRobinArbiter(50)
        for pointer in range(50):
            arbiter.pointer = pointer
            for lines in ({0}, {49}, {3, 17, 40}, {pointer}, set(range(50))):
                mask = sum(1 << line for line in lines)
                expected = min(lines, key=lambda line: (line - pointer) % 50)
                assert arbiter_pick(arbiter, mask) == expected


class TestSwitchAllocator:
    def make(self, speedup=1):
        return SwitchAllocator(num_ports=5, num_vcs=2, input_speedup=speedup)

    def test_conflict_free_subset(self):
        allocator = self.make()
        requests = [Request(0, 0, 2), Request(1, 0, 2), Request(2, 0, 3)]
        granted = allocator.allocate(requests)
        outputs = [r.output_port for r in granted]
        assert len(outputs) == len(set(outputs))
        assert len(granted) == 2  # output 2 grants once, output 3 once

    def test_output_speedup_one_limits_output(self):
        allocator = self.make()
        requests = [Request(i, 0, 4) for i in range(4)]
        assert len(allocator.allocate(requests)) == 1

    def test_input_speedup_allows_multiple_accepts(self):
        allocator = self.make(speedup=4)
        requests = [Request(0, vc, vc) for vc in range(2)]  # two VCs, two outputs
        assert len(allocator.allocate(requests)) == 2

    def test_input_speedup_one_limits_input(self):
        allocator = self.make(speedup=1)
        requests = [Request(0, 0, 1), Request(0, 1, 2)]
        assert len(allocator.allocate(requests)) == 1

    def test_no_requests(self):
        assert self.make().allocate([]) == []

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            self.make().allocate([Request(9, 0, 0)])
        with pytest.raises(ValueError):
            self.make().allocate([Request(0, 9, 0)])

    def test_pointer_desynchronisation(self):
        """Repeated full contention rotates grants across inputs (iSLIP)."""
        allocator = self.make()
        winners = []
        for _ in range(4):
            granted = allocator.allocate([Request(i, 0, 0) for i in range(4)])
            assert len(granted) == 1
            winners.append(granted[0].input_port)
        assert len(set(winners)) > 1  # not starving a single input

    def test_multicast_vc_can_win_two_outputs(self):
        allocator = self.make(speedup=4)
        requests = [Request(0, 0, 1), Request(0, 0, 2)]
        granted = allocator.allocate(requests)
        assert len(granted) == 2

    def test_masks_core_ignores_order_pairs_that_do_not_request(self):
        allocator = SwitchAllocator(5, 2, input_speedup=4)
        masks = [0, 0b0100, 0b0001, 0, 0]  # line 2 -> output 1, line 0 -> output 2
        order = [(0, 1), (0, 2), (2, 1)]  # (0, 1) is not requesting
        assert allocator.allocate_masks(masks, order) == [(0, 2), (2, 1)]
        assert masks == [0, 0b0100, 0b0001, 0, 0]  # read, not consumed


class TestVcAllocator:
    """Lines are ``port * 2 + vc``; free downstream VCs are a bitmask."""

    def test_grants_free_vcs(self):
        allocator = VcAllocator(num_ports=5, num_vcs=2)
        assert allocator.assign(3, 0b01, 0b11) == [(0, 0)]

    def test_no_free_vcs_no_grant(self):
        allocator = VcAllocator(5, 2)
        assert allocator.assign(3, 0b01, 0) == []

    def test_two_requesters_share_free_vcs(self):
        allocator = VcAllocator(5, 2)
        assert allocator.assign(3, 0b101, 0b11) == [(0, 0), (2, 1)]

    def test_scarce_vc_goes_to_rotating_winner(self):
        allocator = VcAllocator(5, 2)
        first = allocator.assign(3, 0b101, 0b01)
        second = allocator.assign(3, 0b101, 0b01)
        assert first == [(0, 0)] and second == [(2, 0)]  # pointer advanced

    def test_multicast_groups_allocate_in_parallel(self):
        """A multicast VC asks several outputs at once; each output has its
        own arbiter, so both grant it in the same cycle."""
        allocator = VcAllocator(5, 2)
        assert allocator.assign(1, 0b01, 0b01) == [(0, 0)]
        assert allocator.assign(2, 0b01, 0b01) == [(0, 0)]
