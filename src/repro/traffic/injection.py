"""Packet injection processes for open-loop synthetic traffic.

The Fig 9 latency-vs-injection-rate sweeps use a Bernoulli process at each
node (a packet generated with probability ``rate`` per node per cycle).  The
SPLASH2 trace generator uses the same Bernoulli process for every profile
but Raytrace, whose profile sets a gap between bursts and so draws from the
two-state Markov (bursty) process (``SPLASH2_PROFILES``).
"""

from __future__ import annotations

import abc

from repro.sim.rng import DeterministicRng


class InjectionProcess(abc.ABC):
    """Decides, per node per cycle, whether a packet is generated."""

    @abc.abstractmethod
    def should_inject(self, cycle: int, rng: DeterministicRng) -> bool: ...


class BernoulliInjector(InjectionProcess):
    """Memoryless injection at a fixed rate (packets/node/cycle).

    >>> rng = DeterministicRng(1)
    >>> [BernoulliInjector(rate).should_inject(0, rng) for rate in (0.0, 1.0)]
    [False, True]
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"injection rate must be in [0, 1], got {rate}")
        self.rate = rate

    def should_inject(self, cycle: int, rng: DeterministicRng) -> bool:
        return rng.bernoulli(self.rate)


class BurstyInjector(InjectionProcess):
    """Two-state Markov-modulated Bernoulli process (on/off bursts).

    While *on*, packets are injected at ``burst_rate``; while *off*, none
    are.  State transition probabilities are derived from the mean burst
    and gap lengths, so the long-run rate is
    ``burst_rate * burst_len / (burst_len + gap_len)``.
    """

    def __init__(self, burst_rate: float, burst_length: float, gap_length: float):
        if not 0.0 < burst_rate <= 1.0:
            raise ValueError(f"burst rate must be in (0, 1], got {burst_rate}")
        if burst_length <= 0 or gap_length < 0:
            raise ValueError("burst length must be positive, gap non-negative")
        self.burst_rate = burst_rate
        self.burst_length = burst_length
        self.gap_length = gap_length
        self._p_exit_burst = 1.0 / burst_length
        self._p_exit_gap = 1.0 if gap_length == 0 else 1.0 / gap_length
        self._in_burst = True

    def should_inject(self, cycle: int, rng: DeterministicRng) -> bool:
        if self._in_burst:
            if rng.bernoulli(self._p_exit_burst):
                self._in_burst = False
        elif rng.bernoulli(self._p_exit_gap):
            self._in_burst = True
        return self._in_burst and rng.bernoulli(self.burst_rate)

