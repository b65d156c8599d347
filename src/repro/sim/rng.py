"""Deterministic random-number generation for reproducible simulations.

Every stochastic element of the simulators (injection processes, synthetic
trace generation, backoff jitter) draws from a :class:`DeterministicRng`
seeded from an experiment-level root seed plus a stable stream label, so a
run is reproducible bit-for-bit regardless of module import order or the
number of components instantiated.
"""

from __future__ import annotations

import hashlib
import random


def stream_key(root_seed: int, stream: str) -> int:
    """The 64-bit key of stream ``stream`` under ``root_seed``.

    Every generator in the repo — Mersenne or counter-based — is keyed
    this way, so distinct stream labels never share a sequence.
    """
    digest = hashlib.sha256(f"{root_seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRng(random.Random):
    """A ``random.Random`` seeded from a root seed and a stream label.

    >>> a = DeterministicRng(42, "node-3")
    >>> b = DeterministicRng(42, "node-3")
    >>> a.random() == b.random()
    True
    """

    def __init__(self, root_seed: int, stream: str = "") -> None:
        self.root_seed = int(root_seed)
        self.stream = stream
        super().__init__(stream_key(self.root_seed, stream))

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self.random() < p

    def geometric(self, p: float) -> int:
        """Number of failures before the first success (support 0, 1, ...):
        one ``random()`` per trial, the draw :meth:`bernoulli` makes."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {p}")
        random = self.random
        count = 0
        while random() >= p:
            count += 1
        return count
