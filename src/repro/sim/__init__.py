"""Cycle-driven simulation kernel: clocked components, stats, deterministic RNG.

One module per part; the package itself loads none of them."""
