"""Workloads: synthetic patterns, injection processes, traces, SPLASH2 profiles.

One module per part; the package itself loads none of them."""
