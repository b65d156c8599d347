"""Nanophotonic device and router models (paper sections 2-3, Figs 4-8).

One module per model; the package itself loads none of them."""
