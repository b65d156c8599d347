"""Shared utilities: bit manipulation, mesh geometry, ASCII tables, units.

One module per part; the package itself loads none of them."""
