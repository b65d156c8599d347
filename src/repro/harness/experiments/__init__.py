"""One module per paper figure/table; each exposes ``compute`` and ``render``.

The package itself loads none of them, nor the shared ``configs``."""
