"""Tables 1-4 of the paper, derived from the models/configurations."""

from __future__ import annotations

from repro.electrical.config import ElectricalConfig
from repro.photonics.dse import table1_configuration
from repro.traffic.splash2 import CACHE_CONFIGURATION, SPLASH2_INPUT_SETS
from repro.util.tables import AsciiTable


def table1() -> dict[str, object]:
    """Table 1: optical network configuration (model-derived)."""
    return table1_configuration()


def table2() -> dict[str, object]:
    """Table 2: baseline electrical router parameters."""
    return ElectricalConfig().describe()


def table3() -> dict[str, str]:
    """Table 3: SPLASH2 benchmarks and input data sets."""
    return dict(SPLASH2_INPUT_SETS)


def table4() -> dict[str, str]:
    """Table 4: cache and memory-controller parameters."""
    return dict(CACHE_CONFIGURATION)


def _render_kv(title: str, rows: dict[str, object]) -> str:
    table = AsciiTable(["parameter", "value"], title=title)
    for key, value in rows.items():
        table.add_row([key.replace("_", " "), value])
    return table.render()


def render_all() -> str:
    blocks = [
        _render_kv("Table 1: optical network configuration", table1()),
        _render_kv("Table 2: baseline electrical router parameters", table2()),
        _render_kv("Table 3: SPLASH2 benchmarks and input sets", table3()),
        _render_kv("Table 4: cache and memory parameters", table4()),
    ]
    return "\n\n".join(blocks)
