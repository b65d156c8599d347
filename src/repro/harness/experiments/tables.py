"""Tables 1-4 of the paper, derived from the models/configurations."""

from __future__ import annotations

from repro.electrical.config import ElectricalConfig
from repro.photonics.dse import table1_configuration
from repro.util.tables import AsciiTable

#: Table 3 of the paper: benchmark -> experimental data set.
SPLASH2_INPUT_SETS: dict[str, str] = {
    "barnes": "64 K particles",
    "cholesky": "tk29.O",
    "fft": "4 M points",
    "lu": "2048x2048 matrix",
    "ocean": "2050x2050 grid",
    "radix": "64 M integers",
    "raytrace": "balls4",
    "water-nsquared": "512 molecules",
    "water-spatial": "512 molecules",
    "fmm": "512 K particles",
}

#: Table 4 of the paper: the cache/memory configuration the traces model.
CACHE_CONFIGURATION: dict[str, str] = {
    "simulated_cache_sizes": "32KB L1I, 32KB L1D, 256KB L2",
    "actual_cache_sizes": "64KB L1I, 64KB L1D, 2MB L2",
    "cache_associativity": "4 Way L1, 16 Way L2",
    "block_size": "32B L1, 64B L2",
    "memory_latency": "80 cycles",
}


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
