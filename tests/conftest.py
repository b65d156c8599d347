"""Pytest configuration for the Phastlane reproduction test suite.

Shared helpers live in :mod:`helpers` and the reference oracle in the
:mod:`oracle` package (``tests`` is added to ``pythonpath`` via
``pyproject.toml``); hypothesis settings are per-test where needed.
"""

from pathlib import Path

import pytest

#: The result cache a command run from the repository root writes
#: (``--cache-dir`` defaults to ``./.repro-cache``).
REPO_CACHE = Path(__file__).resolve().parent.parent / ".repro-cache"


def cache_entries():
    return set(REPO_CACHE.rglob("*")) if REPO_CACHE.exists() else set()


@pytest.fixture(scope="session", autouse=True)
def repo_cache_is_left_alone():
    """No test writes into the repository's own result cache: a test that
    simulates through the CLI, an executor or an example points its cache
    at a temporary directory or turns it off."""
    before = cache_entries()
    yield
    written = sorted(str(path.relative_to(REPO_CACHE)) for path in cache_entries() - before)
    assert not written, f"tests wrote into {REPO_CACHE}: {written[:5]}"
