"""README is checked against the repository: its example list names exactly
the scripts under ``examples/``, and every ``python`` block runs as printed,
printing what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def run_block(code: str, cwd: Path) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter inside ``cwd``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


def test_the_example_list_names_every_example():
    block = README.split("Or run the examples:", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^python examples/(\w+\.py)", block, re.M)
    examples = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
    assert sorted(listed) == examples
    assert len(listed) == len(set(listed))


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_each_python_block_prints_what_its_comments_say(index, tmp_path):
    """Every ``print`` whose comment gives ``~value``s prints values that
    round to them, to the comment's decimals."""
    code = PYTHON_BLOCKS[index]
    printed = iter(run_block(code, tmp_path))
    for line in code.splitlines():
        if not line.startswith("print("):
            continue
        values = next(printed).split()
        approximate = re.findall(r"~([\d.]+)", line.partition("#")[2])
        if not approximate:
            continue
        assert len(values) == len(approximate), line
        for value, comment in zip(values, approximate):
            decimals = len(comment.partition(".")[2])
            assert round(float(value), decimals) == float(comment), line


def test_the_campaign_block_is_served_from_cache_the_second_time(tmp_path):
    (code,) = [block for block in PYTHON_BLOCKS if "cache_hits" in block]
    assert run_block(code, tmp_path)[-1] == "0"
    assert run_block(code, tmp_path)[-1] == "3"
