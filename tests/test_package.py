"""The public API of the package, and the Python examples of the README."""

import re
from pathlib import Path

import rvfmc

ROOT = Path(__file__).resolve().parent.parent

# Test-only oracles live in tests/reference_*.py; none of them belongs here.
PUBLIC_API = {
    "Closure",
    "Event",
    "ExplorationReport",
    "ExploreOptions",
    "ParseError",
    "Program",
    "SolverOptions",
    "Trace",
    "VscInstance",
    "VscResult",
    "closure",
    "count_classes",
    "empty_trace",
    "explore",
    "extend",
    "parse_instance",
    "parse_program",
    "replay",
    "rvf_key",
    "verify_sc",
}


def test_public_api_is_pinned():
    assert sorted(rvfmc.__all__) == sorted(PUBLIC_API)
    namespace: dict = {}
    exec("from rvfmc import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_API


def test_readme_python_blocks_run(monkeypatch):
    """Every ``python`` block of the README runs, in order and in one
    namespace, from the root of the repository."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace: dict = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
