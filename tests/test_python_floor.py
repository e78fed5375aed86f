"""The package parses under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import hermsig

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_sources_parse_at_the_declared_floor():
    # a regex, since tomllib is itself newer than the floor
    m = re.search(
        r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', PYPROJECT.read_text(encoding="utf-8"), re.M
    )
    assert m, "pyproject.toml declares no requires-python floor"
    floor = (int(m.group(1)), int(m.group(2)))
    sources = sorted(Path(hermsig.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
