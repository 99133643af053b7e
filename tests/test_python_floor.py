"""Every source file parses as Python 3.10, the `requires-python` floor.

CI runs the suite on 3.10 too; this catches newer syntax on any
interpreter.  It cannot catch a call into a library newer than 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
