"""Every function the benchmark tracer wraps still exists in the package.

``bench/spans.py`` names the functions it times (``TRACED``) and counts
(``COUNTED``) as ``<module>.<function>`` inside ``dcqe``. The names are read
with ``ast`` so that this check runs without importing ``bench``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tuple_of(tree: ast.Module, name: str) -> tuple[str, ...]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


TREE = ast.parse(SPANS.read_text(encoding="utf-8"))
NAMES = [*_tuple_of(TREE, "TRACED"), *_tuple_of(TREE, "COUNTED")]


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_is_a_dcqe_callable(name):
    module, _, function = name.rpartition(".")
    assert callable(getattr(importlib.import_module(f"dcqe.{module}"), function, None))
