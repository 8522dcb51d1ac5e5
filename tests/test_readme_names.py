"""Every name the README gives for the library's protocol pieces and checks exists.

The protocol-pieces and Validation paragraphs of ``README.md`` name functions,
classes and errors in backticks. Each must be a ``dcqe`` module (``dcqe.x``)
or an attribute, possibly dotted (``Class.method``), of one of its modules,
so that a rename or a deletion cannot leave the README behind.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import dcqe

README = Path(__file__).resolve().parent.parent / "README.md"
PARAGRAPH_STARTS = ("The protocol pieces are available individually",
                    "Each array is checked once, where it enters the package")
MODULES = [importlib.import_module(f"dcqe.{info.name}")
           for info in pkgutil.iter_modules(dcqe.__path__) if not info.name.startswith("_")]


def _paragraph(start: str) -> str:
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    found = [p for p in paragraphs if p.startswith(start)]
    assert len(found) == 1, f"README has {len(found)} paragraphs starting {start!r}"
    return found[0]


NAMES = sorted({name for start in PARAGRAPH_STARTS
                for name in re.findall(r"`([^`]+)`", _paragraph(start))})


def _resolves(name: str) -> bool:
    if name.startswith("dcqe."):
        return importlib.util.find_spec(name) is not None
    head, *rest = name.split(".")
    for module in MODULES:
        value = getattr(module, head, None)
        for attr in rest:
            value = getattr(value, attr, None)
        if value is not None:
            return True
    return False


def test_paragraphs_name_the_protocol_pieces():
    assert {"generate_anchor", "make_intermediate", "fit_integration",
            "assemble_collaborative", "Dataset"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_is_in_dcqe(name):
    assert _resolves(name), f"README names `{name}`, which no dcqe module defines"
