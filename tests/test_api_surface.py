"""Every public top-level function and class of ``biaslens`` has a reader
outside the test suite: code of the package, the README or the benchmark.
A name that only tests call is API that no run uses, so it is deleted, or
listed in ``ALLOWED`` with the reason to keep it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biaslens"

ALLOWED = {
    "cross_entropy": "the unweighted loss the acceptance tests hold weighted_cross_entropy to",
    "build_subset_schedule": "the dominant-share subset schedule of the acceptance tests",
    "inverse_op": "the reference that the round-trip tests of the geometric augment ops invert with",
}


def _modules() -> list[tuple[str, ast.Module]]:
    return [(p.relative_to(SRC).as_posix(), ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(SRC.rglob("*.py"))]


def _public_definitions() -> list[tuple[str, str]]:
    return [
        (module, node.name)
        for module, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _package_references() -> set[str]:
    """Names the package's code reads: as a name, an attribute, or a
    quoted forward-reference annotation. An import alone reads nothing."""
    names = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def _words_outside_the_package() -> set[str]:
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").rglob("*.py"))]
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(texts)))


def _unread() -> list[str]:
    read = _package_references() | _words_outside_the_package()
    return [f"{module}: {name}" for module, name in _public_definitions() if name not in read]


def test_every_public_name_has_a_reader():
    unread = [entry for entry in _unread() if entry.split(": ")[1] not in ALLOWED]
    assert unread == [], "public names that only tests use: delete them or list them in ALLOWED"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_every_allowed_name_is_needed(name):
    """An allowed name exists and has no other reader, so the entry is not stale."""
    assert any(entry.endswith(f": {name}") for entry in _unread()), name
