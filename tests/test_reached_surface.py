"""Source is what a driver reaches: every public top-level function and
class in ``src/repro`` has a caller outside ``tests/``.

A definition counts as reached when its name is used — as a ``Name`` or an
``Attribute`` — in ``src`` outside its own body, or anywhere in ``bench``,
``benchmarks``, ``examples`` or ``tools``, or when a CI workflow names it.
Package re-exports (``from .x import name`` and ``__all__`` strings) are
not uses.  A decorated definition counts as reached, because the registry
its decorator fills is what reaches it.

A name only tests reach either goes (with a ``RETIRED_NAMES`` row in
``repro.lint.rules_api``) or stays on :data:`ALLOWED` with the reason it
is kept.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DRIVER_DIRS = ("bench", "benchmarks", "examples", "tools")

#: Public definitions kept although only tests reach them, with the reason.
ALLOWED: Dict[str, str] = {
    "Force": "the force-term protocol: a declaration of what a term "
             "implements, not a path",
    "canonical_run_report": "verify tool: strips a run report's volatile "
                            "fields so a resumed campaign compares equal",
    "validate_record": "safety: checks a store record's fields before "
                       "they are trusted",
    "ManualClock": "a test fake: the tracer's deterministic clock",
    "calibrate_reduced_friction": "behind EXPERIMENTS.md's VAL-3D "
                                  "paragraph (repro.analysis.calibration)",
    "voltage_from_tilt": "behind EXPERIMENTS.md's VAL-3D paragraph "
                         "(repro.pore.voltage)",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(root: Path) -> Iterator[Path]:
    yield from sorted(root.rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST, skip: ast.AST = None) -> Set[str]:
    """Every ``Name`` id and ``Attribute`` attr under ``tree``, leaving out
    the subtree ``skip``."""
    names: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_definitions() -> List[Tuple[str, ast.AST, ast.Module]]:
    """``(relative path, definition, module)`` for each public top-level
    function and class of the package."""
    out = []
    for path in _python_files(PACKAGE):
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
                out.append((path.relative_to(ROOT).as_posix(), node, tree))
    return out


def unreached() -> Dict[str, str]:
    """Name → defining file of each public definition nothing but tests
    reaches."""
    definitions = public_definitions()
    modules = {rel: tree for rel, _, tree in definitions}
    used_in = {rel: _used_names(tree) for rel, tree in modules.items()}
    elsewhere: Set[str] = set()
    for path in _python_files(PACKAGE):
        rel = path.relative_to(ROOT).as_posix()
        if rel not in modules:
            elsewhere |= _used_names(_parse(path))
    for directory in DRIVER_DIRS:
        for path in _python_files(ROOT / directory):
            elsewhere |= _used_names(_parse(path))
    workflows = " ".join(p.read_text(encoding="utf-8") for p in
                         sorted((ROOT / ".github" / "workflows").glob("*.yml")))

    out: Dict[str, str] = {}
    for rel, node, tree in definitions:
        name = node.name
        if node.decorator_list or name in elsewhere:
            continue
        if any(name in names for other, names in used_in.items() if other != rel):
            continue
        if name in _used_names(tree, skip=node):
            continue
        if re.search(rf"\b{re.escape(name)}\b", workflows):
            continue
        out[name] = rel
    return out


def test_every_public_definition_has_a_driver():
    stray = {name: rel for name, rel in unreached().items()
             if name not in ALLOWED}
    assert not stray, (
        "public definitions only tests reach (delete them with a "
        "RETIRED_NAMES row, or allow-list them with a reason): "
        + ", ".join(f"{rel}::{name}" for name, rel in sorted(stray.items())))


def test_allow_list_is_current():
    """An allowed name that gained a driver, or was deleted, leaves the
    list: the list is exactly what is test-only today."""
    stale = sorted(set(ALLOWED) - set(unreached()))
    assert not stale, f"allow-list entries no longer test-only: {stale}"


def test_scan_sees_a_test_only_definition(tmp_path, monkeypatch):
    """The scan is not vacuous: a definition used only by a test is
    reported, and a use from a driver directory clears it."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import orphan, kept\n")
    (pkg / "mod.py").write_text(
        "def orphan():\n    return orphan\n\n\ndef kept():\n    return 1\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "import repro\n\nrepro.kept()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro import orphan\n\norphan()\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreached() == {"orphan": "src/repro/mod.py"}
