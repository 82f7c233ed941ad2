"""Rule-plugin framework for the SPICE static-analysis pass.

A *rule* is a small object with a stable id (``SPICE001``), a one-line
name, and a *rationale* naming the runtime guarantee it protects (the
rationale is what DESIGN.md and the JSON report print).  Rules inspect
one parsed file at a time through a :class:`FileContext` — the AST plus
enough import resolution to answer "what does ``np.random.rand`` really
refer to?" — and yield :class:`Violation` records.

Registering is declarative::

    @register_rule
    class MyRule(Rule):
        id = "SPICE999"
        name = "short slug"
        rationale = "which guarantee this protects"

        def check(self, ctx: FileContext) -> Iterator[Violation]:
            ...

The registry is module state by design (rules are code, not
configuration), but it is *explicit* state: the engine receives the rule
list as an argument, so tests can run any subset.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ..errors import LintError

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "RULES",
    "register_rule",
    "all_rules",
    "select_rules",
]


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    rule: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based, argparse/ruff convention
    message: str
    source: str  # the stripped offending source line

    def render(self) -> str:
        """ruff-style one-liner: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """A parsed file plus the name-resolution maps rules share.

    ``kind`` classifies the file by top-level directory: ``"src"``,
    ``"tests"``, ``"examples"``, or ``"other"``; ``package`` is the
    subpackage path under ``repro`` (``("md",)`` for
    ``src/repro/md/forces.py``, ``()`` for top-level modules).
    """

    def __init__(self, relpath: str, text: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        parts = tuple(relpath.split("/"))
        self.kind = self._classify(parts)
        self.package: Tuple[str, ...] = ()
        if len(parts) > 2 and parts[0] == "src" and parts[1] == "repro":
            self.package = parts[2:-1]
        # name -> dotted module path, for "import x.y as z" forms.
        self.module_aliases: Dict[str, str] = {}
        # name -> dotted path of the imported object, for "from m import n".
        self.from_imports: Dict[str, str] = {}
        self._collect_imports()

    @staticmethod
    def _classify(parts: Tuple[str, ...]) -> str:
        if not parts:
            return "other"
        if parts[0] == "src":
            return "src"
        if parts[0] in ("tests", "examples"):
            return parts[0]
        return "other"

    @property
    def is_rng_module(self) -> bool:
        """True for ``repro/rng.py`` — the one sanctioned RNG module."""
        return self.relpath.endswith("repro/rng.py")

    def in_package(self, *names: str) -> bool:
        """True when the file lives under ``src/repro/<name>/`` for any
        of ``names`` (or is the top-level module ``repro/<name>.py``)."""
        if self.kind != "src":
            return False
        if self.package and self.package[0] in names:
            return True
        stem = self.relpath.rsplit("/", 1)[-1].removesuffix(".py")
        return not self.package and stem in names

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import numpy.random" binds "numpy"; with asname the
                    # alias names the full dotted module.
                    target = alias.name if alias.asname else local
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = self.import_source(node)
                if module is None:  # outside src/repro: unresolvable
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{module}.{alias.name}"

    def import_source(self, node: ast.ImportFrom) -> Optional[str]:
        """Dotted absolute module a ``from ... import`` reads from.

        ``from ..store.index import f`` in ``src/repro/service/state.py``
        resolves to ``repro.store.index``; ``None`` for a relative import
        outside the package tree or one that climbs past its root.
        """
        if not node.level:
            return node.module or ""
        if self.kind != "src" or not self.relpath.startswith("src/repro/"):
            return None
        base = ("repro",) + self.package
        if node.level - 1 > len(base) - 1:  # would escape the repro package
            return None
        if node.level > 1:
            base = base[: -(node.level - 1)]
        return ".".join(base + (tuple(node.module.split("."))
                                if node.module else ()))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Best-effort dotted path of a Name/Attribute chain.

        ``np.random.rand`` -> ``numpy.random.rand`` (given ``import numpy
        as np``); ``default_rng`` -> ``numpy.random.default_rng`` (given
        ``from numpy.random import default_rng``).  Returns ``None`` for
        anything that is not a static attribute chain on an import.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(node.id)
        chain.reverse()
        head = chain[0]
        if head in self.from_imports:
            chain[0] = self.from_imports[head]
        elif head in self.module_aliases:
            chain[0] = self.module_aliases[head]
        else:
            return None
        return ".".join(chain)

    def source_line(self, lineno: int) -> str:
        """The stripped physical line ``lineno`` (1-based), '' if absent."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclass, set the class attributes, implement check."""

    id: str = ""
    name: str = ""
    rationale: str = ""

    def applies(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: every file)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations found in ``ctx``."""
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=self.id,
            path=ctx.relpath,
            line=line,
            col=col,
            message=message,
            source=ctx.source_line(line),
        )


#: id -> rule instance; populated by :func:`register_rule` at import time.
RULES: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add to the registry, id-checked."""
    rule = cls()
    if not rule.id or not rule.id.startswith("SPICE"):
        raise LintError(f"rule {cls.__name__} has no SPICExxx id")
    if rule.id in RULES:
        raise LintError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    return [RULES[k] for k in sorted(RULES)]


def _prefix_match(rule_id: str, prefixes: Tuple[str, ...]) -> bool:
    return any(rule_id.startswith(p) for p in prefixes)


def select_rules(
    select: Optional[Tuple[str, ...]] = None,
    ignore: Optional[Tuple[str, ...]] = None,
) -> List[Rule]:
    """Apply ruff-style ``--select`` / ``--ignore`` id-prefix filters.

    ``select=("SPICE2",)`` keeps the numerical-safety family;
    unknown prefixes (matching no rule) raise :class:`LintError` so typos
    fail loudly instead of silently linting nothing.
    """
    rules = all_rules()
    for prefixes in (select or ()), (ignore or ()):
        for p in prefixes:
            if not any(r.id.startswith(p) for r in rules):
                raise LintError(f"unknown rule or prefix {p!r}")
    if select:
        rules = [r for r in rules if _prefix_match(r.id, tuple(select))]
    if ignore:
        rules = [r for r in rules if not _prefix_match(r.id, tuple(ignore))]
    return rules
