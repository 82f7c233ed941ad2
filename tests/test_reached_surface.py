"""Source is what a driver reaches: every public top-level function and
class, every public method and every defaulted parameter in
``src/repro`` has a user outside ``tests/``.

A definition counts as reached when its name is used — as a ``Name`` or an
``Attribute`` — in ``src`` outside its own body, or anywhere in ``bench``,
``benchmarks``, ``examples`` or ``tools``, or when a CI workflow names it.
Package re-exports (``from .x import name`` and ``__all__`` strings) are
not uses.  A decorated definition counts as reached, because the registry
its decorator fills is what reaches it.

A public method of a public class counts as reached when its name is used
the same way (a string constant counts too: ``getattr`` reads a method by
name) outside its own body.

A defaulted parameter of a public ``def`` (or of any ``__init__``) is an
option, and so is a defaulted field of a public dataclass; it counts as
reached when some call outside ``tests/`` passes it — by keyword,
positionally past its index, or through ``*``/``**`` — or, for a field,
through ``dataclasses.replace``.  The callee is matched by name, an
``__init__`` or a dataclass by its class name (``cls(...)`` inside the
class body too).  A field that code outside tests assigns or mutates after
construction, or one declared ``field(init=False)``, is state, not an
option.  An option nothing but tests sets has one value in use, and so has
one every driver call sets to the same literal or UPPER_CASE constant
(seeds and handles excepted); either becomes a constant.

A name only tests reach either goes (with a ``RETIRED_NAMES`` row in
``repro.lint.rules_api`` where the name is distinctive) or stays on
:data:`ALLOWED`, :data:`ALLOWED_METHODS` or :data:`ALLOWED_OPTIONS` with
the reason it is kept.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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
    """An allowed name, method or option that gained a driver, or was
    deleted, leaves its list: each list is exactly what is test-only
    today."""
    stale = (sorted(set(ALLOWED) - set(unreached()))
             + sorted(set(ALLOWED_METHODS) - set(unreached_methods()))
             + sorted(set(ALLOWED_OPTIONS) - set(unreached_options())))
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


# -- public methods ------------------------------------------------------------

#: Public methods kept although only tests reach them, with the reason.
_STEERING = ("the steering API the paper's Fig. 2 names (the "
             "RealityGrid client, steerer, visualizer and registry calls); "
             "examples drive part of it")
ALLOWED_METHODS: Dict[str, str] = {
    "ResultStore.heal": "recovery: rebuilds a damaged store's index from "
                        "its records",
    "ResultStore.get_or_run": "the memoized reference the executor is "
                              "compared against",
    "ReducedTranslocationModel.trap_pmf": "ROADMAP item 2: the trap-"
                                          "convolved PMF the estimators "
                                          "converge to",
    "WorkEnsemble.coordinate_lag": "ROADMAP item 11: the COM lead behind "
                                   "the systematic error",
    "ReducedTranslocationModel.diffusion_constant": "ROADMAP item 16: "
                                                    "D = kT/zeta is checked "
                                                    "against its truth",
    "ImplicitSolvent.diffusion_constant": "ROADMAP item 16: D = kT/zeta is "
                                          "checked against its truth",
    "Simulation.total_energy": "the NVE conservation check of the one "
                               "integrator",
    "TopologyBuilder.add_chain": "builds the FENE chains the MD tests run",
    "SanitizedLock.locked": "part of the threading.Lock protocol the "
                            "sanitized lock stands in for",
    "CheckpointTree.lineage": _STEERING,
    "Registry.lookup": _STEERING,
    "Registry.withdraw": _STEERING,
    "Steerer.set_param": _STEERING,
    "SteeringClient.register_observable": _STEERING,
    "SteeringService.pending_count": _STEERING,
    "Visualizer.clear_force": _STEERING,
    "Visualizer.latest_frame": _STEERING,
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _driver_trees() -> Iterator[ast.Module]:
    """Every module of the package and of the driver directories."""
    for path in _python_files(PACKAGE):
        yield _parse(path)
    for directory in DRIVER_DIRS:
        for path in _python_files(ROOT / directory):
            yield _parse(path)


def _name_counts(tree: ast.AST) -> Counter:
    """Uses of each name under ``tree``: ``Name`` ids, ``Attribute`` attrs
    and string constants (``getattr(obj, "name")``)."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def public_methods() -> List[Tuple[str, str, ast.AST]]:
    """``(relative path, "Class.method", def)`` for each public method of
    a public class of the package."""
    out = []
    for path in _python_files(PACKAGE):
        rel = path.relative_to(ROOT).as_posix()
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                    out.append((rel, f"{cls.name}.{node.name}", node))
    return out


def unreached_methods() -> Dict[str, str]:
    """``"Class.method"`` → defining file of each public method whose name
    nothing but tests (or its own body) uses."""
    counts: Counter = Counter()
    for tree in _driver_trees():
        counts.update(_name_counts(tree))
    out: Dict[str, str] = {}
    for rel, qualname, node in public_methods():
        name = qualname.split(".", 1)[1]
        if counts[name] <= _name_counts(node)[name]:
            out[qualname] = rel
    return out


def test_every_public_method_has_a_driver():
    stray = {name: rel for name, rel in unreached_methods().items()
             if name not in ALLOWED_METHODS}
    assert not stray, (
        "public methods only tests reach (delete them, or allow-list them "
        "with a reason): "
        + ", ".join(f"{rel}::{name}" for name, rel in sorted(stray.items())))


def test_scan_sees_a_test_only_method(tmp_path, monkeypatch):
    """The method scan is not vacuous: a method only a test and its own
    body call is reported; a driver's call or a ``getattr`` string
    clears it."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "class Thing:\n"
        "    def orphan(self):\n        return self.orphan()\n\n"
        "    def called(self):\n        return 1\n\n"
        "    def by_name(self):\n        return 2\n\n\n"
        "def use(t):\n    return getattr(t, 'by_name')()\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.mod import Thing\n\nThing().called()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Thing\n\nThing().orphan()\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreached_methods() == {"Thing.orphan": "src/repro/mod.py"}


# -- options: defaulted parameters and dataclass fields -------------------------

#: Options kept although they have one value in use, with the reason.  Keys
#: are ``"function(param)"``, ``"Class.method(param)"``, or
#: ``"Class(param)"`` for an ``__init__`` parameter or a dataclass field.
_ORACLE = ("kernel=\"reference\" is the oracle the equivalence tests "
           "compare the default against")
_SEAM = "a test seam: tests inject a fake here"
_CHAOS = ("scan false positive: the chaos harness binds "
          "`call = mw.gatekeeper_submit if ... else mw.gridftp_transfer` and "
          "passes now= and obs=")
_VOLTAGE = ("the VAL-3D voltage conversion (EXPERIMENTS.md): the membrane "
            "span and the screened charge are its uncertain inputs, and "
            "tests check screening and the refusal of unphysical values")
_SPICE103 = ("lint rule SPICE103: a seeded run_* entry point takes an obs= "
             "handle and threads it")
_ESTIMATOR = ("an estimator family's own parameter, reached through "
              "estimate_pmf(ens, name, **kwargs); tests pin the family's "
              "identities")
ALLOWED_OPTIONS: Dict[str, str] = {
    "DebyeHuckelForce(kernel)": _ORACLE,
    "FENEBondForce(kernel)": _ORACLE,
    "HarmonicAngleForce(kernel)": _ORACLE,
    "LennardJonesForce(kernel)": _ORACLE,
    "WCAForce(kernel)": _ORACLE,
    "run_pulling_ensemble(kernel)": _ORACLE,
    "run_pulling_ensemble_3d(kernel)": _ORACLE,
    "Obs(clock)": _SEAM + " (a deterministic clock)",
    "ManualClock(start)": _SEAM + " (the fake clock's start)",
    "SteeringService(clock)": _SEAM + " (a deterministic clock)",
    "build_service(task_fault)": _SEAM + " (a task that fails on cue)",
    "ScriptedUser(motor_noise)": _SEAM + " (a noiseless user makes the "
                                 "haptic response exact)",
    "ScriptedUser(reaction_time_s)": _SEAM + " (an instant user)",
    "run_full_axis_production(model)": _SEAM + " (analytic landscapes "
                                       "check the stitch against closed "
                                       "forms)",
    "ExternalFieldForce(indices)": _SEAM + " (a field on a particle subset "
                                   "pins the stacked gather/scatter path "
                                   "against solo calls)",
    "run_parameter_study(n_records)": "tests run studies at 11 records, "
                                      "the descriptors their pinned "
                                      "fingerprints were taken at",
    "UmbrellaProtocol(n_windows)": "tests shrink the window count only for "
                                   "speed, as run_parameter_study(n_records)",
    "SteerableParam(setter)": _STEERING + " (the other half of "
                              "Steerer.set_param)",
    "run_full_axis_production(obs)": _SPICE103,
    "run_pulling_ensemble_3d(obs)": _SPICE103,
    "run_thermodynamic_integration(obs)": _SPICE103,
    "run_umbrella_sampling(obs)": _SPICE103,
    "validate_record(expected_fingerprint)": "safety: a record must be the "
                                             "task its caller asked for",
    "EventLoop.run(max_events)": "safety: bounds a runaway event loop",
    "ServiceClient(timeout)": "deployment setting",
    "lint_paths(root)": "deployment setting: the tree the paths are "
                        "relative to",
    "GridMiddleware.gatekeeper_submit(now)": _CHAOS,
    "GridMiddleware.gatekeeper_submit(obs)": _CHAOS,
    "GridMiddleware.gridftp_transfer(now)": _CHAOS,
    "GridMiddleware.gridftp_transfer(obs)": _CHAOS,
    "ResultStore.heal(deep)": "heal is kept for recovery; deep re-hashes "
                              "every record instead of trusting the index",
    "ImplicitSolvent.diffusion_constant(in_pore)": "ROADMAP item 16 "
                                                   "compares bulk and pore D",
    "block_estimator(n_blocks)": _ESTIMATOR,
    "parallel_pull_estimator(group_size)": _ESTIMATOR + " (M = 1 is JE, "
                                           "M = m is the mean work)",
    "tilt_from_voltage(membrane_thickness)": _VOLTAGE,
    "tilt_from_voltage(charge_per_length)": _VOLTAGE,
    "tilt_from_voltage(effective_charge_fraction)": _VOLTAGE,
}


def defaulted_parameters() -> List[Tuple[str, str, str, str, Optional[int]]]:
    """``(relative path, callee, key, parameter, positional index)`` for
    each defaulted parameter of every public ``def`` and every
    ``__init__`` in the package.  ``callee`` is the name a call spells
    (the class for an ``__init__``); the index counts call arguments, so
    a method's ``self`` is not one; keyword-only parameters have none."""
    out: List[Tuple[str, str, str, str, Optional[int]]] = []

    def visit(node: ast.AST, cls: Optional[str], rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, rel)
                continue
            if not isinstance(child, _FUNCTIONS):
                visit(child, cls, rel)
                continue
            name = child.name
            if name == "__init__" or not name.startswith("_"):
                init = name == "__init__"
                callee = cls if init else name
                prefix = cls if init else (f"{cls}.{name}" if cls else name)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if cls and not static else 0
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((rel, callee, f"{prefix}({arg.arg})", arg.arg,
                                i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((rel, callee, f"{prefix}({arg.arg})",
                                    arg.arg, None))
            visit(child, None, rel)

    for path in _python_files(PACKAGE):
        visit(_parse(path), None, path.relative_to(ROOT).as_posix())
    return out


#: Parameters the one-constant check leaves be: lint rules SPICE103/105
#: make every seeded entry point take its seed and its handles, so a
#: driver passing one value there is the rule, not a dead option.
_HANDLES = frozenset({"seed", "obs", "store", "dlq"})

_MUTATORS = frozenset({"append", "appendleft", "extend", "insert", "add",
                       "update", "setdefault", "pop", "popleft", "popitem",
                       "remove", "discard", "clear", "sort"})


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if ((isinstance(target, ast.Name) and target.id == "dataclass")
                or (isinstance(target, ast.Attribute)
                    and target.attr == "dataclass")):
            return True
    return False


def _field_call(value: ast.expr) -> Optional[ast.Call]:
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return value
    return None


def dataclass_fields() -> List[Tuple[str, str, str, str, int, bool]]:
    """``(relative path, class, key, field, positional index, init)`` for
    each defaulted field of a public dataclass of the package.  ``init``
    is false for ``field(init=False)``, which the generated ``__init__``
    does not take; the index counts only the fields it does take."""
    out: List[Tuple[str, str, str, str, int, bool]] = []
    for path in _python_files(PACKAGE):
        rel = path.relative_to(ROOT).as_posix()
        for cls in ast.walk(_parse(path)):
            if (not isinstance(cls, ast.ClassDef) or cls.name.startswith("_")
                    or not _is_dataclass(cls)):
                continue
            index = 0
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    continue
                if "ClassVar" in ast.dump(node.annotation):
                    continue
                call = _field_call(node.value) if node.value else None
                init = not (call and any(
                    k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in call.keywords))
                defaulted = node.value is not None and (call is None or any(
                    k.arg in ("default", "default_factory")
                    for k in call.keywords))
                name = node.target.id
                if defaulted:
                    out.append((rel, cls.name, f"{cls.name}({name})", name,
                                index, init))
                index += init
    return out


def _driver_calls() -> Dict[str, List[ast.Call]]:
    """Callee name → every call outside ``tests/`` that spells it.  A
    ``cls(...)`` call inside a class body spells that class."""
    calls: Dict[str, List[ast.Call]] = {}

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute)
                          else None)
                if callee == "cls" and cls:
                    callee = cls
                if callee:
                    calls.setdefault(callee, []).append(child)
            visit(child, cls)

    for tree in _driver_trees():
        visit(tree, None)
    return calls


def _state_names() -> Set[str]:
    """Attribute names code outside ``tests/`` assigns or mutates after
    construction: stores, augmented assignments, ``setattr`` by name,
    item stores and mutating method calls.  ``self.x = ...`` in an
    ``__init__`` or ``__post_init__`` is construction, not state."""
    names: Set[str] = set()

    def target(node: ast.AST) -> None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            names.add(node.attr)

    def visit(node: ast.AST, init: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                visit(child, child.name in ("__init__", "__post_init__"))
                continue
            if isinstance(child, ast.Attribute) and isinstance(
                    child.ctx, (ast.Store, ast.Del)):
                on_self = (isinstance(child.value, ast.Name)
                           and child.value.id == "self")
                if not (init and on_self):
                    names.add(child.attr)
            elif isinstance(child, ast.Subscript) and isinstance(
                    child.ctx, (ast.Store, ast.Del)):
                target(child)
            elif isinstance(child, ast.AugAssign):
                target(child.target)
            elif isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS):
                    target(func.value)
                elif (not init and isinstance(func, (ast.Name, ast.Attribute))
                      and (getattr(func, "id", None) == "setattr"
                           or getattr(func, "attr", None) == "__setattr__")
                      and len(child.args) >= 2
                      and isinstance(child.args[1], ast.Constant)):
                    names.add(child.args[1].value)
            visit(child, init)

    for tree in _driver_trees():
        visit(tree, False)
    return names


_SPREAD = object()


def _passed(call: ast.Call, param: str, index: Optional[int]):
    """The expression ``call`` passes for ``param``, :data:`_SPREAD` when
    a ``*``/``**`` argument may carry it, or ``None`` when it is left at
    its default."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return _SPREAD
    if index is not None and len(call.args) > index:
        return call.args[index]
    return None


def _constant(node: ast.expr) -> Optional[str]:
    """A canonical spelling of ``node`` when it is a literal (a number,
    string, tuple of literals, ...) or an UPPER_CASE name, else ``None``."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        pass
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name and name.isupper() and len(name) > 1:  # not a variable like D
        return name
    return None


def _one_value(values: List[object]) -> bool:
    """Every call passes the parameter, and always the same constant."""
    if not values or any(v is None or v is _SPREAD for v in values):
        return False
    spelled = {_constant(v) for v in values}
    return len(spelled) == 1 and None not in spelled


def unreached_options() -> Dict[str, str]:
    """Option key → defining file of each option with one value in use:
    a defaulted parameter or dataclass field no call outside ``tests/``
    sets, or one every such call sets to the same constant.  A field
    code outside tests assigns or mutates after construction, or one
    declared ``field(init=False)``, is state, not an option."""
    calls = _driver_calls()
    options = [(rel, callee, key, param, index)
               for rel, callee, key, param, index in defaulted_parameters()]
    state = _state_names()
    replaced = {k.arg for call in calls.get("replace", ())
                if call.args for k in call.keywords}
    for rel, cls, key, name, index, init in dataclass_fields():
        if init and name not in state and name not in replaced:
            options.append((rel, cls, key, name, index))
    out: Dict[str, str] = {}
    for rel, callee, key, param, index in options:
        values = [_passed(call, param, index) for call in calls.get(callee, ())]
        if all(v is None for v in values) or (
                param not in _HANDLES and _one_value(values)):
            out[key] = rel
    return out


def test_every_defaulted_parameter_has_a_driver():
    stray = {key: rel for key, rel in unreached_options().items()
             if key not in ALLOWED_OPTIONS}
    assert not stray, (
        "options with one value in use: defaulted parameters or dataclass "
        "fields no driver sets, or every driver sets to one constant (make "
        "each a constant, or allow-list it with a reason): "
        + ", ".join(f"{rel}::{key}" for key, rel in sorted(stray.items())))


def test_scan_sees_a_test_only_option(tmp_path, monkeypatch):
    """The option scan is not vacuous: a parameter only a test sets is
    reported, whether keyword-only, positional or an ``__init__``'s; a
    driver setting one by keyword, by position or through ``**`` clears
    it."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
        "def g(x=0):\n    return x\n\n\n"
        "class K:\n"
        "    def __init__(self, p=1, q=2):\n        self.p = p\n\n"
        "    def m(self, r=1):\n        return r\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.mod import K, f, g\n\n\n"
        "def drive(b, e, p):\n"
        "    f(0, b, e=e)\n    K(p)\n    K().m()\n    g(**{})\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import K, f\n\nf(0, 1, 2, d=4)\nK(q=5).m(r=2)\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreached_options() == {
        "f(c)": "src/repro/mod.py",
        "f(d)": "src/repro/mod.py",
        "K(q)": "src/repro/mod.py",
        "K.m(r)": "src/repro/mod.py",
    }


def test_scan_sees_a_test_only_field(tmp_path, monkeypatch):
    """The field scan is not vacuous: a defaulted field of a frozen
    dataclass that only a test sets is reported; a driver setting one by
    keyword, by position or through ``replace`` clears it; a field code
    assigns or mutates after construction, or one declared
    ``init=False``, is state and never reported."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass, field, replace\n\n\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    a: int\n    pos: float = 1.0\n    kw: float = 2.0\n"
        "    rep: float = 3.0\n    orphan: float = 4.0\n"
        "    counter: int = field(init=False, default=0)\n\n\n"
        "@dataclass\n"
        "class S:\n"
        "    level: float = 0.0\n"
        "    log: list = field(default_factory=list)\n\n"
        "    def raise_level(self, v):\n        self.level = v\n\n\n"
        "def shift(p, v):\n    return replace(p, rep=v)\n\n\n"
        "def note(s):\n    s.log.append(1)\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.mod import P\n\n\n"
        "def drive(a, v, w):\n    P(a, w)\n    P(a, kw=v)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import P, S\n\n"
        "P(0, 1.0, 2.0, 3.0, orphan=5.0)\nS(level=1.0, log=[])\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreached_options() == {"P(orphan)": "src/repro/mod.py"}


def test_scan_sees_a_one_constant_option(tmp_path, monkeypatch):
    """An option every driver call sets to the same constant has one value
    in use: two calls passing the same UPPER_CASE name (to a parameter or
    a field) are reported; a second value at any call, or a call leaving
    the default, clears the report; seeds and handles are exempt."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass\n\n"
        "LIMIT = 3\n\n\n"
        "def f(x=1):\n    return x\n\n\n"
        "def g(y=1):\n    return y\n\n\n"
        "def h(z=1):\n    return z\n\n\n"
        "def run(seed=None):\n    return seed\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Q:\n    k: int = 1\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.mod import LIMIT, Q, f, g, h, run\n\n\n"
        "def drive(v):\n"
        "    f(x=LIMIT)\n    f(LIMIT)\n"
        "    g(y=LIMIT)\n    g(y=v)\n"
        "    h(z=LIMIT)\n    h()\n"
        "    run(seed=LIMIT)\n    run(seed=LIMIT)\n"
        "    Q(k=LIMIT)\n    Q(LIMIT)\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", pkg)
    assert unreached_options() == {
        "f(x)": "src/repro/mod.py",
        "Q(k)": "src/repro/mod.py",
    }
