"""API-boundary rule family (SPICE101-SPICE106).

PR 1 unified the estimator surface behind ``repro.core`` and its
``estimate_free_energy`` front door, and made the ``obs=`` handle the
package-wide instrumentation convention; the batched-execution redesign
added the stream-discipline contract of the replica-batched runners.
These rules keep examples, tests, and new entry points from quietly
eroding those boundaries.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, Violation, register_rule

__all__ = [
    "DeepImportRule",
    "FrontDoorRule",
    "ObsThreadingRule",
    "BatchedKernelContractRule",
    "IndexLayerDisciplineRule",
]

#: Raw estimator implementations that examples/tests should reach through
#: estimate_free_energy(works, T, method=...) instead of importing.
_RAW_ESTIMATORS = frozenset({
    "exponential_estimator", "cumulant_estimator", "block_estimator",
})

#: Packages whose module-level ``run_*`` entry points spawn seeded work
#: (replica ensembles, campaigns, benchmark sweeps) and therefore must
#: accept an ``obs=`` handle.
_SPAWNING_PACKAGES = ("smd", "core", "workflow", "resil", "perf")


@register_rule
class DeepImportRule(Rule):
    """Examples/tests import ``repro.core``, not its submodules."""

    id = "SPICE101"
    name = "deprecated deep module import"
    rationale = (
        "repro.core.<submodule> paths are internal layout, deprecated for "
        "external callers since the PR-1 API unification; examples and "
        "tests importing them pin the package's private structure and "
        "dodge the registry front door, so refactors break user-facing "
        "code the test suite claimed to cover"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind in ("tests", "examples")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module.startswith("repro.core."):
                    yield self.violation(
                        ctx, node,
                        f"import from deep path '{module}'; the public "
                        f"surface is the repro.core front door",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.core."):
                        yield self.violation(
                            ctx, node,
                            f"import of deep path '{alias.name}'; the public "
                            f"surface is the repro.core front door",
                        )


@register_rule
class FrontDoorRule(Rule):
    """Examples/tests go through ``estimate_free_energy``."""

    id = "SPICE102"
    name = "estimator front-door bypass"
    rationale = (
        "estimate_free_energy is the single dispatching entry point for "
        "free-energy estimation (method registry, future estimators); "
        "examples and tests importing the raw estimator functions "
        "demonstrate and exercise the deprecated calling convention "
        "(dispatch is bit-identical, so nothing is lost by routing "
        "through the front door)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind in ("tests", "examples")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            module = node.module or ""
            if module not in ("repro.core", "repro.core.jarzynski",
                              "repro.core.estimators"):
                continue
            for alias in node.names:
                if alias.name in _RAW_ESTIMATORS:
                    yield self.violation(
                        ctx, node,
                        f"importing raw '{alias.name}' bypasses the "
                        f"estimate_free_energy front door; call "
                        f"estimate_free_energy(works, T, method=...)",
                    )


@register_rule
class ObsThreadingRule(Rule):
    """Public work-spawning entry points accept an ``obs=`` handle."""

    id = "SPICE103"
    name = "entry point missing obs= handle"
    rationale = (
        "the observability convention is an explicit handle, no globals: "
        "every public run_* entry point that spawns seeded work must "
        "accept obs= and thread it down, or the subsystem becomes a "
        "blind spot in run reports and the instrumented-run "
        "bit-identicality test loses coverage"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package(*_SPAWNING_PACKAGES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.tree.body:  # module level only: the public surface
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith("run_") or node.name.startswith("_"):
                continue
            args = node.args
            names = {a.arg for a in args.args} | {a.arg for a in args.kwonlyargs}
            if "seed" in names and "obs" not in names:
                yield self.violation(
                    ctx, node,
                    f"'{node.name}' spawns seeded work but takes no obs= "
                    f"handle; add obs: Optional[Obs] = None and thread it",
                )


#: RNG constructors/derivers that mint *new* streams.  Inside a batched
#: runner, minting a stream makes the result depend on execution placement;
#: only ``stream_for`` (a pure function of labels) is allowed there.
_STREAM_MINTING = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.RandomState",
    "repro.rng.as_generator",
    "repro.rng.spawn",
})


@register_rule
class BatchedKernelContractRule(Rule):
    """Batched code keeps the ``stream_for`` discipline."""

    id = "SPICE105"
    name = "batched-kernel contract"
    rationale = (
        "the batched runners' bit-identity rests on every replica "
        "consuming a stream_for-derived stream passed in by the caller — a batched module minting its own "
        "generators (default_rng, as_generator, spawn, ...) re-keys replica "
        "noise by execution placement and silently breaks the "
        "batched-equals-per-trajectory oracle guarantee"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.kind != "src":
            return False
        stem = ctx.relpath.rsplit("/", 1)[-1].removesuffix(".py")
        return "batch" in stem

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in _STREAM_MINTING:
                yield self.violation(
                    ctx, node,
                    f"batched runner calls '{target}': batched code must "
                    f"consume caller-provided stream_for-derived generators, "
                    f"never mint its own streams",
                )


#: Directory-enumeration calls confined to the store's index layer.
#: ``os.walk`` rides along: it is ``listdir`` in a loop.
_DIR_ENUMERATION = frozenset({
    "os.listdir", "os.scandir", "os.walk",
    "glob.glob", "glob.iglob",
})


@register_rule
class IndexLayerDisciplineRule(Rule):
    """Store and stealing modules never enumerate directories directly."""

    id = "SPICE106"
    name = "directory scan outside the index layer"
    rationale = (
        "the store's resume cost is O(changed shards) precisely "
        "because every directory enumeration goes through "
        "repro.store.index (which consults per-shard index files and "
        "mtimes before touching the filesystem); an os.listdir/os.scandir/"
        "glob call anywhere else under store/ — or in the work-stealing "
        "scheduler, which must treat queue state, never the filesystem, "
        "as truth — silently reintroduces the O(records) full-tree walk "
        "the index layer removed"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.kind != "src":
            return False
        if ctx.relpath.endswith("repro/store/index.py"):
            return False  # the one sanctioned enumeration layer
        return (ctx.in_package("store")
                or ctx.relpath.endswith("repro/grid/stealing.py"))

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in _DIR_ENUMERATION:
                yield self.violation(
                    ctx, node,
                    f"'{target}' enumerates a directory outside the index "
                    f"layer; route the scan through repro.store.index",
                )
