"""API-boundary rule family (SPICE101-SPICE106).

The estimator surface sits behind ``repro.core`` and its one front door,
``estimate_pmf``; the ``obs=`` handle is the package-wide instrumentation
convention; the batched-execution redesign added the stream-discipline
contract of the replica-batched runners; and every path the codebase
deleted is named in one table so it stays deleted.  These rules keep
examples, tests, and new entry points from quietly eroding those
boundaries.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .base import FileContext, Rule, Violation, register_rule

__all__ = [
    "DeepImportRule",
    "FrontDoorRule",
    "ObsThreadingRule",
    "RetiredNameRule",
    "RETIRED_NAMES",
    "BatchedKernelContractRule",
    "IndexLayerDisciplineRule",
]

#: Raw estimator implementations that examples/tests should reach through
#: estimate_pmf(ensemble, estimator) instead of importing.
_RAW_ESTIMATORS = frozenset({
    "exponential_estimator", "cumulant_estimator", "block_estimator",
    "fr_estimator", "parallel_pull_estimator",
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
    """Examples/tests go through ``estimate_pmf``."""

    id = "SPICE102"
    name = "estimator front-door bypass"
    rationale = (
        "estimate_pmf is the single dispatching entry point from pulls to "
        "a PMF (estimator registry, pairing and sample checks, future "
        "estimators); examples and tests importing the raw estimator "
        "functions demonstrate and exercise a calling convention that "
        "skips those checks (dispatch is bit-identical, so nothing is "
        "lost by routing through the front door)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.kind in ("tests", "examples")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            module = node.module or ""
            if module not in ("repro.core", "repro.core.jarzynski",
                              "repro.core.fr"):
                continue
            for alias in node.names:
                if alias.name in _RAW_ESTIMATORS:
                    yield self.violation(
                        ctx, node,
                        f"importing raw '{alias.name}' bypasses the "
                        f"estimate_pmf front door; call "
                        f"estimate_pmf(ensemble, estimator)",
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


#: Deleted names and what replaced them.  A plain entry matches any
#: identifier, attribute, def/class name, parameter, keyword, imported name
#: or string call argument (``getattr(x, "name")``) spelled exactly so;
#: ``"Prefix*"`` any such spelling starting with ``Prefix``; ``"name="`` only
#: a keyword or parameter; a dotted entry an import or string argument
#: naming that module or anything inside it.  Other strings go unchecked.
RETIRED_NAMES: Dict[str, str] = {
    "streaming_window": "every study is streamed by run_streamed_tasks",
    "run_pulling_ensemble_parallel": "run_pulling_stack is the one stacked runner",
    "run_pulling_groups": "run_pulling_stack(model, [(protocol, rng, n), ...])",
    "StreamCursor": "resume is store membership",
    "campaign_key": "resume is store membership",
    "skipped_prefix": "resume is store membership",
    "collect=": "resume is store membership",
    "store_key": "a store addresses a task by its fingerprint",
    "compute_batched": "one MD body takes an optional replica axis",
    "step_batched": "one MD body takes an optional replica axis",
    "scatter_add_batched": "one MD body takes an optional replica axis",
    "accumulate_pair_forces_batched": "one MD body takes an optional replica axis",
    "BatchedSimulation": "repro.md.stack_simulations(sims)",
    "BatchedSMD*": "SMDPullingForce / SMDWorkRecorder take a replica axis",
    "run_work_ensemble": "run_cells(model, [(protocol, labels)], ...)[labels]",
    "stiff_spring_correction": "the PMF is the trap free energy F_kappa",
    "stiff_spring": "the PMF is the trap free energy F_kappa",
    "estimate_free_energy": "estimate_pmf(ensemble, estimator)",
    "paired_estimators": "check_estimator(name, n_samples=...)",
    "systematic_error": "pmf_error(values, reference)",
    "repro.core.estimators": "the registry lives in repro.core.pmf",
    "bootstrap_statistical_error": "bootstrap_error(works, T, estimator, rng, n_boot=...)",
    "block_bootstrap": "bootstrap_error(..., n_blocks=...)",
    "BlockBootstrapDiagnostic": "BootstrapError is the one resampled error",
    "effective_sample_size": "bootstrap_error(...).mse is the one JE health measure",
    "dominance": "bootstrap_error(...).mse is the one JE health measure",
    "ConvergenceReport": "bootstrap_error(...).mse is the one JE health measure",
    "convergence_report": "bootstrap_error(...).mse is the one JE health measure",
    "jarzynski_bias_estimate": "bootstrap_error(...).bias",
    "build_dsdna": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "DSDNAParameters": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "DuplexSystem": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "mspa_pore": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "solid_state_nanopore": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "DihedralForce": "the CG ssDNA has no torsion term",
    "measure_dihedrals": "the CG ssDNA has no torsion term",
    "ObservableRecorder": "record observables with a Simulation reporter",
    "connect_over_fabric": "NetworkFabric.resolve decides reachability",
    "FlatBottomRestraintForce": "HarmonicRestraintForce is the one restraint",
    "ConstantForce": "constant-force pulling returns as a registered scenario",
    "VelocityVerlet": "LangevinBAOAB(dt, friction=0.0) is velocity Verlet",
    "BrownianDynamics": "LangevinBAOAB is the one integrator; strong friction is the overdamped regime",
    "HarmonicBondForce": "FENEBondForce is the one bond",
    "checkpoint_size_bytes": "paper_checkpoint_bytes sizes a migrated checkpoint",
    "GridEnabledApplication": "GridMiddleware keeps the gatekeeper and GridFTP calls a campaign makes",
    "grid_enable": "GridMiddleware keeps the gatekeeper and GridFTP calls a campaign makes",
    "launchable_sites": "GridMiddleware keeps the gatekeeper and GridFTP calls a campaign makes",
    "launch_raw": "GridMiddleware keeps the gatekeeper and GridFTP calls a campaign makes",
    "SiteStack": "SITE_QUEUES maps a site to its batch queue",
    "DEFAULT_STACKS": "SITE_QUEUES maps a site to its batch queue",
    "stack_for": "GridMiddleware.queue_for(site)",
    "register_site": "SITE_QUEUES maps a site to its batch queue",
    "upgrade_site": "SITE_QUEUES maps a site to its batch queue",
    "federation_success_probability": "CoScheduler.co_allocate measures federation success",
    "all_sites": "build_default_federation().all_queues()",
    "run_inside_reservation": "BatchQueue.reserve blocks the window; jobs go through submit",
    "thermal_width": "sqrt(kT() / protocol.kappa_internal)",
    "friction_profile": "ImplicitSolvent.friction(in_pore)",
    "thermal_velocity": "ParticleSystem.initialize_velocities draws thermal velocities",
    "kcal_per_angstrom2_to_pn_per_angstrom": "kappa_internal / PN_ANGSTROM_TO_KCAL",
    "task_key_tuple": "tuple(entry['task_key'])",
    "requeued_entries": "DeadLetterQueue.summary()['requeued'] counts them",
    "MigrationPlan": "CheckpointMigrator.transfer_hours prices a checkpoint move",
    "RetryBudget": "RetryPolicy.max_attempts bounds every retried call",
    "repro.pore.dsdna": "the paper's one scenario is ssDNA in alpha-hemolysin",
    "repro.pore.presets": "HemolysinPore is the one pore",
    "repro.md.dihedrals": "the CG ssDNA has no torsion term",
    "repro.md.trajectory": "record observables with a Simulation reporter",
    "repro.steering.fabric": "NetworkFabric.resolve decides reachability",
}


def _spellings(ctx: FileContext, node: ast.AST) -> List[Tuple[str, bool]]:
    """Each ``(spelling, is_keyword)`` by which ``node`` names something."""
    if isinstance(node, ast.ImportFrom):  # its aliases are walked on their own
        module = ctx.import_source(node) or ""
        return [(f"{module}.{alias.name}", False) for alias in node.names]
    if isinstance(node, ast.Call):  # getattr(x, "name"), import_module("a.b")
        return [(arg.value, False) for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    keyword = isinstance(node, (ast.arg, ast.keyword))
    return [(value, keyword) for value in (getattr(node, field, None) for field
                                           in ("id", "attr", "name", "arg"))
            if isinstance(value, str)]


@register_rule
class RetiredNameRule(Rule):
    """Deleted names stay deleted: one table, :data:`RETIRED_NAMES`."""

    id = "SPICE104"
    name = "retired name"
    rationale = (
        "each retired name was a second path the codebase collapsed into "
        "one (executor, resume mechanism, stacked runner, batched MD "
        "class, estimator front door, resampler) or code only tests "
        "reached (dsDNA, other pores, JE diagnostics, the unused "
        "integrators, the harmonic bond, the middleware's application "
        "model); bringing the name "
        "back, even as a shim, splits callers across two paths nothing "
        "tests as equal"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            for spelling, keyword in _spellings(ctx, node):
                for pattern, successor in RETIRED_NAMES.items():
                    name = pattern.rstrip("*=")
                    if (spelling == name and (keyword or pattern[-1] != "=")
                            or pattern[-1] == "*" and spelling.startswith(name)
                            or "." in pattern
                            and spelling.startswith(pattern + ".")):
                        yield self.violation(
                            ctx, node, f"'{pattern}' is retired: {successor}")


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
    """Store modules never enumerate directories directly."""

    id = "SPICE106"
    name = "directory scan outside the index layer"
    rationale = (
        "the store's resume cost is O(changed shards) precisely "
        "because every directory enumeration goes through "
        "repro.store.index (which consults per-shard index files and "
        "mtimes before touching the filesystem); an os.listdir/os.scandir/"
        "glob call anywhere else under store/ silently reintroduces the "
        "O(records) full-tree walk the index layer removed"
    )

    def applies(self, ctx: FileContext) -> bool:
        if ctx.kind != "src":
            return False
        if ctx.relpath.endswith("repro/store/index.py"):
            return False  # the one sanctioned enumeration layer
        return ctx.in_package("store")

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
