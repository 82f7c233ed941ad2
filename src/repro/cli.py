"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common entry points:

* ``structure`` — Fig. 1 structural summary + cross-section;
* ``pmf`` — one SMD-JE PMF at chosen (kappa, v);
* ``estimate`` — a free-energy profile by a chosen estimator (``fr``
  pairs forward with reverse pulls);
* ``fig4`` — the full parameter study with panels and the optimum;
* ``campaign`` — the three-phase SPICE campaign on the federation;
* ``report`` — instrumented campaign rendered as a run report;
* ``qos`` — the IMD network-QoS table;
* ``ti`` — thermodynamic-integration PMF over the window;
* ``production`` — the stitched full-axis PMF;
* ``bench`` — the adaptive-allocation accuracy benchmark (writes
  BENCH_adaptive.json);
* ``chaos`` — a named fault scenario run against the resilient campaign;
* ``lint`` — the static determinism & invariant checker (repro.lint);
* ``sanitize-report`` — the runtime lock-order sanitizer: exercise the
  instrumented primitives (or validate a captured report) and render it;
* ``serve`` — the campaign service: an HTTP/JSON API over a shared store;
* ``submit`` — submit a campaign spec to a running service;
* ``status`` — query a running service for campaign state/results;
* ``dlq`` — inspect or requeue a store's dead-letter queue.

Commands are rows of a declarative table (:data:`COMMANDS`); each row
names its flags and a runner returning ``(text, summary)``.  Two global
flags are attached to every subcommand by the table machinery:

* ``--seed`` — base RNG seed (per-command defaults preserved);
* ``--json`` — print the command's machine-readable summary (routed
  through the :mod:`repro.obs` exporters) instead of the plain text.

Exit codes are uniform: 0 on success, 1 for any :class:`~repro.errors.
ReproError` or a completed command reporting failure (lint violations),
2 for a usage error (argparse).  Without ``--json`` every
command prints plain text (ASCII figures and aligned tables), so output
is diffable and scriptable.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["main", "build_parser", "CommandSpec", "COMMANDS"]


@dataclass(frozen=True)
class CommandResult:
    """What a runner produces: human text plus a machine summary.

    ``exit_code`` lets a command that *completed* still fail the shell
    (the lint gate reporting violations); runner exceptions keep the
    uniform :class:`~repro.errors.ReproError` -> 1 path.
    """

    text: str
    summary: dict
    exit_code: int = 0


@dataclass(frozen=True)
class Arg:
    """One argparse flag declaration: ``Arg(("--kappa",), {...})``."""

    flags: Tuple[str, ...]
    kwargs: dict


def _arg(*flags: str, **kwargs) -> Arg:
    return Arg(flags, kwargs)


@dataclass(frozen=True)
class CommandSpec:
    """A row of the subcommand table.

    ``--seed`` (with ``seed_default``) and ``--json`` are appended to
    every command automatically; runners therefore always see
    ``args.seed`` and ``args.json``.
    """

    name: str
    help: str
    runner: Callable[[argparse.Namespace], CommandResult]
    args: Tuple[Arg, ...] = ()
    seed_default: int = 2005


def cmd_structure(args) -> CommandResult:
    from .analysis import fig1_structure_table, render_cross_section
    from .obs import jsonable
    from .pore import build_translocation_simulation

    ts = build_translocation_simulation(n_bases=args.bases, seed=args.seed)
    description = ts.pore.describe()
    lines = [
        fig1_structure_table(description).formatted(),
        "",
        render_cross_section(ts.pore.geometry, ts.simulation.system.positions),
    ]
    return CommandResult("\n".join(lines), {
        "command": "structure",
        "seed": args.seed,
        "n_bases": args.bases,
        "pore": jsonable(description),
    })


def cmd_pmf(args) -> CommandResult:
    from .analysis import Curve, FigureData, render_figure
    from .core import estimate_pmf
    from .pore import ReducedTranslocationModel, default_reduced_potential
    from .smd import PullingProtocol, run_pulling_ensemble

    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(kappa_pn=args.kappa, velocity=args.velocity,
                            distance=10.0, start_z=-5.0)
    ens = run_pulling_ensemble(model, proto, n_samples=args.samples,
                               seed=args.seed)
    est = estimate_pmf(ens)
    ref = model.reference_pmf(proto.start_z + est.displacements)
    fig = FigureData(f"SMD-JE PMF ({proto.label()})",
                     "displacement (A)", "Phi (kcal/mol)")
    fig.add(Curve("estimate", est.displacements, est.values))
    fig.add(Curve("exact", est.displacements, ref))
    max_err = float(np.abs(est.values - ref).max())
    lines = [
        render_figure(fig),
        f"\nmax |error|: {max_err:.2f} kcal/mol   "
        f"cost (paper scale): {ens.cpu_hours:.0f} CPU-h",
    ]
    return CommandResult("\n".join(lines), {
        "command": "pmf",
        "seed": args.seed,
        "kappa_pn": args.kappa,
        "velocity": args.velocity,
        "n_samples": args.samples,
        "max_abs_error_kcal_mol": max_err,
        "cpu_hours": ens.cpu_hours,
    })


def cmd_estimate(args) -> CommandResult:
    from .analysis import Curve, FigureData, render_figure
    from .core import estimate_pmf, forward_reverse_pmf, pmf_error
    from .obs import Obs
    from .pore import ReducedTranslocationModel, default_reduced_potential
    from .smd import (PullingProtocol, run_bidirectional_ensemble,
                      run_pulling_ensemble)

    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(kappa_pn=args.kappa, velocity=args.velocity,
                            distance=args.distance, start_z=args.start_z)
    obs = Obs()
    summary = {
        "command": "estimate",
        "seed": args.seed,
        "method": args.method,
        "kappa_pn": args.kappa,
        "velocity": args.velocity,
        "n_samples": args.samples,
    }
    extra = ""
    if args.method == "fr":
        pair = run_bidirectional_ensemble(
            model, proto, args.samples, seed=args.seed, obs=obs)
        prof = forward_reverse_pmf(pair.forward, pair.reverse)
        est = prof.estimate
        finite = prof.diffusion[np.isfinite(prof.diffusion)]
        d_med = float(np.median(finite)) if finite.size else float("nan")
        summary.update({
            "n_forward": pair.forward.n_samples,
            "n_reverse": pair.reverse.n_samples,
            "median_diffusion_A2_ns": d_med,
        })
        extra = f"   D(z) median: {d_med:.0f} A^2/ns"
    else:
        ens = run_pulling_ensemble(model, proto, n_samples=args.samples,
                                   seed=args.seed, obs=obs)
        kwargs = {}
        if args.method == "parallel-pull" and args.group_size:
            kwargs["group_size"] = args.group_size
            summary["group_size"] = args.group_size
        est = estimate_pmf(ens, args.method, **kwargs)
    z = proto.start_z + est.displacements
    values, cost = est.values, est.cpu_hours
    ref = model.reference_pmf(z)
    rms = pmf_error(values, ref)
    fig = FigureData(f"PMF via {args.method} ({proto.label()})",
                     "z (A)", "Phi (kcal/mol)")
    fig.add(Curve(args.method, z, values))
    fig.add(Curve("exact", z, ref))
    summary.update({
        "rms_error_kcal_mol": rms,
        "cpu_hours": cost,
    })
    lines = [
        render_figure(fig),
        f"\nrms error: {rms:.2f} kcal/mol   "
        f"cost (paper scale): {cost:.0f} CPU-h{extra}",
    ]
    return CommandResult("\n".join(lines), summary)


def cmd_fig4(args) -> CommandResult:
    from .analysis import fig4_error_table
    from .core import run_parameter_study
    from .pore import ReducedTranslocationModel, default_reduced_potential
    from .smd import parameter_grid

    model = ReducedTranslocationModel(default_reduced_potential())
    study = run_parameter_study(
        model, protocols=parameter_grid(distance=10.0, start_z=-5.0),
        n_samples=args.samples, seed=args.seed)
    k, v = study.optimal
    lines = [
        fig4_error_table(study).formatted(),
        f"\noptimal: kappa = {k:g} pN/A, v = {v:g} A/ns "
        f"(paper: 100 pN/A, 12.5 A/ns)",
    ]
    return CommandResult("\n".join(lines), {
        "command": "fig4",
        "seed": args.seed,
        "n_samples": args.samples,
        "n_cells": len(study.estimates),
        "optimal_kappa_pn": k,
        "optimal_velocity": v,
    })


def _campaign_store(args, obs):
    """Resolve the ``--store`` / ``--resume`` flags to a ResultStore.

    Guard rails: ``--resume`` without a store directory is meaningless,
    and a store that already holds records is only consumed under an
    explicit ``--resume`` — never silently, since a hit suppresses
    recomputation.
    """
    from .errors import ConfigurationError
    from .store import ResultStore

    store_dir = getattr(args, "store", None)
    resume = getattr(args, "resume", False)
    if resume and not store_dir:
        raise ConfigurationError("--resume requires --store DIR")
    if not store_dir:
        return None
    store = ResultStore(store_dir, obs=obs)
    if len(store) and not resume:
        raise ConfigurationError(
            f"store at {store_dir!r} already holds {len(store)} record(s); "
            "pass --resume to resume from them, or point --store at a "
            "fresh directory")
    return store


def _campaign_dlq(args, store, obs):
    """Resolve ``--dlq`` to a DeadLetterQueue next to the store."""
    from .errors import ConfigurationError
    from .resil import DeadLetterQueue, store_dlq_path

    if not getattr(args, "dlq", False):
        return None
    if store is None:
        raise ConfigurationError("--dlq requires --store DIR")
    return DeadLetterQueue(store_dlq_path(store.root), obs=obs)


def _run_instrumented_campaign(args):
    """Shared by ``campaign`` and ``report``: run the three-phase campaign
    under a fresh obs handle and assemble its run report.

    Instrumentation is read-only (no RNG draws, no scheduled events), so
    the result is bit-identical to an uninstrumented run with the same
    seed.  With ``--store`` every (cell, replica) task is memoized on
    disk; ``--resume`` re-runs a killed campaign from those records,
    recomputing only the missing tasks, with a bit-identical outcome.
    """
    from .obs import Obs, campaign_run_report
    from .workflow import SpiceCampaign

    obs = Obs()
    store = _campaign_store(args, obs)
    dlq = _campaign_dlq(args, store, obs)
    result = SpiceCampaign(replicas_per_cell=args.replicas,
                           seed=args.seed, obs=obs, store=store,
                           dlq=dlq).run()
    report = campaign_run_report(result, obs, store=store, dlq=dlq,
                                 command=args.command, seed=args.seed)
    return result, report


def _run_adaptive_campaign(args) -> CommandResult:
    """The ``campaign --adaptive`` path: pilot/diagnose/refine over one
    window instead of the three-phase grid study."""
    from .obs import Obs
    from .pore import ReducedTranslocationModel, default_reduced_potential
    from .smd import PullingProtocol
    from .workflow import run_adaptive_campaign

    obs = Obs()
    store = _campaign_store(args, obs)
    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                            start_z=-5.0)
    report = run_adaptive_campaign(
        model, proto, n_bins=args.bins, total_replicas=args.budget,
        pilot_per_bin=args.pilot, seed=args.seed,
        store=store, obs=obs,
    )
    lines = [
        f"adaptive allocation over {args.bins} bins "
        f"(budget {args.budget} replicas, pilot {args.pilot}/bin):",
        "  bin  start_z  pilot  extra  score(MSE)",
    ]
    for b in report.bins:
        lines.append(f"  {b.index:>3}  {b.start_z:7.2f}  {b.pilot:>5}  "
                     f"{b.extra:>5}  {b.score:10.4f}")
    lines.append(
        f"rms error: {report.rms_error:.2f} kcal/mol   "
        f"cost (paper scale): {report.cpu_hours:.0f} CPU-h   "
        f"digest: {report.digest()[:12]}")
    return CommandResult("\n".join(lines), {
        "command": "campaign",
        "adaptive": True,
        "seed": args.seed,
        "n_bins": args.bins,
        "total_replicas": args.budget,
        "pilot_per_bin": args.pilot,
        "allocations": report.allocations(),
        "bin_scores": [b.score for b in report.bins],
        "rms_error_kcal_mol": report.rms_error,
        "cpu_hours": report.cpu_hours,
        "digest": report.digest(),
    })


def cmd_campaign(args) -> CommandResult:
    if getattr(args, "adaptive", False):
        return _run_adaptive_campaign(args)
    result, report = _run_instrumented_campaign(args)
    s = result.summary()
    lines = [
        f"window:        {s['window'][0]:.1f} .. {s['window'][1]:.1f} A",
        f"kappas probed: {s['kappa_candidates']} pN/A",
        f"batch:         {s['n_jobs']} jobs, {s['campaign_cpu_hours']:.0f} "
        f"CPU-h, {s['campaign_days']:.2f} days",
        f"placement:     {result.batch.campaign.per_resource_jobs}",
        f"optimal:       kappa = {s['optimal_kappa_pn']:g} pN/A, "
        f"v = {s['optimal_velocity']:g} A/ns",
    ]
    dlq = report.get("dlq")
    if dlq is not None:
        reasons = ", ".join(f"{r}={n}"
                            for r, n in sorted(dlq["reasons"].items()))
        lines.append(f"dead letters:  {dlq['depth']}"
                     + (f" ({reasons})" if reasons else ""))
    return CommandResult("\n".join(lines), report)


def cmd_report(args) -> CommandResult:
    from .obs import render_run_report

    _, report = _run_instrumented_campaign(args)
    return CommandResult(render_run_report(report), report)


def cmd_qos(args) -> CommandResult:
    from .analysis import qos_table
    from .imd import IMDSession
    from .net import (CAMPUS_LAN, DEGRADED_INTERNET, LIGHTPATH,
                      PRODUCTION_INTERNET)
    from .pore import build_translocation_simulation

    reports = {}
    for label, qos in [("campus LAN", CAMPUS_LAN),
                       ("lightpath", LIGHTPATH),
                       ("production internet", PRODUCTION_INTERNET),
                       ("degraded internet", DEGRADED_INTERNET)]:
        session = IMDSession(build_translocation_simulation(n_bases=6, seed=42),
                             qos, seed=args.seed, user_seed=7)
        reports[label] = session.run(args.frames)
    summary = {
        "command": "qos",
        "seed": args.seed,
        "n_frames": args.frames,
        "networks": {
            label: {
                "wall_time_s": rep.wall_time,
                "compute_time_s": rep.compute_time,
                "stall_time_s": rep.stall_time,
                "slowdown": rep.slowdown,
            }
            for label, rep in reports.items()
        },
    }
    return CommandResult(qos_table(reports).formatted(), summary)


def cmd_ti(args) -> CommandResult:
    from .analysis import Curve, FigureData, render_figure
    from .core import TIProtocol, pmf_error, run_thermodynamic_integration
    from .pore import ReducedTranslocationModel, default_reduced_potential

    model = ReducedTranslocationModel(default_reduced_potential())
    res = run_thermodynamic_integration(
        model, TIProtocol(n_stations=args.stations),
        n_replicas=args.replicas, seed=args.seed)
    ref = model.reference_pmf(res.mean_positions)
    fig = FigureData("thermodynamic-integration PMF",
                     "displacement (A)", "Phi (kcal/mol)")
    fig.add(Curve("TI", res.pmf.displacements, res.pmf.values))
    fig.add(Curve("exact", res.pmf.displacements, ref))
    rms = pmf_error(res.pmf.values, ref)
    lines = [
        render_figure(fig),
        f"\nrms error: {rms:.2f} "
        f"kcal/mol   cost (paper scale): {res.cpu_hours:.0f} CPU-h",
    ]
    return CommandResult("\n".join(lines), {
        "command": "ti",
        "seed": args.seed,
        "n_replicas": args.replicas,
        "n_stations": args.stations,
        "rms_error_kcal_mol": rms,
        "cpu_hours": res.cpu_hours,
    })


def cmd_production(args) -> CommandResult:
    from .analysis import Curve, FigureData, render_figure
    from .workflow import run_full_axis_production

    res = run_full_axis_production(axis_range=(args.z_min, args.z_max),
                                   n_samples=args.samples, seed=args.seed)
    fig = FigureData("PMF along the pore axis (production)",
                     "z (A)", "Phi (kcal/mol)")
    fig.add(Curve("SMD-JE", res.z, res.pmf))
    fig.add(Curve("exact", res.z, res.reference))
    drop = abs(res.reference[-1] - res.reference[0])
    lines = [
        render_figure(fig, height=16),
        f"\n{res.n_windows} windows; rms error {res.rms_error:.1f} kcal/mol "
        f"({100 * res.rms_error / drop:.1f}% of drop); "
        f"constriction barrier {res.barrier_height():.1f} kcal/mol; "
        f"cost {res.total_cpu_hours:.0f} CPU-h (paper scale)",
    ]
    return CommandResult("\n".join(lines), {
        "command": "production",
        "seed": args.seed,
        "n_samples": args.samples,
        "axis_range": [args.z_min, args.z_max],
        "n_windows": res.n_windows,
        "rms_error_kcal_mol": res.rms_error,
        "barrier_height_kcal_mol": res.barrier_height(),
        "cpu_hours": res.total_cpu_hours,
    })


def _holds_full_scale_run(path: str) -> bool:
    """Whether ``path`` is a bench document written without ``--quick``."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return False
    return isinstance(doc, dict) and doc.get("quick") is False


def cmd_bench(args) -> CommandResult:
    import os

    from .errors import ConfigurationError
    from .obs import Obs
    from .perf import run_adaptive_benchmark, write_bench_document

    adaptive_path = os.path.join(args.out_dir, "BENCH_adaptive.json")
    if args.quick and _holds_full_scale_run(adaptive_path):
        raise ConfigurationError(
            f"{adaptive_path} holds a full-scale run (\"quick\": false); "
            "a --quick run does not replace it: pass another --out-dir")
    adaptive = run_adaptive_benchmark(quick=args.quick, seed=args.seed,
                                      obs=Obs())
    os.makedirs(args.out_dir, exist_ok=True)
    # write_bench_document validates first: malformed output is exit code 1,
    # not a silently-written file.
    write_bench_document(adaptive_path, adaptive)

    lines = [f"adaptive allocation ({len(adaptive['points'])} budget points):"]
    for point in adaptive["points"]:
        lines.append(
            f"  budget {point['budget']:>4}   "
            f"adaptive {point['adaptive_error']:6.3f}   "
            f"uniform {point['uniform_error']:6.3f} kcal/mol rms")
    lines += [
        f"  deterministic: {adaptive['deterministic']} "
        f"(no-store/twin/cold-store/warm-store digests)",
        f"wrote {adaptive_path}",
    ]
    return CommandResult("\n".join(lines), {
        "command": "bench",
        "seed": args.seed,
        "quick": args.quick,
        "adaptive": adaptive,
    })


def cmd_lint(args) -> CommandResult:
    from .lint import build_lint_report, lint_paths, render_text_report
    from .obs import Obs

    select = tuple(s for s in (args.select or "").split(",") if s)
    ignore = tuple(s for s in (args.ignore or "").split(",") if s)
    result = lint_paths(args.paths, select=select, ignore=ignore,
                        baseline=args.baseline, obs=Obs())
    report = build_lint_report(result, args.paths, select, ignore)
    text = render_text_report(result)
    exit_code = 0 if result.clean else 1
    if args.strict_baseline and result.baseline_unused:
        # Stale baseline entries normally only warn; under the CI gate
        # they fail, so fixed findings get their suppressions removed.
        text += (f"\nerror: {len(result.baseline_unused)} stale baseline "
                 f"entr{'y' if len(result.baseline_unused) == 1 else 'ies'} "
                 f"(--strict-baseline)")
        exit_code = max(exit_code, 1)
    return CommandResult(text, report, exit_code=exit_code)


def _sanitize_workout(long_hold_s: Optional[float],
                      demo_inversion: bool) -> dict:
    """A deterministic multi-threaded lock exercise under the sanitizer.

    Three workers hammer a ``state -> journal`` two-lock hierarchy in a
    consistent order, then rendezvous on a condition variable (which
    exercises the wait/reacquire bookkeeping).  ``demo_inversion`` adds
    one deliberate reversed acquisition so users can see what a failing
    report looks like (and scripts can test their gates).
    """
    import threading

    from . import sanitize

    with sanitize.activated(long_hold_s=long_hold_s) as sanitizer:
        state = sanitize.make_lock("cli.workout.state")
        journal = sanitize.make_rlock("cli.workout.journal")
        turnstile = sanitize.make_condition("cli.workout.turnstile")
        progress = {"writes": 0, "done": 0}

        def worker() -> None:
            for _ in range(25):
                with state:
                    with journal:
                        progress["writes"] += 1
            with turnstile:
                progress["done"] += 1
                turnstile.notify_all()

        threads = [threading.Thread(target=worker, name=f"workout-{i}")
                   for i in range(3)]
        for thread in threads:
            thread.start()
        with turnstile:
            turnstile.wait_for(lambda: progress["done"] == len(threads),
                               timeout=30.0)
        for thread in threads:
            thread.join()
        if demo_inversion:
            def inverted() -> None:
                with journal:
                    with state:
                        progress["writes"] += 1

            rogue = threading.Thread(target=inverted, name="workout-rogue")
            rogue.start()
            rogue.join()
        return sanitize.build_sanitize_report(sanitizer)


def cmd_sanitize_report(args) -> CommandResult:
    """Exercise (or validate) the runtime lock-order sanitizer."""
    import json as _json

    from . import sanitize
    from .errors import ConfigurationError

    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as handle:
                doc = _json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read sanitize report {args.input!r}: {exc}")
        doc = sanitize.validate_sanitize_report(doc)
    else:
        doc = _sanitize_workout(args.long_hold_s, args.demo_inversion)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return CommandResult(sanitize.render_sanitize_report(doc), doc,
                         exit_code=0 if doc["clean"] else 1)


def cmd_chaos(args) -> CommandResult:
    from .obs import Obs
    from .resil import SCENARIOS, render_chaos_report, run_chaos_scenario

    scenario = SCENARIOS[args.scenario]
    obs = Obs()
    result = run_chaos_scenario(scenario, seed=args.seed,
                                n_jobs=args.jobs, obs=obs)
    return CommandResult(render_chaos_report(result), result)


def cmd_serve(args) -> CommandResult:
    """Run the campaign service until interrupted (Ctrl-C)."""
    from .errors import ConfigurationError
    from .obs import Obs
    from .service import ServiceServer, build_service

    if args.store is None:
        raise ConfigurationError("serve requires --store DIR")
    obs = Obs()
    app = build_service(args.store, tokens_file=args.tokens, obs=obs)
    server = ServiceServer(app, host=args.host, port=args.port)
    tokens = "demo tokens" if args.tokens is None else args.tokens
    # Announce before blocking so wrappers (CI smoke) can wait on the line.
    print(f"serving campaign API on http://{args.host}:{args.port} "
          f"(store {args.store}, auth: {tokens})", flush=True)
    server.run()
    return CommandResult("server stopped", {
        "command": "serve",
        "host": args.host,
        "port": args.port,
        "store": args.store,
        "campaigns": len(app.runner.state.list()),
    })


def _service_client(args):
    from .service import ServiceClient

    return ServiceClient(args.url, args.token)


def _campaign_lines(doc) -> list:
    lines = [
        f"campaign:  {doc['id']}  ({doc['state']})",
        f"owner:     {doc['user']}",
        f"spec:      {doc['spec_fingerprint'][:16]}...  "
        f"{doc['spec']['kind']}, "
        f"{len(doc['spec']['kappas'])}x{len(doc['spec']['velocities'])} "
        f"cells, {doc['spec']['n_samples']} samples/cell",
    ]
    if doc.get("coalesced_with"):
        lines.append(f"coalesced: served by {doc['coalesced_with']} "
                     f"(identical spec, one computation)")
    if doc.get("result_digest"):
        lines.append(f"result:    digest {doc['result_digest'][:16]}... "
                     f"(ETag for GET {doc['links']['result']})")
    if doc.get("error"):
        lines.append(f"error:     {doc['error']}")
    return lines


def cmd_submit(args) -> CommandResult:
    """Submit a spec file to a running service (optionally wait)."""
    import json as _json

    from .errors import ConfigurationError

    if args.spec is None:
        raise ConfigurationError(
            "submit requires --spec FILE ('-' for stdin)")
    if args.spec == "-":
        spec = _json.load(sys.stdin)
    else:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                spec = _json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read spec file {args.spec!r}: {exc}")
    with closing(_service_client(args)) as client:
        doc = client.submit(spec)
        if args.wait and doc["state"] not in ("completed", "degraded",
                                              "failed", "cancelled"):
            doc = client.wait_for(doc["id"])
    return CommandResult("\n".join(_campaign_lines(doc)), {
        "command": "submit",
        "campaign": doc,
    })


def cmd_status(args) -> CommandResult:
    """Show one campaign (or list all visible ones) on a service."""
    with closing(_service_client(args)) as client:
        return _status(client, args)


def _status(client, args) -> CommandResult:
    if args.campaign is None:
        docs = client.campaigns()
        if not docs:
            return CommandResult("no campaigns", {
                "command": "status", "campaigns": []})
        width = max(len(d["id"]) for d in docs)
        lines = [
            f"{d['id']:<{width}}  {d['state']:<9}  "
            f"{d['spec_fingerprint'][:12]}  "
            + (f"-> {d['coalesced_with']}" if d.get("coalesced_with")
               else f"owner {d['user']}")
            for d in docs
        ]
        return CommandResult("\n".join(lines), {
            "command": "status", "campaigns": docs})
    doc = client.campaign(args.campaign)
    lines = _campaign_lines(doc)
    summary = {"command": "status", "campaign": doc}
    if args.result and doc.get("result_digest"):
        result, etag = client.result(args.campaign)
        summary["result"] = result
        lines.append(f"cells:     {result['n_cells']} with PMFs, "
                     f"{len(result['dead_tasks'])} dead task(s), "
                     f"degraded: {result['degraded']}")
    return CommandResult("\n".join(lines), summary)


def cmd_dlq(args) -> CommandResult:
    """Inspect or requeue a store's dead-letter queue (offline).

    ``retry`` marks entries requeued so the next resumed run recomputes
    them (``repro campaign --store DIR --resume --dlq``, or the service's
    ``POST .../dlq/retry`` which also re-runs).  Requeueing is idempotent:
    repeating it is a no-op, and a task that fails again is re-recorded
    as a redelivery on its existing entry, never duplicated.
    """
    import os

    from .errors import ConfigurationError
    from .resil import DeadLetterQueue, store_dlq_path

    if args.store is None:
        raise ConfigurationError("dlq requires --store DIR")
    path = store_dlq_path(args.store)
    if not os.path.isfile(path):
        raise ConfigurationError(f"no dead-letter queue at {path!r}")
    dlq = DeadLetterQueue(path)
    if args.action == "retry":
        selectors = list(args.fingerprint or [])
        flipped = dlq.requeue(fingerprints=selectors or None)
        summary = dlq.summary()
        text = (f"requeued {len(flipped)} task(s); "
                f"{summary['depth']} still dead, "
                f"{summary['requeued']} awaiting retry\n"
                f"replay with: repro campaign --store {args.store} "
                f"--resume --dlq")
        return CommandResult(text, {
            "command": "dlq",
            "action": "retry",
            "requeued": [e["fingerprint"] for e in flipped],
            "summary": summary,
        })
    summary = dlq.summary()
    lines = [f"dead-letter queue {path}",
             f"  depth {summary['depth']}  requeued {summary['requeued']}  "
             f"total {summary['total']}  "
             f"redeliveries {summary['redeliveries']}"]
    for entry in dlq.entries():
        status = "requeued" if entry.get("requeued") else entry["reason"]
        lines.append(
            f"  [{status}] {','.join(str(p) for p in entry['task_key'])}  "
            f"attempts {entry['attempts']}  "
            f"deliveries {entry.get('deliveries', 1)}")
    return CommandResult("\n".join(lines), {
        "command": "dlq",
        "action": "list",
        "summary": summary,
        "entries": dlq.entries(),
    })


#: The result-store flags ``campaign`` and ``report`` share.
_STORE_ARGS: Tuple[Arg, ...] = (
    _arg("--store", default=None, metavar="DIR",
         help="content-addressed result store: memoize every "
              "(cell, replica) task under DIR"),
    _arg("--resume", action="store_true",
         help="resume from existing records in --store DIR "
              "(recomputes only missing tasks, bit-identical result)"),
    _arg("--dlq", action="store_true",
         help="attach a durable dead-letter queue (<store>/DLQ.jsonl): "
              "permanently-failing tasks are recorded and the campaign "
              "completes degraded instead of raising"),
)


COMMANDS: Dict[str, CommandSpec] = {
    spec.name: spec
    for spec in [
        CommandSpec(
            "structure", "Fig. 1 structural summary", cmd_structure,
            args=(_arg("--bases", type=int, default=12),),
            seed_default=7,
        ),
        CommandSpec(
            "pmf", "one SMD-JE PMF estimate", cmd_pmf,
            args=(
                _arg("--kappa", type=float, default=100.0,
                     help="spring constant in pN/A"),
                _arg("--velocity", type=float, default=12.5,
                     help="pulling velocity in A/ns"),
                _arg("--samples", type=int, default=48),
            ),
        ),
        CommandSpec(
            "estimate", "free-energy estimate via a chosen estimator",
            cmd_estimate,
            args=(
                _arg("--method", default="fr",
                     choices=("exponential", "cumulant", "block",
                              "parallel-pull", "fr"),
                     help="estimator: 'fr' pairs forward with "
                          "time-mirrored reverse pulls (bias-free means, "
                          "plus a position-resolved diffusion profile); "
                          "'parallel-pull' groups replicas into composite "
                          "pulls"),
                _arg("--kappa", type=float, default=100.0,
                     help="spring constant in pN/A"),
                _arg("--velocity", type=float, default=12.5,
                     help="pulling velocity in A/ns"),
                _arg("--distance", type=float, default=10.0),
                _arg("--start-z", type=float, default=-5.0),
                _arg("--samples", type=int, default=24,
                     help="replicas per direction (fr runs both)"),
                _arg("--group-size", type=int, default=None,
                     help="parallel-pull group size M "
                          "(default: round(sqrt(m)))"),
            ),
        ),
        CommandSpec(
            "fig4", "the full (kappa, v) parameter study", cmd_fig4,
            args=(_arg("--samples", type=int, default=48),),
        ),
        CommandSpec(
            "campaign", "three-phase SPICE campaign", cmd_campaign,
            args=(
                _arg("--replicas", type=int, default=6),
                *_STORE_ARGS,
                _arg("--adaptive", action="store_true",
                     help="adaptive replica allocation: pilot each "
                          "sub-trajectory bin, block-bootstrap the JE "
                          "bias/variance, and spend the remaining budget "
                          "on the worst bins (every round's tasks are "
                          "memoized in --store when given)"),
                _arg("--budget", type=int, default=40,
                     help="total replica budget for --adaptive"),
                _arg("--bins", type=int, default=4,
                     help="sub-trajectory windows for --adaptive"),
                _arg("--pilot", type=int, default=4,
                     help="pilot replicas per bin for --adaptive"),
            ),
        ),
        CommandSpec(
            "report", "instrumented campaign rendered as a run report",
            cmd_report,
            args=(
                _arg("--replicas", type=int, default=6),
                *_STORE_ARGS,
            ),
        ),
        CommandSpec(
            "qos", "IMD interactivity vs network QoS", cmd_qos,
            args=(_arg("--frames", type=int, default=80),),
            seed_default=3,
        ),
        CommandSpec(
            "ti", "thermodynamic-integration PMF", cmd_ti,
            args=(
                _arg("--replicas", type=int, default=16),
                _arg("--stations", type=int, default=21),
            ),
            seed_default=11,
        ),
        CommandSpec(
            "production", "full-axis PMF from stitched sub-trajectories",
            cmd_production,
            args=(
                _arg("--samples", type=int, default=24),
                _arg("--z-min", type=float, default=-30.0),
                _arg("--z-max", type=float, default=30.0),
            ),
        ),
        CommandSpec(
            "bench", "accuracy benchmark, writes BENCH_adaptive.json",
            cmd_bench,
            args=(
                _arg("--quick", action="store_true",
                     help="CI smoke scale (fewer budget points)"),
                _arg("--out-dir", default=".",
                     help="directory for BENCH_adaptive.json"),
            ),
        ),
        CommandSpec(
            "lint", "static determinism & invariant checks (exit 1 on "
                    "violations)",
            cmd_lint,
            args=(
                _arg("paths", nargs="*",
                     default=["src", "tests", "examples"],
                     help="files or directories to lint "
                          "(default: src tests examples)"),
                _arg("--select", default="",
                     help="comma-separated rule-id prefixes to run "
                          "(e.g. SPICE001,SPICE2)"),
                _arg("--ignore", default="",
                     help="comma-separated rule-id prefixes to skip"),
                _arg("--baseline", default="lint-baseline.txt",
                     help="baseline file of standing suppressions "
                          "(missing file = empty baseline)"),
                _arg("--strict-baseline", action="store_true",
                     help="exit 1 when the baseline holds stale entries "
                          "that no longer match any finding (CI mode)"),
            ),
        ),
        CommandSpec(
            "sanitize-report",
            "runtime lock-order sanitizer: run the built-in lock workout "
            "or validate a captured report (exit 1 on inversions)",
            cmd_sanitize_report,
            args=(
                _arg("--input", default=None, metavar="FILE",
                     help="validate and render an existing "
                          "repro.sanitize.report/v1 JSON document instead "
                          "of running the workout"),
                _arg("--out", default=None, metavar="FILE",
                     help="also write the report JSON to FILE"),
                _arg("--long-hold-s", type=float, default=None,
                     help="long-hold threshold in seconds (default 5.0, "
                          "or REPRO_SANITIZE_LONG_HOLD_S)"),
                _arg("--demo-inversion", action="store_true",
                     help="seed a deliberate ABBA lock-order inversion so "
                          "the report (and your gate) shows a failure"),
            ),
        ),
        CommandSpec(
            "chaos", "fault scenario against the resilient campaign",
            cmd_chaos,
            args=(
                # Keep in sync with repro.resil.SCENARIOS (imported lazily
                # so the CLI table stays import-light); pinned by
                # test_scenario_choices_are_the_registered_scenarios.
                _arg("--scenario", default="breach-partition",
                     choices=("baseline", "breach", "breach-partition",
                              "cascade", "permafail"),
                     help="named fault scenario"),
                _arg("--jobs", type=int, default=72,
                     help="campaign size (paper batch: 72)"),
            ),
        ),
        CommandSpec(
            "serve", "campaign-as-a-service HTTP API over a shared store",
            cmd_serve,
            args=(
                _arg("--store", default=None, metavar="DIR",
                     help="result store every campaign memoizes "
                          "into (created if missing; service state lives "
                          "under DIR/.service)"),
                _arg("--host", default="127.0.0.1"),
                _arg("--port", type=int, default=8750),
                _arg("--tokens", default=None, metavar="FILE",
                     help="JSON tokens file (see repro.service.auth); "
                          "default: fixed demo tokens, laptop use only"),
            ),
        ),
        CommandSpec(
            "submit", "submit a campaign spec to a running service",
            cmd_submit,
            args=(
                _arg("--url", default="http://127.0.0.1:8750",
                     help="service base URL"),
                _arg("--token", default="spice-operator-token",
                     help="bearer token"),
                _arg("--spec", default=None, metavar="FILE",
                     help="campaign spec JSON file ('-' for stdin)"),
                _arg("--wait", action="store_true",
                     help="long-poll events until the campaign is "
                          "terminal"),
            ),
        ),
        CommandSpec(
            "status", "query a running service for campaign state",
            cmd_status,
            args=(
                _arg("campaign", nargs="?", default=None,
                     help="campaign id (omit to list all visible)"),
                _arg("--url", default="http://127.0.0.1:8750",
                     help="service base URL"),
                _arg("--token", default="spice-operator-token",
                     help="bearer token"),
                _arg("--result", action="store_true",
                     help="also fetch the result document"),
            ),
        ),
        CommandSpec(
            "dlq", "inspect or requeue a store's dead-letter queue",
            cmd_dlq,
            args=(
                _arg("action", nargs="?", default="list",
                     choices=("list", "retry"),
                     help="list entries, or requeue them for replay"),
                _arg("--store", default=None, metavar="DIR",
                     help="store directory holding DLQ.jsonl"),
                _arg("--fingerprint", action="append", metavar="FP",
                     help="requeue only this fingerprint (repeatable; "
                          "default: every active entry)"),
            ),
        ),
    ]
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPICE reproduction: SMD-JE free energies on a "
                    "simulated federated grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in COMMANDS.values():
        p = sub.add_parser(spec.name, help=spec.help)
        for a in spec.args:
            p.add_argument(*a.flags, **a.kwargs)
        p.add_argument("--seed", type=int, default=spec.seed_default,
                       help="base RNG seed")
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable summary as JSON")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .errors import ReproError
    from .obs import render_json

    args = build_parser().parse_args(argv)
    spec = COMMANDS[args.command]
    try:
        result = spec.runner(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(render_json(result.summary))
    else:
        print(result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
