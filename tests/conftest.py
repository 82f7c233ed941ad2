"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.pore import (
    ReducedTranslocationModel,
    default_reduced_potential,
)
from repro.smd import PullingProtocol, run_pulling_ensemble


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed", type=int, default=2005,
        help="base seed for chaos-scenario tests (CI sweeps several)",
    )


@pytest.fixture
def chaos_seed(request):
    return request.config.getoption("--chaos-seed")


@pytest.fixture(scope="session", autouse=True)
def session_sanitizer():
    """Run the whole session under the lock sanitizer when asked.

    With ``REPRO_SANITIZE`` truthy (the CI ``sanitize-smoke`` job) a
    sanitizer is installed before any test builds a lock, so every
    factory-built lock in the code under test is instrumented.  At
    teardown the report is written to ``$REPRO_SANITIZE_REPORT`` (when
    set) for the CI gate/artifact, and any observed lock-order
    inversion fails the session outright.
    """
    from repro import sanitize

    if os.environ.get("REPRO_SANITIZE", "").lower() not in (
            "1", "true", "yes", "on"):
        yield None
        return
    sanitizer = sanitize.install()
    yield sanitizer
    report = sanitize.build_sanitize_report(sanitizer)
    out = os.environ.get("REPRO_SANITIZE_REPORT")
    if out:
        import json

        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    assert report["clean"], sanitize.render_sanitize_report(report)


@pytest.fixture
def sanitizer():
    """A scoped sanitizer for tests that drive threaded code directly."""
    from repro import sanitize

    with sanitize.activated() as active:
        yield active


#: Repo-root entries tooling legitimately creates while the suite runs.
_ALLOWED_NEW_ROOT_ENTRIES = {
    ".pytest_cache", "__pycache__", ".hypothesis", ".benchmarks",
    ".coverage", "coverage.xml", "htmlcov",
}


@pytest.fixture(autouse=True)
def no_repo_root_writes():
    """Guard: no test may litter the repository root.

    Every artifact a test writes (store directories, BENCH_*.json,
    reports) belongs under pytest's tmp_path.  The fixture snapshots the
    current directory's entries around each test and fails on anything
    new beyond the usual tooling caches — so a stray relative path fails
    the offending test, not a later session's git status.
    """
    root = os.getcwd()
    before = set(os.listdir(root))
    yield
    leaked = {
        e for e in set(os.listdir(root)) - before
        if e not in _ALLOWED_NEW_ROOT_ENTRIES
        and not e.startswith(".coverage")
    }
    assert not leaked, (
        f"test wrote to the repo root: {sorted(leaked)}; "
        "use tmp_path / the result_store fixture instead"
    )


@pytest.fixture
def result_store(tmp_path):
    """A fresh ResultStore rooted in this test's tmp directory."""
    from repro.store import ResultStore

    return ResultStore(os.fspath(tmp_path / "store"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def reduced_model():
    return ReducedTranslocationModel(default_reduced_potential())


@pytest.fixture
def small_ensemble(reduced_model):
    """A small but statistically usable work ensemble (cached per session)."""
    proto = PullingProtocol(kappa_pn=100.0, velocity=50.0, distance=5.0,
                            start_z=-2.5, equilibration_ns=0.01)
    return run_pulling_ensemble(reduced_model, proto, n_samples=16, seed=7)
