"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones are executed in-process
(their ``main()`` imported from the file) so a refactor that breaks an
example fails the suite, not a user's first experience.
"""

import importlib.util
import pathlib
import py_compile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

# Fast enough to execute inside the test suite (seconds, not minutes).
RUNNABLE = ["quickstart.py", "pmf_parameter_study.py"]


def load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in ALL_EXAMPLES}
        assert "quickstart.py" in names
        assert len(ALL_EXAMPLES) >= 8

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_runs(self, name, capsys):
        module = load_module(EXAMPLES_DIR / name)
        module.main()
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report

    def test_examples_use_unified_front_door(self):
        # The quickstart and parameter study must go through the one
        # estimator front door (repro.core.estimate_pmf and its registry),
        # not reach into estimator submodules directly.
        quickstart = (EXAMPLES_DIR / "quickstart.py").read_text()
        study = (EXAMPLES_DIR / "pmf_parameter_study.py").read_text()
        assert "estimate_pmf(" in quickstart
        assert "available_estimators" in study

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_no_deprecated_submodule_imports(self, path):
        # Examples teach the public API: package front doors only, never
        # repro.core.<estimator module> internals.
        source = path.read_text()
        for private in ("repro.core.jarzynski", "repro.core.estimators",
                        "repro.core.pmf", "repro.core.errors"):
            assert private not in source, (
                f"{path.name} imports {private}; use the repro.core "
                f"front door instead")

    def test_quickstart_reports_small_error(self, capsys):
        module = load_module(EXAMPLES_DIR / "quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "max deviation" in out
        # Parse the reported deviation: the quickstart promise is accuracy.
        line = [l for l in out.splitlines() if "max deviation" in l][0]
        value = float(line.split(":")[1].split()[0])
        assert value < 5.0
