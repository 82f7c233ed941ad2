"""Fixture tests for every repro.lint rule: each rule gets at least one
snippet it must flag and one adjacent snippet it must leave alone."""

import textwrap

import pytest

from repro.lint import all_rules, lint_source
from repro.lint.rules_api import RETIRED_NAMES


def run_lint(relpath, source):
    violations, suppressed = lint_source(
        relpath, textwrap.dedent(source), all_rules())
    return violations, suppressed


def rule_ids(relpath, source):
    violations, _ = run_lint(relpath, source)
    return [v.rule for v in violations]


class TestParseFailure:
    def test_syntax_error_is_spice000(self):
        ids = rule_ids("src/repro/md/broken.py", "def f(:\n")
        assert ids == ["SPICE000"]

    def test_location_points_at_the_error(self):
        violations, _ = run_lint("src/repro/md/broken.py", "x = 1\ndef f(:\n")
        assert violations[0].line == 2


class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        src = """\
        import random
        x = random.random()
        """
        assert rule_ids("src/repro/md/foo.py", src) == ["SPICE001"]

    def test_numpy_legacy_global_flagged(self):
        src = """\
        import numpy as np
        np.random.seed(7)
        y = np.random.rand(3)
        """
        assert rule_ids("src/repro/smd/foo.py", src) == ["SPICE001"] * 2

    def test_generator_method_not_flagged(self):
        # rng.random() on an explicit Generator is the sanctioned call.
        src = """\
        from repro.rng import as_generator
        rng = as_generator(42)
        x = rng.random()
        """
        assert rule_ids("src/repro/md/foo.py", src) == []

    def test_rng_module_is_exempt(self):
        src = """\
        import random
        x = random.random()
        """
        assert rule_ids("src/repro/rng.py", src) == []


class TestWallClock:
    def test_time_time_in_core_flagged(self):
        src = """\
        import time
        t0 = time.time()
        """
        assert rule_ids("src/repro/core/foo.py", src) == ["SPICE002"]

    def test_datetime_now_flagged(self):
        src = """\
        import datetime
        stamp = datetime.datetime.now()
        """
        assert rule_ids("src/repro/resil/foo.py", src) == ["SPICE002"]

    def test_outside_deterministic_core_not_flagged(self):
        # repro.obs / repro.perf legitimately read clocks.
        src = """\
        import time
        t0 = time.perf_counter()
        """
        assert rule_ids("src/repro/obs/foo.py", src) == []

    def test_time_sleep_not_flagged(self):
        src = """\
        import time
        time.sleep(0.1)
        """
        assert rule_ids("src/repro/core/foo.py", src) == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        src = """\
        for pair in {(0, 1), (1, 2)}:
            print(pair)
        """
        assert rule_ids("src/repro/md/foo.py", src) == ["SPICE003"]

    def test_comprehension_over_set_call_flagged(self):
        src = "out = [f(x) for x in set(items)]\n"
        assert rule_ids("src/repro/grid/foo.py", src) == ["SPICE003"]

    def test_enumerate_does_not_launder_a_set(self):
        src = """\
        for i, x in enumerate({1, 2, 3}):
            print(i, x)
        """
        assert rule_ids("src/repro/workflow/foo.py", src) == ["SPICE003"]

    def test_sorted_set_not_flagged(self):
        src = """\
        for pair in sorted({(0, 1), (1, 2)}):
            print(pair)
        """
        assert rule_ids("src/repro/md/foo.py", src) == []

    def test_out_of_scope_package_not_flagged(self):
        src = "out = [x for x in {1, 2}]\n"
        assert rule_ids("src/repro/obs/foo.py", src) == []


class TestUnseededDefaultRng:
    def test_bare_default_rng_flagged(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng()
        """
        assert rule_ids("src/repro/core/foo.py", src) == ["SPICE004"]

    def test_from_import_alias_resolved(self):
        src = """\
        from numpy.random import default_rng
        rng = default_rng()
        """
        assert rule_ids("tests/test_foo.py", src) == ["SPICE004"]

    def test_seeded_default_rng_not_flagged(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(42)
        """
        assert rule_ids("src/repro/core/foo.py", src) == []


class TestDeepImport:
    def test_deep_core_import_in_tests_flagged(self):
        src = "from repro.core.pmf import PMFEstimate\n"
        assert rule_ids("tests/test_foo.py", src) == ["SPICE101"]

    def test_plain_import_form_flagged(self):
        src = "import repro.core.diagnostics\n"
        assert rule_ids("examples/demo.py", src) == ["SPICE101"]

    def test_front_door_import_not_flagged(self):
        src = "from repro.core import PMFEstimate, estimate_pmf\n"
        assert rule_ids("tests/test_foo.py", src) == []

    def test_src_internals_may_deep_import(self):
        # Inside the package, submodule imports are the normal layout.
        src = "from repro.core.pmf import PMFEstimate\n"
        assert rule_ids("src/repro/smd/foo.py", src) == []


class TestFrontDoor:
    def test_raw_estimator_import_flagged(self):
        src = "from repro.core import exponential_estimator\n"
        assert rule_ids("tests/test_foo.py", src) == ["SPICE102"]

    def test_jarzynski_submodule_flags_both_rules(self):
        src = "from repro.core.jarzynski import cumulant_estimator\n"
        assert sorted(rule_ids("examples/demo.py", src)) == [
            "SPICE101", "SPICE102"]

    def test_one_violation_per_imported_name(self):
        src = ("from repro.core import (exponential_estimator,\n"
               "                        block_estimator)\n")
        assert rule_ids("tests/test_foo.py", src) == ["SPICE102"] * 2

    def test_second_generation_estimators_flagged(self):
        src = ("from repro.core import (fr_estimator,\n"
               "                        parallel_pull_estimator)\n")
        assert rule_ids("tests/test_foo.py", src) == ["SPICE102"] * 2

    def test_estimate_pmf_not_flagged(self):
        src = "from repro.core import estimate_pmf, check_estimator\n"
        assert rule_ids("tests/test_foo.py", src) == []


def _retired_fixture(pattern):
    """One line that spells a retired-name entry the way it matches."""
    name = pattern.rstrip("*=")
    if pattern.endswith("*"):
        return f"value = {name}PullingForce()\n"
    if pattern.endswith("="):
        return f"run(tasks, {name}=False)\n"
    if "." in pattern:
        return f"from {name} import anything\n"
    return f"value = {name}\n"


class TestRetiredName:
    @pytest.mark.parametrize("pattern", RETIRED_NAMES)
    def test_each_row_is_flagged(self, pattern):
        violations, _ = run_lint("tools/script.py", _retired_fixture(pattern))
        assert [v.rule for v in violations] == ["SPICE104"]
        assert pattern in violations[0].message
        assert RETIRED_NAMES[pattern] in violations[0].message

    def test_every_identifier_form_is_matched(self):
        src = """\
        from repro.smd import run_work_ensemble
        import repro.core.estimators as registry
        class BatchedSMDRecorder:
            def store_key(self, campaign_key):
                return self.skipped_prefix
        run(stiff_spring=True, collect=True)
        """
        assert rule_ids("tools/script.py", src) == ["SPICE104"] * 8

    def test_relative_import_inside_the_package_is_matched(self):
        src = "from .estimators import register_estimator\n"
        assert rule_ids("src/repro/core/foo.py", src) == ["SPICE104"]

    def test_string_call_arguments_are_matched(self):
        # A string argument reaches a name through getattr / import_module
        # / patch; other strings (docstrings, assigned text) do not, and a
        # keyword-only entry ("collect=") never matches a string.
        src = '''\
        """Nothing here calls systematic_error."""
        getattr(store, "store_key")
        importlib.import_module("repro.core.estimators")
        patch("repro.core.estimators.available_estimators")
        svc.run("collect")
        message = "estimate_free_energy"
        '''
        assert rule_ids("tools/script.py", src) == ["SPICE104"] * 3

    def test_whole_names_only(self):
        # Historical test-class names keep their ids; a method spelled
        # like a retired keyword is not that keyword.
        src = """\
        class TestBatchedSimulation:
            def test_stiff_spring_limit(self, svc):
                return svc.collect("a"), gc.collect()
        estimate_pmf(ensemble, "fr", reverse=other)
        """
        assert rule_ids("tests/test_foo.py", src) == []


class TestObsThreading:
    def test_seeded_run_entry_point_without_obs_flagged(self):
        src = """\
        def run_sweep(model, n_samples, seed=None):
            return n_samples
        """
        assert rule_ids("src/repro/smd/foo.py", src) == ["SPICE103"]

    def test_obs_parameter_satisfies_the_rule(self):
        src = """\
        def run_sweep(model, n_samples, seed=None, obs=None):
            return n_samples
        """
        assert rule_ids("src/repro/smd/foo.py", src) == []

    def test_keyword_only_obs_counts(self):
        src = """\
        def run_sweep(model, *, seed=None, obs=None):
            return model
        """
        assert rule_ids("src/repro/core/foo.py", src) == []

    def test_unseeded_helpers_and_nested_defs_ignored(self):
        src = """\
        def run_render(report):
            def run_inner(seed=None):
                return seed
            return run_inner(0)
        """
        assert rule_ids("src/repro/workflow/foo.py", src) == []

    def test_non_spawning_package_not_flagged(self):
        src = """\
        def run_sweep(model, seed=None):
            return model
        """
        assert rule_ids("src/repro/pore/foo.py", src) == []


class TestFloatEquality:
    def test_equality_on_work_flagged(self):
        src = "assert total_work == 3.0\n"
        assert rule_ids("tests/test_foo.py", src) == ["SPICE201"]

    def test_inequality_on_energy_attribute_flagged(self):
        src = """\
        if sim.potential_energy() != 0.0:
            raise ValueError
        """
        assert rule_ids("src/repro/md/foo.py", src) == ["SPICE201"]

    def test_shape_comparison_not_flagged(self):
        # The outermost identifier names the compared quantity: .shape on
        # a works array is a tuple of ints, exact compare is right.
        src = "assert ens.works.shape == (6, 11)\n"
        assert rule_ids("tests/test_foo.py", src) == []

    def test_pytest_approx_is_sanctioned(self):
        src = "assert rec.work == pytest.approx(1.5)\n"
        assert rule_ids("tests/test_foo.py", src) == []

    def test_unrelated_words_not_flagged(self):
        src = "assert n_workers == 4\n"
        assert rule_ids("tests/test_foo.py", src) == []


class TestMagicConstant:
    def test_high_precision_literal_flagged(self):
        src = "KC = 332.0637\n"
        assert rule_ids("src/repro/md/foo.py", src) == ["SPICE202"]

    def test_scientific_notation_flagged(self):
        src = "E = 1.602176634e-19\n"
        assert rule_ids("src/repro/pore/foo.py", src) == ["SPICE202"]

    def test_tolerances_and_model_params_pass(self):
        src = """\
        eps = 1e-12
        rise = 6.5
        cutoff = 12.0
        frac = 0.25
        """
        assert rule_ids("src/repro/smd/foo.py", src) == []

    def test_out_of_scope_package_not_flagged(self):
        src = "KC = 332.0637\n"
        assert rule_ids("src/repro/grid/foo.py", src) == []


class TestBatchedKernelContract:
    def test_stream_minting_in_batched_module_flagged(self):
        src = """\
        import numpy as np

        def pull(groups):
            rng = np.random.default_rng(0)
            return rng.standard_normal(4)
        """
        assert rule_ids("src/repro/smd/batched.py", src) == ["SPICE105"]

    def test_as_generator_in_batched_module_flagged(self):
        src = """\
        from repro.rng import as_generator

        def pull(seed):
            return as_generator(seed)
        """
        assert rule_ids("src/repro/md/batch.py", src) == ["SPICE105"]

    def test_stream_for_is_the_allowed_derivation(self):
        src = """\
        from repro.rng import stream_for

        def pull(base_seed, shard):
            return stream_for(base_seed, "smd.shard", shard)
        """
        assert rule_ids("src/repro/smd/batched.py", src) == []

    def test_minting_outside_batched_modules_allowed(self):
        src = """\
        from repro.rng import as_generator

        def helper(seed):
            return as_generator(seed)
        """
        assert rule_ids("src/repro/smd/ensemble.py", src) == []

    def test_tests_and_examples_exempt(self):
        src = """\
        from repro.rng import as_generator

        def pull(seed):
            return as_generator(seed)
        """
        assert rule_ids("tests/test_batch.py", src) == []
        assert rule_ids("examples/batch_demo.py", src) == []


class TestIndexLayerDiscipline:
    def test_listdir_in_store_module_flagged(self):
        src = """\
        import os
        names = os.listdir(root)
        """
        assert rule_ids("src/repro/store/record.py", src) == ["SPICE106"]

    def test_os_walk_alias_resolved(self):
        src = """\
        from os import walk
        for _root, _dirs, _files in walk(base):
            pass
        """
        assert rule_ids("src/repro/store/store.py", src) == ["SPICE106"]

    def test_index_layer_is_exempt(self):
        src = """\
        import os
        names = os.listdir(root)
        """
        assert rule_ids("src/repro/store/index.py", src) == []

    def test_other_grid_modules_and_tests_out_of_scope(self):
        src = """\
        import os
        names = os.listdir(root)
        """
        assert rule_ids("src/repro/grid/scheduler.py", src) == []
        assert rule_ids("tests/test_store.py", src) == []

    def test_non_enumerating_os_calls_pass(self):
        src = """\
        import os
        os.replace(tmp, final)
        path = os.path.join(root, "ab")
        """
        assert rule_ids("src/repro/store/record.py", src) == []


class TestNoqaSuppression:
    def test_targeted_noqa_suppresses_named_rule(self):
        src = "KC = 332.0637  # spice: noqa SPICE202\n"
        violations, suppressed = run_lint("src/repro/md/foo.py", src)
        assert violations == []
        assert suppressed == 1

    def test_bare_noqa_suppresses_everything_on_the_line(self):
        src = "import random\nx = random.random()  # spice: noqa\n"
        violations, suppressed = run_lint("src/repro/md/foo.py", src)
        assert violations == []
        assert suppressed == 1

    def test_noqa_for_a_different_rule_does_not_apply(self):
        src = "KC = 332.0637  # spice: noqa SPICE001\n"
        violations, suppressed = run_lint("src/repro/md/foo.py", src)
        assert [v.rule for v in violations] == ["SPICE202"]
        assert suppressed == 0


class TestViolationRendering:
    def test_render_is_ruff_style(self):
        violations, _ = run_lint("src/repro/md/foo.py", "KC = 332.0637\n")
        line = violations[0].render()
        assert line.startswith("src/repro/md/foo.py:1:")
        assert "SPICE202" in line

    def test_reports_are_sorted_and_deterministic(self):
        src = "import random\nKC = 332.0637\nx = random.random()\n"
        a, _ = run_lint("src/repro/md/foo.py", src)
        b, _ = run_lint("src/repro/md/foo.py", src)
        assert [str(v) for v in a] == [str(v) for v in b]
        assert [v.line for v in a] == sorted(v.line for v in a)


class TestGuardedField:
    def test_unguarded_read_of_locked_field_flagged(self):
        src = """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value

            def get(self, key):
                return self._items.get(key)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE301"]

    def test_mutator_method_counts_as_unguarded_write(self):
        src = """\
        import threading

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._pending = []

            def put(self, item):
                with self._lock:
                    self._pending.append(item)

            def put_fast(self, item):
                self._pending.append(item)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE301"]

    def test_all_accesses_under_lock_clean(self):
        src = """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value

            def get(self, key):
                with self._lock:
                    return self._items.get(key)
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_init_writes_do_not_vote_or_get_flagged(self):
        # Construction-time writes happen before any other thread can
        # see the object; only post-__init__ writes define the guard.
        src = """\
        import threading

        class Plain:
            def __init__(self):
                self._lock = threading.Lock()
                self._config = {}

            def config(self):
                return self._config
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_sanitize_factory_lock_recognized(self):
        src = """\
        from repro.sanitize import make_rlock

        class Store:
            def __init__(self):
                self._guard = make_rlock("store")
                self._items = {}

            def put(self, key, value):
                with self._guard:
                    self._items[key] = value

            def get(self, key):
                return self._items.get(key)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE301"]

    def test_nested_callback_does_not_inherit_lock_region(self):
        # The closure runs later (usually on another thread): its write
        # is NOT under the lexically enclosing `with self._lock`.
        src = """\
        import threading

        class Sched:
            def __init__(self):
                self._lock = threading.Lock()
                self._done = {}

            def mark(self, key):
                with self._lock:
                    self._done[key] = True

            def defer(self, key, submit):
                with self._lock:
                    def callback():
                        self._done[key] = False
                    submit(callback)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE301"]


class TestLockOrder:
    def test_abba_fixture_flagged_statically(self):
        # The same seeded inversion the runtime sanitizer must catch
        # (tests/test_sanitize.py) — one bug, both analysis layers.
        from tests.test_sanitize import ABBA_SOURCE

        ids = rule_ids("src/repro/service/abba.py", ABBA_SOURCE)
        assert ids == ["SPICE302", "SPICE302"]

    def test_consistent_order_clean(self):
        src = """\
        import threading

        class Transfer:
            def __init__(self):
                self._alpha_lock = threading.Lock()
                self._beta_lock = threading.Lock()

            def forward(self):
                with self._alpha_lock:
                    with self._beta_lock:
                        return True

            def also_forward(self):
                with self._alpha_lock:
                    with self._beta_lock:
                        return False
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_cycle_through_method_call_flagged(self):
        # push() holds head and calls _bump() which takes tail; drain()
        # takes tail then head: an inversion only visible through the
        # call-graph fixpoint, not any single with-statement.
        src = """\
        import threading

        class Pipe:
            def __init__(self):
                self._head_lock = threading.Lock()
                self._tail_lock = threading.Lock()

            def push(self):
                with self._head_lock:
                    self._bump()

            def _bump(self):
                with self._tail_lock:
                    return True

            def drain(self):
                with self._tail_lock:
                    with self._head_lock:
                        return True
        """
        assert "SPICE302" in rule_ids("src/repro/service/foo.py", src)


class TestBlockingUnderLock:
    def test_fsync_under_lock_flagged(self):
        src = """\
        import os
        import threading

        class Journal:
            def __init__(self):
                self._lock = threading.Lock()

            def flush(self, handle):
                with self._lock:
                    os.fsync(handle.fileno())
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE303"]

    def test_line_log_append_under_lock_flagged(self):
        # The fsync now hides inside the store's shared append helper.
        src = """\
        import threading

        from ..store.index import append_line

        class Journal:
            def __init__(self):
                self._lock = threading.Lock()

            def log(self, path, line):
                with self._lock:
                    append_line(path, line)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE303"]

    def test_fsync_after_release_clean(self):
        src = """\
        import os
        import threading

        class Journal:
            def __init__(self):
                self._lock = threading.Lock()

            def flush(self, handle):
                with self._lock:
                    fd = handle.fileno()
                os.fsync(fd)
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_executor_shutdown_under_lock_flagged(self):
        # The self-deadlock shape service/runner.py's close() avoids:
        # shutdown(wait=True) under a lock the workers also take.
        src = """\
        import threading

        class Runner:
            def __init__(self, executor):
                self._lock = threading.Lock()
                self._executor = executor

            def close(self):
                with self._lock:
                    self._executor.shutdown(wait=True)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE303"]

    def test_noqa_with_rationale_suppresses(self):
        src = """\
        import os
        import threading

        class Journal:
            def __init__(self):
                self._lock = threading.Lock()

            def flush(self, handle):
                with self._lock:
                    os.fsync(handle.fileno())  # spice: noqa SPICE303
        """
        violations, suppressed = run_lint("src/repro/service/foo.py", src)
        assert violations == []
        assert suppressed == 1


class TestBlockingInAsync:
    def test_sleep_in_async_def_flagged(self):
        src = """\
        import time

        async def handler():
            time.sleep(1)
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE304"]

    def test_bare_open_in_async_def_flagged(self):
        src = """\
        async def read_config(path):
            with open(path) as handle:
                return handle.read()
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE304"]

    def test_executor_offload_clean(self):
        # The sanctioned idiom: blocking work lives in a nested def that
        # run_in_executor ships to a worker thread.
        src = """\
        import time

        async def handler(loop):
            def work():
                time.sleep(1)
            return await loop.run_in_executor(None, work)
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_sync_def_sleep_not_304(self):
        src = """\
        import time

        def retry_pause():
            time.sleep(1)
        """
        assert rule_ids("src/repro/service/foo.py", src) == []


class TestUnjoinedThread:
    def test_thread_without_join_or_daemon_flagged(self):
        src = """\
        import threading

        def launch(fn):
            thread = threading.Thread(target=fn)
            thread.start()
            return thread
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE305"]

    def test_explicit_daemon_kwarg_clean(self):
        src = """\
        import threading

        def launch(fn):
            thread = threading.Thread(target=fn, daemon=True)
            thread.start()
            return thread
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_join_elsewhere_in_module_clean(self):
        src = """\
        import threading

        def launch(fn):
            thread = threading.Thread(target=fn)
            thread.start()
            return thread

        def shutdown(thread):
            thread.join()
        """
        assert rule_ids("src/repro/service/foo.py", src) == []

    def test_string_join_is_not_a_thread_join(self):
        src = """\
        import threading

        def launch(fn, parts):
            name = "-".join(parts)
            thread = threading.Thread(target=fn, name=name)
            thread.start()
            return thread
        """
        assert rule_ids("src/repro/service/foo.py", src) == ["SPICE305"]


class TestConcurrencyRulesScope:
    def test_family_is_src_only(self):
        # Tests legitimately poke at shared state without locks; the
        # discipline rules bind production code only.
        src = """\
        import os
        import threading

        class Journal:
            def __init__(self):
                self._lock = threading.Lock()

            def flush(self, handle):
                with self._lock:
                    os.fsync(handle.fileno())
        """
        assert rule_ids("tests/test_foo.py", src) == []
