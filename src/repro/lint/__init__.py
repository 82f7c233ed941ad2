"""``repro.lint`` — AST-based determinism & invariant checker.

The repo's runtime guarantees (bit-identical instrumented runs, serial
== parallel ensembles, seeded chaos) are enforced *statically* here, on
every file, by a small rule-plugin framework:

* determinism family (``SPICE001``-``SPICE004``) — no global-state RNG,
  no wall-clock reads in the deterministic core, no bare-set iteration
  in physics/scheduling loops, no unseeded ``default_rng()``;
* API-boundary family (``SPICE101``-``SPICE106``) — the ``repro.core``
  front door, internal raw estimators, ``obs=`` threading, retired names;
* numerical-safety family (``SPICE201``-``SPICE202``) — no float
  equality on physical quantities, no inline unit-bearing constants;
* concurrency-safety family (``SPICE301``-``SPICE305``) — guarded
  fields accessed under their lock, no lock-order cycles, no blocking
  calls under a held lock or on the event loop, no unjoined threads
  (the static half of ``repro.sanitize``'s runtime analysis).

Run it as ``python -m repro lint [paths] [--json] [--select/--ignore]``;
exit code 1 means violations.  Suppress deliberately with
``# spice: noqa SPICE00x`` inline or a ``lint-baseline.txt`` entry.
"""

from .base import (
    FileContext,
    Rule,
    RULES,
    Violation,
    all_rules,
    register_rule,
    select_rules,
)
from .engine import (
    BaselineEntry,
    LintResult,
    discover_files,
    lint_paths,
    lint_source,
    load_baseline,
)
from .report import (
    SCHEMA_LINT,
    build_lint_report,
    render_text_report,
    validate_lint_report,
)
from . import (  # noqa: F401  (rule registration)
    rules_determinism,
    rules_api,
    rules_numeric,
    rules_concurrency,
)

__all__ = [
    "FileContext",
    "Rule",
    "RULES",
    "Violation",
    "all_rules",
    "register_rule",
    "select_rules",
    "BaselineEntry",
    "LintResult",
    "discover_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "SCHEMA_LINT",
    "build_lint_report",
    "render_text_report",
    "validate_lint_report",
]
