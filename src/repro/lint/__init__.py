"""dardlint: the repo's AST-based determinism & hot-path static analyzer.

``dard lint src`` runs repo-specific rules that dynamic testing can only
catch probabilistically — unordered set iteration feeding results
(DET001), global RNG / wall-clock reads (DET002), hash-ordered float
accumulation (DET003), unordered serialization (DET004), string-keyed
lookups in the reallocation hot path (PERF001), per-flow dict walks in
the per-event settle/ETA/finisher passes (PERF002), persistent-load
mutation outside its owners (API001), event-heap bypasses (API002), and
broad ``except`` clauses that can swallow invariant violations (EXC001).
Each rule checks one module at a time. The driver also polices its own
escape hatch: a suppression comment that matches no finding is DRD001.

See DESIGN.md "Static guarantees" for the determinism contract each rule
enforces and the suppression policy; TESTING.md for how the CI gate runs.
"""

from repro.lint.engine import (
    Finding,
    LintConfig,
    LintResult,
    ModuleContext,
    Rule,
    all_rules,
    load_config,
    module_name_for,
    register,
    run_lint,
    run_lint_result,
)
from repro.lint.reporting import SCHEMA_VERSION, render_json, render_text, to_document

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "SCHEMA_VERSION",
    "all_rules",
    "load_config",
    "module_name_for",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "run_lint_result",
    "to_document",
]
