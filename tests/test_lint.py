"""dardlint engine tests: registry, suppressions, fixtures, schema, CLI.

The fixture tree under ``tests/lint_fixtures/repro/`` carries
``__init__.py`` markers so each file lints under a real ``repro.*``
module name (scope rules apply) without being importable from the
repository root.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Finding,
    LintConfig,
    all_rules,
    load_config,
    module_name_for,
    render_json,
    run_lint,
    to_document,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

REQUIRED_RULES = [
    "API001",
    "API002",
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DRD001",
    "EXC001",
    "PERF001",
    "PERF002",
]

#: rule code -> fixture file stem prefix (bad/good suffixed below).
FIXTURE_FILES = {
    "DET001": "repro/simulator/det001",
    "DET002": "repro/workloads/det002",
    "DET003": "repro/simulator/det003",
    "DET004": "repro/validation/det004",
    "DRD001": "repro/workloads/drd001",
    "PERF001": "repro/simulator/perf001",
    "PERF002": "repro/simulator/perf002",
    "API001": "repro/simulator/api001",
    "API002": "repro/simulator/api002",
    "EXC001": "repro/validation/exc001",
}


def _lint(path, **config_kwargs):
    findings, _ = run_lint([str(path)], LintConfig(**config_kwargs))
    return findings


class TestRegistry:
    def test_all_required_rules_registered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes), "all_rules() must sort by code"
        for code in REQUIRED_RULES:
            assert code in codes
        assert len(codes) >= 8

    def test_rule_metadata_complete(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.description, rule.code
            assert rule.scope, rule.code
            assert rule.__doc__ and rule.__doc__.strip(), rule.code

    def test_register_rejects_bad_code(self):
        from repro.lint.engine import Rule, register

        with pytest.raises(ValueError, match="must look like"):
            register(type("Bad", (Rule,), {"code": "x1", "description": "d"}))

    def test_register_rejects_duplicate_code(self):
        from repro.lint.engine import Rule, register

        with pytest.raises(ValueError, match="duplicate"):
            register(type("Dup", (Rule,), {"code": "DET001", "description": "d"}))


class TestFixtures:
    @pytest.mark.parametrize("code", sorted(FIXTURE_FILES))
    def test_bad_fixture_yields_exactly_one_expected_finding(self, code):
        path = FIXTURES / f"{FIXTURE_FILES[code]}_bad.py"
        findings = _lint(path)
        assert [f.code for f in findings] == [code], findings

    @pytest.mark.parametrize("code", sorted(FIXTURE_FILES))
    def test_good_fixture_is_clean(self, code):
        path = FIXTURES / f"{FIXTURE_FILES[code]}_good.py"
        assert _lint(path) == []

    def test_fixture_modules_get_repro_names(self):
        path = FIXTURES / "repro/simulator/det001_bad.py"
        assert module_name_for(path) == "repro.simulator.det001_bad"

    def test_whole_fixture_tree_totals(self):
        findings, files_scanned = run_lint([str(FIXTURES)], LintConfig())
        assert sorted(f.code for f in findings) == sorted(FIXTURE_FILES)
        assert files_scanned >= 2 * len(FIXTURE_FILES)


class TestSuppressions:
    def test_trailing_and_above_comment_suppress(self):
        # Both placements carry real DET001 violations; the file is clean.
        assert _lint(FIXTURES / "repro/simulator/suppressed_ok.py") == []

    def test_unrelated_code_does_not_suppress(self, tmp_path):
        source = (FIXTURES / "repro/simulator/det001_bad.py").read_text()
        target = tmp_path / "wrong_code.py"
        target.write_text(
            source.replace(
                "for link in crossing:",
                "for link in crossing:  # dardlint: disable=DET002",
            )
        )
        findings = _lint(target, include=("*",), scopes={"DET001": ("*",)})
        assert [f.code for f in findings] == ["DET001"]

    def test_all_keyword_suppresses_everything(self, tmp_path):
        source = (FIXTURES / "repro/simulator/det001_bad.py").read_text()
        target = tmp_path / "all_off.py"
        target.write_text(
            source.replace(
                "for link in crossing:",
                "for link in crossing:  # dardlint: disable=ALL",
            )
        )
        assert _lint(target, include=("*",), scopes={"DET001": ("*",)}) == []


class TestConfig:
    def test_pyproject_config_matches_builtin_defaults(self):
        # The committed [tool.dardlint] must mirror LintConfig() defaults:
        # pre-3.11 interpreters without tomli silently fall back to them.
        loaded = load_config(REPO_ROOT / "src")
        defaults = LintConfig()
        assert loaded.include == defaults.include
        assert loaded.exclude == defaults.exclude
        assert loaded.disable == defaults.disable
        for rule in all_rules():
            assert loaded.rule_scope(rule) == rule.scope, rule.code
            assert loaded.rule_exempt(rule) == rule.exempt, rule.code

    def test_disable_drops_rule(self):
        path = FIXTURES / "repro/simulator/det001_bad.py"
        assert _lint(path, disable=("DET001",)) == []

    def test_exclude_skips_module(self):
        path = FIXTURES / "repro/simulator/det001_bad.py"
        findings, files_scanned = run_lint(
            [str(path)], LintConfig(exclude=("repro.simulator",))
        )
        assert findings == [] and files_scanned == 0

    def test_out_of_scope_module_not_checked(self):
        # PERF001 is scoped to repro.simulator; the same source elsewhere
        # must not be flagged.
        source = (FIXTURES / "repro/simulator/perf001_bad.py").read_text()
        target = FIXTURES / "repro/workloads"
        assert module_name_for(target / "x.py").startswith("repro.workloads")
        findings = [
            f
            for f in _lint(FIXTURES / "repro/workloads")
            if f.code == "PERF001"
        ]
        assert findings == []
        assert "PERF001" in {f.code for f in _lint(FIXTURES / "repro/simulator")}
        assert "_refill_dirty" in source  # the hot name is what scope protects


class TestReporting:
    def test_json_schema(self):
        findings, files_scanned = run_lint([str(FIXTURES)], LintConfig())
        document = json.loads(render_json(findings, files_scanned))
        assert document["tool"] == "dardlint"
        assert document["schema_version"] == 2
        assert document["ok"] is False
        assert document["files_scanned"] == files_scanned
        assert document["files_skipped"] == 0
        assert {rule["code"] for rule in document["rules"]} >= set(REQUIRED_RULES)
        assert sum(document["counts"].values()) == len(findings)
        for entry in document["findings"]:
            assert set(entry) == {"path", "line", "col", "code", "message"}

    def test_clean_document_ok(self):
        document = to_document([], 5)
        assert document["ok"] is True and document["findings"] == []

    def test_finding_render_format(self):
        finding = Finding("a.py", 3, 7, "DET001", "msg")
        assert finding.render() == "a.py:3:7: DET001 msg"

    def test_unparseable_file_surfaces_as_drd000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = _lint(bad, include=("*",))
        assert [f.code for f in findings] == ["DRD000"]


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        findings, files_scanned = run_lint(
            [str(REPO_ROOT / "src" / "repro")], load_config(REPO_ROOT / "src")
        )
        assert findings == [], [f.render() for f in findings]
        assert files_scanned > 50

    def test_scenario_modules_are_det002_clean(self):
        # The adversarial scenario engine lives or dies on seed purity:
        # every sampler must draw from an injected Generator, never the
        # global RNG or the wall clock. Scan the scenario-engine modules
        # explicitly so a regression names the file, not just "src".
        modules = [
            REPO_ROOT / "src" / "repro" / "workloads" / "scenarios.py",
            REPO_ROOT / "src" / "repro" / "workloads" / "composite.py",
            REPO_ROOT / "src" / "repro" / "simulator" / "detectors.py",
            REPO_ROOT / "src" / "repro" / "validation" / "fuzz.py",
        ]
        for module in modules:
            assert module.exists(), module
        findings, files_scanned = run_lint(
            [str(m) for m in modules], load_config(REPO_ROOT / "src")
        )
        det002 = [f for f in findings if f.code == "DET002"]
        assert det002 == [], [f.render() for f in det002]
        assert files_scanned == len(modules)

    def test_listed_functions_are_defined(self):
        """Every function a rule names is defined under src/repro, so a
        rename cannot leave a rule checking nothing."""
        from repro.lint.rules import contracts, hotpath

        defined = {
            node.name
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        lists = {
            "_HOT_FUNCTIONS": hotpath._HOT_FUNCTIONS,
            "_EVENT_FUNCTIONS": hotpath._EVENT_FUNCTIONS,
            "_INTERNING_METHODS": hotpath._INTERNING_METHODS,
            "_LOAD_ARRAY_OWNERS": contracts._LOAD_ARRAY_OWNERS,
        }
        missing = {name: sorted(names - defined) for name, names in lists.items()}
        assert missing == {name: [] for name in lists}

    def test_cli_lint_src_exits_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0
        assert "dardlint: clean" in capsys.readouterr().out

    def test_cli_lint_fixtures_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "finding(s)" in out

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in REQUIRED_RULES:
            assert code in out

    def test_cli_json_output_file(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        code = main(["lint", str(FIXTURES), "--format", "json",
                     "--output", str(report)])
        capsys.readouterr()
        assert code == 1
        document = json.loads(report.read_text())
        assert document["ok"] is False


class TestTypeGate:
    """The mypy strict subset — runs only where the dev extra is installed."""

    def test_mypy_strict_subset(self):
        pytest.importorskip("mypy")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file",
             str(REPO_ROOT / "pyproject.toml"), "-p", "repro"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
