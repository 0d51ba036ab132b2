"""Ownership & race analysis tests: call graph, registry, certificate.

Three layers:

* call-graph unit tests over small synthetic modules — resolution
  through one and two hops of indirection, self-method binding,
  receiver narrowing, escape propagation, boundary cuts;
* ownership-registry completeness — every registered attribute and
  writer name is audited against the real classes (AST scan plus
  ``FlowStore.__slots__``), so the table cannot silently rot;
* certification — the committed ``parallel_safety_baseline.json`` is a
  floor on ``proven_pure``, and the component-scoped roots (refill,
  daemon round, registry row gather) must hold.
"""

import ast
import json
from pathlib import Path

from repro.lint import LintConfig, load_config, run_lint, run_lint_result
from repro.lint.callgraph import OwnershipAnalysis, parallel_safety_document
from repro.lint.engine import ModuleContext
from repro.lint.ownership import (
    BOUNDARIES,
    COMPONENT_SCOPED,
    MERGE_POINTS,
    OWNERSHIP,
    state_by_attr,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "tests" / "goldens" / "parallel_safety_baseline.json"


def _ctx(module, source):
    path = Path("/synthetic") / (module.replace(".", "/") + ".py")
    return ModuleContext(path, module, source, ast.parse(source))


def _analyze(module, source):
    return OwnershipAnalysis([_ctx(module, source)])


def _all_findings(analysis, code):
    return [
        finding
        for per_path in analysis.findings[code].values()
        for finding in per_path
    ]


class TestCallGraph:
    def test_one_hop_indirection_reaches_module_function(self):
        analysis = _analyze(
            "repro.simulator.synth_one",
            "class SynthRound:\n"
            "    def _refill_dirty(self):\n"
            "        bump_totals(self)\n"
            "\n"
            "def bump_totals(sim):\n"
            "    sim._total_array[0] = 1.0\n",
        )
        key = ("repro.simulator.synth_one", None, "bump_totals")
        assert key in analysis.closure
        root, how = analysis.closure[key]
        assert root == "_refill_dirty"
        assert how == "via repro.simulator.synth_one.SynthRound._refill_dirty"
        findings = _all_findings(analysis, "RACE001")
        assert len(findings) == 1
        assert "_total_array" in findings[0].message

    def test_two_hop_indirection_chains_origin(self):
        analysis = _analyze(
            "repro.simulator.synth_two",
            "class SynthDeep:\n"
            "    def _refill_dirty(self):\n"
            "        stage_one(self)\n"
            "\n"
            "def stage_one(sim):\n"
            "    stage_two(sim)\n"
            "\n"
            "def stage_two(sim):\n"
            "    sim._eleph_array[2] = 3.0\n",
        )
        key = ("repro.simulator.synth_two", None, "stage_two")
        assert key in analysis.closure
        assert analysis.closure[key][1] == "via repro.simulator.synth_two.stage_one"
        findings = _all_findings(analysis, "RACE001")
        assert len(findings) == 1
        assert "stage_two writes _eleph_array" in findings[0].message

    def test_self_call_binds_to_own_class_first(self):
        analysis = _analyze(
            "repro.simulator.synth_self",
            "class SynthAlpha:\n"
            "    def _refill_dirty(self):\n"
            "        self.poke_state()\n"
            "\n"
            "    def poke_state(self):\n"
            "        self._failed_mask[0] = True\n"
            "\n"
            "class SynthBeta:\n"
            "    def poke_state(self):\n"
            "        self._peak_util_array[0] = 0.0\n",
        )
        in_closure = ("repro.simulator.synth_self", "SynthAlpha", "poke_state")
        out_of_closure = ("repro.simulator.synth_self", "SynthBeta", "poke_state")
        assert in_closure in analysis.closure
        assert out_of_closure not in analysis.closure
        findings = _all_findings(analysis, "RACE001")
        assert len(findings) == 1
        assert "_failed_mask" in findings[0].message

    def test_receiver_class_binding_narrows_method_resolution(self):
        analysis = _analyze(
            "repro.simulator.synth_narrow",
            "class HelperGood:\n"
            "    def flush(self):\n"
            "        self.counter = 1\n"
            "\n"
            "class HelperEvil:\n"
            "    def flush(self):\n"
            "        self._util_array[0] = 5.0\n"
            "\n"
            "class SynthOwner:\n"
            "    def __init__(self):\n"
            "        self._sink = HelperGood()\n"
            "\n"
            "    def _refill_dirty(self):\n"
            "        self._sink.flush()\n",
        )
        good = ("repro.simulator.synth_narrow", "HelperGood", "flush")
        evil = ("repro.simulator.synth_narrow", "HelperEvil", "flush")
        assert good in analysis.closure
        assert evil not in analysis.closure
        assert _all_findings(analysis, "RACE001") == []

    def test_escape_propagation_charges_the_caller(self):
        analysis = _analyze(
            "repro.simulator.synth_escape",
            "class SynthEscape:\n"
            "    def _refill_dirty(self):\n"
            "        zero_rows(self._total_array)\n"
            "\n"
            "def zero_rows(buffer):\n"
            "    buffer[0] = 0.0\n",
        )
        findings = _all_findings(analysis, "RACE001")
        assert len(findings) == 1
        assert "escape:zero_rows" in findings[0].message
        assert "_refill_dirty writes _total_array" in findings[0].message

    def test_boundary_cuts_the_traversal(self):
        analysis = _analyze(
            "repro.simulator.synth_stop",
            "class SynthStop:\n"
            "    def _refill_dirty(self):\n"
            "        self._request_realloc()\n"
            "\n"
            "    def _request_realloc(self):\n"
            "        self._load_array[0] = 9.9\n",
        )
        boundary = ("repro.simulator.synth_stop", "SynthStop", "_request_realloc")
        assert boundary not in analysis.closure
        assert _all_findings(analysis, "RACE001") == []

    def test_merge_point_may_read_dirty_state(self):
        analysis = _analyze(
            "repro.workloads.synth_dirty",
            "def peek_retired(net):\n"
            "    return len(net._retired_link_ids)\n"
            "\n"
            "def consume_dirty(net):\n"
            "    return list(net._retired_link_ids)\n",
        )
        findings = _all_findings(analysis, "RACE002")
        assert len(findings) == 1
        assert findings[0].line == 2  # peek_retired, not consume_dirty

    def test_creation_outside_owner_module_is_own001(self):
        analysis = _analyze(
            "repro.workloads.synth_own",
            "def hijack(net):\n"
            "    net._link_flows = {}\n",
        )
        findings = _all_findings(analysis, "OWN001")
        assert len(findings) == 1
        assert "repro.simulator.components" in findings[0].message

    def test_shared_mutator_call_in_closure_is_race003(self):
        analysis = _analyze(
            "repro.simulator.synth_mut",
            "class SynthMut:\n"
            "    def _refill_dirty(self):\n"
            "        self._registry._store_rows(self._pair, self._pair_paths)\n",
        )
        findings = _all_findings(analysis, "RACE003")
        assert len(findings) == 1
        assert "_store_rows()" in findings[0].message


def _declared_attrs(module_name):
    """self-assigned attrs + class annotations + literal __slots__."""
    path = SRC / (module_name.replace(".", "/") + ".py")
    attrs = set()
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
            if isinstance(target, ast.Name) and target.id == "__slots__":
                for constant in ast.walk(node):
                    if isinstance(constant, ast.Constant) and isinstance(
                        constant.value, str
                    ):
                        attrs.add(constant.value)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    attrs.add(item.target.id)
    return attrs


def _all_function_names():
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


class TestOwnershipRegistry:
    def test_every_registered_attr_exists_on_its_owner(self):
        from repro.simulator.flowstore import FlowStore

        slots = set(FlowStore.__slots__)
        for state in OWNERSHIP:
            if state.owner_class == "FlowStore":
                assert state.attr in slots, state.name
                continue
            declared = set()
            for module in state.owner_modules:
                declared |= _declared_attrs(module)
            assert state.attr in declared, state.name

    def test_every_writer_is_a_real_function(self):
        names = _all_function_names()
        for state in OWNERSHIP:
            for writer in state.writers:
                assert writer in names, f"{state.name}: writer {writer}"

    def test_attr_index_is_unique_and_complete(self):
        by_attr = state_by_attr()
        assert len(by_attr) == len(OWNERSHIP)
        for state in OWNERSHIP:
            assert by_attr[state.attr] is state

    def test_roots_merge_points_and_boundaries_are_real(self):
        names = _all_function_names()
        for name in (*COMPONENT_SCOPED, *MERGE_POINTS, *BOUNDARIES):
            assert name in names, name


class TestCertificate:
    def test_src_repro_certifies_against_baseline(self):
        result = run_lint_result(
            [str(SRC / "repro")], load_config(SRC)
        )
        analysis = result.program.cache.get("ownership")
        if analysis is None:
            analysis = OwnershipAnalysis(result.program.contexts)
        document = parallel_safety_document(analysis)
        assert document["ok"] is True, [
            entry for entry in document["functions"] if not entry["pure"]
        ]
        baseline = json.loads(BASELINE.read_text())
        missing = set(baseline["proven_pure"]) - set(document["proven_pure"])
        assert not missing, f"component purity regressed: {sorted(missing)}"
        for root in (
            "repro.simulator.network.Network._refill_dirty",
            "repro.core.daemon.HostDaemon._schedule_one_arrays",
            "repro.simulator.network.Network.batch_path_state_arrays",
        ):
            assert root in document["proven_pure"], root

    def test_document_shape(self):
        analysis = _analyze(
            "repro.simulator.synth_doc",
            "class SynthDoc:\n"
            "    def _refill_dirty(self):\n"
            "        return None\n",
        )
        document = parallel_safety_document(analysis)
        assert document["tool"] == "dardlint"
        assert document["report"] == "parallel-safety"
        assert document["component_scoped"] == list(COMPONENT_SCOPED)
        assert document["ok"] is True
        assert len(document["shared_state"]) == len(OWNERSHIP)
        assert document["proven_pure"] == [
            "repro.simulator.synth_doc.SynthDoc._refill_dirty"
        ]

    def test_single_module_config_fallback(self):
        # A lone-context lint (no program attached) still runs the
        # parallelism rules through the per-context fallback path.
        findings, _ = run_lint(
            [str(SRC / "repro" / "simulator" / "network.py")],
            LintConfig(),
        )
        assert [f for f in findings if f.code.startswith("RACE")] == []
