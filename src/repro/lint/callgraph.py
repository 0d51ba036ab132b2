"""Call graph + taint/escape ownership analysis (dardlint's program layer).

Where the per-module rules pattern-match one AST at a time, this module
builds a *program* view over every linted file: a name-based call graph,
a per-function write inventory over the registered shared state
(:mod:`repro.lint.ownership`), a local taint pass (aliases of registered
attributes), and an escape pass (registered arrays passed to callees
that mutate their parameters). The parallelism rule family
(``rules/parallelism.py``) consumes the resulting
:class:`OwnershipAnalysis`; ``dard lint --parallel-safety-report``
serializes its component-purity verdicts.

Resolution is deliberately conservative-but-simple, matching the
codebase's idioms (extending the spirit of ``scopes.py``):

* ``name(...)`` resolves to a module-level function — same module first,
  then any module in the program (imported helpers);
* ``self.name(...)`` resolves to a method of the enclosing class, then
  any same-named method in the program (duck-typed receivers);
* ``obj.name(...)`` resolves to every same-named method or module-level
  function in the program;
* calls through variables, class constructors, and stdlib/numpy names
  resolve to nothing (their effects on registered state are covered by
  the direct write forms: subscript stores, mutating methods,
  ``ufunc.at``, ``out=`` keywords, and tainted aliases);
* nested ``def``/``lambda`` bodies are attributed to their enclosing
  function (a closure defined inside component-scoped code is analyzed
  as if it ran there — an over-approximation in the safe direction).

Traversal from the :data:`~repro.lint.ownership.COMPONENT_SCOPED` roots
stops at :data:`~repro.lint.ownership.BOUNDARIES`; everything else
reachable is the *component closure* that RACE001/RACE003 police.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, ModuleContext, _module_matches
from repro.lint.ownership import (
    BOUNDARIES,
    COMPONENT_SCOPED,
    MERGE_POINTS,
    OWNERSHIP,
    SHARED_MUTATOR_METHODS,
    SharedState,
    state_by_attr,
)

__all__ = [
    "CallSite",
    "FunctionInfo",
    "OwnershipAnalysis",
    "WriteSite",
    "parallel_safety_document",
]

#: In-place mutating method names on containers and ndarrays. A call
#: ``<registered>.m(...)`` with ``m`` here counts as a write.
_MUTATING_METHODS = frozenset(
    {
        # ndarray
        "fill", "put", "sort", "resize", "partition", "itemset",
        # list
        "append", "extend", "insert", "remove", "clear", "pop", "reverse",
        # set / dict
        "add", "discard", "update", "setdefault", "popitem",
    }
)

#: Value expressions that *create* a container/array — the OWN001
#: trigger: rebinding a registered attribute to a freshly created
#: structure outside its owner module.
_CREATION_NODES = (
    ast.Call,
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@dataclass
class WriteSite:
    """One mutation of a registered shared-state attribute."""

    attr: str
    node: ast.AST
    how: str
    creates: bool = False


@dataclass
class CallSite:
    """One call expression, classified by receiver shape.

    ``receiver`` is the attribute name the call's receiver was read from
    (``self._components.attach(...)`` → ``"_components"``, including
    through a local alias ``comps = self._components``); it narrows
    name-based method resolution to the classes actually constructed
    into that attribute.
    """

    kind: str  # "bare" | "self" | "method"
    name: str
    node: ast.Call
    receiver: Optional[str] = None


@dataclass
class FunctionInfo:
    """Per-function facts: writes, reads of dirty state, calls, escapes.

    ``name == "<module>"`` is the pseudo-function holding a module's
    top-level statements (class bodies included); it never participates
    in the call graph but is checked by the module-granularity rules.
    """

    module: str
    path: str
    cls: Optional[str]
    name: str
    writes: List[WriteSite] = field(default_factory=list)
    dirty_reads: List[Tuple[str, ast.AST]] = field(default_factory=list)
    mutator_calls: List[CallSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    params: Tuple[str, ...] = ()
    mutated_params: Set[int] = field(default_factory=set)
    aliases: Dict[str, str] = field(default_factory=dict)
    receiver_aliases: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        if self.cls is not None:
            return f"{self.module}.{self.cls}.{self.name}"
        return f"{self.module}.{self.name}"

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.module, self.cls, self.name)


def _finding(fn: FunctionInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=fn.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


def _walk_skipping_functions(node: ast.AST):
    """Walk a tree, not descending into function bodies (module scan)."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            stack.append(child)


class _FunctionScanner:
    """Extracts one function's write/read/call facts in two walks."""

    def __init__(self, registered: Dict[str, SharedState]) -> None:
        self._registered = registered
        self._dirty_attrs = {
            attr for attr, state in registered.items() if state.category == "dirty"
        }

    def scan(
        self, info: FunctionInfo, nodes: Iterable[ast.AST]
    ) -> None:
        nodes = list(nodes)
        params = {name: i for i, name in enumerate(info.params)}
        # Pass 1: local aliases (flow-insensitive). Registered-attribute
        # aliases feed the write taint; any-attribute aliases feed
        # receiver-based method resolution.
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
            ):
                info.receiver_aliases[node.targets[0].id] = node.value.attr
                if node.value.attr in self._registered:
                    info.aliases[node.targets[0].id] = node.value.attr
        # Pass 2: writes, dirty reads, calls, parameter mutations.
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._scan_assign(info, node, params)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._record_target(info, node, target, params, "delete")
            elif isinstance(node, ast.Call):
                self._scan_call(info, node, params)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in self._dirty_attrs:
                    info.dirty_reads.append((node.attr, node))

    # -- assignment / deletion targets ------------------------------------

    def _scan_assign(self, info: FunctionInfo, node: ast.AST, params: Dict[str, int]) -> None:
        if isinstance(node, ast.Assign):
            targets: List[ast.AST] = list(node.targets)
            how = "rebind"
            value: Optional[ast.AST] = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            how = "rebind"
            value = node.value
        else:  # AugAssign
            targets = [node.target]
            how = "augment"
            value = None
        creates = isinstance(value, _CREATION_NODES)
        for target in targets:
            self._record_target(info, node, target, params, how, creates)

    def _record_target(
        self,
        info: FunctionInfo,
        stmt: ast.AST,
        target: ast.AST,
        params: Dict[str, int],
        how: str,
        creates: bool = False,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(info, stmt, element, params, how, creates)
            return
        if isinstance(target, ast.Starred):
            self._record_target(info, stmt, target.value, params, how, creates)
            return
        if isinstance(target, ast.Attribute):
            if how != "delete" and target.attr in self._registered:
                info.writes.append(
                    WriteSite(target.attr, stmt, how, creates and how == "rebind")
                )
            return
        if isinstance(target, ast.Subscript):
            attr = self._base_attr(target.value, info)
            if attr is not None:
                info.writes.append(WriteSite(attr, stmt, "store"))
            elif isinstance(target.value, ast.Name) and target.value.id in params:
                info.mutated_params.add(params[target.value.id])

    # -- calls -------------------------------------------------------------

    def _scan_call(self, info: FunctionInfo, node: ast.Call, params: Dict[str, int]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            info.calls.append(CallSite("bare", func.id, node))
        elif isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if method == "at" and isinstance(base, ast.Attribute) and node.args:
                # np.<ufunc>.at(target, ...) — unbuffered in-place scatter.
                self._record_arg_write(info, node, node.args[0], params, "ufunc.at")
            elif method in _MUTATING_METHODS:
                attr = self._base_attr(base, info)
                if attr is not None:
                    info.writes.append(WriteSite(attr, node, f"method:{method}"))
                elif isinstance(base, ast.Name) and base.id in params:
                    info.mutated_params.add(params[base.id])
            if isinstance(base, ast.Name) and base.id == "self":
                site = CallSite("self", method, node)
            else:
                receiver: Optional[str] = None
                if isinstance(base, ast.Attribute):
                    receiver = base.attr
                elif isinstance(base, ast.Name):
                    receiver = info.receiver_aliases.get(base.id)
                site = CallSite("method", method, node, receiver)
            if method in SHARED_MUTATOR_METHODS:
                info.mutator_calls.append(site)
            info.calls.append(site)
        for keyword in node.keywords:
            if keyword.arg == "out":
                self._record_arg_write(info, node, keyword.value, params, "out=")

    def _record_arg_write(
        self,
        info: FunctionInfo,
        node: ast.Call,
        arg: ast.AST,
        params: Dict[str, int],
        how: str,
    ) -> None:
        attr = self._base_attr(arg, info)
        if attr is not None:
            info.writes.append(WriteSite(attr, node, how))
        elif isinstance(arg, ast.Name) and arg.id in params:
            info.mutated_params.add(params[arg.id])

    def _base_attr(self, node: ast.AST, info: FunctionInfo) -> Optional[str]:
        """Registered attribute named by an expression (direct or alias)."""
        if isinstance(node, ast.Attribute) and node.attr in self._registered:
            return node.attr
        if isinstance(node, ast.Name):
            return info.aliases.get(node.id)
        return None


class OwnershipAnalysis:
    """The whole-program ownership & race analysis over parsed modules.

    Built once per lint run (cached on the driver's program context) and
    shared by every parallelism rule; single-module fallbacks construct
    it over one context (unit tests, direct ``check()`` calls).
    """

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self._registered = state_by_attr()
        self.functions: List[FunctionInfo] = []
        self._collect(contexts)
        self._index()
        self._propagate_escapes()
        self.closure: Dict[Tuple[str, Optional[str], str], Tuple[str, str]] = {}
        self._compute_closure()
        #: code -> path -> findings (pre-suppression; the rules yield them
        #: per module and the engine applies suppressions as usual).
        self.findings: Dict[str, Dict[str, List[Finding]]] = {
            code: {} for code in ("RACE001", "RACE002", "RACE003", "OWN001")
        }
        self._violation_counts: Dict[Tuple[str, Optional[str], str], int] = {}
        self._check()

    # -- construction ------------------------------------------------------

    def _collect(self, contexts: Sequence[ModuleContext]) -> None:
        scanner = _FunctionScanner(self._registered)
        #: attribute name -> class names constructed into it anywhere in
        #: the program (``self._components = FlowLinkComponents(...)``);
        #: used to narrow name-based method resolution.
        self._attr_classes: Dict[str, Set[str]] = {}
        for ctx in contexts:
            self._bind_attr_classes(ctx.tree)
            path = str(ctx.path)
            module_info = FunctionInfo(ctx.module, path, None, "<module>")
            scanner.scan(module_info, _walk_skipping_functions(ctx.tree))
            self.functions.append(module_info)
            for node in ast.iter_child_nodes(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(scanner, ctx, None, node)
                elif isinstance(node, ast.ClassDef):
                    for item in ast.iter_child_nodes(node):
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._add_function(scanner, ctx, node.name, item)

    def _add_function(
        self,
        scanner: _FunctionScanner,
        ctx: ModuleContext,
        cls: Optional[str],
        node: ast.AST,
    ) -> None:
        args = node.args
        params = tuple(
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        info = FunctionInfo(ctx.module, str(ctx.path), cls, node.name, params=params)
        scanner.scan(info, ast.walk(node))
        self.functions.append(info)

    def _index(self) -> None:
        self._by_key: Dict[Tuple[str, Optional[str], str], FunctionInfo] = {}
        self._module_funcs: Dict[Tuple[str, str], FunctionInfo] = {}
        self._funcs_by_name: Dict[str, List[FunctionInfo]] = {}
        self._methods_by_name: Dict[str, List[FunctionInfo]] = {}
        for fn in self.functions:
            if fn.name == "<module>":
                continue
            self._by_key.setdefault(fn.key, fn)
            if fn.cls is None:
                self._module_funcs.setdefault((fn.module, fn.name), fn)
                self._funcs_by_name.setdefault(fn.name, []).append(fn)
            else:
                self._methods_by_name.setdefault(fn.name, []).append(fn)

    #: typing wrappers to ignore when mining class names from annotations.
    _TYPING_NAMES = frozenset(
        {
            "Optional", "Union", "List", "Dict", "Tuple", "Set", "FrozenSet",
            "Sequence", "Iterable", "Iterator", "Mapping", "MutableMapping",
            "Callable", "Any", "Type", "Deque", "Literal", "ClassVar", "Final",
            "None",
        }
    )

    def _bind_attr_classes(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value, annotation = node.targets[0], node.value, None
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            else:
                continue
            if not isinstance(target, ast.Attribute):
                continue
            names: Set[str] = set()
            # Constructor calls anywhere in the value (covers conditional
            # expressions like ``Cls(n) if flag else None``).
            if value is not None:
                for call in ast.walk(value):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if isinstance(func, ast.Name):
                        names.add(func.id)
                    elif isinstance(func, ast.Attribute):
                        names.add(func.attr)
            if annotation is not None:
                for ref in ast.walk(annotation):
                    if isinstance(ref, ast.Name):
                        names.add(ref.id)
                    elif isinstance(ref, ast.Attribute):
                        names.add(ref.attr)
            for name in sorted(names):
                if name[:1].isupper() and name not in self._TYPING_NAMES:
                    self._attr_classes.setdefault(target.attr, set()).add(name)

    def resolve(self, fn: FunctionInfo, call: CallSite) -> List[FunctionInfo]:
        """Possible callees of one call site (empty when external)."""
        if call.kind == "bare":
            local = self._module_funcs.get((fn.module, call.name))
            if local is not None:
                return [local]
            return list(self._funcs_by_name.get(call.name, ()))
        if call.kind == "self":
            own = self._by_key.get((fn.module, fn.cls, call.name))
            if own is not None:
                return [own]
            return list(self._methods_by_name.get(call.name, ()))
        methods = list(self._methods_by_name.get(call.name, ()))
        if call.receiver is not None:
            classes = self._attr_classes.get(call.receiver)
            if classes:
                narrowed = [m for m in methods if m.cls in classes]
                # Empty narrowing (inherited or external method) falls
                # back to every candidate — over-approximate, not blind.
                if narrowed:
                    return narrowed
        return methods + list(self._funcs_by_name.get(call.name, ()))

    def _propagate_escapes(self) -> None:
        """Attribute callee parameter mutations back to caller arguments."""
        for fn in self.functions:
            if fn.name == "<module>":
                continue
            for call in fn.calls:
                for callee in self.resolve(fn, call):
                    if not callee.mutated_params:
                        continue
                    # Method calls bind the receiver to param 0 (self).
                    offset = 1 if call.kind in ("self", "method") and callee.cls else 0
                    for index in sorted(callee.mutated_params):
                        arg_index = index - offset
                        if arg_index < 0 or arg_index >= len(call.node.args):
                            continue
                        arg = call.node.args[arg_index]
                        attr: Optional[str] = None
                        if (
                            isinstance(arg, ast.Attribute)
                            and arg.attr in self._registered
                        ):
                            attr = arg.attr
                        elif isinstance(arg, ast.Name):
                            attr = fn.aliases.get(arg.id)
                        if attr is not None:
                            fn.writes.append(
                                WriteSite(attr, call.node, f"escape:{callee.name}")
                            )

    def _compute_closure(self) -> None:
        queue: List[FunctionInfo] = []
        for fn in self.functions:
            if fn.name in COMPONENT_SCOPED:
                self.closure[fn.key] = (fn.name, "component-scoped root")
                queue.append(fn)
        while queue:
            fn = queue.pop()
            root, _ = self.closure[fn.key]
            for call in fn.calls:
                for callee in self.resolve(fn, call):
                    if callee.name in BOUNDARIES:
                        continue
                    if callee.key not in self.closure:
                        self.closure[callee.key] = (root, f"via {fn.qualname}")
                        queue.append(callee)

    # -- rule checks -------------------------------------------------------

    def _emit(self, fn: FunctionInfo, node: ast.AST, code: str, message: str) -> None:
        per_path = self.findings[code].setdefault(fn.path, [])
        per_path.append(_finding(fn, node, code, message))
        if fn.key in self.closure:
            self._violation_counts[fn.key] = self._violation_counts.get(fn.key, 0) + 1

    def _check(self) -> None:
        for fn in self.functions:
            in_closure = fn.key in self.closure
            if in_closure:
                root, how = self.closure[fn.key]
                origin = (
                    f"component-scoped via {root}"
                    if how == "component-scoped root"
                    else f"reached from {root} {how}"
                )
                for write in fn.writes:
                    state = self._registered[write.attr]
                    if fn.name not in state.writers:
                        self._emit(
                            fn,
                            write.node,
                            "RACE001",
                            f"{fn.name} writes {write.attr} ({write.how}, owned "
                            f"by {state.owner_class}) inside a component round "
                            f"({origin}); declared writers: "
                            f"{', '.join(sorted(state.writers))}",
                        )
                if fn.name not in MERGE_POINTS:
                    for call in fn.mutator_calls:
                        self._emit(
                            fn,
                            call.node,
                            "RACE003",
                            f"{fn.name} calls shared-structure mutator "
                            f"{call.name}() inside a component round ({origin}); "
                            "per-component code must not touch global "
                            "registry/engine structures",
                        )
            if fn.name not in MERGE_POINTS:
                for attr, node in fn.dirty_reads:
                    state = self._registered[attr]
                    if _module_matches(fn.module, state.owner_modules):
                        continue
                    self._emit(
                        fn,
                        node,
                        "RACE002",
                        f"read of dirty cross-component state {attr} (owned by "
                        f"{state.owner_class}) outside its owner and the "
                        f"declared merge points {', '.join(MERGE_POINTS)}",
                    )
            for write in fn.writes:
                if not write.creates:
                    continue
                state = self._registered[write.attr]
                if _module_matches(fn.module, state.owner_modules):
                    continue
                if fn.name in state.writers:
                    continue
                self._emit(
                    fn,
                    write.node,
                    "OWN001",
                    f"shared-state attribute {write.attr} created outside its "
                    f"owner module ({', '.join(state.owner_modules)}); register "
                    "new shared state in repro.lint.ownership or create it in "
                    "the owner",
                )

    # -- consumers ---------------------------------------------------------

    def findings_for(self, path: str, code: str) -> List[Finding]:
        """Findings of one rule code anchored in one file."""
        return list(self.findings.get(code, {}).get(path, ()))

    def closure_functions(self) -> List[FunctionInfo]:
        """Every function in the component closure, stable order."""
        return [fn for fn in self.functions if fn.key in self.closure]

    def proven_pure(self) -> List[str]:
        """Qualnames of closure functions with zero violations (sorted).

        Purity is judged *pre-suppression*: a suppressed RACE finding
        still disqualifies the function from the certificate.
        """
        return sorted(
            fn.qualname
            for fn in self.closure_functions()
            if self._violation_counts.get(fn.key, 0) == 0
        )


def parallel_safety_document(analysis: OwnershipAnalysis) -> dict:
    """The ``--parallel-safety-report`` JSON certificate as a dict.

    CI uploads this artifact and diffs ``proven_pure`` against the
    committed ``tests/goldens/parallel_safety_baseline.json`` so
    regressions in component purity fail the build.
    """
    from repro.lint.reporting import SCHEMA_VERSION

    functions = []
    for fn in sorted(analysis.closure_functions(), key=lambda f: f.qualname):
        root, how = analysis.closure[fn.key]
        violations = analysis._violation_counts.get(fn.key, 0)
        functions.append(
            {
                "function": fn.qualname,
                "module": fn.module,
                "root": root,
                "reached": how,
                "violations": violations,
                "pure": violations == 0,
            }
        )
    proven = analysis.proven_pure()
    return {
        "tool": "dardlint",
        "report": "parallel-safety",
        "schema_version": SCHEMA_VERSION,
        "component_scoped": list(COMPONENT_SCOPED),
        "merge_points": list(MERGE_POINTS),
        "boundaries": list(BOUNDARIES),
        "shared_mutators": list(SHARED_MUTATOR_METHODS),
        "shared_state": [
            {
                "name": state.name,
                "attr": state.attr,
                "owner_class": state.owner_class,
                "owner_modules": list(state.owner_modules),
                "writers": sorted(state.writers),
                "category": state.category,
                "runtime_guarded": state.runtime_guarded,
            }
            for state in OWNERSHIP
        ],
        "functions": functions,
        "proven_pure": proven,
        "ok": all(entry["pure"] for entry in functions),
    }
