"""Hot-path rules: PERF001 and PERF002.

The reallocation hot loop (PR 1/PR 3 of this repo's history) was moved
from string-keyed dict walks to dense integer ids precisely because
hashing ``(str, str)`` link tuples per event dominated profiles. PERF001
pins that win down: inside the known hot functions, link state may only
be addressed through :class:`LinkIndex` dense ids and numpy arrays.

PERF002 pins down the columnar flow-state win the same way (PR 6): the
per-event functions — settle, completion-ETA, finisher scan — must go
through the :class:`FlowStore` columns, never iterate the ``flows`` dict
per event. The designated scalar-reference helpers (``*_reference``) are
the oracle and iterate by design; they are outside the checked set.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.engine import Finding, ModuleContext, Rule, register

#: Functions forming the per-event reallocation hot path. A string-keyed
#: lookup anywhere in these bodies is a regression even when it "works".
_HOT_FUNCTIONS = {
    "_reallocate",
    "_refill_dirty",
    "_assemble_region",
    "_settle",
    "_schedule_next_completion",
    "_write_rates",
    "maxmin_allocate_indexed",
    "_heap_fill",
    "_array_fill",
    "_progressive_fill_tail",
    "link_loads_indexed",
}

#: String-keyed mapping attributes (the dict-shaped compatibility
#: surfaces) that hot code must not subscript or query.
_STRING_KEYED_ATTRS = {"capacities", "link_delays", "ids"}

#: LinkIndex interning entry points; legitimate at registration time
#: (start/reroute, monitor setup), a hash-per-event bug inside hot loops.
_INTERNING_METHODS = {"id_of", "index_links", "index_path"}


def _iter_hot_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _HOT_FUNCTIONS:
                yield node


def _annotation_node_ids(function: ast.FunctionDef) -> frozenset:
    """ids of every node living inside a type annotation.

    ``Tuple[np.ndarray, int]`` in a signature is a tuple-sliced subscript
    too — annotations never execute per event, so they are exempt.
    """
    roots: List[ast.AST] = []
    if function.returns is not None:
        roots.append(function.returns)
    all_args = (
        list(function.args.posonlyargs)
        + list(function.args.args)
        + list(function.args.kwonlyargs)
    )
    for arg in all_args + [function.args.vararg, function.args.kwarg]:
        if arg is not None and arg.annotation is not None:
            roots.append(arg.annotation)
    for node in ast.walk(function):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    ids = set()
    for root in roots:
        for node in ast.walk(root):
            ids.add(id(node))
    return frozenset(ids)


@register
class StringKeyedHotLookup(Rule):
    """PERF001: string/tuple-keyed link access inside the realloc hot path.

    Flags, within the known hot functions: subscripts keyed by tuple
    displays (``caps[(u, v)]``), subscripts or ``.get`` on the
    string-keyed mapping surfaces (``capacities``, ``link_delays``,
    ``ids``), and per-call interning (``id_of``/``index_links``/
    ``index_path``). Use the link-id arrays cached at start/reroute.
    """

    code = "PERF001"
    name = "string-keyed-hot-lookup"
    description = "string/tuple-keyed link lookup inside a realloc hot function"
    scope = ("repro.simulator",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for function in _iter_hot_functions(ctx.tree):
            annotation_ids = _annotation_node_ids(function)
            seen: List[Tuple[int, int]] = []
            for node in ast.walk(function):
                if id(node) in annotation_ids:
                    continue
                finding = self._inspect(ctx, function, node)
                if finding is not None and (finding.line, finding.col) not in seen:
                    seen.append((finding.line, finding.col))
                    yield finding

    def _inspect(
        self, ctx: ModuleContext, function: ast.FunctionDef, node: ast.AST
    ) -> Optional[Finding]:
        if isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Tuple):
                return ctx.finding(
                    node,
                    self.code,
                    f"tuple-keyed subscript in hot function "
                    f"{function.name}(); use LinkIndex dense ids",
                )
            if (
                isinstance(node.value, ast.Attribute)
                and node.value.attr in _STRING_KEYED_ATTRS
            ):
                return ctx.finding(
                    node,
                    self.code,
                    f"string-keyed mapping .{node.value.attr}[...] in hot "
                    f"function {function.name}(); use the dense arrays",
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _INTERNING_METHODS:
                return ctx.finding(
                    node,
                    self.code,
                    f".{node.func.attr}() interns per call inside hot "
                    f"function {function.name}(); index once at "
                    "start/reroute and reuse the id arrays",
                )
            if (
                node.func.attr == "get"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in _STRING_KEYED_ATTRS
            ):
                return ctx.finding(
                    node,
                    self.code,
                    f"string-keyed .{node.func.value.attr}.get(...) in hot "
                    f"function {function.name}(); use the dense arrays",
                )
        return None


#: Per-event network functions that must stay columnar. The scalar loops
#: they replaced iterate flows by design, and live outside the network as
#: reference twins (``repro.validation.twins``).
_EVENT_FUNCTIONS = {
    "_settle",
    "_schedule_next_completion",
    "_on_completion_event",
}

#: Mapping-view calls that enumerate the flows dict.
_FLOWS_VIEW_METHODS = {"values", "items", "keys"}


def _is_flows_attribute(node: ast.AST) -> bool:
    """Whether ``node`` is an attribute access ending in ``.flows``."""
    return isinstance(node, ast.Attribute) and node.attr == "flows"


def _is_flows_enumeration(node: ast.AST) -> bool:
    """``X.flows`` itself, or ``X.flows.values()/items()/keys()``."""
    if _is_flows_attribute(node):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _FLOWS_VIEW_METHODS
        and _is_flows_attribute(node.func.value)
    )


@register
class PerEventFlowIteration(Rule):
    """PERF002: per-flow iteration inside a per-event network function.

    Flags, within the per-event functions (settle / completion-ETA /
    finisher scan): ``for`` loops and comprehensions iterating ``.flows``
    or its ``values()/items()/keys()`` views, and bare enumeration calls
    on those views. Per-flow work in these bodies reverts the columnar
    FlowStore win — use masked array expressions over the store columns,
    or put scalar loops in the designated ``*_reference`` oracle twins.
    """

    code = "PERF002"
    name = "per-event-flow-iteration"
    description = "per-flow iteration inside a per-event network function"
    scope = ("repro.simulator",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in _EVENT_FUNCTIONS:
                continue
            seen: List[Tuple[int, int]] = []
            for inner in ast.walk(node):
                finding = self._inspect(ctx, node, inner)
                if finding is not None and (finding.line, finding.col) not in seen:
                    seen.append((finding.line, finding.col))
                    yield finding

    def _inspect(
        self, ctx: ModuleContext, function: ast.FunctionDef, node: ast.AST
    ) -> Optional[Finding]:
        # Every values()/items()/keys() call on .flows is an enumeration,
        # whether it feeds a for loop, a comprehension, or list(...). A
        # bare ``.flows`` attribute is only flagged when it is directly
        # iterated (it also appears in legitimate keyed lookups).
        flagged = isinstance(node, ast.Call) and _is_flows_enumeration(node)
        if not flagged:
            iterators: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterators.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterators.extend(gen.iter for gen in node.generators)
            flagged = any(_is_flows_attribute(it) for it in iterators)
        if flagged:
            return ctx.finding(
                node,
                self.code,
                f"per-flow iteration in per-event function "
                f"{function.name}(); use the FlowStore columns (scalar "
                "loops belong in the *_reference oracle twins)",
            )
        return None
