"""API-contract rules: API001 and API002.

Machine-checked ownership contracts that the component-scoped refill's
bit-exactness proof (DESIGN.md "Component decomposition") relies on:
the persistent load array has exactly three writers, and same-time event
ordering is owned by :class:`EventEngine` alone.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.engine import Finding, ModuleContext, Rule, register

#: The only functions allowed to write ``_load_array``: construction, the
#: network's refill, and the global-fill reference twin its splice is
#: proven bit-exact against (the allocator only returns loads, so it
#: needs no slot in this list — the rule tracks attribute writes).
_LOAD_ARRAY_OWNERS = {"__init__", "_refill_dirty", "full_refill_reference"}

#: ndarray methods that mutate in place.
_MUTATING_ARRAY_METHODS = {"fill", "put", "sort", "resize", "partition"}


def _enclosing_functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(enclosing function name, node)`` for every node in the tree.

    Module-level nodes report the enclosing name ``"<module>"``.
    """
    stack: List[Tuple[str, ast.AST]] = [("<module>", tree)]
    while stack:
        name, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield name, child
                stack.append((child.name, child))
            else:
                yield name, child
                stack.append((name, child))


@register
class LoadArrayOwnership(Rule):
    """API001: ``_load_array`` mutated outside its refill owners.

    The persistent per-link load array stays bit-identical between the
    component-scoped refill and its global-fill reference twin only
    because every write goes through the audited splice in
    ``_refill_dirty``/``full_refill_reference`` (backed by the ordered
    load accumulation ``maxmin_allocate_indexed`` returns). Any other
    writer silently voids that proof.
    """

    code = "API001"
    name = "load-array-ownership"
    description = "_load_array written outside _refill_dirty/full_refill_reference"
    scope = ("repro",)

    _ATTR = "_load_array"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for function_name, node in _enclosing_functions(ctx.tree):
            allowed = function_name in _LOAD_ARRAY_OWNERS
            target: Optional[ast.AST] = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for candidate in targets:
                    if self._targets_load_array(candidate):
                        target = candidate
                        break
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_ARRAY_METHODS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == self._ATTR
                ):
                    target = node
            if target is not None and not allowed:
                yield ctx.finding(
                    target,
                    self.code,
                    f"write to {self._ATTR} outside "
                    f"{sorted(_LOAD_ARRAY_OWNERS)}; persistent load is owned "
                    "by the refill and its reference twin (allocator-load splice)",
                )

    def _targets_load_array(self, node: ast.AST) -> bool:
        # `x._load_array = ...` rebinding, or `x._load_array[...] = ...`
        # element/slice stores.
        if isinstance(node, ast.Attribute) and node.attr == self._ATTR:
            return True
        if isinstance(node, ast.Subscript):
            value = node.value
            return isinstance(value, ast.Attribute) and value.attr == self._ATTR
        return False


@register
class EventHeapBypass(Rule):
    """API002: event-heap access bypassing the ``EventEngine`` API.

    Same-time events order by the engine's monotonic sequence numbers;
    pushing onto (or inspecting) ``engine._heap`` directly desynchronizes
    that sequence between otherwise identical runs. Schedule through
    ``schedule_at``/``schedule_in`` and cancel through the returned
    handle only: cancelling draws no sequence number.
    """

    code = "API002"
    name = "event-heap-bypass"
    description = "direct _heap/_seq access; use EventEngine schedule APIs"
    scope = ("repro",)
    exempt = ("repro.simulator.engine",)

    _PRIVATE_ATTRS = {"_heap", "_seq"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in self._PRIVATE_ATTRS:
                yield ctx.finding(
                    node,
                    self.code,
                    f"direct access to EventEngine.{node.attr}; use "
                    "schedule_at/schedule_in so sequence numbers "
                    "stay deterministic",
                )
