"""The parallel-safety rule family: RACE001-003 and OWN001.

These rules are the interprocedural face of the ownership registry
(:mod:`repro.lint.ownership`): the heavy lifting — call graph, taint
aliases, escape propagation, component-closure traversal — happens once
per lint run in :class:`repro.lint.callgraph.OwnershipAnalysis`, cached
on the driver's :class:`~repro.lint.engine.ProgramContext`; each rule
here just surfaces its slice of the precomputed findings for the module
being checked.

Together they make component-parallel control-plane rounds a checked
contract: if ``dard lint`` is clean, every function reachable from
``COMPONENT_SCOPED`` roots writes only state whose ``writers`` tuple
names it, consumes cross-component dirty state only at the declared
merge points, and never mutates the global registry/engine
structures mid-round. ``--parallel-safety-report`` serializes the same
analysis as a purity certificate, and the runtime sanitizer
(:mod:`repro.validation.sanitizer`) enforces the identical table under
fuzz, so a suppression here must be backed by a sanitizer-clean run.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import OwnershipAnalysis
from repro.lint.engine import Finding, ModuleContext, Rule, register

__all__ = [
    "ComponentScopedWrite",
    "DirtyCrossComponentRead",
    "SharedStructureMutation",
    "SharedStateCreatedOutsideOwner",
]


def _analysis(ctx: ModuleContext) -> OwnershipAnalysis:
    """The per-run ownership analysis, built once and cached.

    Falls back to a single-module analysis when a rule is exercised
    directly against a lone context (unit tests) — the same code path,
    just a one-file program.
    """
    program = ctx.program
    if program is None:
        return OwnershipAnalysis([ctx])
    cached = program.cache.get("ownership")
    if not isinstance(cached, OwnershipAnalysis):
        cached = OwnershipAnalysis(program.contexts)
        program.cache["ownership"] = cached
    return cached


class _AnalysisRule(Rule):
    """Shared ``check``: emit this rule's precomputed per-file findings."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for finding in _analysis(ctx).findings_for(str(ctx.path), self.code):
            yield finding


@register
class ComponentScopedWrite(_AnalysisRule):
    """Write to another owner's state from component-scoped code.

    A function reachable from a ``COMPONENT_SCOPED`` root (without
    crossing a declared boundary) mutates a registered shared attribute
    whose ``writers`` tuple does not name it. Under component-parallel
    rounds that write races with the attribute's real owner; either add
    the function to the ownership table (with review) or route the
    mutation through a sanctioned writer.
    """

    code = "RACE001"
    name = "component-scoped-cross-write"
    description = "write to another owner's shared state inside a component round"


@register
class DirtyCrossComponentRead(_AnalysisRule):
    """Read of dirty cross-component state outside the merge points.

    ``category="dirty"`` state (invalidation buffers like
    ``_retired_link_ids``, ``_dirty_links``, ``_link_stamp``) is only
    coherent when consumed at the declared merge points
    (``consume_dirty``/``scatter_link_loads``) or inside its owner
    module; any other read observes a torn view once rounds run
    concurrently.
    """

    code = "RACE002"
    name = "dirty-read-outside-merge"
    description = "dirty cross-component state read outside declared merge points"


@register
class SharedStructureMutation(_AnalysisRule):
    """Mutation of globally shared structures inside a component round.

    Calls to the registered shared-structure mutators (event-engine
    scheduling, monitor-registry cache refresh) from code reachable
    from a per-component round mutate state every component shares;
    hoist them to the serial phase around the round.
    """

    code = "RACE003"
    name = "shared-structure-mutation-in-round"
    description = "registry/engine structure mutated inside a component round"


@register
class SharedStateCreatedOutsideOwner(_AnalysisRule):
    """Registered shared-state attribute created outside its owner module.

    Rebinding a registered attribute to a freshly created container or
    array outside the declared ``owner_modules`` (and outside the
    attribute's sanctioned writers) bypasses both the ownership table
    and the runtime sanitizer's write barriers — the new object carries
    no guard. Create shared state in its owner, or register the new
    owner in ``repro.lint.ownership``.
    """

    code = "OWN001"
    name = "shared-state-created-outside-owner"
    description = "shared-state attribute created outside its declared owner module"
