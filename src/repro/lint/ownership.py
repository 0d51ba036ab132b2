"""The ownership registry: who owns each piece of shared simulator state.

One auditable table (`OWNERSHIP`) declaring, for every piece of shared
mutable simulator state, which module/class owns it, which functions are
its sanctioned writers, and whether the runtime sanitizer write-barriers
it during fuzz runs. The parallelism rule family (RACE001-003, OWN001 in
``rules/parallelism.py``) checks the table statically through the call
graph; :mod:`repro.validation.sanitizer` asserts the same table
dynamically. DESIGN.md "Ownership & parallel-safety" is the prose form.

The table exists to make component-parallel control-plane rounds a
checked contract instead of a convention: a function listed in
``COMPONENT_SCOPED`` (and everything reachable from it) may only write
state whose ``writers`` tuple names it, may only consume cross-component
dirty state through ``MERGE_POINTS``, and may not call the shared
structure mutators in ``SHARED_MUTATOR_METHODS`` at all. ``BOUNDARIES``
are the declared exits from a component round — calls into them are not
traversed (``_request_realloc`` only sets an idempotent coalescing flag
and schedules the merge, which is commutative across components).

Matching is by attribute/function *name* (the analysis is AST-based), so
registered attribute names must be unambiguous across the codebase; the
module asserts uniqueness at import. Deliberately **not** registered:

* ``Network._cap_array`` — the fuzz harness's ``--inject-bug`` corrupts
  it on purpose; guarding it would make the negative control impossible;
* ``FlowStore._free`` — a generic name that collides across classes and
  is only ever touched by its owner;
* ``MonitorRegistry.mark_links_dirty`` is not a shared mutator: it only
  writes the current clock into change stamps (idempotent, order-free
  within one clock value), the sanctioned dirty-producer pattern, like
  ``FlowLinkComponents.attach``/``detach``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "BOUNDARIES",
    "COMPONENT_SCOPED",
    "MERGE_POINTS",
    "OWNERSHIP",
    "SHARED_MUTATOR_METHODS",
    "SharedState",
    "state_by_attr",
]

#: Functions whose bodies (and transitive callees) form a per-component
#: round: the incremental refill of one dirty component set, and the
#: per-monitor slice of the batched Algorithm 1 round. Their closures
#: must be provably free of shared-state writes outside the declared
#: writers. ``batch_path_state_arrays`` (the monitor registry's row
#: gather) is not a component round and runs concurrently with nothing;
#: it is kept as a root only so the certificate keeps proving the gather
#: writes nothing, until the fault-catalogue measurement planned in
#: ROADMAP.md decides which roots earn their keep.
COMPONENT_SCOPED: Tuple[str, ...] = (
    "_refill_dirty",
    "_schedule_one_arrays",
    "batch_path_state_arrays",
)

#: The declared merge points: the only functions through which
#: cross-component dirty state may be consumed (``consume_dirty`` pops
#: the dirty-link set; ``scatter_link_loads`` is the ordered accumulation
#: that merges per-component rates into the persistent load array).
MERGE_POINTS: Tuple[str, ...] = ("consume_dirty", "scatter_link_loads")

#: Declared exits from a component round; the call-graph traversal stops
#: here. ``_request_realloc`` is safe to invoke from component-scoped
#: code because it only sets the idempotent ``_realloc_pending``
#: coalescing flag — concurrent rounds requesting a reallocation commute.
BOUNDARIES: Tuple[str, ...] = ("_request_realloc",)

#: Method names whose call sites mutate globally shared structures: the
#: event heap and the monitor registry's pair cache and clock. RACE003
#: flags any call to these from component-scoped code.
SHARED_MUTATOR_METHODS: Tuple[str, ...] = (
    "schedule_at",
    "schedule_in",
    "reschedule",
    "_store_rows",
)


@dataclass(frozen=True)
class SharedState:
    """One registered piece of shared mutable simulator state.

    ``writers`` are bare function names (methods or property setters)
    allowed to mutate the state — the granularity RACE001 checks inside
    component-scoped code and the set the runtime sanitizer unlocks
    write barriers for. ``owner_modules`` are the dotted modules allowed
    to *create* (rebind) the attribute (OWN001). ``category`` is
    ``"global"`` (one structure for the whole fabric), ``"partitioned"``
    (naturally sliced per component/flow/monitor), or ``"dirty"`` (a
    cross-component invalidation buffer, readable only at merge points —
    RACE002).
    """

    name: str
    attr: str
    owner_class: str
    owner_modules: Tuple[str, ...]
    writers: Tuple[str, ...]
    category: str
    runtime_guarded: bool = False

    def __post_init__(self) -> None:
        if self.category not in ("global", "partitioned", "dirty"):
            raise ValueError(f"bad category {self.category!r} for {self.name}")


#: Modules that may create/rebind FlowStore columns: the store itself
#: (allocation, growth), the Flow view (the sanctioned per-flow write
#: path), and the network (settle/refill write columns directly).
_COLUMN_OWNERS: Tuple[str, ...] = (
    "repro.simulator.flowstore",
    "repro.simulator.flows",
    "repro.simulator.network",
)

#: Store/view mechanism writers shared by every column: row lifecycle
#: plus the bind/unbind push/snapshot.
_COLUMN_MECHANISM: Tuple[str, ...] = (
    "__init__",
    "acquire",
    "release",
    "_reset_row",
    "_grow",
    "bind_store",
)


def _column(attr: str, *writers: str) -> SharedState:
    return SharedState(
        name=f"flow-store column {attr}",
        attr=attr,
        owner_class="FlowStore",
        owner_modules=_COLUMN_OWNERS,
        writers=_COLUMN_MECHANISM + writers,
        category="partitioned",
        runtime_guarded=True,
    )


def _network(attr: str, category: str, guarded: bool, *writers: str) -> SharedState:
    return SharedState(
        name=f"network per-link array {attr}" if guarded else f"network {attr}",
        attr=attr,
        owner_class="Network",
        owner_modules=("repro.simulator.network",),
        writers=("__init__",) + writers,
        category=category,
        runtime_guarded=guarded,
    )


def _owned(
    cls: str, module: str, attr: str, category: str, *writers: str
) -> SharedState:
    return SharedState(
        name=f"{cls}.{attr}",
        attr=attr,
        owner_class=cls,
        owner_modules=(module,),
        writers=("__init__",) + writers,
        category=category,
    )


#: The table. Writer names are audited against the real classes by
#: ``tests/test_parallel_safety.py`` (ownership-registry completeness),
#: so entries cannot silently rot as the simulator evolves.
OWNERSHIP: Tuple[SharedState, ...] = (
    # -- Network per-link arrays (global fabric state) ---------------------
    _network("_load_array", "global", True, "_refill_full", "_refill_dirty"),
    _network("_util_array", "global", True, "_refill_full", "_refill_dirty"),
    _network("_peak_util_array", "global", True, "_refill_full", "_refill_dirty"),
    _network("_total_array", "global", True, "_adjust_link_counts"),
    _network("_eleph_array", "global", True, "_adjust_link_counts"),
    _network("_failed_mask", "global", True, "fail_link", "restore_link"),
    _network("_failed_ids", "global", False, "fail_link", "restore_link"),
    _network(
        "_retired_link_ids",
        "dirty",
        False,
        "reroute_flow",
        "_on_completion_event",
        "_refill_full",
        "_refill_dirty",
    ),
    # -- FlowStore columns (partitioned per-flow hot state) ----------------
    _column("flow_id"),
    _column(
        "rate_bps", "_refill_full", "_refill_dirty", "_scatter_store_rates",
        "reroute_flow",
    ),
    _column("goodput_factor", "reorder_retx_fraction", "_refill_full", "_refill_dirty"),
    _column("retx_fraction", "reorder_retx_fraction", "_refill_full", "_refill_dirty"),
    _column("remaining_bytes", "_settle_store", "settle_reference", "reroute_flow"),
    _column("start_time"),
    _column("end_time", "_on_completion_event"),
    _column("retransmitted_bytes", "_settle_store", "settle_reference", "reroute_flow"),
    _column("elephant", "is_elephant"),
    _column("live"),
    _column("monitored_path", "monitored_path_index"),
    _column("path_switches", "reroute_flow"),
    # -- FlowLinkComponents link <-> flow index (the component structure) --
    _owned(
        "FlowLinkComponents", "repro.simulator.components", "_link_flows",
        "partitioned", "attach", "detach",
    ),
    _owned(
        "FlowLinkComponents", "repro.simulator.components", "_flow_links",
        "partitioned", "attach", "detach",
    ),
    _owned(
        "FlowLinkComponents", "repro.simulator.components", "_dirty_links",
        "dirty", "attach", "detach", "consume_dirty", "discard_dirty",
    ),
    # -- MonitorRegistry pair cache (global control-plane cache) -----------
    _owned(
        "MonitorRegistry", "repro.core.registry", "_pair_cache",
        "global", "_store_rows", "release",
    ),
    _owned("MonitorRegistry", "repro.core.registry", "_clock", "global", "_store_rows"),
    _owned(
        "MonitorRegistry", "repro.core.registry", "_link_stamp",
        "dirty", "mark_links_dirty",
    ),
    # -- EventEngine heap (global event order; see also API002) ------------
    _owned(
        "EventEngine", "repro.simulator.engine", "_heap",
        "global", "schedule_at", "run_until",
    ),
    _owned("EventEngine", "repro.simulator.engine", "_seq", "global"),
    _owned(
        "EventEngine", "repro.simulator.engine", "_live_events",
        "global", "schedule_at", "cancel", "run_until",
    ),
    # -- PathMonitor per-pair state caches (partitioned per monitor) -------
    _owned(
        "PathMonitor", "repro.core.monitor", "state_band",
        "partitioned", "refresh", "path_states",
    ),
    _owned(
        "PathMonitor", "repro.core.monitor", "state_eleph",
        "partitioned", "refresh", "path_states", "note_shift",
    ),
)


def state_by_attr() -> Dict[str, SharedState]:
    """The table keyed by attribute name (asserted unique at import)."""
    return dict(_BY_ATTR)


_BY_ATTR: Dict[str, SharedState] = {}
for _entry in OWNERSHIP:
    if _entry.attr in _BY_ATTR:
        raise ValueError(f"ambiguous registered attribute {_entry.attr!r}")
    _BY_ATTR[_entry.attr] = _entry
