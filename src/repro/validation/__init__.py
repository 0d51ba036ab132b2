"""Differential-oracle validation: the paper's claims as machine checks.

Five layers, composable and individually importable:

* :mod:`repro.validation.invariants` — runtime invariant checks (capacity
  conservation, the max-min KKT certificate, Theorem-1's BoNF bound,
  static-switch-table preservation, Theorem-2 BoNF monotonicity) plus the
  :class:`InvariantChecker` that re-runs them continuously off the event
  engine's after-event hook;
* :mod:`repro.validation.oracles` — in-run differential oracles: indexed
  vs reference allocator, live network vs reference, the incremental
  component-scoped reallocator vs a bit-exact full refill, the fluid
  simulator vs the packet-level TCP micro-simulator inside the
  documented 0.81-1.02x FCT agreement band, and the
  :class:`StormOracle` that screens every placement and reroute against
  the failed-link set while auditing flow-store row accounting across
  fail/restore churn;
* :mod:`repro.validation.twins` — the reference twins (the scalar DARD
  control plane, the scalar settle/ETA/completion loops) and the one
  harness, :func:`twin_run`, that dual-runs a scenario against a twin
  and demands the same shift journal and bit-identical records;
* :mod:`repro.validation.fuzz` — seeded randomized scenario fuzzing with
  shrink-on-failure minimal reproductions;
* :mod:`repro.validation.snapshot` — golden-trace regression snapshots
  (store / compare / update) and their twin replays.

Everything is driven end to end by ``repro validate`` (see ``cli.py``)
and documented in TESTING.md.
"""

from repro.validation.invariants import (
    DEFAULT_NETWORK_CHECKS,
    InvariantChecker,
    SwitchTableSnapshot,
    check_dynamics_monotone,
    check_flowstore_balance,
    check_maxmin_certificate,
    check_network_allocation,
    check_static_forwarding,
    check_theorem1_bound_live,
)
from repro.validation.oracles import (
    FCT_AGREEMENT_BAND,
    FLUID_VS_PACKET_SCENARIOS,
    StormOracle,
    allocator_equivalence_suite,
    check_allocator_equivalence,
    check_incremental_against_full,
    check_network_against_reference,
    run_fluid_vs_packet,
)
from repro.validation.twins import (
    INCREMENTAL,
    SCALAR_CONTROL_PLANE,
    SCALAR_SETTLE,
    Twin,
    compare_runs,
    twin_run,
    twin_suites,
)
from repro.validation.fuzz import (
    FuzzFailure,
    FuzzReport,
    inject_capacity_bug,
    inject_storm_bug,
    random_scenario,
    run_case,
    run_fuzz,
    shrink_config,
)
from repro.validation.sanitizer import OwnershipSanitizer
from repro.validation.snapshot import (
    DEFAULT_GOLDEN_PATH,
    GOLDEN_SCENARIOS,
    GOLDEN_TWINS,
    collect_goldens,
    compare_goldens,
    replay_goldens,
    store_goldens,
)

__all__ = [
    "DEFAULT_GOLDEN_PATH",
    "DEFAULT_NETWORK_CHECKS",
    "FCT_AGREEMENT_BAND",
    "FLUID_VS_PACKET_SCENARIOS",
    "FuzzFailure",
    "FuzzReport",
    "GOLDEN_SCENARIOS",
    "GOLDEN_TWINS",
    "INCREMENTAL",
    "InvariantChecker",
    "OwnershipSanitizer",
    "SCALAR_CONTROL_PLANE",
    "SCALAR_SETTLE",
    "StormOracle",
    "SwitchTableSnapshot",
    "Twin",
    "allocator_equivalence_suite",
    "check_allocator_equivalence",
    "check_dynamics_monotone",
    "check_flowstore_balance",
    "check_incremental_against_full",
    "check_maxmin_certificate",
    "check_network_against_reference",
    "check_network_allocation",
    "check_static_forwarding",
    "check_theorem1_bound_live",
    "collect_goldens",
    "compare_goldens",
    "compare_runs",
    "inject_capacity_bug",
    "inject_storm_bug",
    "random_scenario",
    "replay_goldens",
    "run_case",
    "run_fluid_vs_packet",
    "run_fuzz",
    "shrink_config",
    "store_goldens",
    "twin_run",
    "twin_suites",
]
