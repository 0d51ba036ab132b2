"""Which wrapped seams the traced run reports, and how.

The metric names and units themselves live in ``BENCHMARK.json`` at the
repository root.
"""

#: One-shot layers before the first simulated event: ``<layer>_s`` only.
SETUP_LAYERS = [
    "topology.build",
    "addressing.alloc",
    "addressing.codec",
    "simulator.network_init",
    "core.attach",
]

#: Layers called during the run: ``<layer>_s``, ``_self_s`` and ``_calls``.
RUN_LAYERS = [
    "simulator.run_until",
    "core.register",
    "scheduling.place",
    "simulator.start_flow",
    "simulator.reroute",
    "simulator.fail_restore",
    "maxmin.allocate",
    "core.query",
    "core.round",
]
