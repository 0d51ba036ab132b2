"""Flow-level discrete-event network simulator.

This is the repo's substitute for the paper's ns-2 setup (see DESIGN.md):
a fluid model in which, between events, every active flow transmits at its
**weighted max-min fair** rate — exactly the bandwidth allocation the
paper's Appendix A assumes TCP-with-fair-queuing converges to. Events are
flow arrivals, completions, reroutes, elephant promotions, and the periodic
control actions of whichever scheduler is attached.

Packet-level artifacts the paper's results hinge on are modelled
explicitly where they matter:

* path switches cost one congestion window of retransmitted bytes
  (TCP loses in-flight data when the path changes), and
* packet-granularity load balancing (TeXCP, per-packet VLB) suffers
  reordering-induced retransmissions, computed by
  :mod:`repro.simulator.reordering` from the delay spread of the paths a
  flow is striped across.
"""

from repro.simulator.components import FlowLinkComponents
from repro.simulator.engine import EventEngine
from repro.simulator.flows import Flow, FlowComponent, FlowRecord
from repro.simulator.flowstore import FlowStore
from repro.simulator.linkindex import LinkIndex
from repro.simulator.maxmin import (
    Allocation,
    link_loads_indexed,
    maxmin_allocate,
    maxmin_allocate_indexed,
    maxmin_allocate_reference,
)
from repro.simulator.network import LinkState, Network

__all__ = [
    "Allocation",
    "EventEngine",
    "Flow",
    "FlowComponent",
    "FlowLinkComponents",
    "FlowRecord",
    "FlowStore",
    "LinkIndex",
    "LinkState",
    "Network",
    "link_loads_indexed",
    "maxmin_allocate",
    "maxmin_allocate_indexed",
    "maxmin_allocate_reference",
]
