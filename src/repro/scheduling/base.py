"""The scheduler plug-in interface.

A scheduler's job is (a) to pick the initial path component(s) for every new
flow and (b) optionally to run periodic control logic that re-routes live
flows. It talks to the world through a :class:`SchedulerContext`, which
bundles the network, topology, addressing codec, and a dedicated RNG
stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.addressing.codec import PathCodec
from repro.simulator.flows import Flow, FlowComponent
from repro.simulator.network import Network
from repro.topology.multirooted import MultiRootedTopology, SwitchPath
from repro.scheduling.messages import MessageLedger


@dataclass
class SchedulerContext:
    """Everything a scheduler needs to operate."""

    network: Network
    codec: PathCodec
    rng: np.random.Generator

    @property
    def topology(self) -> MultiRootedTopology:
        return self.network.topology

    @property
    def engine(self):
        return self.network.engine


class Scheduler(abc.ABC):
    """Base class for all flow-scheduling approaches."""

    #: short identifier used in experiment configs and reports.
    name: str = "base"

    def __init__(self) -> None:
        self.ctx: Optional[SchedulerContext] = None
        self.ledger = MessageLedger()

    # -- lifecycle ------------------------------------------------------------

    def attach(self, ctx: SchedulerContext) -> None:
        """Bind to a network; subclasses register listeners/periodic control."""
        self.ctx = ctx

    # -- placement ---------------------------------------------------------------

    def place(self, src: str, dst: str, size_bytes: float) -> Flow:
        """Admit a new flow: pick components, then start it on the network."""
        components = self.choose_components(src, dst)
        return self.ctx.network.start_flow(src, dst, size_bytes, components)

    @abc.abstractmethod
    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        """Initial path component(s) for a new (src, dst) flow."""

    # -- helpers shared by implementations ------------------------------------------

    def paths_between(self, src: str, dst: str) -> List[SwitchPath]:
        """All equal-cost switch paths between two hosts' ToRs."""
        topo = self.ctx.topology
        return topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))

    def alive_paths(self, src: str, dst: str) -> List[SwitchPath]:
        """Equal-cost paths whose every hop is currently up.

        Falls back to the full path set when nothing survives (e.g. the
        host's own access link is down) — the flow is then placed and
        simply stalls until the failure heals, as real traffic would.
        """
        failed = self.ctx.network.failed_links
        paths = self.paths_between(src, dst)
        if not failed:
            return paths
        # Both access cables are on every path: test them once, then only
        # the switch hops (``failed`` holds both directions of a cable).
        if (src, paths[0][0]) in failed or (paths[0][-1], dst) in failed:
            return paths
        alive = [p for p in paths if failed.isdisjoint(zip(p, p[1:]))]
        return alive if alive else paths

    def evacuate_failed_link(self, u: str, v: str, pick) -> int:
        """Move single-path flows off a failed cable; returns moves made.

        ``pick(live_paths)`` chooses the replacement — hash-based for ECMP
        and Hedera (modelling the fabric's re-hash on routing
        re-convergence), uniform random for VLB. Striped (multi-component)
        flows are left to their own scheduler's control loop.
        """
        network = self.ctx.network
        moved = 0
        for flow in network.active_flows():
            if len(flow.components) != 1:
                continue
            links = flow.components[0].links()
            if (u, v) not in links and (v, u) not in links:
                continue
            live = self.alive_paths(flow.src, flow.dst)
            topo = self.ctx.topology
            live = [
                p for p in live
                if network.path_alive(topo.host_path(flow.src, flow.dst, p))
            ]
            if not live:
                continue  # no way around (access link down); flow stalls
            new_path = pick(live)
            network.reroute_flow(flow, [self.component_for(flow.src, flow.dst, new_path)])
            moved += 1
        return moved

    def component_for(self, src: str, dst: str, path: SwitchPath) -> FlowComponent:
        """Wrap a ToR-level switch path into a full host-to-host component."""
        return FlowComponent(self.ctx.topology.host_path(src, dst, path))

    def switch_path_of(self, flow: Flow) -> SwitchPath:
        """The ToR-to-ToR portion of a single-component flow's path."""
        return tuple(flow.switch_path()[1:-1])

    # -- accounting ------------------------------------------------------------------

    def control_message_bytes(self) -> float:
        """Total control-plane bytes this scheduler has generated."""
        return self.ledger.total_bytes


def encode_and_verify(codec: PathCodec, src: str, dst: str, path: SwitchPath) -> Tuple[int, int]:
    """Encode a path into an address pair and confirm it decodes back.

    DARD expresses every route choice as an address pair; this helper keeps
    schedulers honest by round-tripping through the codec rather than
    trusting the path object directly.
    """
    src_addr, dst_addr = codec.encode(src, dst, path)
    decoded = codec.decode(src_addr, dst_addr)
    if decoded != tuple(path):
        raise RuntimeError(f"codec round-trip mismatch: {path!r} -> {decoded!r}")
    return src_addr, dst_addr
