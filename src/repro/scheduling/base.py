"""The scheduler plug-in interface.

A scheduler's job is (a) to pick the initial path component(s) for every new
flow and (b) optionally to run periodic control logic that re-routes live
flows. It talks to the world through a :class:`SchedulerContext`, which
bundles the network, topology, addressing codec, and a dedicated RNG
stream. A route is an index into the pair's path set, which
:meth:`Scheduler.alive_paths` returns with the indices a scheduler may
choose; ``Network.component`` turns the choice into a flow component.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.addressing.codec import PathCodec
from repro.simulator.flows import Flow, FlowComponent
from repro.simulator.network import Network
from repro.topology.multirooted import MultiRootedTopology
from repro.topology.paths import EqualCostPaths, SwitchPath
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

    def paths_between(self, src: str, dst: str) -> EqualCostPaths:
        """All equal-cost switch paths between two hosts' ToRs."""
        topo = self.ctx.topology
        return topo.equal_cost_paths(topo.tor_of(src), topo.tor_of(dst))

    def alive_paths(self, src: str, dst: str) -> Tuple[EqualCostPaths, Sequence[int]]:
        """The pair's path set and the ascending indices of its paths whose
        every hop is up.

        When nothing survives (e.g. the host's own access link is down)
        every index comes back — the flow is then placed and simply
        stalls until the failure heals, as real traffic would.
        """
        failed = self.ctx.network.failed_links
        paths = self.paths_between(src, dst)
        everything = range(len(paths))
        if not failed:
            return paths, everything
        # Both access cables are on every path: test them once, then let
        # the path set derive its dead indices from the failed cables
        # touching its switches (``failed`` holds both directions).
        if (src, paths.src_tor) in failed or (paths.dst_tor, dst) in failed:
            return paths, everything
        dead = paths.dead_indices(failed)
        if not dead or len(dead) == len(paths):
            return paths, everything
        # The survivors are the runs between consecutive dead indices.
        alive: List[int] = []
        lo = 0
        for i in dead:
            alive += range(lo, i)
            lo = i + 1
        alive += range(lo, len(paths))
        return paths, alive

    def evacuate_failed_link(
        self, u: str, v: str, pick: Callable[[Sequence[int]], int]
    ) -> int:
        """Move single-path flows off a failed cable; returns moves made.

        ``pick(alive)`` chooses the replacement's index — hash-based for
        ECMP, Hedera and GFF (modelling the fabric's re-hash on routing
        re-convergence), uniform random for VLB. Striped (multi-component)
        flows are left to their own scheduler's control loop.
        """
        network = self.ctx.network
        cable = {network.link_index.id_of((u, v)), network.link_index.id_of((v, u))}
        moved = 0
        for flow in network.active_flows():
            if len(flow.components) != 1 or cable.isdisjoint(flow.components[0].link_ids):
                continue
            paths, alive = self.alive_paths(flow.src, flow.dst)
            # The flow's own path is dead, so every index comes back only
            # when nothing survives (access link down): the flow stalls.
            if len(alive) == len(paths):
                continue
            index = pick(alive)
            network.reroute_flow(flow, [network.component(flow.src, flow.dst, paths, index)])
            moved += 1
        return moved

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
