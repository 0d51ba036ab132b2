"""Equal-Cost Multi-Path forwarding (RFC 2992; paper's ECMP baseline).

A flow's path is a hash of its five-tuple — source and destination
addresses plus ephemeral ports — modulo the number of equal-cost paths
(§4.2: "the hashing function is defined as the source and destination IP
addresses and ports modulo the number of paths"). The choice is static for
the flow's lifetime, which is exactly how long-lived elephants end up
permanently colliding on one link. DARD, Hedera and GFF place new flows
with :func:`hash_components` too, and Hedera and GFF re-hash with :func:`rehash`.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.scheduling.base import Scheduler
from repro.simulator.flows import FlowComponent


def five_tuple_hash(src: str, dst: str, sport: int, dport: int, buckets: int) -> int:
    """Deterministic header hash onto ``buckets`` next-hop choices."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    digest = hashlib.sha256(f"{src}:{dst}:{sport}:{dport}:tcp".encode()).digest()
    return int.from_bytes(digest[:8], "big") % buckets


def _hash_index(scheduler: Scheduler, src: str, dst: str, alive: Sequence[int]) -> int:
    """The alive index a fresh five-tuple (sport drawn, then dport) hashes onto."""
    rng = scheduler.ctx.rng
    sport = int(rng.integers(1024, 65536))
    dport = int(rng.integers(1024, 65536))
    return alive[five_tuple_hash(src, dst, sport, dport, len(alive))]


def hash_components(scheduler: Scheduler, src: str, dst: str) -> List[FlowComponent]:
    """ECMP placement: one component on the alive path the five-tuple hashes to."""
    paths, alive = scheduler.alive_paths(src, dst)
    index = _hash_index(scheduler, src, dst, alive)
    return [scheduler.ctx.network.component(src, dst, paths, index)]


def rehash(scheduler: Scheduler, alive: Sequence[int]) -> int:
    """The fabric's re-hash onto a surviving path on routing re-convergence."""
    return _hash_index(scheduler, "rehash", "rehash", alive)


class EcmpScheduler(Scheduler):
    """Static random flow-level scheduling via header hashing.

    On a link failure the routing protocol re-converges and affected flows
    re-hash onto the surviving next hops; that reaction is modelled by
    :meth:`Scheduler.evacuate_failed_link` with :func:`rehash`.
    """

    name = "ecmp"

    def attach(self, ctx) -> None:
        super().attach(ctx)
        ctx.network.link_failed_listeners.append(self._on_link_failed)

    def _on_link_failed(self, u: str, v: str) -> None:
        self.evacuate_failed_link(u, v, lambda alive: rehash(self, alive))

    def choose_components(self, src: str, dst: str) -> List[FlowComponent]:
        return hash_components(self, src, dst)
