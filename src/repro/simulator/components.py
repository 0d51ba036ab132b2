"""Connected components of the flow-link incidence graph.

Weighted max-min allocation decomposes exactly across the connected
components of the bipartite incidence graph (flows x the links they
cross): progressive filling's arithmetic on a link only ever reads and
writes state of demands crossing that link, so water-filling each
component in isolation produces bit-identical rates to one global fill
(see DESIGN.md "Component decomposition"). :class:`FlowLinkComponents`
indexes that graph online so the network can re-fill **only the
components a membership change touched**.

The structure is an exact adjacency index over dense link ids (the
network's :class:`~repro.simulator.linkindex.LinkIndex` universe):

* ``_link_flows`` maps each link carrying at least one live flow to the
  set of those flows (links that carry none have no entry), the one
  record of which flows cross a link (:meth:`flow_count`);
* ``_flow_links`` maps each live flow to its unique link ids;
* **attach** (flow start / reroute landing) and **detach** (completion /
  reroute leaving) add or remove one flow's entries and mark its links
  dirty; **touch** (cable fail / restore) marks a cable's links dirty
  and names the links of the flows crossing it;
* **consume_dirty** walks the index from the dirty links and returns
  exactly the live flows of the components those links belong to now.

Components are never stored, only walked, so a departure that
disconnects a component splits it at once: the next walk from either
side stops at the gap. The walk costs O(links + flows) of the components
it returns, which the refill of those same flows pays anyway.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

__all__ = ["FlowLinkComponents"]


class FlowLinkComponents:
    """Exact link -> live-flows index with dirty link marks."""

    __slots__ = ("_link_flows", "_flow_links", "_dirty_links")

    def __init__(self) -> None:
        #: link id -> ids of the live flows crossing it (no empty entries).
        self._link_flows: Dict[int, Set[int]] = {}
        #: live flow id -> its unique link ids.
        self._flow_links: Dict[int, List[int]] = {}
        #: links whose flow set changed since the last :meth:`consume_dirty`.
        self._dirty_links: Set[int] = set()

    # -- membership events ---------------------------------------------------

    def attach(self, flow_id: int, link_ids: Any) -> None:
        """A flow landed on these links; their components become dirty.

        ``link_ids`` is the flow's sorted unique link-id array (every
        component of a striped flow included, so the strands' links join
        one component — coarser than the demands need, never finer).
        """
        links = link_ids.tolist()
        self._flow_links[flow_id] = links
        link_flows = self._link_flows
        for link in links:
            members = link_flows.get(link)
            if members is None:
                link_flows[link] = {flow_id}
            else:
                members.add(flow_id)
        self._dirty_links.update(links)

    def detach(self, flow_id: int) -> None:
        """A flow left its links; whatever remains of them becomes dirty."""
        links = self._flow_links.pop(flow_id)
        link_flows = self._link_flows
        for link in links:
            members = link_flows[link]
            members.discard(flow_id)
            if not members:
                del link_flows[link]
        self._dirty_links.update(links)

    def touch(self, link_ids: Sequence[int]) -> List[int]:
        """These links changed state under their flows; mark them dirty.

        A cable failure or restore changes which demands of the flows
        crossing it are dead without changing any flow's links, so the
        walk from the cable's links re-fills exactly their component.
        Returns the sorted unique link ids of those flows: the links
        whose load the dead (or revived) demands leave.
        """
        self._dirty_links.update(link_ids)
        link_flows = self._link_flows
        crossing: Set[int] = set()
        for link in link_ids:
            members = link_flows.get(link)
            if members is not None:
                for flow_id in members:
                    crossing.update(self._flow_links[flow_id])
        return sorted(crossing)

    # -- component walks -----------------------------------------------------

    def _walk(self, start: int, links: Set[int], flows: Set[int]) -> None:
        """Add ``start``'s component to ``links`` and ``flows``.

        ``start`` must carry a live flow and must not be in ``links`` yet.
        """
        link_flows = self._link_flows
        flow_links = self._flow_links
        links.add(start)
        reached = [start]
        visited = 0
        while visited < len(reached):
            for flow_id in link_flows[reached[visited]]:
                if flow_id not in flows:
                    flows.add(flow_id)
                    for link in flow_links[flow_id]:
                        if link not in links:
                            links.add(link)
                            reached.append(link)
            visited += 1

    def consume_dirty(self) -> Tuple[int, List[int]]:
        """Pop the dirty set: ``(components touched, sorted flow ids)``.

        ``flow ids`` is every live flow of every component a dirty link
        belongs to, ascending — ascending order matches the network's
        flow-dict iteration order, so a dirty-only fill's rows keep the
        full assembly's per-link arithmetic sequence (the bit-exactness
        requirement). Dirty links that no longer carry a flow contribute
        nothing and count as no component.
        """
        dirty = self._dirty_links
        self._dirty_links = set()
        link_flows = self._link_flows
        links: Set[int] = set()
        flows: Set[int] = set()
        touched = 0
        for link in sorted(dirty):
            if link not in links and link in link_flows:
                touched += 1
                self._walk(link, links, flows)
        return touched, sorted(flows)

    def discard_dirty(self) -> None:
        """Forget the dirty marks: a global fill has just re-rated every flow."""
        self._dirty_links = set()

    # -- introspection (link state, invariant checks, tests) ---------------------

    def flow_count(self, link: int) -> int:
        """How many live flows cross ``link``."""
        return len(self._link_flows.get(link, ()))

    def link_flows(self) -> Dict[int, Set[int]]:
        """A copy of the link -> live-flows index, for audits and tests."""
        return {link: set(members) for link, members in self._link_flows.items()}

    def flow_links(self) -> Dict[int, List[int]]:
        """A copy of the flow -> unique-links index, for audits and tests."""
        return {flow_id: list(links) for flow_id, links in self._flow_links.items()}
