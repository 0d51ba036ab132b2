"""The flow-link incidence index: which live flows cross which links.

The network's refill re-rates the bottleneck region a change reaches
(see DESIGN.md "Incremental bottleneck-region reallocation"): the flows
whose demands changed, the flows on changed links that were saturated,
and the boundary — every other flow crossing a link the fill covers.
:class:`FlowLinkComponents` answers the two questions that region needs,
exactly and online:

* ``_link_flows`` maps each link carrying at least one live flow to the
  set of those flows (links that carry none have no entry), the one
  record of which flows cross a link (:meth:`flow_count`,
  :meth:`flows_on`);
* ``_flow_links`` maps each live flow to its unique link ids
  (:meth:`links_of`);
* **attach** (flow start / reroute landing) and **detach** (completion /
  reroute leaving) add or remove one flow's entries and return the
  links whose flow sets they changed (a detach splits them into the
  links other flows still cross and the links it left empty).

The index keeps no marks of its own: the network records what changed
since its last fill.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

__all__ = ["FlowLinkComponents"]


class FlowLinkComponents:
    """Exact link -> live-flows and flow -> links index."""

    __slots__ = ("_link_flows", "_flow_links")

    def __init__(self) -> None:
        #: link id -> ids of the live flows crossing it (no empty entries).
        self._link_flows: Dict[int, Set[int]] = {}
        #: live flow id -> its unique link ids.
        self._flow_links: Dict[int, List[int]] = {}

    # -- membership events ---------------------------------------------------

    def attach(self, flow_id: int, link_ids: Any) -> List[int]:
        """A flow landed on these links; returns them as a list.

        ``link_ids`` is the flow's sorted unique link-id array (every
        component of a striped flow included).
        """
        links: List[int] = link_ids.tolist()
        self._flow_links[flow_id] = links
        link_flows = self._link_flows
        for link in links:
            members = link_flows.get(link)
            if members is None:
                link_flows[link] = {flow_id}
            else:
                members.add(flow_id)
        return links

    def detach(self, flow_id: int) -> Tuple[List[int], List[int]]:
        """A flow left its links; returns ``(shared, vacated)``: the links
        other flows still cross, and the links it left without a flow."""
        shared: List[int] = []
        vacated: List[int] = []
        link_flows = self._link_flows
        for link in self._flow_links.pop(flow_id):
            members = link_flows[link]
            members.discard(flow_id)
            if members:
                shared.append(link)
            else:
                del link_flows[link]
                vacated.append(link)
        return shared, vacated

    # -- queries -------------------------------------------------------------

    def flows_on(self, links: Iterable[int]) -> Set[int]:
        """Ids of the live flows crossing any of ``links``."""
        link_flows = self._link_flows
        found: Set[int] = set()
        for link in links:
            members = link_flows.get(link)
            if members is not None:
                found.update(members)
        return found

    def links_of(self, flow_ids: Iterable[int]) -> Set[int]:
        """The unique link ids the given live flows cross, together."""
        flow_links = self._flow_links
        found: Set[int] = set()
        for flow_id in flow_ids:
            found.update(flow_links[flow_id])
        return found

    def flow_count(self, link: int) -> int:
        """How many live flows cross ``link``."""
        return len(self._link_flows.get(link, ()))

    def link_flows(self) -> Dict[int, Set[int]]:
        """A copy of the link -> live-flows index, for audits and tests."""
        return {link: set(members) for link, members in self._link_flows.items()}

    def flow_links(self) -> Dict[int, List[int]]:
        """A copy of the flow -> unique-links index, for audits and tests."""
        return {flow_id: list(links) for flow_id, links in self._flow_links.items()}
