"""Destination-selection patterns."""

from __future__ import annotations

import abc
from itertools import chain, islice
from operator import ne
from typing import Dict, List

import numpy as np

from repro.common.errors import ConfigurationError
from repro.topology.multirooted import MultiRootedTopology


class TrafficPattern(abc.ABC):
    """Picks a destination host for each new flow from a given source."""

    name: str = "base"

    def __init__(self, topology: MultiRootedTopology) -> None:
        self.topology = topology
        self.hosts: List[str] = sorted(topology.hosts())
        if len(self.hosts) < 2:
            raise ConfigurationError("pattern needs at least two hosts")

    @abc.abstractmethod
    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        """A destination for ``src``; never ``src`` itself."""


class RandomPattern(TrafficPattern):
    """Uniform over every other host in the topology."""

    name = "random"

    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        while True:
            dst = self.hosts[int(rng.integers(len(self.hosts)))]
            if dst != src:
                return dst


class StaggeredPattern(TrafficPattern):
    """Same ToR w.p. ``tor_p``, same pod w.p. ``pod_p``, else another pod.

    When a bucket is empty for a given source (e.g. its rack has no other
    host), the draw falls through to the next wider bucket, preserving the
    pattern's locality bias without ever failing.
    """

    name = "staggered"

    def __init__(
        self,
        topology: MultiRootedTopology,
        tor_p: float = 0.5,
        pod_p: float = 0.3,
    ) -> None:
        super().__init__(topology)
        if tor_p < 0 or pod_p < 0 or tor_p + pod_p > 1:
            raise ConfigurationError(
                f"staggered probabilities invalid: tor_p={tor_p}, pod_p={pod_p}"
            )
        self.tor_p = tor_p
        self.pod_p = pod_p
        self._same_tor: Dict[str, List[str]] = {}
        self._same_pod: Dict[str, List[str]] = {}
        self._other_pod: Dict[str, List[str]] = {}
        for host in self.hosts:
            tor = topology.tor_of(host)
            pod = topology.pod_of(host)
            self._same_tor[host] = [
                h for h in topology.hosts_of_tor(tor) if h != host
            ]
            self._same_pod[host] = [
                h
                for h in self.hosts
                if h != host and topology.pod_of(h) == pod and topology.tor_of(h) != tor
            ]
            self._other_pod[host] = [
                h for h in self.hosts if topology.pod_of(h) != pod
            ]

    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        roll = rng.random()
        if roll < self.tor_p:
            buckets = [self._same_tor[src], self._same_pod[src], self._other_pod[src]]
        elif roll < self.tor_p + self.pod_p:
            buckets = [self._same_pod[src], self._other_pod[src], self._same_tor[src]]
        else:
            buckets = [self._other_pod[src], self._same_pod[src], self._same_tor[src]]
        for bucket in buckets:
            if bucket:
                return bucket[int(rng.integers(len(bucket)))]
        raise ConfigurationError(f"no destination available for {src!r}")


class StridePattern(TrafficPattern):
    """Host ``x`` sends to host ``(x + step) mod N`` (paper §4.1).

    ``step=None`` auto-picks the smallest step that puts every
    source-destination pair in different pods — the paper chooses "a proper
    step to make sure the source and destination end hosts are in different
    pods".
    """

    name = "stride"

    def __init__(self, topology: MultiRootedTopology, step: int = None) -> None:
        super().__init__(topology)
        n = len(self.hosts)
        if step is None:
            step = self._auto_step()
        if not 0 < step < n:
            raise ConfigurationError(f"stride step {step} out of range (0, {n})")
        self.step = step
        self._dst_of = {
            host: self.hosts[(i + step) % n] for i, host in enumerate(self.hosts)
        }

    def _auto_step(self) -> int:
        nodes = self.topology.nodes
        pods = [nodes[host].pod for host in self.hosts]
        for step in range(1, len(pods)):
            # pods[i] != pods[(i + step) % n] for every i.
            if all(map(ne, pods, chain(islice(pods, step, None), pods))):
                return step
        raise ConfigurationError("no stride step puts all pairs in different pods")

    def pick_dst(self, src: str, rng: np.random.Generator) -> str:
        return self._dst_of[src]


def make_pattern(name: str, topology: MultiRootedTopology, **kwargs) -> TrafficPattern:
    """Construct a pattern by name.

    ``random`` / ``staggered`` / ``stride`` / ``incast`` take their
    constructor kwargs directly. ``composite`` takes ``mix``, a list of
    ``[name, weight]`` (or ``[name, weight, kwargs]``) entries describing
    the mixture, e.g. ``mix=[["staggered", 0.7], ["stride", 0.3]]``.
    """
    if name == "composite":
        from repro.workloads.composite import CompositePattern

        mix = kwargs.pop("mix", None)
        if kwargs or not mix:
            raise ConfigurationError(
                "composite pattern takes exactly one parameter, 'mix'"
            )
        patterns = []
        weights = []
        for entry in mix:
            if len(entry) == 2:
                sub_name, weight = entry
                sub_kwargs = {}
            elif len(entry) == 3:
                sub_name, weight, sub_kwargs = entry
            else:
                raise ConfigurationError(
                    f"mix entry must be [name, weight] or [name, weight, kwargs], got {entry!r}"
                )
            patterns.append(make_pattern(sub_name, topology, **sub_kwargs))
            weights.append(float(weight))
        return CompositePattern(patterns, weights)
    if name == "incast":
        from repro.workloads.scenarios import IncastPattern

        return IncastPattern(topology, **kwargs)
    patterns = {
        "random": RandomPattern,
        "staggered": StaggeredPattern,
        "stride": StridePattern,
    }
    if name not in patterns:
        raise ConfigurationError(
            f"unknown traffic pattern {name!r}; expected one of "
            f"{sorted(patterns) + ['composite', 'incast']}"
        )
    return patterns[name](topology, **kwargs)
