"""Paired per-flow comparison of two scenario results.

Because the runner guarantees byte-identical workloads across schedulers
(same seed ⇒ same flows), two results can be compared *flow by flow*
rather than only by aggregate means — the statistically sound way to ask
"which scheduler is better", robust to heavy-tailed FCT distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.experiments.runner import ScenarioResult


@dataclass(frozen=True)
class PairedComparison:
    """Flow-by-flow comparison of scheduler A vs scheduler B."""

    flows: int
    #: per-flow FCT(A) - FCT(B); positive entries favour B.
    fct_deltas_s: Tuple[float, ...]
    mean_fct_a: float
    mean_fct_b: float

    @property
    def mean_delta_s(self) -> float:
        return float(np.mean(self.fct_deltas_s))

    @property
    def b_win_fraction(self) -> float:
        """Fraction of flows B finished strictly faster."""
        arr = np.asarray(self.fct_deltas_s)
        return float((arr > 0).mean())

    @property
    def paired_improvement(self) -> float:
        """Mean per-flow relative improvement of B over A."""
        return self.mean_delta_s / self.mean_fct_a if self.mean_fct_a else 0.0

    def summary(self) -> str:
        """One-line human-readable comparison."""
        return (
            f"n={self.flows} mean FCT {self.mean_fct_a:.2f}s vs {self.mean_fct_b:.2f}s; "
            f"B faster on {self.b_win_fraction:.0%} of flows; "
            f"paired improvement {self.paired_improvement:.1%}"
        )


def paired_comparison(a: ScenarioResult, b: ScenarioResult) -> PairedComparison:
    """Pair up the two runs' flows and compare FCTs.

    Flows are matched on (start time, src, dst, size); both runs must
    contain exactly the same workload — which they do when produced by
    :func:`repro.experiments.runner.run_scenario` with the same seed and
    workload parameters — and both must have finished every flow it
    generated: records hold completed flows only, so a run that left
    flows unfinished at the drain cutoff cannot be paired flow by flow.
    """
    if any(len(r.records) < r.flows_generated for r in (a, b)):
        sides = "; ".join(
            f"{label} ({r.config.scheduler}) completed {len(r.records)} of "
            f"{r.flows_generated} generated flows by the drain cutoff "
            f"t={r.config.duration_s + r.config.drain_limit_s:g} s "
            f"(drain_limit_s={r.config.drain_limit_s:g})"
            for label, r in (("A", a), ("B", b))
        )
        raise ConfigurationError(
            f"results leave flows unfinished: {sides}. Raise drain_limit_s so "
            "both runs finish every flow before pairing them"
        )

    def keyed(result: ScenarioResult) -> Dict[tuple, List[float]]:
        table: Dict[tuple, List[float]] = {}
        for record in result.records:
            key = (round(record.start_time, 9), record.src, record.dst, record.size_bytes)
            table.setdefault(key, []).append(record.fct)
        for fcts in table.values():
            fcts.sort()
        return table

    table_a = keyed(a)
    table_b = keyed(b)
    if set(table_a) != set(table_b):
        raise ConfigurationError(
            "results carry different workloads; run both scenarios from the "
            "same seed and workload parameters"
        )
    deltas: List[float] = []
    for key, fcts_a in table_a.items():
        fcts_b = table_b[key]
        if len(fcts_a) != len(fcts_b):
            raise ConfigurationError(f"duplicate-flow mismatch for {key}")
        deltas.extend(x - y for x, y in zip(fcts_a, fcts_b))
    return PairedComparison(
        flows=len(deltas),
        fct_deltas_s=tuple(deltas),
        mean_fct_a=a.mean_fct,
        mean_fct_b=b.mean_fct,
    )
