"""Export results for external tooling (pandas, gnuplot, spreadsheets)."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.simulator.flows import FlowRecord

PathLike = Union[str, Path]


def records_to_csv(records: Sequence[FlowRecord], path: PathLike) -> int:
    """Write per-flow records to CSV; returns the number of rows written."""
    fieldnames = [
        "flow_id", "src", "dst", "size_bytes", "start_time", "end_time",
        "fct", "path_switches", "path_revisits", "retransmitted_bytes",
        "retx_rate", "was_elephant",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            row = dataclasses.asdict(record)
            row["fct"] = record.fct
            row["retx_rate"] = record.retx_rate
            writer.writerow(row)
    return len(records)


def rows_to_csv(rows: List[Dict[str, object]], path: PathLike) -> int:
    """Write report-style dict rows (e.g. an ExperimentOutput's) to CSV."""
    if not rows:
        Path(path).write_text("")
        return 0
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def results_to_json(payload, path: PathLike) -> None:
    """Serialize an ExperimentOutput / ScenarioResult / plain dict to JSON.

    Dataclasses are expanded; NaN/inf become null so the output stays
    strictly standard JSON.
    """
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        payload = dataclasses.asdict(payload)
    with open(path, "w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
