"""dardlint output: human text and machine JSON.

The JSON document is the CI artifact format; its schema is part of the
tool's contract and covered by tests:

.. code-block:: json

    {
      "tool": "dardlint",
      "schema_version": 2,
      "ok": false,
      "files_scanned": 97,
      "files_skipped": 3,
      "rules": [{"code": "DET001", "name": "...", "description": "..."}],
      "counts": {"DET001": 2},
      "findings": [
        {"path": "src/repro/x.py", "line": 10, "col": 5,
         "code": "DET001", "message": "..."}
      ]
    }

Schema version 2 added the ``files_skipped`` count — files reachable
from the linted paths but outside the configured ``include`` scopes,
previously silently absent from the document. ``rules`` lists whatever
the registry holds, so adding or removing a rule changes no schema.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.lint.engine import Finding, all_rules

__all__ = ["render_json", "render_text", "to_document"]

SCHEMA_VERSION = 2


def render_text(
    findings: Sequence[Finding], files_scanned: int, files_skipped: int = 0
) -> str:
    """clang-style ``path:line:col: CODE message`` lines plus a summary."""
    lines = [finding.render() for finding in findings]
    noun = "file" if files_scanned == 1 else "files"
    skipped = f", {files_skipped} out-of-scope skipped" if files_skipped else ""
    if findings:
        lines.append(
            f"dardlint: {len(findings)} finding(s) in {files_scanned} {noun}{skipped}"
        )
    else:
        lines.append(f"dardlint: clean ({files_scanned} {noun} scanned{skipped})")
    return "\n".join(lines)


def to_document(
    findings: Sequence[Finding], files_scanned: int, files_skipped: int = 0
) -> dict:
    """The JSON-schema document as a plain dict."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    rules: List[dict] = [
        {"code": cls.code, "name": cls.name, "description": cls.description}
        for cls in all_rules()
    ]
    return {
        "tool": "dardlint",
        "schema_version": SCHEMA_VERSION,
        "ok": not findings,
        "files_scanned": files_scanned,
        "files_skipped": files_skipped,
        "rules": rules,
        "counts": counts,
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "code": finding.code,
                "message": finding.message,
            }
            for finding in findings
        ],
    }


def render_json(
    findings: Sequence[Finding], files_scanned: int, files_skipped: int = 0
) -> str:
    """The JSON-schema document serialized with stable key order."""
    return json.dumps(
        to_document(findings, files_scanned, files_skipped), indent=2, sort_keys=True
    )
