"""dardlint core: rule registry, config, suppressions, and the lint driver.

The engine is deliberately small: a :class:`Rule` is a class with a
``code``, a ``description``, a default module ``scope``, and a
``check(ctx)`` generator over :class:`Finding`; the driver parses each
file once, hands the shared :class:`ModuleContext` to every rule whose
scope covers the file's dotted module name, and filters the results
through per-line ``# dardlint: disable=<CODE>`` suppressions. (Doc
examples here spell the code as ``<CODE>`` so the scanner — which
matches physical lines, docstrings included — does not read them as
real, and then unused, suppressions.)

Scopes and suppressions exist because dardlint's rules encode *semantic*
contracts (determinism, hot-path discipline, mutation ownership — see
DESIGN.md "Static guarantees"), and semantic contracts have legitimate,
documented exceptions: wall-clock telemetry that never feeds simulation
state, a fuzzer that records crashes as findings. A suppression is the
in-tree record that a human audited the site; the rationale belongs in
the trailing comment next to it.

Configuration lives in ``pyproject.toml`` under ``[tool.dardlint]``:

* ``include`` / ``exclude`` — dotted module prefixes linted / skipped;
* ``[tool.dardlint.scopes]`` — per-rule scope overrides (module-prefix
  lists), replacing the rule's built-in default scope;
* ``[tool.dardlint.exempt]`` — per-rule module-prefix exemptions *added*
  to the rule's built-in exemptions;
* ``disable`` — rule codes switched off entirely.

``tomllib`` is only available on Python 3.11+; on older interpreters the
engine falls back to the built-in defaults, which are kept identical to
the committed pyproject section so behavior does not depend on the
interpreter version.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "all_rules",
    "load_config",
    "module_name_for",
    "register",
    "run_lint",
    "run_lint_result",
]

#: Matches a suppression comment anywhere in a physical line. Codes may be
#: followed by free-form rationale text: ``# dardlint: disable=<CODE>
#: (wall-clock telemetry only)``.
_SUPPRESS_RE = re.compile(r"#\s*dardlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

_CODE_RE = re.compile(r"^[A-Z]{3,4}[0-9]{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """Clang-style ``path:line:col: CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class ModuleContext:
    """Everything a rule needs about one parsed source file."""

    def __init__(self, path: Path, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._suppressions, self._suppression_cols = _scan_suppressions(self.lines)
        #: Suppression-comment lines that matched at least one finding;
        #: the driver reports the rest as DRD001 (unused suppression).
        self.used_suppression_lines: Set[int] = set()

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        """Whether a per-line disable comment covers this finding.

        A match records the comment's line in ``used_suppression_lines``
        so the driver can flag leftover suppressions (DRD001).
        """
        codes = self._suppressions.get(finding.line)
        if codes is not None and (finding.code in codes or "ALL" in codes):
            self.used_suppression_lines.add(finding.line)
            return True
        # A comment-only line suppresses the statement directly below it.
        above = finding.line - 1
        if 1 <= above <= len(self.lines):
            text = self.lines[above - 1].lstrip()
            if text.startswith("#"):
                codes = self._suppressions.get(above)
                if codes is not None and (finding.code in codes or "ALL" in codes):
                    self.used_suppression_lines.add(above)
                    return True
        return False


def _scan_suppressions(
    lines: Sequence[str],
) -> Tuple[Dict[int, Set[str]], Dict[int, int]]:
    """Per-line suppressed rule codes (and comment columns) from
    ``# dardlint: disable=`` comments."""
    out: Dict[int, Set[str]] = {}
    cols: Dict[int, int] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {c.strip().upper() for c in match.group(1).split(",") if c.strip()}
        if codes:
            out[number] = codes
            cols[number] = match.start() + 1
    return out, cols


class Rule:
    """Base class: subclass, set the class attributes, implement ``check``.

    ``scope`` is the tuple of dotted module prefixes the rule applies to
    (``"repro.simulator"`` covers the package and everything under it);
    ``exempt`` lists module prefixes carved out of that scope (e.g. the
    one module allowed to touch global RNG state). Both are overridable
    from pyproject.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scope: Tuple[str, ...] = ("repro",)
    exempt: Tuple[str, ...] = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (suppressions filtered later)."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


class UnusedSuppressionRule(Rule):
    """A ``# dardlint: disable=<CODE>`` comment that suppresses nothing.

    Suppressions are the in-tree record that a human audited a real
    finding; once the finding is gone the comment is stale documentation
    that silently disarms the rule for whatever lands on that line next.
    The driver emits DRD001 after all other rules have run (only the
    driver knows which suppressions matched), so ``check`` yields
    nothing; the class exists to carry metadata and scope/disable
    configuration like any other rule.
    """

    code = "DRD001"
    name = "unused-suppression"
    description = "suppression comment matches no finding on its line"
    scope = ("repro",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code {cls.code!r} must look like ABC123")
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    if not cls.description:
        raise ValueError(f"rule {cls.code} needs a description")
    _REGISTRY[cls.code] = cls
    return cls


register(UnusedSuppressionRule)


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by code (import-order free)."""
    # Importing the rules package triggers registration of every module in
    # repro/lint/rules/ (see its __init__).
    from repro.lint import rules as _rules  # noqa: F401

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


# -- configuration -------------------------------------------------------------


@dataclass
class LintConfig:
    """Resolved lint configuration (defaults merged with pyproject)."""

    include: Tuple[str, ...] = ("repro",)
    exclude: Tuple[str, ...] = ()
    scopes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    exempt: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    disable: Tuple[str, ...] = ()
    #: Transitional escape hatch (``--allow-unused-suppressions``): keep
    #: DRD001 registered but skip reporting leftover disable comments.
    allow_unused_suppressions: bool = False

    def rule_scope(self, rule: Type[Rule]) -> Tuple[str, ...]:
        """Effective module-prefix scope: pyproject override or the rule's."""
        return self.scopes.get(rule.code, rule.scope)

    def rule_exempt(self, rule: Type[Rule]) -> Tuple[str, ...]:
        """Effective exemptions: the rule's own plus pyproject additions."""
        return rule.exempt + self.exempt.get(rule.code, ())


def _module_matches(module: str, prefixes: Iterable[str]) -> bool:
    for prefix in prefixes:
        if prefix in ("", "*"):
            return True
        if module == prefix or module.startswith(prefix + "."):
            return True
    return False


def _load_toml(path: Path) -> Optional[dict]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - version-dependent
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def _find_pyproject(start: Path) -> Optional[Path]:
    probe = start if start.is_dir() else start.parent
    for directory in (probe, *probe.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Build the configuration, honoring ``[tool.dardlint]`` when readable.

    ``start`` anchors the upward pyproject search (defaults to the current
    directory). Missing file, missing section, or an interpreter without a
    TOML parser all fall back to the built-in defaults.
    """
    config = LintConfig()
    pyproject = _find_pyproject(Path(start) if start is not None else Path.cwd())
    if pyproject is None:
        return config
    document = _load_toml(pyproject)
    if not document:
        return config
    section = document.get("tool", {}).get("dardlint")
    if not isinstance(section, dict):
        return config
    if "include" in section:
        config.include = tuple(section["include"])
    if "exclude" in section:
        config.exclude = tuple(section["exclude"])
    if "disable" in section:
        config.disable = tuple(str(c).upper() for c in section["disable"])
    for key, out in (("scopes", config.scopes), ("exempt", config.exempt)):
        table = section.get(key)
        if isinstance(table, dict):
            for code, prefixes in sorted(table.items()):
                out[str(code).upper()] = tuple(prefixes)
    return config


# -- driver --------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, by walking up through ``__init__.py``.

    A file outside any package lints under its bare stem — fixture trees
    in tests get real ``repro.*`` names by shipping ``__init__.py``
    markers, without being importable from the repository root.
    """
    path = path.resolve()
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else path.stem


def _iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class LintResult:
    """Everything one lint run produced.

    ``files_skipped`` counts Python files that were reachable from the
    given paths but fell outside the configured ``include`` scopes (or
    matched ``exclude``) — reported so out-of-scope code is visibly
    skipped rather than silently absent.
    """

    findings: List[Finding]
    files_scanned: int
    files_skipped: int


def _collect_contexts(
    paths: Sequence[str], config: LintConfig
) -> Tuple[List[ModuleContext], List[Finding], int]:
    """Parse every in-scope file; returns contexts, DRD000s, skip count."""
    contexts: List[ModuleContext] = []
    parse_findings: List[Finding] = []
    files_skipped = 0
    for file_path in _iter_python_files(paths):
        module = module_name_for(file_path)
        if not _module_matches(module, config.include) or _module_matches(
            module, config.exclude
        ):
            files_skipped += 1
            continue
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError, ValueError) as error:
            parse_findings.append(
                Finding(str(file_path), 1, 1, "DRD000", f"could not parse: {error}")
            )
            continue
        contexts.append(ModuleContext(file_path, module, source, tree))
    return contexts, parse_findings, files_skipped


def run_lint_result(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> LintResult:
    """Lint files/directories; the full-fidelity entry point.

    Unreadable or syntactically invalid files surface as ``DRD000``
    findings rather than crashing the run — a lint gate must never be
    dodged by an unparseable file.
    """
    if config is None:
        config = load_config(Path(paths[0]) if paths else None)
    rule_classes = [
        cls for cls in (all_rules() if rules is None else list(rules))
        if cls.code not in config.disable
    ]
    contexts, findings, files_skipped = _collect_contexts(paths, config)
    files_scanned = len(contexts) + len(findings)
    drd001 = next(
        (cls for cls in rule_classes if cls.code == UnusedSuppressionRule.code), None
    )
    for ctx in contexts:
        for cls in rule_classes:
            if not _module_matches(ctx.module, config.rule_scope(cls)):
                continue
            if _module_matches(ctx.module, config.rule_exempt(cls)):
                continue
            for finding in cls().check(ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)
        # Unused-suppression pass: only the driver knows which disable
        # comments matched a finding, so DRD001 is emitted here rather
        # than from a check() body.
        if (
            drd001 is None
            or config.allow_unused_suppressions
            or not _module_matches(ctx.module, config.rule_scope(drd001))
            or _module_matches(ctx.module, config.rule_exempt(drd001))
        ):
            continue
        for line in sorted(ctx._suppressions):
            if line in ctx.used_suppression_lines:
                continue
            finding = Finding(
                path=str(ctx.path),
                line=line,
                col=ctx._suppression_cols.get(line, 1),
                code=UnusedSuppressionRule.code,
                message=(
                    "suppression comment matches no finding "
                    f"({', '.join(sorted(ctx._suppressions[line]))}); remove it "
                    "or pass --allow-unused-suppressions during transitions"
                ),
            )
            if not ctx.suppressed(finding):
                findings.append(finding)
    findings.sort()
    return LintResult(findings, files_scanned, files_skipped)


def run_lint(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> Tuple[List[Finding], int]:
    """Compatibility wrapper: ``(sorted findings, files scanned)``."""
    result = run_lint_result(paths, config, rules)
    return result.findings, result.files_scanned
