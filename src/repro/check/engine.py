"""Rule engine for ``repro check``: whole-program analysis with a cache.

v2 architecture (the v1 engine ran independent per-file AST rules):

1.  **Collect** every ``.py`` file under the root and content-hash it.
2.  **Memo probe** — if an :class:`repro.check.cache.AnalysisCache` is
    attached and the complete ``(path, hash)`` vector (plus the rule
    selection and any contract-snapshot inputs) matches a finished
    run, return that run's :class:`CheckResult` without parsing
    anything.
3.  **Parse or load** — files whose hash has a cache entry are served
    from it (suppression markers, extracted facts, per-file rule
    diagnostics); only *changed* files are re-parsed and re-analysed.
4.  **Assemble the program** — the per-file
    :class:`repro.check.program.ProgramFacts` records become one
    :class:`~repro.check.program.ProgramIndex` (symbol table + call
    graph), and every :class:`FactRule` runs its cross-module check
    phase over it.
5.  **Filter** diagnostics through suppression comments (tracking
    which markers actually fired — stale markers are themselves
    diagnostics), sort deterministically by ``(path, line, col,
    rule)``, and return.

Rules never import or execute the code they inspect — fixtures with
unsatisfiable imports are fine, and checking is safe on any tree.

Two rule shapes exist:

* **Per-file rules** override :meth:`Rule.check_file`; their
  diagnostics are cached per content hash.
* **Fact rules** (:class:`FactRule`) override :meth:`FactRule.extract`
  — a per-file, cached, *picklable* distillation — and
  :meth:`FactRule.check_facts`, the cross-module phase that sees every
  file's facts plus the program index.

Suppression comments::

    x = time.time()  # repro: no-check[no-wallclock]  -- host-side cache TTL
    y = frob()       # repro: no-check                -- all rules, this line
    # repro: no-check-file[no-float-eq]               -- whole file, one rule

Every suppression should carry a human justification after the
marker.  A marker that stops suppressing anything is reported as
``unused-suppression`` (see ``repro check --prune-suppressions``).
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional
from collections.abc import Iterable, Sequence

from repro.check.cache import AnalysisCache, FileEntry
from repro.check.engine_types import Loc
from repro.check.program import (
    PROGRAM_FACTS_VERSION,
    ProgramFacts,
    ProgramIndex,
    extract_program_facts,
)

__all__ = [
    "CheckResult",
    "CheckedFile",
    "Diagnostic",
    "FactRule",
    "FileMeta",
    "Loc",
    "ProgramContext",
    "Rule",
    "Suppressions",
    "UnknownRuleError",
    "dotted_call_name",
    "import_map",
    "local_nodes",
    "run_checks",
    "scope_nodes",
]

#: The ``no-check`` / ``no-check-file`` markers, optional rule list.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*no-check(?P<scope>-file)?(?:\[(?P<ids>[^\]]*)\])?"
)

#: Scope-introducing AST nodes; region walks stop at these boundaries.
_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

#: Rule id of the stale-marker diagnostics the engine itself emits.
UNUSED_SUPPRESSION_ID = "unused-suppression"

#: Fact namespace of the shared program facts in cache entries.
_PROGRAM_NS = f"__program__/{PROGRAM_FACTS_VERSION}"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line:col: rule: message``.

    Field order doubles as the report sort order — the deterministic
    ``(path, line, col, rule)`` contract CI diffs rely on, with
    ``message`` as the final tiebreak.  ``path`` is relative to the
    scanned root, with POSIX separators.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class _Marker:
    """One parsed ``# repro: no-check`` comment."""

    line: int
    file_scope: bool
    #: Suppressed rule ids; ``None`` means every rule.
    ids: Optional[frozenset[str]]

    def describe(self) -> str:
        scope = "no-check-file" if self.file_scope else "no-check"
        if self.ids is None:
            return f"# repro: {scope}"
        return f"# repro: {scope}[{', '.join(sorted(self.ids))}]"


class Suppressions:
    """Parsed ``# repro: no-check`` markers of one file."""

    def __init__(self, markers: Optional[list[_Marker]] = None) -> None:
        self.markers: list[_Marker] = markers or []

    @property
    def count(self) -> int:
        return len(self.markers)

    def covering(self, rule: str, line: int) -> list[int]:
        """Indices of every marker that suppresses ``rule`` at ``line``."""
        hits = []
        for i, marker in enumerate(self.markers):
            applies = marker.ids is None or rule in marker.ids
            if not applies:
                continue
            if marker.file_scope or marker.line == line:
                hits.append(i)
        return hits

    def covers(self, rule: str, line: int) -> bool:
        return bool(self.covering(rule, line))

    @classmethod
    def parse(cls, source: str) -> Suppressions:
        markers: list[_Marker] = []
        for line_no, text in _comment_tokens(source):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            raw_ids = match.group("ids")
            ids = (
                frozenset(
                    part.strip() for part in raw_ids.split(",") if part.strip()
                )
                if raw_ids is not None
                else None
            )
            markers.append(
                _Marker(
                    line=line_no,
                    file_scope=bool(match.group("scope")),
                    ids=ids,
                )
            )
        return cls(markers)


def _comment_tokens(source: str) -> Iterable[tuple[int, str]]:
    """``(line, text)`` of every real comment in ``source``.

    Tokenising (rather than regexing whole lines) keeps marker
    *mentions* inside docstrings and string literals — like the ones
    in this package's own documentation — from registering as live
    suppressions.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable tail (the file already gets a parse-error
        # diagnostic); whatever tokenised before the failure counts.
        return


@dataclass
class FileMeta:
    """Path identity of one analysed file (no tree, no source)."""

    rel: str
    mod: str


@dataclass
class CheckedFile:
    """One parsed source file handed to rules.

    ``rel`` is the on-disk path relative to the scanned root (what
    diagnostics display); ``mod`` is the normalised module path used
    for rule scoping — a leading ``src/`` is stripped and a bare
    package root gains its package-name prefix, so scoping prefixes
    like ``repro/core/`` work whether the scan root is the repo, its
    ``src/`` directory, or the package directory itself.
    """

    path: Path
    rel: str
    mod: str
    source: str
    tree: ast.Module
    suppressions: Suppressions = field(default_factory=Suppressions)


class Rule:
    """Base class for checks; subclass and override one ``check_*``."""

    id: str = ""
    description: str = ""
    severity: str = "error"
    #: Module-path prefixes (``mod``) the rule applies to; empty = all.
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def matches(self, mod: str) -> bool:
        if any(mod == e or mod.startswith(e) for e in self.exclude):
            return False
        if not self.include:
            return True
        return any(mod == i or mod.startswith(i) for i in self.include)

    def check_file(self, checked: CheckedFile) -> Iterable[Diagnostic]:
        return ()

    def external_state(self, root: Path) -> str:
        """Non-``.py`` inputs of this rule, folded into the run memo key.

        Return a stable string describing any out-of-tree state the
        rule reads (the contract rule hashes its snapshot file here);
        a change in the string invalidates the full-run memo.
        """
        return ""

    def diagnostic(
        self, checked: CheckedFile, node: Any, message: str
    ) -> Diagnostic:
        return self.diag_at(checked.rel, node, message)

    def diag_at(self, rel: str, node: Any, message: str) -> Diagnostic:
        """Anchor a diagnostic at an AST node *or* a :class:`Loc`."""
        return Diagnostic(
            path=rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


@dataclass
class ProgramContext:
    """What a :class:`FactRule`'s cross-module phase sees."""

    root: Path
    files: list[FileMeta]
    index: ProgramIndex
    #: rule id -> (rel -> that rule's extracted facts for the file).
    fact_map: dict[str, dict[str, Any]]

    def facts(self, rule_id: str) -> dict[str, Any]:
        return self.fact_map.get(rule_id, {})


class FactRule(Rule):
    """A cross-module rule with a cacheable per-file extraction phase.

    ``extract`` distils one parsed file into a *picklable* record (or
    ``None`` when the file contributes nothing); the engine caches the
    record against the file's content hash.  ``check_facts`` then runs
    once per check over every file's facts plus the program index —
    it never sees an AST, which is what makes warm runs cheap.
    """

    def extract(self, checked: CheckedFile) -> Any:
        return None

    def check_facts(self, ctx: ProgramContext) -> Iterable[Diagnostic]:
        return ()


class UnknownRuleError(ValueError):
    """``--rule`` named a rule id that is not registered."""


@dataclass
class CheckResult:
    """Everything one :func:`run_checks` invocation produced."""

    root: Path
    diagnostics: list[Diagnostic]
    files_checked: int
    suppressed: int
    #: Files actually fed to ``ast.parse`` this run (cache misses).
    parsed_files: int = 0
    #: Files served entirely from the analysis cache.
    cached_files: int = 0
    #: True when the whole run was answered by the full-run memo.
    from_memo: bool = False
    #: Engine wall time of this invocation, seconds.
    wall_s: float = 0.0
    #: ``(path, line, marker)`` of suppression comments that fired.
    used_markers: list[tuple[str, int, str]] = field(default_factory=list)
    #: ``(path, line, marker)`` of suppression comments that did not.
    unused_markers: list[tuple[str, int, str]] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def with_diagnostics(self, diagnostics: list[Diagnostic]) -> CheckResult:
        """A shallow copy reporting ``diagnostics`` (baseline filtering)."""
        return replace(self, diagnostics=list(diagnostics))


# ---------------------------------------------------------------------------
# File collection
# ---------------------------------------------------------------------------


def _module_path(rel: str, root: Path) -> str:
    """Normalise a root-relative path for rule scoping (see CheckedFile)."""
    mod = rel
    if mod.startswith("src/"):
        mod = mod[len("src/"):]
    if (root / "__init__.py").is_file():
        mod = f"{root.name}/{mod}"
    return mod


def _walk_paths(root: Path) -> tuple[list[Path], Path]:
    if root.is_file():
        return [root], root.parent
    paths = sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)
    return paths, root


def _parse_one(
    path: Path, rel: str, mod: str, source: str
) -> tuple[Optional[CheckedFile], Optional[Diagnostic]]:
    try:
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 0) or 0
        return None, Diagnostic(
            path=rel,
            line=line,
            col=1,
            rule="parse-error",
            message=f"could not parse file: {error}",
        )
    return (
        CheckedFile(
            path=path,
            rel=rel,
            mod=mod,
            source=source,
            tree=tree,
            suppressions=Suppressions.parse(source),
        ),
        None,
    )


def collect_files(root: Path) -> tuple[list[CheckedFile], list[Diagnostic]]:
    """Parse every ``.py`` file under ``root`` (or ``root`` itself).

    Unparseable files become ``parse-error`` diagnostics instead of
    aborting the run — a syntax error must fail the gate, not crash it.
    """
    root = Path(root)
    paths, base = _walk_paths(root)
    files: list[CheckedFile] = []
    parse_errors: list[Diagnostic] = []
    for path in paths:
        rel = path.relative_to(base).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as error:
            parse_errors.append(
                Diagnostic(
                    path=rel, line=0, col=1, rule="parse-error",
                    message=f"could not parse file: {error}",
                )
            )
            continue
        checked, error_diag = _parse_one(path, rel, _module_path(rel, base), source)
        if checked is not None:
            files.append(checked)
        if error_diag is not None:
            parse_errors.append(error_diag)
    return files, parse_errors


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class _FileState:
    """One file's analysis products during a run (cached or fresh)."""

    meta: FileMeta
    suppressions: Suppressions
    program_facts: ProgramFacts
    rule_facts: dict[str, Any]
    diagnostics: list[Diagnostic]


def _select_rules(
    rules: Optional[Sequence[Rule]], rule_ids: Optional[Sequence[str]]
) -> list[Rule]:
    if rules is None:
        from repro.check import ALL_RULES

        rules = ALL_RULES
    if rule_ids:
        known = {rule.id for rule in rules}
        missing = sorted(set(rule_ids) - known)
        if missing:
            raise UnknownRuleError(
                f"unknown rule id(s) {missing}; known: {sorted(known)}"
            )
        rules = [rule for rule in rules if rule.id in rule_ids]
    return list(rules)


def _entry_usable(
    entry: FileEntry,
    mod: str,
    per_file_rules: list[Rule],
    fact_rules: list[FactRule],
) -> bool:
    """Does a cache entry hold everything this rule selection needs?"""
    if _PROGRAM_NS not in entry.facts:
        return False
    for rule in fact_rules:
        if rule.id not in entry.facts:
            return False
    for rule in per_file_rules:
        if rule.matches(mod) and rule.id not in entry.diagnostics:
            return False
    return True


def _analyse_fresh(
    checked: CheckedFile,
    per_file_rules: list[Rule],
    fact_rules: list[FactRule],
) -> _FileState:
    diagnostics: list[Diagnostic] = []
    per_rule: dict[str, list[Diagnostic]] = {}
    for rule in per_file_rules:
        if rule.matches(checked.mod):
            found = list(rule.check_file(checked))
            per_rule[rule.id] = found
            diagnostics.extend(found)
    rule_facts: dict[str, Any] = {}
    for rule in fact_rules:
        rule_facts[rule.id] = rule.extract(checked)
    state = _FileState(
        meta=FileMeta(rel=checked.rel, mod=checked.mod),
        suppressions=checked.suppressions,
        program_facts=extract_program_facts(
            checked.rel, checked.mod, checked.tree
        ),
        rule_facts=rule_facts,
        diagnostics=diagnostics,
    )
    state.per_rule_diags = per_rule  # type: ignore[attr-defined]
    return state


def run_checks(
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
    rule_ids: Optional[Sequence[str]] = None,
    cache_dir: Optional[Path] = None,
) -> CheckResult:
    """Run ``rules`` (default: the registered set) over ``root``.

    Args:
        root: directory (or single file) to analyse.
        rules: rule objects to run; defaults to
            :data:`repro.check.ALL_RULES`.
        rule_ids: restrict to these rule ids (``repro check --rule``).
        cache_dir: directory of the incremental analysis cache; ``None``
            (the default, used by most tests) disables caching.

    Raises:
        UnknownRuleError: ``rule_ids`` named an unregistered rule.
    """
    started = time.perf_counter()
    selected = _select_rules(rules, rule_ids)
    fact_rules = [r for r in selected if isinstance(r, FactRule)]
    per_file_rules = [r for r in selected if not isinstance(r, FactRule)]

    root = Path(root)
    paths, base = _walk_paths(root)
    cache = AnalysisCache(cache_dir) if cache_dir is not None else None

    sources: list[tuple[Path, str, str, Optional[bytes]]] = []
    read_errors: list[Diagnostic] = []
    for path in paths:
        rel = path.relative_to(base).as_posix()
        mod = _module_path(rel, base)
        try:
            data = path.read_bytes()
        except OSError as error:
            read_errors.append(
                Diagnostic(
                    path=rel, line=0, col=1, rule="parse-error",
                    message=f"could not parse file: {error}",
                )
            )
            continue
        sources.append((path, rel, mod, data))

    external = "|".join(
        f"{rule.id}={rule.external_state(root)}" for rule in selected
    )
    selected_key = tuple(sorted(rule_ids)) if rule_ids else None

    run_key = None
    if cache is not None:
        hashes = [(rel, cache.file_key(data or b"")) for _, rel, _, data in sources]
        run_key = cache.run_key(hashes, selected_key, external)
        memo = cache.load_run(run_key)
        if isinstance(memo, CheckResult):
            memo.from_memo = True
            memo.parsed_files = 0
            memo.cached_files = memo.files_checked
            memo.wall_s = time.perf_counter() - started
            return memo

    # -- per-file phase ---------------------------------------------------

    states: list[_FileState] = []
    parse_errors: list[Diagnostic] = list(read_errors)
    #: rel -> parse-error diagnostic line (cached syntax-error files).
    parsed = 0
    cached = 0
    for path, rel, mod, data in sources:
        assert data is not None
        key = cache.file_key(data) if cache is not None else ""
        entry = cache.load_file(key) if cache is not None else None
        if entry is not None and "parse-error" in entry.diagnostics:
            # Still-broken file: replay its parse-error diagnostic.
            for diag in entry.diagnostics["parse-error"]:
                parse_errors.append(diag)
            cached += 1
            continue
        if entry is not None and _entry_usable(
            entry, mod, per_file_rules, fact_rules
        ):
            states.append(
                _FileState(
                    meta=FileMeta(rel=rel, mod=mod),
                    suppressions=entry.suppressions,
                    program_facts=entry.facts[_PROGRAM_NS],
                    rule_facts={
                        r.id: entry.facts[r.id] for r in fact_rules
                    },
                    diagnostics=[
                        d
                        for r in per_file_rules
                        if r.matches(mod)
                        for d in entry.diagnostics.get(r.id, [])
                    ],
                )
            )
            cached += 1
            continue

        source = data.decode("utf-8", errors="replace")
        checked, error_diag = _parse_one(path, rel, mod, source)
        parsed += 1
        if error_diag is not None:
            parse_errors.append(error_diag)
            if cache is not None:
                cache.store_file(
                    FileEntry(
                        rel=rel,
                        hash=key,
                        suppressions=Suppressions(),
                        facts={_PROGRAM_NS: None},
                        diagnostics={"parse-error": [error_diag]},
                    )
                )
            continue
        assert checked is not None
        state = _analyse_fresh(checked, per_file_rules, fact_rules)
        states.append(state)
        if cache is not None:
            merged: dict[str, list] = dict(
                getattr(state, "per_rule_diags", {})
            )
            if entry is not None:  # extend a partial entry
                for rid, diags in entry.diagnostics.items():
                    merged.setdefault(rid, diags)
            facts = {_PROGRAM_NS: state.program_facts, **state.rule_facts}
            if entry is not None:
                for ns, payload in entry.facts.items():
                    facts.setdefault(ns, payload)
            cache.store_file(
                FileEntry(
                    rel=rel,
                    hash=key,
                    suppressions=state.suppressions,
                    facts=facts,
                    diagnostics=merged,
                )
            )

    diagnostics: list[Diagnostic] = list(parse_errors)
    for state in states:
        diagnostics.extend(state.diagnostics)

    # -- cross-module phase -----------------------------------------------

    if fact_rules:
        ctx = ProgramContext(
            root=root,
            files=[state.meta for state in states],
            index=ProgramIndex.build(
                state.program_facts for state in states
            ),
            fact_map={
                rule.id: {
                    state.meta.rel: state.rule_facts.get(rule.id)
                    for state in states
                    if state.rule_facts.get(rule.id) is not None
                }
                for rule in fact_rules
            },
        )
        for rule in fact_rules:
            diagnostics.extend(rule.check_facts(ctx))

    # -- suppression filter + stale-marker accounting ---------------------

    by_rel = {state.meta.rel: state for state in states}
    kept: list[Diagnostic] = []
    suppressed = 0
    fired: dict[str, set[int]] = {}
    for diag in diagnostics:
        state = by_rel.get(diag.path)
        if state is None:
            kept.append(diag)
            continue
        hits = state.suppressions.covering(diag.rule, diag.line)
        if hits:
            suppressed += 1
            fired.setdefault(diag.path, set()).update(hits)
        else:
            kept.append(diag)

    used: list[tuple[str, int, str]] = []
    unused: list[tuple[str, int, str]] = []
    for state in states:
        for i, marker in enumerate(state.suppressions.markers):
            record = (state.meta.rel, marker.line, marker.describe())
            if i in fired.get(state.meta.rel, set()):
                used.append(record)
            else:
                unused.append(record)

    # Stale markers are only decidable when every rule ran: under
    # ``--rule`` a marker for an unselected rule is silent by design.
    report_unused = rule_ids is None or UNUSED_SUPPRESSION_ID in rule_ids
    if report_unused:
        for rel, line, text in unused:
            # Deliberately exempt from suppression filtering: a blanket
            # marker must not be able to hide its own staleness.
            kept.append(
                Diagnostic(
                    path=rel,
                    line=line,
                    col=1,
                    rule=UNUSED_SUPPRESSION_ID,
                    message=(
                        f"suppression {text!r} no longer matches any "
                        "diagnostic; remove it (repro check "
                        "--prune-suppressions lists all stale markers)"
                    ),
                )
            )

    kept.sort()
    result = CheckResult(
        root=Path(root),
        diagnostics=kept,
        files_checked=len(states) + sum(
            1 for d in parse_errors if d.rule == "parse-error"
        ),
        suppressed=suppressed,
        parsed_files=parsed,
        cached_files=cached,
        from_memo=False,
        wall_s=time.perf_counter() - started,
        used_markers=sorted(used),
        unused_markers=sorted(unused),
    )
    if cache is not None and run_key is not None:
        cache.store_run(run_key, result)
    return result


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted module path, from the file's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Relative
    imports are ignored (the banned names are all absolute stdlib or
    third-party paths).
    """
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def dotted_call_name(func: ast.expr, names: dict[str, str]) -> Optional[str]:
    """Resolve a call target to its dotted import path, if statically known.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when the file imported ``numpy as np``; calls on local objects
    (whose base name is not an import) resolve to ``None``.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = names.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def scope_nodes(tree: ast.Module) -> Iterable[ast.AST]:
    """The module plus every named scope (function/method/class) in it."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _SCOPE_TYPES) and not isinstance(node, ast.Lambda):
            yield node


def local_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    """Descendants of ``scope`` without entering nested scopes.

    Used for poor-man's scope resolution: assignments and calls that
    belong to one function body, excluding its inner ``def``s.
    """
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPE_TYPES):
            yield from local_nodes(child)
