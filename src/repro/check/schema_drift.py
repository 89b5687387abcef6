"""Schema drift: emit sites, consumers and the trace schema must agree.

The trace schema (``EVENT_FIELDS`` in :mod:`repro.obs.trace`) is the
contract between three parties that never import each other's string
literals: the simulator's ``Instrumentation.emit`` call sites, the
versioned JSONL validator, and the offline consumers
(:mod:`repro.obs.analyze`, :mod:`repro.obs.chrometrace`).  A renamed
event or counter slips through unit tests easily — the producer and
consumer each stay self-consistent while silently disagreeing.  This
project-wide rule extracts all three vocabularies statically and
cross-checks them **in both directions**:

Events
    * every emitted event name must exist in ``EVENT_FIELDS``;
    * every emit site must pass the event's required fields as
      keywords (skipped when the site splats ``**kwargs``) and must
      not override the stamped common fields (``cycle``/``event``/
      ``kernel``);
    * every schema event must be emitted somewhere (skipped when an
      emit site's event name could not be resolved — an unresolved
      producer could be the missing one);
    * every consumed event name must exist in the schema.

Metrics
    * every metric name a consumer reads (``counters.get("...")``)
      must be produced by some ``MetricsRegistry``
      ``counter``/``gauge``/``histogram`` call site.  Dynamic producer
      names (f-strings like ``f"vpu_ops_{kind}"``) count as prefix
      wildcards.  The converse
      (produced-but-unconsumed) is *not* an error: every metric is
      exported wholesale via ``--metrics`` and ``/metrics``.

Sweep store
    The columnar sweep store has the same three-party shape: the
    producer/consumer contract tables (``SWEEP_COLUMNS``,
    ``SWEEP_META_FIELDS``, ``QUERY_FIELDS`` in
    :mod:`repro.store.schema`), the segment writer, and the query/CSV
    consumers.  The rule cross-checks them:

    * the tables must be internally consistent — every ``QUERY_FIELDS``
      entry is a segment column or a meta field, and every segment
      column is queryable;
    * every literal segment-column subscript (``segment["..."]`` /
      ``_buffer["..."]``) in a store file must name a declared column,
      and every declared column must be read somewhere;
    * every literal query-row subscript (``row["..."]``) in a store
      file must name a ``QUERY_FIELDS`` entry.

Request log
    The serve-path request-log schema (``REQUEST_EVENT_FIELDS`` /
    ``REQLOG_COMMON_FIELDS`` in :mod:`repro.obs.telemetry`) against the
    ``log_event`` emit sites spread across the service, the HTTP
    handler and the sampler.  The offline consumer
    (:mod:`repro.obs.servereport`) imports the schema tables rather
    than copying them, so only the producer side needs checking:

    * every ``log_event("...")`` site names a schema event, passes the
      event's required fields as keywords (unless it splats
      ``**kwargs``) and never overrides the stamped common fields;
    * every schema event is logged somewhere.

Resolution is deliberately shallow: event-name arguments may be string
constants, conditional expressions over string constants, or local
names assigned from either (the ``bcache_hit``/``bcache_miss`` site in
``repro.core.lsu``).  Anything else is its own diagnostic rather than
a silent gap.

Engine v2 port: this rule is a :class:`~repro.check.engine.FactRule`.
:meth:`SchemaDriftRule.extract` distils one file into a picklable
:class:`SchemaDriftFacts` record (all three vocabularies' sites, with
:class:`~repro.check.engine_types.Loc` anchors instead of AST nodes);
:meth:`SchemaDriftRule.check_facts` cross-references the records.
Unchanged files thus never need re-parsing on warm runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional
from collections.abc import Iterable

from repro.check.engine import (
    CheckedFile,
    Diagnostic,
    FactRule,
    ProgramContext,
    local_nodes,
    scope_nodes,
)
from repro.check.engine_types import Loc

__all__ = ["SchemaDriftRule"]

#: Module-level dict tables whose keys are consumed event names.
CONSUMER_TABLES = ("_WINDOW_FIELD", "_EVENT_TID")

#: Receiver names whose ``.get("...")`` reads a trace-event count.
_EVENT_COUNT_RECEIVERS = ("event_counts", "counts")

#: Receiver names whose ``.get("...")`` reads a metric.
_METRIC_RECEIVERS = ("counters",)

#: ``MetricsRegistry`` factory methods that produce a named instrument.
_INSTRUMENT_FACTORIES = ("counter", "gauge", "histogram")

#: Subscript receivers whose literal keys are sweep-store segment
#: columns (the query engine's loaded NPZ and the writer's buffer).
_SEGMENT_RECEIVERS = ("segment", "_buffer")

#: Subscript receivers whose literal keys are query-row fields.
_ROW_RECEIVERS = ("row",)

#: Module prefix that marks a file as a sweep-store participant.
_STORE_MODULE_PREFIX = "repro/store/"


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _receiver_name(func: ast.expr) -> Optional[str]:
    """Terminal name of a method call's receiver: ``a.b.get`` → ``b``."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _string_values(node: ast.expr) -> Optional[set[str]]:
    """All string values a constant-ish expression can take, else None."""
    value = _const_str(node)
    if value is not None:
        return {value}
    if isinstance(node, ast.IfExp):
        body = _string_values(node.body)
        orelse = _string_values(node.orelse)
        if body is not None and orelse is not None:
            return body | orelse
    return None


def _loc(node: ast.AST) -> Loc:
    return Loc(
        lineno=getattr(node, "lineno", 0),
        col_offset=getattr(node, "col_offset", -1),
    )


@dataclass
class EmitSiteFact:
    """One ``*.emit(cycle, <event>, field=...)`` / ``log_event`` call."""

    loc: Loc
    #: Statically resolved event name(s); ``None`` when unresolvable.
    events: Optional[tuple[str, ...]]
    fields: tuple[str, ...]
    has_star_kwargs: bool


@dataclass
class TraceSchemaFact:
    """``EVENT_FIELDS`` + ``COMMON_FIELDS`` of the trace schema module."""

    event_fields: dict[str, tuple[str, ...]]
    key_lines: dict[str, int]
    common: tuple[str, ...]


@dataclass
class TelemetryTablesFact:
    """Request-log schema tables (``repro.obs.telemetry``)."""

    event_fields: dict[str, tuple[str, ...]]
    key_lines: dict[str, int]
    common: tuple[str, ...]


@dataclass
class StoreSchemaFact:
    """Sweep-store contract tables (``repro.store.schema``)."""

    columns: dict[str, int]
    query_fields: tuple[str, ...]
    query_line: int
    meta_fields: tuple[str, ...]


@dataclass
class SchemaDriftFacts:
    """Everything one file contributes to the drift cross-check."""

    emit_sites: list[EmitSiteFact] = field(default_factory=list)
    log_sites: list[EmitSiteFact] = field(default_factory=list)
    trace_schema: Optional[TraceSchemaFact] = None
    #: ``(loc, event)`` of consumed trace-event names.
    consumed_events: list[tuple[Loc, str]] = field(default_factory=list)
    produced_exact: tuple[str, ...] = ()
    produced_prefixes: tuple[str, ...] = ()
    consumed_metrics: list[tuple[Loc, str]] = field(default_factory=list)
    telemetry: Optional[TelemetryTablesFact] = None
    store: Optional[StoreSchemaFact] = None
    segment_reads: list[tuple[Loc, str]] = field(default_factory=list)
    row_reads: list[tuple[Loc, str]] = field(default_factory=list)

    def empty(self) -> bool:
        return not any(
            (
                self.emit_sites,
                self.log_sites,
                self.trace_schema,
                self.consumed_events,
                self.produced_exact,
                self.produced_prefixes,
                self.consumed_metrics,
                self.telemetry,
                self.store,
                self.segment_reads,
                self.row_reads,
            )
        )


def _resolve_event_arg(arg: ast.expr, scope: ast.AST) -> Optional[set[str]]:
    """Resolve an emit call's event argument to its string value(s).

    Handles constants, conditionals over constants, and a local name
    assigned (once) from either within the same function scope.
    """
    values = _string_values(arg)
    if values is not None:
        return values
    if not isinstance(arg, ast.Name):
        return None
    resolved: Optional[set[str]] = None
    for node in local_nodes(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == arg.id:
                values = _string_values(node.value)
                if values is None or resolved is not None:
                    return None  # opaque value, or multiply assigned
                resolved = values
    return resolved


def _site_fact(node: ast.Call, scope: ast.AST, event_arg: ast.expr) -> EmitSiteFact:
    events = _resolve_event_arg(event_arg, scope)
    return EmitSiteFact(
        loc=_loc(node),
        events=tuple(sorted(events)) if events is not None else None,
        fields=tuple(
            sorted(kw.arg for kw in node.keywords if kw.arg is not None)
        ),
        has_star_kwargs=any(kw.arg is None for kw in node.keywords),
    )


def _collect_call_sites(tree: ast.Module) -> tuple[list[EmitSiteFact], list[EmitSiteFact]]:
    """``(emit_sites, log_event_sites)`` of one file.

    ``Instrumentation.emit(cycle, event, **fields)`` takes two
    positional args — single-arg sites are ``TraceSink.emit`` (an
    already-assembled dict), a different protocol.  ``log_event``
    takes the event as its only positional arg.
    """
    emit_sites: list[EmitSiteFact] = []
    log_sites: list[EmitSiteFact] = []
    for scope in scope_nodes(tree):
        for node in local_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "emit" and len(node.args) == 2:
                emit_sites.append(_site_fact(node, scope, node.args[1]))
            elif func.attr == "log_event" and len(node.args) == 1:
                log_sites.append(_site_fact(node, scope, node.args[0]))
    return emit_sites, log_sites


def _tuple_strings(value: ast.expr) -> tuple[str, ...]:
    return tuple(
        name
        for name in (_const_str(item) for item in getattr(value, "elts", ()))
        if name is not None
    )


def _module_assign(
    node: ast.stmt,
) -> tuple[Optional[str], Optional[ast.expr]]:
    """``(name, value)`` of a module-level (ann-)assignment, else Nones."""
    target: Optional[ast.expr] = None
    value: Optional[ast.expr] = None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target, value = node.target, node.value
    if isinstance(target, ast.Name) and value is not None:
        return target.id, value
    return None, None


def _dict_fields(
    value: ast.Dict, fallback_line: int
) -> tuple[dict[str, tuple[str, ...]], dict[str, int]]:
    """Keys of a ``{"event": ("field", ...)}`` table, with key lines."""
    table: dict[str, tuple[str, ...]] = {}
    key_lines: dict[str, int] = {}
    for key, val in zip(value.keys, value.values):
        name = _const_str(key) if key is not None else None
        if name is None:
            continue
        table[name] = _tuple_strings(val)
        key_lines[name] = key.lineno if key is not None else fallback_line
    return table, key_lines


def _find_trace_schema(tree: ast.Module) -> Optional[TraceSchemaFact]:
    event_fields: dict[str, tuple[str, ...]] = {}
    key_lines: dict[str, int] = {}
    common: tuple[str, ...] = ()
    found = False
    for node in tree.body:
        name, value = _module_assign(node)
        if name is None or value is None:
            continue
        if name == "EVENT_FIELDS" and isinstance(value, ast.Dict):
            found = True
            event_fields, key_lines = _dict_fields(value, node.lineno)
        elif name == "COMMON_FIELDS":
            common = _tuple_strings(value)
    if not found:
        return None
    return TraceSchemaFact(
        event_fields=event_fields, key_lines=key_lines, common=common
    )


def _find_telemetry_tables(tree: ast.Module) -> Optional[TelemetryTablesFact]:
    event_fields: dict[str, tuple[str, ...]] = {}
    key_lines: dict[str, int] = {}
    common: tuple[str, ...] = ()
    found = False
    for node in tree.body:
        name, value = _module_assign(node)
        if name is None or value is None:
            continue
        if name == "REQUEST_EVENT_FIELDS" and isinstance(value, ast.Dict):
            found = True
            event_fields, key_lines = _dict_fields(value, node.lineno)
        elif name == "REQLOG_COMMON_FIELDS":
            common = _tuple_strings(value)
    if not found:
        return None
    return TelemetryTablesFact(
        event_fields=event_fields, key_lines=key_lines, common=common
    )


def _find_store_schema(tree: ast.Module) -> Optional[StoreSchemaFact]:
    columns: dict[str, int] = {}
    query_fields: tuple[str, ...] = ()
    query_line = 0
    meta_fields: tuple[str, ...] = ()
    found = False
    for node in tree.body:
        name, value = _module_assign(node)
        if name is None or value is None:
            continue
        if name == "SWEEP_COLUMNS" and isinstance(value, ast.Dict):
            found = True
            for key in value.keys:
                col = _const_str(key) if key is not None else None
                if col is not None:
                    columns[col] = key.lineno if key is not None else node.lineno
        elif name == "QUERY_FIELDS":
            query_fields = _tuple_strings(value)
            query_line = node.lineno
        elif name == "SWEEP_META_FIELDS":
            meta_fields = _tuple_strings(value)
    if not found:
        return None
    return StoreSchemaFact(
        columns=columns,
        query_fields=query_fields,
        query_line=query_line,
        meta_fields=meta_fields,
    )


def _consumed_events(tree: ast.Module) -> list[tuple[Loc, str]]:
    """``(loc, event)`` of every consumed trace-event name in one file.

    Only files that declare one of :data:`CONSUMER_TABLES` are treated
    as consumers — that keeps ``counts.get(...)`` in unrelated code
    from being misread as a trace-event access.
    """
    consumed: list[tuple[Loc, str]] = []
    is_consumer = False
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id in CONSUMER_TABLES
                and isinstance(node.value, ast.Dict)
            ):
                is_consumer = True
                for key in node.value.keys:
                    name = _const_str(key) if key is not None else None
                    if name is not None:
                        consumed.append((_loc(key), name))
    if not is_consumer:
        return []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _receiver_name(node.func) in _EVENT_COUNT_RECEIVERS
                and node.args
            ):
                name = _const_str(node.args[0])
                if name is not None:
                    consumed.append((_loc(node), name))
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Name):
            if node.left.id not in ("kind", "event"):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    name = _const_str(comparator)
                    if name is not None:
                        consumed.append((_loc(comparator), name))
                elif isinstance(op, (ast.In, ast.NotIn)):
                    for item in getattr(comparator, "elts", ()):
                        name = _const_str(item)
                        if name is not None:
                            consumed.append((_loc(item), name))
    return consumed


def _produced_metrics(tree: ast.Module) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(exact_names, prefixes)`` of metric-producing call sites."""
    exact: set[str] = set()
    prefixes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_FACTORIES
        ):
            continue
        arg = node.args[0]
        values = _string_values(arg)
        if values is not None:
            exact |= values
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            prefix = _const_str(head) if isinstance(head, ast.Constant) else None
            if prefix:
                prefixes.add(prefix)
        # Non-literal names (registry plumbing like merge_snapshot
        # re-registering snapshot keys) are skipped, not errors.
    return tuple(sorted(exact)), tuple(sorted(prefixes))


def _consumed_metrics(tree: ast.Module) -> list[tuple[Loc, str]]:
    consumed: list[tuple[Loc, str]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _receiver_name(node.func) in _METRIC_RECEIVERS
            and node.args
        ):
            name = _const_str(node.args[0])
            if name is not None:
                consumed.append((_loc(node), name))
    return consumed


def _subscript_receiver(node: ast.Subscript) -> Optional[str]:
    """Terminal name of a subscript's receiver: ``a.b["k"]`` → ``b``."""
    value = node.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _store_field_reads(
    checked: CheckedFile,
) -> tuple[list[tuple[Loc, str]], list[tuple[Loc, str]]]:
    """``(segment_reads, row_reads)`` if the file is a store participant.

    Only files under :data:`_STORE_MODULE_PREFIX` or importing from
    ``repro.store`` count — that keeps ``row["count"]`` in unrelated
    code (the span profiler's table rows) from being misread as a
    query-row access.
    """
    is_store = checked.mod.startswith(_STORE_MODULE_PREFIX) or any(
        isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.store")
        for node in ast.walk(checked.tree)
    )
    if not is_store:
        return [], []
    segment_reads: list[tuple[Loc, str]] = []
    row_reads: list[tuple[Loc, str]] = []
    for node in ast.walk(checked.tree):
        if not isinstance(node, ast.Subscript):
            continue
        name = _const_str(node.slice)
        if name is None:
            continue
        receiver = _subscript_receiver(node)
        if receiver in _SEGMENT_RECEIVERS:
            segment_reads.append((_loc(node), name))
        elif receiver in _ROW_RECEIVERS:
            row_reads.append((_loc(node), name))
    return segment_reads, row_reads


def _first(
    facts: dict[str, SchemaDriftFacts], attr: str
) -> tuple[Optional[str], Optional[object]]:
    """First (by path) file whose facts carry ``attr``, plus the value."""
    for rel in sorted(facts):
        value = getattr(facts[rel], attr)
        if value is not None:
            return rel, value
    return None, None


class SchemaDriftRule(FactRule):
    id = "schema-drift"
    description = (
        "trace events/metrics drifting from the versioned schema and "
        "its consumers (checked in both directions)"
    )

    def extract(self, checked: CheckedFile) -> Optional[SchemaDriftFacts]:
        # The analyzer's own modules quote schema names in rule tables
        # and tests; they are not schema participants.
        if checked.mod.startswith("repro/check/"):
            return None
        emit_sites, log_sites = _collect_call_sites(checked.tree)
        segment_reads, row_reads = _store_field_reads(checked)
        exact, prefixes = _produced_metrics(checked.tree)
        facts = SchemaDriftFacts(
            emit_sites=emit_sites,
            log_sites=log_sites,
            trace_schema=_find_trace_schema(checked.tree),
            consumed_events=_consumed_events(checked.tree),
            produced_exact=exact,
            produced_prefixes=prefixes,
            consumed_metrics=_consumed_metrics(checked.tree),
            telemetry=_find_telemetry_tables(checked.tree),
            store=_find_store_schema(checked.tree),
            segment_reads=segment_reads,
            row_reads=row_reads,
        )
        return None if facts.empty() else facts

    def check_facts(self, ctx: ProgramContext) -> Iterable[Diagnostic]:
        facts: dict[str, SchemaDriftFacts] = ctx.facts(self.id)
        yield from self._check_store(facts)
        yield from self._check_telemetry(facts)
        yield from self._check_trace(facts)
        yield from self._check_metrics(facts)

    # -- trace events -----------------------------------------------------

    def _check_trace(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        schema_rel, schema = _first(facts, "trace_schema")
        if schema_rel is None or not isinstance(schema, TraceSchemaFact):
            return  # nothing to check against (e.g. a fixture subset)

        emitted: set[str] = set()
        any_unresolved = False
        for rel in sorted(facts):
            for site in facts[rel].emit_sites:
                if site.events is None:
                    any_unresolved = True
                    yield self.diag_at(
                        rel,
                        site.loc,
                        "emit() event name could not be resolved statically; "
                        "use a string literal, a conditional over literals, "
                        "or a single local assignment of those",
                    )
                    continue
                emitted |= set(site.events)
                for event in site.events:
                    required = schema.event_fields.get(event)
                    if required is None:
                        yield self.diag_at(
                            rel,
                            site.loc,
                            f"emits event {event!r} which is not in the trace "
                            "schema (EVENT_FIELDS); add it to the schema or "
                            "fix the name",
                        )
                        continue
                    overridden = set(site.fields) & set(schema.common)
                    for name in sorted(overridden):
                        yield self.diag_at(
                            rel,
                            site.loc,
                            f"emit({event!r}) passes common field {name!r} as "
                            "a keyword; Instrumentation.emit stamps it",
                        )
                    if not site.has_star_kwargs:
                        missing = set(required) - set(site.fields)
                        for name in sorted(missing):
                            yield self.diag_at(
                                rel,
                                site.loc,
                                f"emit({event!r}) is missing required field "
                                f"{name!r} (schema: {required})",
                            )

        if not any_unresolved:
            for event in sorted(set(schema.event_fields) - emitted):
                yield self.diag_at(
                    schema_rel,
                    Loc(lineno=schema.key_lines.get(event, 0)),
                    f"schema event {event!r} is never emitted by any "
                    "Instrumentation.emit site; dead schema entries "
                    "hide drift — remove it or emit it",
                )

        for rel in sorted(facts):
            for loc, name in facts[rel].consumed_events:
                if name not in schema.event_fields:
                    yield self.diag_at(
                        rel,
                        loc,
                        f"consumes event {name!r} which is not in the trace "
                        "schema (EVENT_FIELDS); nothing can ever produce it",
                    )

    def _check_metrics(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        # Metric checks only make sense where trace schema checks do —
        # the metrics registry lives in the same observability layer.
        schema_rel, _ = _first(facts, "trace_schema")
        if schema_rel is None:
            return
        produced: set[str] = set()
        prefixes: set[str] = set()
        for rel in sorted(facts):
            produced |= set(facts[rel].produced_exact)
            prefixes |= set(facts[rel].produced_prefixes)
        for rel in sorted(facts):
            for loc, name in facts[rel].consumed_metrics:
                if name in produced:
                    continue
                if any(name.startswith(prefix) for prefix in prefixes):
                    continue
                yield self.diag_at(
                    rel,
                    loc,
                    f"reads metric {name!r} which no MetricsRegistry "
                    "counter/gauge/histogram call site produces",
                )

    # -- request log ------------------------------------------------------

    def _check_telemetry(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        schema_rel, tables = _first(facts, "telemetry")
        if schema_rel is None or not isinstance(tables, TelemetryTablesFact):
            return  # no request-log schema in this file set

        emitted: set[str] = set()
        any_unresolved = False
        for rel in sorted(facts):
            for site in facts[rel].log_sites:
                if site.events is None:
                    any_unresolved = True
                    yield self.diag_at(
                        rel,
                        site.loc,
                        "log_event() event name could not be resolved "
                        "statically; use a string literal, a conditional over "
                        "literals, or a single local assignment of those",
                    )
                    continue
                emitted |= set(site.events)
                for event in site.events:
                    required = tables.event_fields.get(event)
                    if required is None:
                        yield self.diag_at(
                            rel,
                            site.loc,
                            f"logs request event {event!r} which is not in the "
                            "request-log schema (REQUEST_EVENT_FIELDS); add it "
                            "to the schema or fix the name",
                        )
                        continue
                    for name in sorted(set(site.fields) & set(tables.common)):
                        yield self.diag_at(
                            rel,
                            site.loc,
                            f"log_event({event!r}) passes common field {name!r} "
                            "as a keyword; RequestLog stamps it",
                        )
                    if not site.has_star_kwargs:
                        for name in sorted(set(required) - set(site.fields)):
                            yield self.diag_at(
                                rel,
                                site.loc,
                                f"log_event({event!r}) is missing required "
                                f"field {name!r} (schema: {required})",
                            )

        if not any_unresolved:
            for event in sorted(set(tables.event_fields) - emitted):
                yield self.diag_at(
                    schema_rel,
                    Loc(lineno=tables.key_lines.get(event, 0)),
                    f"request-log schema event {event!r} is never "
                    "logged by any log_event site; dead schema entries "
                    "hide drift — remove it or emit it",
                )

    # -- sweep store ------------------------------------------------------

    def _check_store(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        store_rel, store = _first(facts, "store")
        if store_rel is None or not isinstance(store, StoreSchemaFact):
            return  # no sweep store in this file set

        known_query = set(store.columns) | set(store.meta_fields)
        for field_name in store.query_fields:
            if field_name not in known_query:
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=store.query_line),
                    f"QUERY_FIELDS entry {field_name!r} is neither a "
                    "SWEEP_COLUMNS column nor a SWEEP_META_FIELDS "
                    "field; no query row can ever carry it",
                )
        for column, line in store.columns.items():
            if column not in store.query_fields:
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=line),
                    f"segment column {column!r} is missing from "
                    "QUERY_FIELDS; it would be stored but never "
                    "queryable or exported",
                )

        consumed_columns: set[str] = set()
        any_segment_reads = False
        for rel in sorted(facts):
            for loc, name in facts[rel].segment_reads:
                any_segment_reads = True
                consumed_columns.add(name)
                if name not in store.columns:
                    yield self.diag_at(
                        rel,
                        loc,
                        f"reads segment column {name!r} which is not in "
                        "SWEEP_COLUMNS; no segment ever stores it",
                    )
            for loc, name in facts[rel].row_reads:
                if name not in store.query_fields:
                    yield self.diag_at(
                        rel,
                        loc,
                        f"reads query-row field {name!r} which is not in "
                        "QUERY_FIELDS; no query row ever carries it",
                    )
        if any_segment_reads:
            for column in sorted(set(store.columns) - consumed_columns):
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=store.columns[column]),
                    f"segment column {column!r} is never read by any "
                    "segment/_buffer subscript; dead columns hide "
                    "drift — remove it or consume it",
                )
