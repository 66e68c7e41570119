"""Span recording, from outside the program, for the traced run.

Nothing in ``src/`` is changed: a :class:`SpanRecorder` wraps module
functions and instance attributes of the objects the benchmark built,
records one span per call, and removes every wrapper again on
:meth:`SpanRecorder.uninstall`.  The untraced run never installs it.

A span is ``(id, name, start, end, parent, query_id, attrs)``.  Times
are ``perf_counter`` seconds.  The parent is the innermost open span on
the same thread; a span opened on a dispatcher worker thread (whose
stack is empty) takes the innermost open ``engine.execute`` span, which
is the engine that dispatched it, because the benchmark keeps exactly
one query in flight.  Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from time import perf_counter

from repro.msl.analysis import rename_rule_variables

#: Spans that make up a mediator's own pipeline (for its self time).
PHASES = (
    "msl.parse",
    "view_expander.expand",
    "optimizer.plan",
    "pipeline.fuse",
    "engine.execute",
)

#: Source kinds reported per kind (``wrappers.<kind>.*``); ``mediator``
#: is a mediator that another mediator queries as a source.
KINDS = ("relational", "oem_store", "sqlite", "mediator")

FIELDS = ["id", "name", "start_ms", "end_ms", "parent", "query", "attrs"]


def wrapper_kind(source) -> str:
    """The reporting kind of a leaf wrapper."""
    from repro.wrappers import (
        OEMStoreWrapper,
        RelationalWrapper,
        SQLiteOEMStoreWrapper,
    )

    for cls, kind in (
        (RelationalWrapper, "relational"),
        (SQLiteOEMStoreWrapper, "sqlite"),
        (OEMStoreWrapper, "oem_store"),
    ):
        if isinstance(source, cls):
            return kind
    raise TypeError(f"no wrapper kind for {type(source).__name__}")


def canonical_query(query) -> str:
    """``query`` with variables renamed ``V0, V1, ...`` by first use.

    Constants (labels included) are kept, so two calls are the same
    distinct call exactly when a rename-invariant cache could share
    them.  A semi-join batch keeps its value filters verbatim.
    """
    rule = getattr(query, "rule", query)
    names = (f"V{n}" for n in itertools.count())
    text = str(rename_rule_variables(rule, lambda _old: next(names)))
    if rule is not query:
        filters = "; ".join(f.canonical() for f in query.filters)
        text = f"SEMIJOIN[{filters}] {text}"
    return text


class SpanRecorder:
    """Records spans around the calls into each layer's public functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_executes: list[int] = []
        self._undo: list = []
        self.installed = False

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, attrs_of=None, static=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            elif recorder._open_executes:
                parent = recorder._open_executes[-1]
            else:
                parent = None
            span_id = next(recorder._ids)
            stack.append(span_id)
            is_execute = name == "engine.execute"
            if is_execute:
                recorder._open_executes.append(span_id)
            query_id = recorder.query_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_execute:
                    recorder._open_executes.remove(span_id)
            attrs = dict(static) if static else {}
            if attrs_of is not None:
                attrs.update(attrs_of(args, result))
            recorder.spans.append(
                (span_id, name, start, end, parent, query_id, attrs)
            )
            return result

        return traced

    def _patch_attr(self, obj, attr: str, name: str, **options) -> None:
        original = getattr(obj, attr)
        setattr(obj, attr, self._wrap(name, original, **options))
        self._undo.append(lambda: delattr(obj, attr))

    def _patch_module(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(name, original))
        self._undo.append(lambda: setattr(module, attr, original))

    # -- install / uninstall ---------------------------------------------

    def install(self, instance) -> None:
        """Wrap every layer boundary of one built workload instance."""
        import repro.mediator.mediator as mediator_module
        import repro.msl.parser as parser_module

        if self.installed:
            raise RuntimeError("span recorder already installed")
        self._patch_module(parser_module, "parse_query", "msl.parse")
        self._patch_module(mediator_module, "fuse_plan", "pipeline.fuse")
        for mediator in instance.mediators:
            self._patch_attr(
                mediator,
                "answer",
                "mediator.answer",
                static={"mediator": mediator.name},
            )
            self._patch_attr(
                mediator.expander,
                "expand",
                "view_expander.expand",
                attrs_of=lambda _a, program: {"rules": len(program)},
            )
            for attr in ("plan_program", "plan_rule"):
                self._patch_attr(
                    mediator.optimizer,
                    attr,
                    "optimizer.plan",
                    attrs_of=lambda _a, plan: {"nodes": len(plan.nodes())},
                )
            self._patch_attr(
                mediator.engine, "execute_to_objects", "engine.execute"
            )
        for wire in instance.wires:
            self._patch_attr(
                wire, "answer", "wire.answer", static={"source": wire.name}
            )
        for wrapper in instance.wrappers:
            static = {"source": wrapper.name, "kind": wrapper_kind(wrapper)}
            self._patch_attr(
                wrapper,
                "answer",
                "wrapper.answer",
                static=static,
                attrs_of=lambda args, result: {
                    "query": args[0],
                    "objects": len(result),
                },
            )
            for attr in ("candidates", "semijoin_candidates"):
                self._patch_attr(
                    wrapper, attr, "wrapper.candidates", static=static
                )
        for table in instance.write_tables:
            for attr in ("delete_where", "insert"):
                self._patch_attr(table, attr, "relational.write")
        self.installed = True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.installed = False

    # -- output ----------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines to ``path``."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "fields": FIELDS}) + "\n")
            for span_id, name, start, end, parent, query, attrs in self.spans:
                attrs = dict(attrs)
                if "query" in attrs:
                    attrs["query"] = str(attrs["query"])
                out.write(
                    json.dumps(
                        [
                            span_id,
                            name,
                            round((start - origin) * 1e3, 4),
                            round((end - origin) * 1e3, 4),
                            parent,
                            query,
                            attrs,
                        ]
                    )
                    + "\n"
                )


def _covered(interval: tuple[float, float], inner: list) -> float:
    """Length of ``interval`` covered by the union of ``inner`` intervals."""
    lo, hi = interval
    pieces = sorted(
        (max(lo, s), min(hi, e)) for s, e in inner if s < hi and e > lo
    )
    covered = 0.0
    cursor = lo
    for start, end in pieces:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _contained(span, others) -> list[tuple[float, float]]:
    start, end = span[2], span[3]
    return [
        (o[2], o[3])
        for o in others
        if o is not span and o[2] >= start and o[3] <= end
    ]


def layer_metrics(
    spans, queries: dict, writes: list, lower_mediators: set[str]
) -> dict:
    """Per-query layer metrics from the spans of the traced operations.

    ``queries`` maps each traced query id to the number of objects in
    its answer; ``writes`` lists the traced write ids, which only feed
    ``relational.write_ms`` (per write).
    """
    by_query: dict[int, list] = {qid: [] for qid in queries}
    for span in spans:
        if span[5] in by_query:
            by_query[span[5]].append(span)
    totals: Counter = Counter()
    for qid, group in by_query.items():
        by_id = {s[0]: s for s in group}
        named: dict[str, list] = {}
        for span in group:
            named.setdefault(span[1], []).append(span)

        def dur(span) -> float:
            return (span[3] - span[2]) * 1e3

        for name, key in (
            ("msl.parse", "msl.parse_ms"),
            ("view_expander.expand", "view_expander.expand_ms"),
            ("pipeline.fuse", "pipeline.fuse_ms"),
        ):
            totals[key] += sum(dur(s) for s in named.get(name, ()))
        totals["view_expander.rules"] += sum(
            s[6]["rules"] for s in named.get("view_expander.expand", ())
        )
        plans = [
            s
            for s in named.get("optimizer.plan", ())
            if by_id.get(s[4], (None, None))[1] != "optimizer.plan"
        ]
        totals["optimizer.plan_ms"] += sum(dur(s) for s in plans)
        totals["optimizer.nodes"] += sum(s[6]["nodes"] for s in plans)

        answers = named.get("mediator.answer", [])
        lower = [s for s in answers if s[6]["mediator"] in lower_mediators]
        phases = [s for name in PHASES for s in named.get(name, ())]
        for span in answers:
            totals["mediator.self_ms"] += dur(span) - 1e3 * _covered(
                (span[2], span[3]), _contained(span, phases)
            )

        wraps = named.get("wrapper.answer", [])
        wires = named.get("wire.answer", [])
        source_calls = wraps + wires + lower
        executes = named.get("engine.execute", [])
        for span in executes:
            inner = _contained(span, source_calls)
            totals["engine.self_ms"] += dur(span) - 1e3 * _covered(
                (span[2], span[3]), inner
            )
            if not _contained_in_any(span, executes):
                totals["engine.execute_ms"] += dur(span)

        wire_ids = {s[0] for s in wires}
        leaf_calls = wires + [s for s in wraps if s[4] not in wire_ids]
        totals["source_call_ms"] += sum(dur(s) for s in leaf_calls)
        totals["wire.wait_ms"] += sum(dur(s) for s in wires) - sum(
            dur(s) for s in wraps if s[4] in wire_ids
        )

        totals["wrappers.calls"] += len(wraps)
        totals["wrappers.distinct_calls"] += len(
            {(s[6]["source"], canonical_query(s[6]["query"])) for s in wraps}
        )
        totals["wrappers.answer_ms"] += sum(dur(s) for s in wraps)
        totals["wrappers.candidates_ms"] += sum(
            dur(s) for s in named.get("wrapper.candidates", ())
        )
        totals["wrappers.objects"] += sum(s[6]["objects"] for s in wraps)
        totals["result_objects"] += queries[qid]
        for span in wraps:
            totals[f"wrappers.{span[6]['kind']}.calls"] += 1
            totals[f"wrappers.{span[6]['kind']}.answer_ms"] += dur(span)
        for span in lower:
            totals["wrappers.mediator.calls"] += 1
            totals["wrappers.mediator.answer_ms"] += dur(span)

    count = max(1, len(by_query))
    metrics = {
        key: totals[key] / count
        for key in (
            "msl.parse_ms",
            "view_expander.expand_ms",
            "view_expander.rules",
            "optimizer.plan_ms",
            "optimizer.nodes",
            "pipeline.fuse_ms",
            "mediator.self_ms",
            "engine.execute_ms",
            "engine.self_ms",
            "wrappers.calls",
            "wrappers.distinct_calls",
            "wrappers.answer_ms",
            "wrappers.candidates_ms",
            "wrappers.objects",
            "wire.wait_ms",
        )
    }
    metrics["wrappers.evaluate_ms"] = (
        metrics["wrappers.answer_ms"] - metrics["wrappers.candidates_ms"]
    )
    metrics["wrappers.dup_ratio"] = _ratio(
        totals["wrappers.calls"], totals["wrappers.distinct_calls"]
    )
    metrics["wrappers.objects_per_result"] = _ratio(
        totals["wrappers.objects"], totals["result_objects"]
    )
    metrics["dispatcher.overlap"] = _ratio(
        totals["source_call_ms"], totals["engine.execute_ms"]
    )
    for kind in KINDS:
        for part in ("calls", "answer_ms"):
            key = f"wrappers.{kind}.{part}"
            metrics[key] = totals[key] / count
    written = set(writes)
    metrics["relational.write_ms"] = _ratio(
        sum(
            (s[3] - s[2]) * 1e3
            for s in spans
            if s[1] == "relational.write" and s[5] in written
        ),
        len(written),
    )
    return metrics


def _contained_in_any(span, others) -> bool:
    return any(
        o is not span and o[2] <= span[2] and o[3] >= span[3] for o in others
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
