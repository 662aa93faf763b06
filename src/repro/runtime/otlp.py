"""OTLP-shaped span export.

Renders repro traces as the OpenTelemetry OTLP/JSON trace shape
(``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex ``traceId`` /
``spanId`` / ``parentSpanId``, Unix-nano timestamps and typed
attributes), without depending on any OpenTelemetry package — the
output is plain dicts/JSON that OTLP-compatible tooling ingests
directly and that tests can walk structurally.

Two producers feed it:

* :func:`trace_to_otlp` — a runtime
  :class:`~repro.runtime.tracing.Trace` whose records carry the
  ``trace_id``/``span_id``/``parent_span_id`` stamped by the engine
  (PR 10); records from traces predating distributed tracing get a
  synthesized per-export trace id so old artifacts still render.
* :func:`spans_to_otlp` — durable **service spans** (the
  ``spans.jsonl`` rows written by :mod:`repro.service.spanlog`):
  client submissions and worker deliveries, including deliveries
  interrupted by a crash (no end row → the span is exported with an
  ``repro.interrupted`` attribute and zero duration, so the trace
  tree still shows the dead incarnation's attempt).

:func:`merge_otlp` concatenates resource groups from several
producers into one document — the ``repro trace --service`` view of
one request across client, two server incarnations and worker
processes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping, Optional

from repro.runtime.tracing import Trace

__all__ = [
    "trace_to_otlp",
    "spans_to_otlp",
    "merge_otlp",
    "iter_spans",
    "span_attributes",
    "otlp_to_chrome",
    "save_otlp",
]

_NANO = 1_000_000_000


def _attr(key: str, value: Any) -> dict[str, Any]:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def _attrs(mapping: Mapping[str, Any]) -> list[dict[str, Any]]:
    return [_attr(k, v) for k, v in mapping.items() if v is not None]


def _resource_group(
    resource: Mapping[str, Any], spans: list[dict[str, Any]]
) -> dict[str, Any]:
    return {
        "resource": {"attributes": _attrs(resource)},
        "scopeSpans": [{"scope": {"name": "repro"}, "spans": spans}],
    }


def _nanos(seconds: float) -> str:
    return str(int(seconds * _NANO))


def trace_to_otlp(
    trace: Trace,
    *,
    wall_t0: float = 0.0,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """One runtime trace as an OTLP/JSON document.

    Record timestamps are monotonic seconds relative to the runtime's
    epoch; *wall_t0* (Unix seconds of that epoch) anchors them to wall
    clock so traces from different processes land on one timeline.
    """
    fallback_trace_id = os.urandom(16).hex()
    spans: list[dict[str, Any]] = []
    for rec in trace:
        trace_id = getattr(rec, "trace_id", None) or fallback_trace_id
        span_id = getattr(rec, "span_id", None) or format(
            rec.task_id & 0xFFFFFFFFFFFFFFFF, "016x"
        )
        span: dict[str, Any] = {
            "traceId": trace_id,
            "spanId": span_id,
            "name": rec.name,
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": _nanos(wall_t0 + rec.t_start),
            "endTimeUnixNano": _nanos(wall_t0 + rec.t_end),
            "attributes": _attrs(
                {
                    "repro.task_id": rec.task_id,
                    "repro.attempt": rec.attempt,
                    "repro.status": rec.status,
                    "repro.pid": rec.pid,
                    "repro.worker": rec.worker,
                    "repro.retry_of": rec.retry_of,
                    "repro.error": rec.error,
                }
            ),
            "status": {"code": 1 if rec.ok else 2},
        }
        parent = getattr(rec, "parent_span_id", None)
        if parent:
            span["parentSpanId"] = parent
        spans.append(span)
    res = {"service.name": "repro-runtime"}
    if resource:
        res.update(resource)
    return {"resourceSpans": [_resource_group(res, spans)]}


def spans_to_otlp(
    rows: Iterable[Mapping[str, Any]],
    *,
    resource: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Durable service span rows (see :mod:`repro.service.spanlog`)
    as an OTLP/JSON document.  Rows are start/end pairs keyed by span
    id; a start without an end is an **interrupted** span (the writing
    process died mid-delivery) and is exported with zero duration and
    ``repro.interrupted = true``."""
    starts: dict[str, dict[str, Any]] = {}
    ends: dict[str, dict[str, Any]] = {}
    for row in rows:
        span_id = row.get("span_id")
        if not span_id:
            continue
        if row.get("event") == "end":
            ends[span_id] = dict(row)
        else:
            starts[span_id] = dict(row)
    spans: list[dict[str, Any]] = []
    for span_id, start in starts.items():
        end = ends.get(span_id)
        t_start = float(start.get("t_start", 0.0))
        interrupted = end is None
        t_end = t_start if interrupted else float(end.get("t_end", t_start))
        attributes = dict(start.get("attributes") or {})
        if end is not None:
            attributes.update(end.get("attributes") or {})
        if interrupted:
            attributes["repro.interrupted"] = True
        # "failed"/"error" and crash-interrupted spans export as error
        # status; informational statuses ("ok", "dedup", ...) do not.
        status_ok = (end or {}).get("status", "interrupted") not in (
            "failed",
            "error",
            "interrupted",
        )
        span: dict[str, Any] = {
            "traceId": start["trace_id"],
            "spanId": span_id,
            "name": start.get("name", "span"),
            "kind": 1,
            "startTimeUnixNano": _nanos(t_start),
            "endTimeUnixNano": _nanos(t_end),
            "attributes": _attrs(attributes),
            "status": {"code": 1 if status_ok else 2},
        }
        if start.get("parent_id"):
            span["parentSpanId"] = start["parent_id"]
        spans.append(span)
    res = {"service.name": "repro-service"}
    if resource:
        res.update(resource)
    return {"resourceSpans": [_resource_group(res, spans)]}


def merge_otlp(*documents: Mapping[str, Any]) -> dict[str, Any]:
    """Concatenate the resource groups of several OTLP documents."""
    groups: list[dict[str, Any]] = []
    for doc in documents:
        groups.extend(doc.get("resourceSpans", ()))
    return {"resourceSpans": groups}


def iter_spans(document: Mapping[str, Any]) -> Iterable[dict[str, Any]]:
    """Flat iterator over every span in an OTLP document (tests and
    CLI summaries walk this instead of the nesting)."""
    for group in document.get("resourceSpans", ()):
        for scope in group.get("scopeSpans", ()):
            yield from scope.get("spans", ())


def span_attributes(span: Mapping[str, Any]) -> dict[str, Any]:
    """A span's attribute list as a plain ``{key: value}`` dict."""
    out: dict[str, Any] = {}
    for attr in span.get("attributes", ()):
        value = attr.get("value", {})
        if "intValue" in value:
            out[attr["key"]] = int(value["intValue"])
        elif "doubleValue" in value:
            out[attr["key"]] = float(value["doubleValue"])
        elif "boolValue" in value:
            out[attr["key"]] = bool(value["boolValue"])
        else:
            out[attr["key"]] = value.get("stringValue")
    return out


def otlp_to_chrome(document: Mapping[str, Any]) -> dict[str, Any]:
    """A merged OTLP document as a chrome://tracing timeline.

    One process row per OTLP *resource* (the client span log, each
    server incarnation, each embedded worker runtime), one thread lane
    per worker within it — the ``repro trace chrome --service`` view
    of the whole request on one clock.  Timestamps are rebased so the
    earliest span starts at 0; zero-duration spans (client ``submit``
    points, crash-interrupted deliveries) render as instant events.
    """
    events: list[dict[str, Any]] = []
    t0: int | None = None
    for group in document.get("resourceSpans", ()):
        for scope in group.get("scopeSpans", ()):
            for span in scope.get("spans", ()):
                start = int(span.get("startTimeUnixNano", 0))
                if start and (t0 is None or start < t0):
                    t0 = start
    t0 = t0 or 0
    for pid, group in enumerate(document.get("resourceSpans", ()), start=1):
        res = {
            attr["key"]: attr.get("value", {}).get("stringValue")
            for attr in group.get("resource", {}).get("attributes", ())
        }
        label = res.get("service.name", "repro")
        for extra in ("repro.server_id", "repro.pid"):
            if res.get(extra):
                label = f"{label} [{res[extra]}]"
        events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": label}}
        )
        lanes: dict[str, int] = {}
        for scope in group.get("scopeSpans", ()):
            for span in scope.get("spans", ()):
                attrs = span_attributes(span)
                lane_key = str(
                    attrs.get("repro.worker")  # runtime task records
                    or attrs.get("worker")  # service delivery spans
                    or span.get("name", "span")
                )
                tid = lanes.get(lane_key)
                if tid is None:
                    tid = lanes[lane_key] = len(lanes) + 1
                    events.append(
                        {"ph": "M", "pid": pid, "tid": tid,
                         "name": "thread_name", "args": {"name": lane_key}}
                    )
                ts = (int(span.get("startTimeUnixNano", 0)) - t0) / 1000.0
                dur = (
                    int(span.get("endTimeUnixNano", 0))
                    - int(span.get("startTimeUnixNano", 0))
                ) / 1000.0
                args = dict(attrs)
                args["traceId"] = span.get("traceId")
                args["spanId"] = span.get("spanId")
                if span.get("parentSpanId"):
                    args["parentSpanId"] = span["parentSpanId"]
                error = span.get("status", {}).get("code") == 2
                event: dict[str, Any] = {
                    "name": span.get("name", "span"),
                    "cat": "error" if error else "span",
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "args": args,
                }
                if dur <= 0:
                    event.update(ph="i", s="t")  # instant, thread-scoped
                else:
                    event.update(ph="X", dur=dur)
                events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_otlp(document: Mapping[str, Any], path) -> None:
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, json.dumps(document, indent=2) + "\n")
