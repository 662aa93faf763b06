"""Per-layer numbers from the runtime's public records.

Exclusive self time comes from raw :class:`repro.runtime.TaskRecord`
timestamps, not from ``summarize_trace`` or ``TaskRecord.overhead``:
a parent's span includes the children it waited for (and any task its
thread ran inline while waiting), and ``overhead`` counts dependency
wait.  Here a record's self time is its interval minus the union of

* its children's intervals (``parent_id``), wherever they ran, and
* the intervals of other records its own thread ran inside it.

What a thread's records cover but no body on it was running is
*blocked* time (a parent waiting for children on other threads); what
they do not cover is *idle*.  Per thread, self + blocked + idle adds up
to the traced window exactly when the records of each thread nest
properly, which :func:`closure` checks.
"""

from __future__ import annotations

import sys
from collections import defaultdict

#: Layers whose task self time is reported, by module prefix.
SELF_LAYERS = {
    "repro.ml.decomposition": "ml.decomposition",
    "repro.ml.svm": "ml.svm",
    "repro.ml.neighbors": "ml.neighbors",
    "repro.ml.trees": "ml.trees",
    "repro.dsarray": "dsarray",
    "repro.nn": "nn",
}
#: Tasks attributed by name rather than module: the serving graph's
#: inference task lives in ``repro.streaming`` but its body is the CNN
#: forward pass.
TASK_LAYERS = {"stream_infer": "nn"}


def task_modules() -> dict[str, str]:
    """Task name → defining module, for every ``@task`` function bound
    at module level in the loaded ``repro`` packages."""
    out: dict[str, str] = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro.") or mod is None:
            continue
        for value in list(vars(mod).values()):
            spec = getattr(value, "spec", None)
            func = getattr(spec, "func", None)
            name = getattr(spec, "name", None)
            if func is not None and isinstance(name, str):
                out.setdefault(name, func.__module__)
    return out


def layer_of(module: str | None) -> str | None:
    if module is None:
        return None
    for prefix, layer in SELF_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _length(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(iv: tuple[float, float], lo: float, hi: float) -> tuple[float, float] | None:
    a, b = max(iv[0], lo), min(iv[1], hi)
    return (a, b) if b > a else None


def analyse(records, t0: float, t1: float) -> dict:
    """Self, blocked and idle time per record and thread over the
    window ``[t0, t1]`` (the traced workflow pass)."""
    recs = [r for r in records if r.t_end > t0 and r.t_start < t1 and r.executed]
    span = {r.task_id: (max(r.t_start, t0), min(r.t_end, t1)) for r in recs}
    children: dict[int, list[int]] = defaultdict(list)
    by_thread: dict[str, list] = defaultdict(list)
    for r in recs:
        if r.parent_id is not None:
            children[r.parent_id].append(r.task_id)
        by_thread[r.worker or "?"].append(r)

    self_time: dict[int, float] = {}
    blocked: dict[str, float] = defaultdict(float)
    for thread, rs in by_thread.items():
        rs.sort(key=lambda r: (span[r.task_id][0], -span[r.task_id][1]))
        for i, r in enumerate(rs):
            lo, hi = span[r.task_id]
            same_thread = []
            for other in rs[i + 1 :]:
                a, b = span[other.task_id]
                if a >= hi:
                    break
                same_thread.append((a, min(b, hi)))
            off_thread = [
                iv
                for c in children.get(r.task_id, ())
                if c in span and (iv := _clip(span[c], lo, hi)) is not None
            ]
            covered_same = _length(same_thread)
            covered_any = _length(same_thread + off_thread)
            self_time[r.task_id] = (hi - lo) - covered_any
            blocked[thread] += covered_any - covered_same

    window = t1 - t0
    busy = {t: _length([span[r.task_id] for r in rs]) for t, rs in by_thread.items()}
    idle = {t: window - b for t, b in busy.items()}
    return {
        "records": recs,
        "self": self_time,
        "blocked": dict(blocked),
        "idle": idle,
        "threads": sorted(by_thread),
        "window": window,
    }


def closure(a: dict) -> float:
    """Relative residual of Σ self + Σ blocked + Σ idle against
    threads × window."""
    expect = len(a["threads"]) * a["window"]
    got = sum(a["self"].values()) + sum(a["blocked"].values()) + sum(a["idle"].values())
    return abs(got - expect) / expect if expect > 0 else 0.0


def layer_metrics(rt, a: dict) -> dict[str, float]:
    """``runtime.*``, ``backend.*``, ``store.*`` and per-module
    ``*.self_s`` / ``*.tasks`` from one traced pass."""
    modules = task_modules()
    recs = a["records"]
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS.values()}
    counts: dict[str, int] = defaultdict(int)
    for r in recs:
        layer = TASK_LAYERS.get(r.name) or layer_of(modules.get(r.name))
        if layer is not None:
            out[f"{layer}.self_s"] += a["self"][r.task_id]
            counts[layer] += 1
    for layer in ("ml.trees", "dsarray", "nn"):
        out[f"{layer}.tasks"] = float(counts[layer])

    def gap(x, y):
        return sum(max(getattr(r, y) - getattr(r, x), 0.0) for r in recs
                   if getattr(r, x) is not None and getattr(r, y) is not None)

    stats = rt.stats()
    sched = stats["scheduler"]
    out.update(
        {
            "runtime.tasks": float(len(recs)),
            "runtime.nested_tasks": float(sum(r.parent_id is not None for r in recs)),
            "runtime.failed": float(sum(not r.ok for r in recs)),
            "runtime.retries": float(stats["retries"]),
            "runtime.dep_wait_s": gap("t_submit", "t_ready"),
            "runtime.queue_wait_s": gap("t_ready", "t_dispatch"),
            "runtime.dispatch_s": gap("t_dispatch", "t_start"),
            "runtime.self_s": sum(a["self"].values()),
            "runtime.blocked_s": sum(a["blocked"].values()),
            "runtime.idle_s": sum(a["idle"].values()),
            "runtime.threads": float(len(a["threads"])),
            "runtime.idle_wakeups": float(sched["idle_wakeups"]),
            "runtime.worker_parks": float(sched["worker_parks"]),
            "runtime.submit_contentions": float(sched["submit_contentions"]),
            "trace.closure_err": closure(a),
        }
    )
    b = stats["backend_stats"]
    loc = b.get("locality_hits", 0) + b.get("locality_misses", 0)
    out.update(
        {
            "backend.dispatched": float(b.get("dispatched", 0)),
            "backend.inline": float(b.get("inline", 0)),
            "backend.pipe_bytes": float(b.get("pipe_bytes_sent", 0) + b.get("pipe_bytes_recv", 0)),
            "backend.serialization_s": float(b.get("serialization_seconds", 0.0)),
            "backend.worker_crashes": float(b.get("worker_crashes", 0)),
            "store.bytes_moved": float(b.get("store_bytes_moved", 0)),
            "store.bytes_saved": float(b.get("store_bytes_saved", 0)),
            "store.hit_rate": float(b.get("store_hit_rate", 0.0)),
            "store.locality_hit_rate": b.get("locality_hits", 0) / loc if loc else 0.0,
        }
    )
    return out
