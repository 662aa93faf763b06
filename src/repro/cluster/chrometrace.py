"""Chrome-tracing export of traces and simulated schedules.

Produces the Trace Event Format consumed by ``chrome://tracing`` /
Perfetto, giving an interactive timeline of a run — the lightweight
equivalent of the Paraver traces the paper's artifact uploads for its
kNN executions.

Real runtime traces (:func:`trace_to_chrome`) are laid out one lane per
worker: the ``tid`` is the worker thread the runtime dispatched the
attempt on, grouped into one process row per OS pid (the coordinator
under the threads backend; each pool worker under the processes
backend).  Dependency edges become flow events ("s"/"f" arrows in the
viewer), and retries/restores become instant markers, so a resilience
run reads directly off the timeline.
"""

from __future__ import annotations

import json

from repro.cluster.simulator import SimResult
from repro.runtime.tracing import Trace


def _metadata(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}


def _thread_metadata(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def trace_to_chrome(trace: Trace, process_name: str = "repro-runtime") -> str:
    """Render a recorded runtime trace (monotonic timestamps).

    * One process row per executing OS pid (metadata "M" events name
      them), one thread lane per worker thread within it.
    * Task attempts are complete ("X") events.
    * Dependency edges are flow events ("s" start at the producer's
      end, "f" finish with ``bp: "e"`` at the consumer's start) so the
      viewer draws arrows along the DAG.
    * Retries and checkpoint restores are instant ("i") events.
    * Data-plane traffic becomes a counter ("C") lane on the
      coordinator row: cumulative ``bytes_moved`` (shared memory
      freshly mapped into workers) vs ``bytes_saved`` (pickle-pipe
      bytes avoided by passing references), sampled at each attempt's
      end.  The lane is only emitted when a run actually moved data
      through the store, so store-off traces stay unchanged.

    Traces recorded before the observability layer (no worker names)
    fall back to one lane per OS pid.
    """
    records = {rec.task_id: rec for rec in trace}
    events: list[dict] = []

    # -- lanes: (pid, worker) -> tid -----------------------------------
    main_pid = next((r.pid for r in trace if r.pid is not None), 0) or 0
    events.append(_metadata(main_pid, process_name))
    seen_pids = {main_pid}
    lanes: dict[tuple[int, str], int] = {}
    for rec in trace:
        pid = rec.pid if rec.pid is not None else main_pid
        worker = rec.worker or (f"pid-{pid}" if pid != main_pid else "main")
        key = (pid, worker)
        if key not in lanes:
            lanes[key] = len([k for k in lanes if k[0] == pid])
            if pid not in seen_pids:
                seen_pids.add(pid)
                events.append(_metadata(pid, f"{process_name} worker pid {pid}"))
            events.append(_thread_metadata(pid, lanes[key], worker))

    def lane_of(rec) -> tuple[int, int]:
        pid = rec.pid if rec.pid is not None else main_pid
        worker = rec.worker or (f"pid-{pid}" if pid != main_pid else "main")
        return pid, lanes[(pid, worker)]

    # -- spans, flows, instants ----------------------------------------
    flow_id = 0
    for rec in trace:
        pid, tid = lane_of(rec)
        events.append(
            {
                "name": f"{rec.name}#{rec.task_id}",
                "cat": rec.name,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": rec.t_start * 1e6,  # microseconds
                "dur": max(rec.duration, 1e-9) * 1e6,
                "args": {
                    "deps": list(rec.deps),
                    "cores": rec.computing_units,
                    "gpus": rec.gpus,
                    "status": rec.status,
                    "attempt": rec.attempt,
                    "queue_wait_us": rec.queue_wait * 1e6,
                    "overhead_us": rec.overhead * 1e6,
                    "bytes_moved": rec.bytes_moved,
                    "bytes_saved": rec.bytes_saved,
                },
            }
        )
        if rec.status == "restored":
            events.append(
                {
                    "name": f"restored {rec.name}#{rec.task_id}",
                    "cat": "checkpoint",
                    "ph": "i",
                    "s": "t",  # thread-scoped marker
                    "pid": pid,
                    "tid": tid,
                    "ts": rec.t_start * 1e6,
                    "args": {"task_id": rec.task_id},
                }
            )
        if rec.retry_of is not None:
            events.append(
                {
                    "name": f"retry of #{rec.retry_of} (attempt {rec.attempt})",
                    "cat": "retry",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": rec.t_start * 1e6,
                    "args": {"retry_of": rec.retry_of, "attempt": rec.attempt},
                }
            )
        if rec.status == "failed":
            events.append(
                {
                    "name": f"failed {rec.name}#{rec.task_id}",
                    "cat": "failure",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": rec.t_end * 1e6,
                    "args": {"error": rec.error},
                }
            )
        for dep in rec.deps:
            producer = records.get(dep)
            if producer is None:
                continue  # dep not recorded (e.g. trace collection off mid-run)
            ppid, ptid = lane_of(producer)
            flow_id += 1
            events.append(
                {
                    "name": "dep",
                    "cat": "dataflow",
                    "ph": "s",
                    "id": flow_id,
                    "pid": ppid,
                    "tid": ptid,
                    "ts": producer.t_end * 1e6,
                }
            )
            events.append(
                {
                    "name": "dep",
                    "cat": "dataflow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": pid,
                    "tid": tid,
                    "ts": max(rec.t_start, producer.t_end) * 1e6,
                }
            )

    # -- data-plane counter lane ---------------------------------------
    if any(rec.bytes_moved or rec.bytes_saved for rec in trace):
        moved = saved = 0
        for rec in sorted(trace, key=lambda r: r.t_end):
            moved += rec.bytes_moved
            saved += rec.bytes_saved
            events.append(
                {
                    "name": "data plane (bytes)",
                    "cat": "dataplane",
                    "ph": "C",
                    "pid": main_pid,
                    "tid": 0,
                    "ts": rec.t_end * 1e6,
                    "args": {"moved": moved, "saved": saved},
                }
            )
    return json.dumps({"traceEvents": events}, indent=1)


def schedule_to_chrome(result: SimResult, process_name: str = "simulated-cluster") -> str:
    """Render a simulated schedule: one thread lane per node."""
    events = [_metadata(1, process_name)]
    for node in range(result.cluster.n_nodes):
        events.append(
            _thread_metadata(1, node, f"node {node} ({result.cluster.node.cores} cores)")
        )
    for p in result.placements.values():
        events.append(
            {
                "name": f"{p.name}#{p.task_id}",
                "cat": p.name,
                "ph": "X",
                "pid": 1,
                "tid": p.node,
                "ts": p.t_start * 1e6,
                "dur": max(p.duration, 1e-9) * 1e6,
                "args": {"cores": p.cores, "gpus": p.gpus},
            }
        )
    for w in result.checkpoint_writes:
        events.append(
            {
                "name": f"ckpt#{w.task_id}",
                "cat": "checkpoint",
                "ph": "X",
                "pid": 1,
                "tid": w.node,
                "ts": w.t_start * 1e6,
                "dur": max(w.duration, 1e-9) * 1e6,
                "args": {"task_id": w.task_id},
            }
        )
    return json.dumps({"traceEvents": events}, indent=1)


def validate_chrome_json(text: str) -> list[dict]:
    """Validate the Trace Event Format shape of *text*; returns the
    event list or raises :class:`ValueError`.

    Checks what ``about:tracing`` requires to load the file: a
    ``traceEvents`` list, a known phase per event, pid/tid/ts fields on
    timeline events, a duration on complete events, and matched
    flow-event pairs."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a traceEvents list")
    events = doc["traceEvents"]
    flows: dict[tuple, set[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "s", "f", "B", "E", "C"):
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if ph == "M":
            continue
        for field in ("pid", "tid", "ts"):
            if not isinstance(ev.get(field), (int, float)):
                raise ValueError(f"event {i} ({ph}) lacks numeric {field!r}")
        if ev["ts"] < 0:
            raise ValueError(f"event {i} has negative timestamp")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            raise ValueError(f"complete event {i} lacks a duration")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            raise ValueError(f"counter event {i} lacks an args series dict")
        if ph in ("s", "f"):
            flows.setdefault(("flow", ev.get("id")), set()).add(ph)
    for (_, flow_id), phases in flows.items():
        if phases != {"s", "f"}:
            raise ValueError(f"flow {flow_id} is unmatched (phases {sorted(phases)})")
    return events


def save_chrome_trace(trace: Trace, path, process_name: str = "repro-runtime") -> None:
    """Render and write a runtime trace to *path*, atomically."""
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, trace_to_chrome(trace, process_name=process_name))


def save_chrome_schedule(
    result: SimResult, path, process_name: str = "simulated-cluster"
) -> None:
    """Render and write a simulated schedule to *path*, atomically."""
    from repro.runtime.atomic_write import atomic_write

    atomic_write(path, schedule_to_chrome(result, process_name=process_name))
