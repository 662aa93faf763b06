"""The online-serving workload (``stream_serve``).

A 4-patient ECG feed runs through the serving graph wired exactly as
``repro.streaming.serve_stream`` wires it — key_by(patient) → tumbling
window → ``segment_features`` → micro-batch → CNN inference task →
sink — with the harness timing each stage function from outside.

A pass has two phases over the same feed:

* **saturation** — the source replays the feed at full speed; the
  pass's ``wall_s`` is first chunk to last prediction;
* **paced** — an open loop at a fixed ingest rate near half of
  saturation on a 2-CPU machine; each segment's latency runs from
  when its last chunk was *due* to when its prediction reached the
  sink, so a stall is charged to every segment it delays.

Predictions of both phases must equal ``serve_batch`` on the same feed.
After each saturation replay, its micro-batches go through the
inference task again, one at a time with no other stage running:
``model_s`` times the model and its per-task runtime cost without the
other stages competing for the CPUs, sampled across the whole run as
the replays are.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (
    RUN_DIR,
    Ops,
    StderrCapture,
    median,
    more_setups,
    peak_rss_mb,
    percentile,
    repeats,
    runtime_config,
    ShmAudit,
    stop_resource_tracker,
    tracker_errors,
    warm_up,
)

PATIENTS = 4
#: Segments in the feed (per phase): p99 of the paced phase then has
#: 12 samples beyond it.
SEGMENTS = 1200
#: Paced-phase ingest rate in chunks/s (6 chunks per segment, so
#: 200 segments/s).
RATE = 1200.0
CLOSURE_EPS = 1e-6
#: Saturation replays per runtime in the traced run (and its untraced twin).
TRACE_REPLAYS = 3
#: Nominal seconds of ``--seconds`` one saturation replay takes up (a
#: replay and its inference passes are about 3.5 s on 2 CPUs; the
#: reference, the paced phase and the set-ups fill the rest).
REPLAY_BUDGET_S = 5.0
#: Inference passes over a replay's micro-batches outside the graph,
#: after each saturation replay; ``model_s`` is the median of them all.
INFER_PASSES = 5


def serve_config(seed: int, rate: float | None):
    from repro.streaming import ServeConfig

    return ServeConfig(seed=seed, patients=PATIENTS, n_segments=SEGMENTS, rate=rate)


def run_graph(cfg, rt, model, keep: list | None = None) -> dict:
    """One phase: build the serving graph, run it over the feed and
    return what each stage did and when each prediction arrived.  The
    micro-batches the inference stage saw go to ``keep`` if given."""
    from repro.runtime import wait_on
    from repro.streaming import StreamGraph, TumblingCountWindow, iter_feed
    from repro.streaming.serving import (
        _flatten_predictions,
        _predict_batch,
        assemble_segment,
        segment_features,
    )

    last_chunk = cfg.chunks_per_segment - 1
    t = {"gen": 0.0, "features": 0.0, "infer": 0.0}
    due_last: dict[int, float] = {}
    lags: list[float] = []
    arrivals: dict[int, tuple[float, dict]] = {}
    period = 1.0 / cfg.rate if cfg.rate else 0.0
    started: list[float] = []

    def chunks():
        it = iter_feed(cfg)
        i = 0
        while True:
            t_req = time.monotonic()
            if period and i > 0:
                # asked for chunk i right after emitting chunk i - 1
                lags.append(max(0.0, t_req - (started[0] + i * period)))
            t0 = time.perf_counter()
            value = next(it, None)
            t["gen"] += time.perf_counter() - t0
            if value is None:
                return
            if value[2] == last_chunk:
                due_last[value[1]] = started[0] + (i + 1) * period
            i += 1
            yield value

    def feed():
        # The source stage calls this, then starts its pacing clock:
        # chunk i is due at start + (i + 1) * period.
        started.append(time.monotonic())
        return chunks()

    def features(seg):
        t0 = time.perf_counter()
        f = segment_features(seg, cfg)
        t["features"] += time.perf_counter() - t0
        return f

    def infer(batch):
        if keep is not None:
            keep.append(batch)
        t0 = time.perf_counter()
        xb = np.stack([f["x"] for f in batch])
        fut = rt.submit_many([_predict_batch.defer(model, xb)])[0]
        preds = _flatten_predictions(batch, wait_on(fut))
        t["infer"] += time.perf_counter() - t0
        return preds

    def arrive(pred):
        arrivals[pred["segment"]] = (time.monotonic(), pred)
        return pred

    g = StreamGraph(rt, name="af-serving", capacity=cfg.capacity)
    src = g.source(feed, name="ecg", rate=cfg.rate, watermark_interval=cfg.patients)
    keyed = g.key_by(src, lambda v: v[0], name="key_by_patient")
    segments = g.window(
        keyed, TumblingCountWindow(cfg.chunks_per_segment), fn=assemble_segment, name="segment"
    )
    feats = g.map(segments, features, name="features")
    batches = g.batch(feats, cfg.batch_size, name="microbatch")
    preds = g.flat_map(batches, infer, name="infer")
    g.sink(preds, arrive, name="predictions")
    t0 = time.perf_counter()
    g.start()
    g.join()
    wall = time.perf_counter() - t0
    streams = g.metrics_snapshot()["streams"].values()
    latencies = [
        arrivals[s][0] - due_last[s] for s in due_last if s in arrivals
    ] if period else []
    return {
        "wall_s": wall,
        "times": t,
        "arrivals": {s: p for s, (_, p) in arrivals.items()},
        "latencies": latencies,
        "late_segments": [
            s for s in due_last if s in arrivals
            and arrivals[s][0] - due_last[s] > cfg.chunks_per_segment * cfg.chunk_seconds
        ] if period else [],
        "lags": lags,
        "put_waits": sum(st["put_waits"] for st in streams),
        "get_waits": sum(st["get_waits"] for st in streams),
        "high_water": max(st["high_water"] for st in streams),
        "leaked_slots": g.slots_leaked(),
    }


def infer_pass(rt, model, batches: list) -> tuple[float, dict[int, dict]]:
    """The inference stage's work on its own: each micro-batch submitted
    as one CNN task and awaited before the next, as the stage does, but
    with no other stage competing for the CPUs.  Returns the seconds it
    took and the predictions by segment."""
    from repro.runtime import wait_on
    from repro.streaming.serving import _flatten_predictions, _predict_batch

    preds: dict[int, dict] = {}
    t0 = time.perf_counter()
    for batch in batches:
        xb = np.stack([f["x"] for f in batch])
        fut = rt.submit_many([_predict_batch.defer(model, xb)])[0]
        for p in _flatten_predictions(batch, wait_on(fut)):
            preds[p["segment"]] = p
    return time.perf_counter() - t0, preds


def reference(seed: int) -> dict[int, dict]:
    """``serve_batch`` predictions on the same feed, by segment."""
    from repro.runtime import Runtime
    from repro.streaming import make_model, serve_batch

    cfg = serve_config(seed, None)
    with Runtime(config=runtime_config("threads", False)) as rt:
        res = serve_batch(cfg, rt, make_model(cfg))
    return {p["segment"]: p for p in res.predictions}


def _setup(seed: int, trace: bool):
    """Runtime, one warm-up task and the serving model; returns
    (runtime, model, seconds, warm-up ok)."""
    from repro.runtime import Runtime
    from repro.streaming import make_model

    t0 = time.perf_counter()
    rt = Runtime(config=runtime_config("threads", trace))
    rt.__enter__()
    ok = warm_up(rt)
    model = make_model(serve_config(seed, None))
    return rt, model, time.perf_counter() - t0, ok


def check_phase(phase: dict, ref: dict[int, dict], ops: Ops, tag: str) -> None:
    """One operation per segment: its prediction must arrive, equal
    the batch twin's and (paced phase) arrive within the segment's own
    duration of its last chunk being due."""
    got = phase["arrivals"]
    late = set(phase["late_segments"])
    for seg, want in ref.items():
        p = got.get(seg)
        if p is None:
            ops.check(False, f"{tag} segment {seg}: no prediction")
        elif p != want:
            ops.check(False, f"{tag} segment {seg}: prediction differs from serve_batch")
        else:
            ops.check(seg not in late, f"{tag} segment {seg}: prediction late", output=False)
    for seg in set(got) - set(ref):
        ops.check(False, f"{tag} segment {seg}: not in the feed")


def _serve(seed: int, trace: bool, ref: dict, ops: Ops, audit: ShmAudit, replays: int,
           tag: str, infer_passes: int = 0) -> dict:
    """One serving runtime: a saturation replay, the paced phase, the
    remaining saturation replays; each saturation replay is followed
    by ``infer_passes`` inference passes over its micro-batches."""
    import layers

    rt, model, setup_s, ok = _setup(seed, trace)
    sats: list[dict] = []
    infer_s: list[float] = []
    try:
        ops.check(ok, f"{tag} warm-up task result")
        before = {r.task_id for r in rt.trace().records()} if trace else set()

        def saturation() -> None:
            batches: list = []
            sats.append(run_graph(serve_config(seed, None), rt, model, batches))
            for _ in range(infer_passes):
                gc.collect()
                seconds, preds = infer_pass(rt, model, batches)
                ops.check(preds == ref, f"{tag} inference pass {len(infer_s)}: "
                          "predictions differ from serve_batch")
                infer_s.append(seconds)

        saturation()
        gc.collect()
        paced = run_graph(serve_config(seed, RATE), rt, model)
        rss = peak_rss_mb()
        while len(sats) < replays:
            gc.collect()  # every replay starts from the same heap
            saturation()
        for k, phase in enumerate(sats + [paced]):
            name = "paced" if phase is paced else f"saturation{k}"
            check_phase(phase, ref, ops, f"{tag} {name}")
            ops.check(phase["leaked_slots"] == 0, f"{tag} {name}: stream queue slots leaked")
        layer = None
        if trace:
            recs = [r for r in rt.trace().records() if r.task_id not in before]
            a = layers.analyse(recs, min(r.t_start for r in recs), max(r.t_end for r in recs))
            layer = layers.layer_metrics(rt, a)
            ops.check(layer["trace.closure_err"] <= CLOSURE_EPS,
                      f"{tag} self-time closure residual {layer['trace.closure_err']:.2e}")
    finally:
        rt.__exit__(None, None, None)
    audit.check(ops)
    return {"setup_s": setup_s, "sats": sats, "paced": paced, "layer": layer, "peak_rss_mb": rss,
            "infer_s": infer_s}


def _median_replay(sats: list[dict]) -> dict:
    return sorted(sats, key=lambda p: p["wall_s"])[(len(sats) - 1) // 2]


def measure(seed: int, seconds: float, trace: bool) -> dict:
    ops = Ops()
    audit = ShmAudit()
    capture = StderrCapture(RUN_DIR / "stderr.log")
    try:
        ref = reference(seed)
        if trace:
            # the same number of replays untraced and traced: the
            # difference of their medians is the tracing overhead
            untraced = _serve(seed, False, ref, ops, audit, TRACE_REPLAYS, "untraced")
            run = _serve(seed, True, ref, ops, audit, TRACE_REPLAYS, "traced")
        else:
            run = _serve(seed, False, ref, ops, audit, repeats(seconds, REPLAY_BUDGET_S), "run",
                         INFER_PASSES)
        setups = [run["setup_s"]]
        while not trace and more_setups(setups):
            rt, _, s, ok = _setup(seed, False)
            ops.check(ok, "set-up warm-up task result")
            rt.__exit__(None, None, None)
            audit.check(ops)
            setups.append(s)
    finally:
        stop_resource_tracker()
        stderr_text = capture.close()

    sat = _median_replay(run["sats"])
    paced = run["paced"]
    metrics: dict[str, float] = {}
    if trace:
        metrics.update(run["layer"])
        metrics.update(
            {
                "stream.feed_gen_s": sat["times"]["gen"],
                "stream.features_s": sat["times"]["features"],
                "stream.infer_s": sat["times"]["infer"],
                "stream.put_waits": float(sat["put_waits"]),
                "stream.get_waits": float(sat["get_waits"]),
                "stream.high_water": float(sat["high_water"]),
                "stream.seg_per_s": SEGMENTS / sat["wall_s"],
                "stream.p50_ms": 1000.0 * percentile(paced["latencies"], 50),
                "stream.p99_ms": 1000.0 * percentile(paced["latencies"], 99),
                "stream.gen_lag_ms": 1000.0 * percentile(paced["lags"], 99),
                "store.leaked_segments": float(len(audit.leaked)),
                "store.tracker_errors": float(tracker_errors(stderr_text)),
                "trace.overhead_s": sat["wall_s"] - _median_replay(untraced["sats"])["wall_s"],
            }
        )
    else:
        metrics.update(
            {
                "wall_s": median([p["wall_s"] for p in run["sats"]]),
                "prep_s": median([p["times"]["gen"] + p["times"]["features"] for p in run["sats"]]),
                "model_s": median(run["infer_s"]),
                "setup_s": median(setups),
                "peak_rss_mb": run["peak_rss_mb"],
            }
        )
    return {
        "metrics": metrics,
        "ops": ops,
        "reference": True,
        "passes": [
            {"wall_s": p["wall_s"], "seg_per_s": SEGMENTS / p["wall_s"], **p["times"]}
            for p in run["sats"]
        ] + [
            {"infer_pass_s": s} for s in run["infer_s"]
        ] + [
            {
                "paced_p50_ms": 1000.0 * percentile(paced["latencies"], 50),
                "paced_p99_ms": 1000.0 * percentile(paced["latencies"], 99),
                "gen_lag_p99_ms": 1000.0 * percentile(paced["lags"], 99),
                "late": len(paced["late_segments"]),
            }
        ],
        "audit": {
            "leaked_segments": len(audit.leaked),
            "tracker_errors": tracker_errors(stderr_text),
        },
    }
