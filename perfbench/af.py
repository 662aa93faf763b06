"""The AF workflow workloads (``af_threads``, ``af_processes``).

One *pass* is the paper's full workflow at the default
``PipelineConfig``: synthesise → augment → pad/STFT → PCA (fit, then
transform) → scaler → 5-fold CV of csvm, knn and rf → nested CNN CV at
7 epochs.  Every stage is one public call timed from outside and ends
with a runtime barrier, so the stage spans tile the pass.

``af_processes`` leaves the nested CNN stage out.  On the process
backend its time is bimodal — 2.4–3.3 s or 6.7–8.2 s per pass on a
2-CPU machine — because each of the two worker processes runs a
two-thread OpenBLAS; with one BLAS thread it takes 1.6 s.  That spread
is wider than any bound the benchmark may set, so the stage is measured
on ``af_threads`` only until the program caps BLAS threads per worker.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

from common import (
    RUN_DIR,
    Ops,
    Spans,
    StderrCapture,
    median,
    more_setups,
    peak_rss_mb,
    repeats,
    runtime_config,
    ShmAudit,
    stop_resource_tracker,
    tracker_errors,
    warm_up,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
PREP = (
    "ecg.synth",
    "ecg.augment",
    "ecg.features",
    "ml.decomposition.fit",
    "ml.decomposition.transform",
    "ml.preprocessing.scaler",
)
CLASSICAL = ("csvm", "knn", "rf")
#: Nominal seconds of ``--seconds`` one pass takes up (a pass is 13-16 s
#: on 2 CPUs; set-up, teardown and the shared-memory audit fill the rest).
PASS_BUDGET_S = 15.0
MODEL = tuple(f"ml.cv.{alg}" for alg in CLASSICAL) + ("nn.cv",)
#: Closure tolerances: stage spans vs pass wall, and
#: Σ self + blocked + idle vs threads × window.
SPAN_EPS = 0.005
CLOSURE_EPS = 1e-6


def run_pass(seed: int, spans: Spans, cnn: bool = True) -> dict:
    """One workflow pass on the active runtime; returns its outputs."""
    import repro.dsarray as ds
    from repro.ecg import augment_minority, load_cinc2017_like
    from repro.ml import PCA, StandardScaler, cross_validate
    from repro.runtime import barrier
    from repro.workflows import PipelineConfig, extract_features, make_estimator, run_cnn

    cfg = PipelineConfig(seed=seed)
    out: dict = {}
    with spans("ecg.synth"):
        raw = load_cinc2017_like(scale=cfg.scale, seed=cfg.seed, cfg=cfg.ecg)
    with spans("ecg.augment"):
        data = augment_minority(raw, seed=cfg.seed + 1)
    with spans("ecg.features"):
        feats, labels = extract_features(data, cfg)
    with spans("ml.decomposition.fit"):
        dx = ds.array(feats, cfg.block_size)
        pca = PCA(n_components=cfg.pca_variance).fit(dx)
    with spans("ml.decomposition.transform"):
        reduced = pca.transform(dx, block_size=cfg.block_size)
        dy = ds.array(labels.reshape(-1, 1), (cfg.block_size[0], 1))
        barrier()
    with spans("ml.preprocessing.scaler"):
        scaled = StandardScaler().fit_transform(reduced)
        barrier()
    out["raw_counts"] = raw.class_counts()
    out["counts"] = data.class_counts()
    out["recordings"] = len(data.records)
    out["features_shape"] = list(feats.shape)
    out["n_components"] = int(pca.n_components_)
    out["reduced_shape"] = list(reduced.shape)
    out["scaled_shape"] = list(scaled.shape)
    out["cv"] = {}
    for alg in CLASSICAL:
        x = scaled if alg == "knn" else reduced
        with spans(f"ml.cv.{alg}"):
            cv = cross_validate(
                lambda: make_estimator(alg), x, dy,
                n_splits=cfg.n_splits, random_state=cfg.seed,
            )
            barrier()
        out["cv"][alg] = {
            "fold_accuracies": [float(a) for a in cv.fold_accuracies],
            "confusion_matrices": [np.asarray(m).tolist() for m in cv.confusion_matrices],
        }
    if cnn:
        with spans("nn.cv"):
            res = run_cnn(cfg, data)
            barrier()
        out["cv"]["cnn"] = {
            "fold_accuracies": [float(a) for a in res["fold_accuracies"]],
            "mean_confusion": np.asarray(res["mean_confusion"]).tolist(),
        }
    return out


def load_reference(seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(str(seed))


def _close(a, b, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _sane_fold(acc: float, cm) -> bool:
    cm = np.asarray(cm, dtype=float)
    return 0.0 <= acc <= 1.0 and bool(np.all(cm >= 0)) and abs(cm.sum() - 1.0) < 1e-9


def check_pass(out: dict, ref: dict | None, ops: Ops, tag: str) -> None:
    """One operation per stage call and per fold.  With a recorded
    reference for the seed, outputs must match it; without one, they
    must be internally consistent (and a later pass of the run is
    checked against the first, see :func:`measure`)."""
    n = out["recordings"]
    counts = out["counts"]
    ops.check(sum(out["raw_counts"].values()) > 0, f"{tag} synth: empty dataset")
    ops.check(len(set(counts.values())) == 1, f"{tag} augment: classes not balanced {counts}")
    if ref is not None:
        ops.check(out["features_shape"] == ref["features_shape"],
                  f"{tag} features: shape {out['features_shape']} != {ref['features_shape']}")
        ops.check(out["n_components"] == ref["n_components"],
                  f"{tag} pca fit: n_components {out['n_components']} != {ref['n_components']}")
    else:
        ops.check(out["features_shape"][0] == n, f"{tag} features: {out['features_shape']}")
        ops.check(1 <= out["n_components"] <= min(out["features_shape"]),
                  f"{tag} pca fit: n_components {out['n_components']}")
    ops.check(out["reduced_shape"] == [n, out["n_components"]], f"{tag} pca transform: shape")
    ops.check(out["scaled_shape"] == out["reduced_shape"], f"{tag} scaler: shape")
    for alg, res in out["cv"].items():
        want = ref["cv"][alg] if ref is not None else None
        for k, acc in enumerate(res["fold_accuracies"]):
            cm = (
                res["confusion_matrices"][k]
                if "confusion_matrices" in res
                else res["mean_confusion"]
            )
            ok = _sane_fold(acc, cm) if alg != "cnn" else 0.0 <= acc <= 1.0
            if want is not None:
                ok = ok and abs(acc - want["fold_accuracies"][k]) <= 1e-9
                if "confusion_matrices" in res:
                    ok = ok and _close(cm, want["confusion_matrices"][k])
                elif k == len(res["fold_accuracies"]) - 1:
                    ok = ok and _close(res["mean_confusion"], want["mean_confusion"])
            ops.check(ok, f"{tag} {alg} fold {k}: accuracy {acc}")


def _setup(backend: str, trace: bool):
    """Build and activate the workload's runtime and push one warm-up
    task through it; returns (runtime, seconds, warm-up ok)."""
    from repro.runtime import Runtime

    t0 = time.perf_counter()
    rt = Runtime(config=runtime_config(backend, trace))
    rt.__enter__()
    ok = warm_up(rt)
    return rt, time.perf_counter() - t0, ok


def _teardown(rt, backend: str, ops: Ops, audit: ShmAudit) -> None:
    from repro.runtime import shutdown_workers

    rt.__exit__(None, None, None)
    if backend == "processes":
        # the next pass spawns fresh workers, and these are reaped, which
        # makes their peak memory visible to RUSAGE_CHILDREN
        shutdown_workers()
    audit.check(ops)


def _one_pass(backend: str, seed: int, trace: bool, ops: Ops, audit: ShmAudit, tag: str):
    import layers

    rt, setup_s, ok = _setup(backend, trace)
    try:
        ops.check(ok, f"{tag} warm-up task result")
        before = {r.task_id for r in rt.trace().records()} if trace else set()
        spans = Spans()
        out = run_pass(seed, spans, cnn=backend == "threads")
        lo, hi = spans.window()
        wall = hi - lo
        ops.check(abs(spans.total() - wall) <= SPAN_EPS * wall,
                  f"{tag} stage spans {spans.total():.4f}s do not tile wall {wall:.4f}s")
        layer = None
        if trace:
            recs = [r for r in rt.trace().records() if r.task_id not in before]
            a = layers.analyse(recs, min(r.t_start for r in recs), max(r.t_end for r in recs))
            layer = layers.layer_metrics(rt, a)
            ops.check(layer["trace.closure_err"] <= CLOSURE_EPS,
                      f"{tag} self-time closure residual {layer['trace.closure_err']:.2e}")
    finally:
        _teardown(rt, backend, ops, audit)
        gc.collect()  # every pass starts from the same heap
    return {"setup_s": setup_s, "wall_s": wall, "spans": spans, "out": out, "layer": layer,
            "peak_rss_mb": peak_rss_mb()}


def measure(backend: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns metrics, the operation tally and the
    per-pass samples."""
    ref = load_reference(seed)
    ops = Ops()
    audit = ShmAudit()
    capture = StderrCapture(RUN_DIR / "stderr.log")
    passes: list[dict] = []
    try:
        # traced: an untraced then a traced pass, whose difference is
        # the tracing overhead
        for k in range(2 if trace else repeats(seconds, PASS_BUDGET_S)):
            passes.append(_one_pass(backend, seed, trace and k == 1, ops, audit, f"pass{k}"))
        setups = [p["setup_s"] for p in passes]
        while not trace and more_setups(setups):
            rt, s, ok = _setup(backend, False)
            ops.check(ok, "set-up warm-up task result")
            _teardown(rt, backend, ops, audit)
            setups.append(s)
    finally:
        stop_resource_tracker()
        stderr_text = capture.close()

    first = passes[0]["out"]
    for k, p in enumerate(passes):
        check_pass(p["out"], ref, ops, f"pass{k}")
        if ref is None and k > 0:
            ops.check(p["out"] == first, f"pass{k}: outputs differ from pass0")

    metrics: dict[str, float] = {}
    if trace:
        untraced, traced = passes
        metrics.update(traced["layer"])
        sp = traced["spans"]
        metrics.update(
            {
                "ecg.synth_s": sp.seconds("ecg.synth"),
                "ecg.augment_s": sp.seconds("ecg.augment"),
                "ecg.features_s": sp.seconds("ecg.features"),
                "ecg.recordings": float(traced["out"]["recordings"]),
                "ml.decomposition.fit_s": sp.seconds("ml.decomposition.fit"),
                "ml.decomposition.transform_s": sp.seconds("ml.decomposition.transform"),
                "ml.preprocessing.scaler_s": sp.seconds("ml.preprocessing.scaler"),
                "ml.cv.csvm_s": sp.seconds("ml.cv.csvm"),
                "ml.cv.knn_s": sp.seconds("ml.cv.knn"),
                "ml.cv.rf_s": sp.seconds("ml.cv.rf"),
                "nn.cv_s": sp.seconds("nn.cv"),
                "store.leaked_segments": float(len(audit.leaked)),
                "store.tracker_errors": float(tracker_errors(stderr_text)),
                "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
            }
        )
    else:
        metrics.update(
            {
                "wall_s": median([p["wall_s"] for p in passes]),
                "prep_s": median([sum(p["spans"].seconds(s) for s in PREP) for p in passes]),
                "model_s": median([sum(p["spans"].seconds(s) for s in MODEL) for p in passes]),
                "setup_s": median(setups),
                # a fresh process's first pass: later passes of the run
                # reuse (and grow) the heap the first one left behind
                "peak_rss_mb": passes[0]["peak_rss_mb"],
            }
        )
    return {
        "metrics": metrics,
        "ops": ops,
        "reference": ref is not None,
        "passes": [
            {"setup_s": p["setup_s"], "wall_s": p["wall_s"],
             "spans": {n: t1 - t0 for n, t0, t1 in p["spans"].items}}
            for p in passes
        ],
        "outputs": {
            "features_shape": first["features_shape"],
            "n_components": first["n_components"],
            "mean_accuracy": {
                k: float(np.mean(v["fold_accuracies"])) for k, v in first["cv"].items()
            },
        },
        "audit": {
            "leaked_segments": len(audit.leaked),
            "tracker_errors": tracker_errors(stderr_text),
        },
    }


def record_reference(seeds: list[int]) -> None:
    """Run one pass per seed on the threads backend and store its
    outputs as that seed's reference."""
    from repro.runtime import Runtime

    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in seeds:
        with Runtime(config=runtime_config("threads", False)):
            out = run_pass(seed, Spans())
        ops = Ops()
        check_pass(out, None, ops, f"seed {seed}")
        if ops.failures:
            raise SystemExit(f"seed {seed}: outputs fail the sanity checks: {ops.failures}")
        table[str(seed)] = {
            "features_shape": out["features_shape"],
            "n_components": out["n_components"],
            "cv": out["cv"],
        }
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded", flush=True)
