"""Online AF serving: shapes, determinism, and the streamed-vs-batch
bit-identity differential (threads and sequential executors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Runtime
from repro.runtime.config import RuntimeConfig
from repro.streaming import (
    ServeConfig,
    iter_feed,
    make_model,
    serve_batch,
    serve_stream,
)

CFG = ServeConfig(
    n_segments=6, patients=2, chunks_per_segment=4, chunk_seconds=0.5, batch_size=2
)


@pytest.fixture(scope="module")
def model():
    return make_model(CFG)


def runtime(**kw):
    kw.setdefault("executor", "threads")
    kw.setdefault("max_workers", 2)
    kw.setdefault("debug_invariants", True)
    return Runtime(config=RuntimeConfig(**kw))


def test_feed_is_deterministic_and_interleaved():
    feed1 = list(iter_feed(CFG))
    feed2 = list(iter_feed(CFG))
    assert len(feed1) == CFG.n_segments * CFG.chunks_per_segment
    for a, b in zip(feed1, feed2):
        assert a[:3] == b[:3] and a[4] == b[4]
        np.testing.assert_array_equal(a[3], b[3])
    # round-robin across patients: consecutive chunks alternate patient
    patients = [v[0] for v in feed1[: 2 * CFG.patients]]
    assert patients == [0, 1, 0, 1]
    # every chunk has the configured length
    assert all(len(v[3]) == CFG.chunk_len for v in feed1)


def test_serve_stream_produces_one_prediction_per_segment(model):
    with runtime() as rt:
        res = serve_stream(CFG, rt, model)
    assert len(res.predictions) == CFG.n_segments
    assert res.probs.shape == (CFG.n_segments, 2)
    np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-9)
    segs = sorted(p["segment"] for p in res.predictions)
    assert segs == list(range(CFG.n_segments))
    for p in res.predictions:
        assert p["pred"] in (0, 1)
        assert 0.0 <= p["prob_af"] <= 1.0
        assert p["n_peaks"] >= 0
    # per-stage stats cover the whole topology
    assert set(res.stage_stats) == {
        "ecg",
        "key_by_patient",
        "segment",
        "features",
        "microbatch",
        "infer",
        "predictions",
    }
    assert res.stage_stats["ecg"]["n_out"] == len(list(iter_feed(CFG)))


@pytest.mark.parametrize("backend", ["threads", "sequential"])
def test_differential_stream_vs_batch_bit_identical(model, backend):
    """The differential gate: the same bounded feed through the
    streaming pipeline and through the equivalent batch DAG must give
    byte-for-byte identical predictions."""
    with runtime(executor=backend) as rt:
        streamed = serve_stream(CFG, rt, model)
    with runtime(executor=backend) as rt:
        batch = serve_batch(CFG, rt, model)
    assert streamed.predictions == batch.predictions
    assert np.array_equal(streamed.probs, batch.probs)


def test_differential_across_backends(model):
    with runtime(executor="threads") as rt:
        a = serve_stream(CFG, rt, model)
    with runtime(executor="sequential") as rt:
        b = serve_stream(CFG, rt, model)
    assert a.predictions == b.predictions


def test_rate_limited_serving_still_exact(model):
    cfg = ServeConfig(
        n_segments=2,
        patients=1,
        chunks_per_segment=4,
        chunk_seconds=0.5,
        batch_size=2,
        rate=400.0,
    )
    with runtime() as rt:
        paced = serve_stream(cfg, rt, model=None)
        full = serve_batch(cfg, rt, model=None)
    assert paced.predictions == full.predictions
    assert paced.elapsed_s >= 8 / 400.0 * 0.5  # pacing actually happened


def test_serving_metrics_flow_into_registry(model):
    with runtime(observability="metrics") as rt:
        res = serve_stream(CFG, rt, model)
        registry = rt.metrics_registry
        assert registry is not None
        snap = registry.snapshot()
    names = {c["name"] for c in snap["counters"]}
    assert "repro_stream_records_total" in names
    hists = {h["name"] for h in snap["histograms"]}
    assert "repro_stream_stage_seconds" in hists
    assert "repro_stream_e2e_seconds" in hists
    gauges = {g["name"] for g in snap["gauges"]}
    assert "repro_stream_queue_depth" in gauges
    assert "repro_stream_stage_rps" in gauges
    # and the text exposition renders them
    from repro.runtime.observability import to_prometheus

    text = to_prometheus(snap)
    assert "repro_stream_queue_depth" in text
    assert res.metrics is not None and "stages" in res.metrics
