"""Direct unit tests for :mod:`repro.runtime.tracing`."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime.tracing import TaskRecord, Trace, estimate_nbytes


def _rec(task_id, t_start, t_end, name="t", deps=(), **kw):
    return TaskRecord(
        task_id=task_id, name=name, deps=tuple(deps), t_start=t_start, t_end=t_end, **kw
    )


# ----------------------------------------------------------------------
# estimate_nbytes
# ----------------------------------------------------------------------
def test_estimate_nbytes_ndarray_and_scalar():
    arr = np.zeros((10, 10), dtype=np.float64)
    assert estimate_nbytes(arr) == 800
    assert estimate_nbytes(np.float64(1.5)) == 8
    assert estimate_nbytes(np.int32(7)) == 4


def test_estimate_nbytes_memoryview_and_bytes():
    assert estimate_nbytes(b"abcd") == 4
    assert estimate_nbytes(bytearray(16)) == 16
    assert estimate_nbytes(memoryview(bytes(32))) == 32


def test_estimate_nbytes_nested_containers():
    block = np.zeros(100, dtype=np.float64)  # 800 B
    # list-of-lists of blocks — the ds-array layout — must sum the
    # arrays, not bottom out at the 64-byte fallback.
    grid = [[block, block], [block, block]]
    assert estimate_nbytes(grid) == 4 * 800
    assert estimate_nbytes({"a": [block], "b": (block,)}) == 2 * 800
    assert estimate_nbytes({np.int64(1), np.int64(2)}) == 16
    assert estimate_nbytes([[[np.float32(0.5)]]]) == 4


def test_estimate_nbytes_fallback_constant():
    class Opaque:
        pass

    assert estimate_nbytes(Opaque()) == 64
    assert estimate_nbytes("some string") == 64
    assert estimate_nbytes([1, 2]) == 128  # two opaque ints


# ----------------------------------------------------------------------
# TaskRecord span properties
# ----------------------------------------------------------------------
def test_queue_wait_and_overhead():
    rec = _rec(0, t_start=1.0, t_end=2.0, t_submit=0.1, t_ready=0.2, t_dispatch=0.7)
    # submit -> body start is 0.9s: dependency wait, queue wait, and
    # the dispatch -> body-start overhead, each counted once
    assert rec.dep_wait == pytest.approx(0.1)
    assert rec.queue_wait == pytest.approx(0.5)
    assert rec.overhead == pytest.approx(0.3)
    assert rec.duration == pytest.approx(1.0)


def test_span_properties_default_to_zero_without_timestamps():
    rec = _rec(0, t_start=1.0, t_end=2.0)
    assert rec.dep_wait == 0.0
    assert rec.queue_wait == 0.0
    assert rec.overhead == 0.0


def test_span_properties_clamp_negative():
    # A pre-observability trace could carry clock skew; never negative.
    rec = _rec(0, t_start=0.5, t_end=2.0, t_submit=0.9, t_ready=0.85, t_dispatch=0.6)
    assert rec.dep_wait == 0.0
    assert rec.queue_wait == 0.0
    assert rec.overhead == 0.0


# ----------------------------------------------------------------------
# attempts_of / records / counts
# ----------------------------------------------------------------------
def _retry_trace():
    return Trace(
        [
            _rec(0, 0.0, 1.0, name="flaky", status="failed", error="boom"),
            _rec(1, 1.0, 2.0, name="flaky", deps=(0,), attempt=1, retry_of=0,
                 status="failed", error="boom"),
            _rec(2, 2.0, 3.0, name="flaky", deps=(1,), attempt=2, retry_of=1),
            _rec(3, 0.0, 0.5, name="other"),
            _rec(4, 0.0, 0.0, name="cached", status="restored"),
        ]
    )


def test_attempts_of_follows_retry_chain():
    tr = _retry_trace()
    chain = tr.attempts_of(0)
    assert [r.task_id for r in chain] == [0, 1, 2]
    assert [r.attempt for r in chain] == [0, 1, 2]
    assert [r.status for r in chain] == ["failed", "failed", "done"]
    # a task with no retries is a one-element chain
    assert [r.task_id for r in tr.attempts_of(3)] == [3]
    # unknown root: empty chain
    assert tr.attempts_of(99) == []


def test_records_filters_by_name_and_status():
    tr = _retry_trace()
    assert len(tr.records(name="flaky")) == 3
    assert len(tr.records(name="flaky", status="failed")) == 2
    assert [r.task_id for r in tr.records(status="done")] == [2, 3]
    assert tr.records(name="missing") == []


def test_counts_and_aggregates():
    tr = _retry_trace()
    assert tr.n_failed_attempts == 2
    assert tr.n_restored == 1
    assert tr.n_executed == 4
    assert tr.total_task_time == pytest.approx(3.5)
    assert tr.makespan == pytest.approx(3.0)
    assert tr.mean_duration("flaky") == pytest.approx(1.0)
    with pytest.raises(KeyError):
        tr.mean_duration("missing")


# ----------------------------------------------------------------------
# scaled
# ----------------------------------------------------------------------
def test_scaled_multiplies_makespan_exactly():
    tr = Trace([_rec(0, 2.0, 3.0), _rec(1, 3.5, 5.0, deps=(0,))])
    for factor in (0.5, 2.0, 10.0):
        scaled = tr.scaled(factor)
        assert scaled.makespan == pytest.approx(tr.makespan * factor)
        assert scaled.total_task_time == pytest.approx(tr.total_task_time * factor)


def test_scaled_reanchors_to_trace_start():
    # An epoch-like absolute start must not explode: timestamps are
    # re-anchored to the trace's own t0.
    t0 = 1_700_000_000.0
    tr = Trace([_rec(0, t0, t0 + 1.0), _rec(1, t0 + 2.0, t0 + 3.0)])
    scaled = tr.scaled(10.0)
    assert min(r.t_start for r in scaled) == pytest.approx(t0)
    assert scaled.makespan == pytest.approx(30.0)
    assert scaled[1].t_start == pytest.approx(t0 + 20.0)


def test_scaled_remaps_span_timestamps():
    tr = Trace([_rec(0, 1.0, 2.0, t_submit=0.0, t_ready=0.25, t_dispatch=0.5)])
    scaled = tr.scaled(2.0)
    rec = scaled[0]
    # t0 is t_start=1.0; earlier span stamps scale around the same anchor
    assert rec.t_submit == pytest.approx(-1.0)
    assert rec.t_ready == pytest.approx(-0.5)
    assert rec.t_dispatch == pytest.approx(0.0)
    assert rec.queue_wait == pytest.approx(0.5)
    # a record without span stamps survives scaling untouched
    bare = Trace([_rec(0, 0.0, 1.0)]).scaled(3.0)[0]
    assert bare.t_submit is None


def test_scaled_empty_trace():
    assert len(Trace().scaled(4.0)) == 0


# ----------------------------------------------------------------------
# (de)serialisation
# ----------------------------------------------------------------------
def test_json_roundtrip_preserves_spans():
    tr = Trace(
        [
            _rec(0, 1.0, 2.0, t_submit=0.1, t_ready=0.2, t_dispatch=0.9,
                 worker="w-0", pid=123),
        ]
    )
    back = Trace.from_json(tr.to_json())
    rec = back[0]
    assert rec.t_submit == 0.1 and rec.t_dispatch == 0.9
    assert rec.worker == "w-0" and rec.pid == 123
    assert rec.deps == ()


def test_from_json_tolerates_unknown_keys():
    payload = [
        {
            "task_id": 0,
            "name": "t",
            "deps": [],
            "t_start": 0.0,
            "t_end": 1.0,
            "some_future_field": {"nested": True},
            "another_new_key": 42,
        }
    ]
    tr = Trace.from_json(json.dumps(payload))
    assert len(tr) == 1
    assert tr[0].duration == 1.0


def test_save_and_load(tmp_path):
    tr = _retry_trace()
    path = tmp_path / "trace.json"
    tr.save(path)
    back = Trace.load(path)
    assert len(back) == len(tr)
    assert back.n_failed_attempts == tr.n_failed_attempts
    assert [r.task_id for r in back] == [r.task_id for r in tr]
