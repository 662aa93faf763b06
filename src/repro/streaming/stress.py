"""Seeded streaming stress scenarios (``repro stress --stream``).

Four scenario families, selected by ``seed % 4`` like the scheduler
stress harness, each run under the shared hang watchdog and checked
against reference values computed in plain Python:

* ``backpressure`` — a fast producer against a tiny-capacity pipeline
  whose consumer stalls and then releases: every element must arrive
  exactly once, in order, with queue depth never exceeding capacity;
* ``retry`` — a mid-stream operator that fails transiently under
  ``on_failure="RETRY"`` (plus an ``IGNORE`` variant): output must
  match the reference with the expected retry/drop counts;
* ``abort`` — a terminal operator failure (``FAIL``) or a workflow
  abort from an ordinary DAG task mid-stream: the graph must unwind
  promptly, with zero leaked queue slots and the runtime's invariants
  intact;
* ``shutdown`` — ``Runtime.shutdown(wait=True)`` mid-flight: the drain
  hook stops the source, in-flight windows flush, and the delivered
  prefix must be consistent with the reference.

Every scenario ends with ``check_invariants(quiesced=True)`` (zero
leaked tasks) and a stream-slot audit (zero leaked queue credits).
"""

from __future__ import annotations

import random
import time

from repro.runtime import task
from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import Runtime, pop_runtime, push_runtime
from repro.runtime.exceptions import RuntimeStateError, WorkflowAbortedError
from repro.runtime.failures import FAIL, IGNORE, RETRY
from repro.runtime.stress import StressReport, run_under_watchdog
from repro.streaming.graph import StreamFailure, StreamGraph
from repro.streaming.operators import TumblingCountWindow

MODES = ("backpressure", "retry", "abort", "shutdown")


@task(returns=1, name="stream_stress_boom", on_failure="FAIL")
def _boom() -> int:
    raise RuntimeError("injected workflow abort")


@task(returns=1, name="stream_stress_add")
def _add(a: int, b: int) -> int:
    return a + b


def _windows_of(values: list[int], w: int) -> list[int]:
    """Reference tumbling-count window sums (partial tail included —
    the EOS flush semantics of :class:`TumblingCountWindow`)."""
    return [sum(values[i : i + w]) for i in range(0, len(values), w)]


def _audit_streams(g: StreamGraph, problems: list[str], drained: bool) -> None:
    leaked = g.slots_leaked()
    if leaked:
        problems.append(f"{leaked} stream queue slot(s) leaked")
    if drained:
        for s in g.streams:
            st = s.stats()
            if st["depth"] != 0:
                problems.append(
                    f"stream {st['name']} still holds {st['depth']} element(s)"
                )
            if st["credits"] != st["capacity"]:
                problems.append(
                    f"stream {st['name']} ended with {st['credits']}/"
                    f"{st['capacity']} credits"
                )


def _pipeline(g: StreamGraph, n: int, w: int, map_fn, sink_fn, **map_opts):
    src = g.source(range(n), name="src")
    mapped = g.map(src, map_fn, name="triple", **map_opts)
    kept = g.filter(mapped, lambda v: v % 5 != 0, name="drop5")
    windows = g.window(kept, TumblingCountWindow(w), fn=sum, name="wsum")
    return g.sink(windows, fn=sink_fn, name="sink", collect=True)


def _scenario_backpressure(seed: int, rng: random.Random, rt: Runtime) -> list[str]:
    problems: list[str] = []
    n = 150 + rng.randrange(150)
    cap = 2 + rng.randrange(5)
    w = 2 + rng.randrange(6)
    stall = 5 + rng.randrange(10)

    g = StreamGraph(rt, name=f"bp{seed}", capacity=cap)
    seen = {"count": 0}

    def slow_then_fast(v: int) -> int:
        # The stall/release: the consumer drags for the first windows
        # (filling every upstream queue to capacity) then sprints.
        seen["count"] += 1
        if seen["count"] <= stall:
            time.sleep(0.002)
        return v

    sink = _pipeline(g, n, w, lambda v: 3 * v + 1, slow_then_fast)
    g.start()
    stats = g.join()

    filtered = [3 * v + 1 for v in range(n) if (3 * v + 1) % 5 != 0]
    expected = _windows_of(filtered, w)
    if sink.collected != expected:
        problems.append(
            f"backpressure: got {len(sink.collected)} window(s), "
            f"expected {len(expected)} (or values differ)"
        )
    for s in g.streams:
        st = s.stats()
        if st["high_water"] > st["capacity"]:
            problems.append(
                f"stream {st['name']} exceeded capacity: "
                f"high water {st['high_water']} > {st['capacity']}"
            )
    if stats["src"].n_out != n:
        problems.append(f"source emitted {stats['src'].n_out}, expected {n}")
    _audit_streams(g, problems, drained=True)
    return problems


def _scenario_retry(seed: int, rng: random.Random, rt: Runtime) -> list[str]:
    problems: list[str] = []
    n = 120 + rng.randrange(120)
    w = 2 + rng.randrange(5)
    fail_values = set(rng.sample(range(n), 8))
    ignore_mode = rng.random() < 0.4
    attempts: dict[int, int] = {}

    def flaky(v: int) -> int:
        # Fails the first attempt on the chosen elements; RETRY must
        # re-apply the operator, IGNORE must drop the element.
        if v in fail_values and attempts.get(v, 0) < 1:
            attempts[v] = attempts.get(v, 0) + 1
            raise ValueError(f"transient failure on {v}")
        return 3 * v + 1

    g = StreamGraph(rt, name=f"rt{seed}", capacity=8)
    policy = {"on_failure": IGNORE if ignore_mode else RETRY, "max_retries": 2}
    sink = _pipeline(g, n, w, flaky, None, **policy)
    g.start()
    stats = g.join()

    survivors = (
        [v for v in range(n) if v not in fail_values] if ignore_mode else range(n)
    )
    filtered = [3 * v + 1 for v in survivors if (3 * v + 1) % 5 != 0]
    expected = _windows_of(filtered, w)
    if sink.collected != expected:
        problems.append("retry: window sums differ from the reference")
    triple = stats["triple"]
    if ignore_mode:
        if triple.dropped != len(fail_values):
            problems.append(
                f"IGNORE dropped {triple.dropped}, expected {len(fail_values)}"
            )
    elif triple.retries != len(fail_values):
        problems.append(
            f"RETRY retried {triple.retries}, expected {len(fail_values)}"
        )
    _audit_streams(g, problems, drained=True)
    return problems


def _scenario_abort(seed: int, rng: random.Random, rt: Runtime) -> list[str]:
    problems: list[str] = []
    n = 2000
    runtime_abort = rng.random() < 0.5
    kill_at = 50 + rng.randrange(200)

    def paced(v: int) -> int:
        if v == kill_at and not runtime_abort:
            raise RuntimeError(f"injected operator failure at {v}")
        time.sleep(0.0005)
        return 3 * v + 1

    g = StreamGraph(rt, name=f"ab{seed}", capacity=8)
    sink = _pipeline(g, n, 4, paced, None, on_failure=FAIL)
    g.start()
    if runtime_abort:
        # Abort arrives from the task side: an ordinary DAG task with
        # on_failure="FAIL" kills the workflow; the stream stages must
        # observe it through the interrupt registry and unwind.
        time.sleep(0.05)
        _boom()
        try:
            rt.barrier()
        except WorkflowAbortedError:
            pass
    stats = g.join(timeout=60.0, raise_on_error=False)
    if g.error is None:
        problems.append("abort: graph finished cleanly, expected a failure")
    elif runtime_abort:
        cause = getattr(g.error, "__cause__", None) or g.error
        if not isinstance(cause, WorkflowAbortedError):
            problems.append(f"abort: unexpected error {g.error!r}")
    if sink.collected and len(sink.collected) >= len(
        _windows_of([3 * v + 1 for v in range(n) if (3 * v + 1) % 5 != 0], 4)
    ):
        problems.append("abort: sink received the full feed despite the abort")
    del stats
    _audit_streams(g, problems, drained=True)
    return problems


def _scenario_shutdown(seed: int, rng: random.Random, rt: Runtime) -> list[str]:
    problems: list[str] = []
    n = 5000
    w = 3 + rng.randrange(4)

    def paced(v: int) -> int:
        time.sleep(0.0005)
        return 3 * v + 1

    g = StreamGraph(rt, name=f"sd{seed}", capacity=8)
    sink = _pipeline(g, n, w, paced, None)
    g.start()
    time.sleep(0.05 + rng.random() * 0.1)
    rt.shutdown(wait=True)  # the drain hook stops the source and flushes
    g.join(timeout=60.0, raise_on_error=False)
    if g.error is not None and not isinstance(
        g.error if not isinstance(g.error, StreamFailure) else g.error.__cause__,
        RuntimeStateError,
    ):
        problems.append(f"shutdown: unexpected error {g.error!r}")

    # Prefix consistency: the delivered windows must be exactly the
    # reference windows over some prefix of the filtered feed.
    got = list(sink.collected)
    src_emitted = g.stages[0].stats.n_out
    filtered = [
        3 * v + 1 for v in range(src_emitted) if (3 * v + 1) % 5 != 0
    ]
    expected = _windows_of(filtered, w)
    if g.error is None and got != expected:
        problems.append(
            f"shutdown: drained {len(got)} window(s) inconsistent with the "
            f"{src_emitted}-element prefix ({len(expected)} expected)"
        )
    if src_emitted >= n:
        problems.append("shutdown: source ran to completion — drain never hit")
    _audit_streams(g, problems, drained=g.error is None)
    return problems


_SCENARIOS = {
    "backpressure": _scenario_backpressure,
    "retry": _scenario_retry,
    "abort": _scenario_abort,
    "shutdown": _scenario_shutdown,
}


def run_stream_scenario(
    seed: int,
    workers: int = 2,
    timeout: float = 60.0,
    metrics: bool = False,
) -> StressReport:
    """One seeded scenario under the watchdog, with a full leak audit."""
    t0 = time.perf_counter()
    mode = MODES[seed % len(MODES)]
    rng = random.Random(seed)

    def body() -> tuple[list[str], int]:
        cfg = RuntimeConfig(
            executor="threads",
            max_workers=workers,
            debug_invariants=True,
            observability="metrics" if metrics else "",
            name=f"stream-stress-{seed}",
        )
        rt = Runtime(config=cfg)
        push_runtime(rt)
        problems: list[str] = []
        try:
            problems = _SCENARIOS[mode](seed, rng, rt)
        finally:
            try:
                rt.shutdown()
            except Exception as exc:  # noqa: BLE001 - audit below
                problems.append(f"shutdown raised {exc!r}")
            pop_runtime(rt)
        problems.extend(rt.check_invariants(quiesced=True))
        if mode != "abort":
            # A clean run must leave the runtime usable accounting:
            # abort scenarios legitimately end aborted.
            if rt.aborted is not None:
                problems.append("runtime unexpectedly aborted")
        return problems, rt.n_tasks

    outcome = run_under_watchdog(body, timeout, f"stream seed {seed} ({mode})")
    problems = list(outcome.get("problems", []))
    n_tasks = 0
    if outcome.get("ok"):
        scenario_problems, n_tasks = outcome["value"]
        problems.extend(scenario_problems)
    return StressReport(
        seed=seed,
        mode=mode,
        ok=not problems,
        n_tasks=n_tasks,
        duration=time.perf_counter() - t0,
        problems=problems,
    )


def run_suite(
    seeds,
    workers: int = 2,
    timeout: float = 60.0,
    metrics: bool = False,
    verbose: bool = True,
) -> list[StressReport]:
    reports = []
    for seed in seeds:
        report = run_stream_scenario(
            seed, workers=workers, timeout=timeout, metrics=metrics
        )
        reports.append(report)
        if verbose:
            print(report.line(), flush=True)
    return reports


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="streaming stress harness")
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--seed", type=int, action="append", default=None)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--metrics", action="store_true")
    args = parser.parse_args(argv)
    seeds = args.seed if args.seed else range(args.seeds)
    reports = run_suite(
        seeds,
        workers=args.workers,
        timeout=args.timeout,
        metrics=args.metrics,
    )
    failed = [r for r in reports if not r.ok]
    print(f"stream stress: {len(reports) - len(failed)}/{len(reports)} seeds passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
