"""Benchmark entry point.

    python3 perfbench/run.py --workload af_threads --seed 0 --seconds 30 --trace 0

runs one workload of ``BENCHMARK.json`` on the program under ``src/``
of the checkout this directory sits in.  It prints every metric by
name with its unit, the environment record and any failed operation,
writes the full record under ``.bench_build/perfbench/results/``, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).

``--record-reference SEED [SEED ...]`` instead runs the AF workflow
once per seed on the threads backend and stores its outputs in
``reference.json`` for the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, RUN_DIR, environment, runtime_config  # noqa: E402

WORKLOADS = ("af_threads", "af_processes", "stream_serve")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and refuse to run
    against any other copy of the program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not from {src}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _preload() -> None:
    """Import what the workloads import lazily, so no pass pays it."""
    import scipy.signal  # noqa: F401

    import repro.ml  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.streaming  # noqa: F401
    import repro.workflows  # noqa: F401


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "stream_serve":
        import stream

        result = stream.measure(seed, seconds, trace)
        backend = "threads"
    else:
        import af

        backend = "processes" if workload == "af_processes" else "threads"
        result = af.measure(backend, seed, seconds, trace)
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    # layers a workload does not exercise read 0 (e.g. store.* on threads)
    out = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    ops = result["ops"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(runtime_config(backend, trace)),
        "reference_recorded": result["reference"],
        "passes": result["passes"],
        "outputs": result.get("outputs"),
        "audit": result["audit"],
        "metrics": out,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "correct": ops.wrong_outputs == 0,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", type=int, nargs="+", metavar="SEED")
    args = p.parse_args(argv)

    _import_program()
    (RUN_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(RUN_DIR / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir

    if args.record_reference:
        import af

        af.record_reference(args.record_reference)
        return 0
    if args.workload is None:
        p.error("--workload is required")

    _preload()
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(rec, indent=1, default=str))

    print(f"workload {rec['workload']} seed {rec['seed']} trace {int(rec['trace'])} "
          f"passes {len(rec['passes'])} reference "
          f"{'recorded' if rec['reference_recorded'] else 'missing'}")
    print("environment " + json.dumps(rec["environment"], default=str))
    if rec["outputs"]:
        print("outputs " + json.dumps(rec["outputs"]))
    print("audit " + json.dumps(rec["audit"]))
    for k, ps in enumerate(rec["passes"]):
        print(f"pass {k} " + json.dumps(ps, default=str))
    for name, m in rec["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for f in rec["failures"]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": len(rec["failures"]),
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
