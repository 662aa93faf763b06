"""Shared pieces of the benchmark harness: stage spans, statistics,
runtime set-up, memory, the shared-memory audit and the environment
record.

Everything here times calls into the program from outside; nothing
patches or reaches into the program under test beyond its public
surface.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for logs, spill files and per-run result records; the
#: root ``.gitignore`` names it, so it never enters a checkout.
RUN_DIR = ROOT / ".bench_build" / "perfbench"


class Spans:
    """Ordered, non-overlapping stage spans of one workflow pass,
    recorded by the harness around each call into a layer."""

    def __init__(self) -> None:
        self.items: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.items.append((name, t0, time.perf_counter()))

    def seconds(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1 in self.items if n == name)

    def total(self) -> float:
        return sum(t1 - t0 for _, t0, t1 in self.items)

    def window(self) -> tuple[float, float]:
        return self.items[0][1], self.items[-1][2]


class Ops:
    """Operations attempted and failed, with a reason per failure.
    ``output=False`` marks a failure that leaves the program's outputs
    right (a leaked segment, a late prediction)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_outputs = 0

    def check(self, ok: bool, what: str, output: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            self.wrong_outputs += output
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def repeats(seconds: float, budget_s: float) -> int:
    """Samples a run takes: ``--seconds`` over the nominal seconds one
    sample is budgeted, at least one.  A fixed count per setting, so no
    run's median rests on how many samples happened to fit."""
    return max(1, round(seconds / budget_s))


def more_setups(samples: list[float]) -> bool:
    """Whether to time another set-up: at least 5 samples and 1 s of
    set-up in total, so a millisecond set-up gets a median over
    hundreds of samples and a sub-second one over 5 (at most 200)."""
    return len(samples) < 5 or (sum(samples) < 1.0 and len(samples) < 200)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])


def runtime_config(backend: str, trace: bool):
    """The explicit ``RuntimeConfig`` of a workload: one pool thread per
    CPU, tracing only in the traced run, spill files inside the
    checkout.  Never read from the environment."""
    from repro.runtime import RuntimeConfig

    return RuntimeConfig(
        executor="threads",
        backend=backend,
        max_workers=os.cpu_count() or 1,
        collect_trace=trace,
        store="auto",
        store_spill_dir=str(RUN_DIR / "spill"),
    )


def warm_up(rt) -> bool:
    """One package-defined task through the runtime (on the process
    backend this spawns the first worker).  Returns whether its result
    is right."""
    import numpy as np

    import repro.dsarray as ds

    data = np.arange(16.0).reshape(4, 4)
    total = ds.array(data, (4, 4)).sum(axis=0)
    return bool(np.array_equal(np.asarray(total).ravel(), data.sum(axis=0)))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    reaped child (a worker process), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class ShmAudit:
    """Shared-memory segments the stores of this process left in
    ``/dev/shm`` (store prefixes start with ``rs<pid hex>g``).  Each new
    one is a failed operation."""

    def __init__(self) -> None:
        self.leaked: set[str] = set()

    def check(self, ops: Ops) -> None:
        root = Path("/dev/shm")
        if not root.is_dir():
            return
        prefix = f"rs{os.getpid():x}g"
        for name in sorted(p.name for p in root.iterdir() if p.name.startswith(prefix)):
            if name not in self.leaked:
                self.leaked.add(name)
                ops.check(False, f"shared-memory segment {name} left behind", output=False)


class StderrCapture:
    """Route file descriptor 2 (and so the stderr of every child
    process started meanwhile, the resource tracker included) into a
    log file, so tracker tracebacks can be counted; the log is replayed
    to the real stderr on close."""

    def __init__(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        sys.stderr.flush()
        self._saved = os.dup(2)
        self._log = open(path, "w+b")
        os.dup2(self._log.fileno(), 2)

    def close(self) -> str:
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        self._log.seek(0)
        text = self._log.read().decode("utf-8", "replace")
        self._log.close()
        sys.stderr.write(text)
        sys.stderr.flush()
        return text


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker this process started
    and wait for it to exit, so every message it will print is in the
    captured stderr before the count."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def tracker_errors(stderr_text: str) -> int:
    """``KeyError`` tracebacks raised inside the resource tracker."""
    return len(
        re.findall(r"resource_tracker\.py\", line \d+, in main\n.*\nKeyError", stderr_text)
    )


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API
    (read only; the harness never pins it)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program source, identifying the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(rt_config) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 - older NumPy without mode="dicts"
        blas_name = "unknown"
    env_vars = {
        k: v
        for k, v in sorted(os.environ.items())
        if k.startswith("REPRO_") or k.endswith("_NUM_THREADS")
    }
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "runtime_config": dataclasses.asdict(rt_config),
        "env": env_vars,
    }
