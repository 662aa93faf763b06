"""The harness's own checks: a corrupted output must be reported as a
failed operation, and the self-time attribution must close.

    python3 perfbench/selftest.py

Runs in well under a second; needs no program run.
"""

from __future__ import annotations

import copy
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import af  # noqa: E402
import layers  # noqa: E402
import stream  # noqa: E402
from common import Ops  # noqa: E402


def _af_output(ref: dict) -> dict:
    n = ref["features_shape"][0]
    return {
        "raw_counts": {"N": 103, "AF": 15},
        "counts": {"N": n // 2, "AF": n // 2},
        "recordings": n,
        "features_shape": list(ref["features_shape"]),
        "n_components": ref["n_components"],
        "reduced_shape": [n, ref["n_components"]],
        "scaled_shape": [n, ref["n_components"]],
        "cv": copy.deepcopy(ref["cv"]),
    }


def check_af() -> None:
    ref = af.load_reference(0)
    assert ref is not None, "reference.json has no seed 0"
    ops = Ops()
    af.check_pass(_af_output(ref), ref, ops, "clean")
    assert ops.failed == 0, ops.failures
    clean = ops.attempted

    cases = {
        "accuracy": lambda o: o["cv"]["csvm"]["fold_accuracies"].__setitem__(2, 0.5),
        "confusion": lambda o: o["cv"]["rf"]["confusion_matrices"][0][0].__setitem__(0, 0.0),
        "cnn": lambda o: o["cv"]["cnn"]["mean_confusion"][1].__setitem__(1, 0.0),
        "components": lambda o: o.__setitem__("n_components", ref["n_components"] + 1),
    }
    for name, corrupt in cases.items():
        out = _af_output(ref)
        corrupt(out)
        ops = Ops()
        af.check_pass(out, ref, ops, name)
        assert ops.attempted == clean, (name, ops.attempted, clean)
        assert ops.failed >= 1 and ops.wrong_outputs == ops.failed, (name, ops.failures)


def check_stream() -> None:
    ref = {s: {"segment": s, "pred": s % 2, "prob_af": 0.25 * s} for s in range(4)}

    def phase(**overrides):
        p = {"arrivals": copy.deepcopy(ref), "late_segments": []}
        p.update(overrides)
        return p

    ops = Ops()
    stream.check_phase(phase(), ref, ops, "clean")
    assert (ops.attempted, ops.failed) == (4, 0), ops.failures

    wrong = phase()
    wrong["arrivals"][1]["pred"] = 0
    missing = phase()
    del missing["arrivals"][2]
    for name, p, output in (
        ("wrong", wrong, True),
        ("missing", missing, True),
        ("late", phase(late_segments=[3]), False),
    ):
        ops = Ops()
        stream.check_phase(p, ref, ops, name)
        assert (ops.attempted, ops.failed) == (4, 1), (name, ops.failures)
        assert ops.wrong_outputs == int(output), name


def check_closure() -> None:
    def rec(task_id, worker, t0, t1, parent=None):
        return types.SimpleNamespace(
            task_id=task_id, worker=worker, t_start=t0, t_end=t1,
            parent_id=parent, executed=True,
        )

    # a parent on w1 waits 2-6 for a child on w2, runs another task
    # inline 6-7, then works until 8; w2 also runs an unrelated task
    records = [
        rec(1, "w1", 0.0, 8.0),
        rec(2, "w2", 2.0, 6.0, parent=1),
        rec(3, "w1", 6.0, 7.0),
        rec(4, "w2", 7.0, 9.0),
    ]
    a = layers.analyse(records, 0.0, 10.0)
    assert a["self"] == {1: 3.0, 2: 4.0, 3: 1.0, 4: 2.0}, a["self"]
    assert a["blocked"] == {"w1": 4.0, "w2": 0.0}, a["blocked"]
    assert a["idle"] == {"w1": 2.0, "w2": 4.0}, a["idle"]
    assert layers.closure(a) < 1e-12


def main() -> int:
    check_af()
    check_stream()
    check_closure()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
