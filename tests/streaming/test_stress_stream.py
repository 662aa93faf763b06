"""The streaming stress harness's own regression tests: every scenario
family must pass for a fixed seed block, with zero leaked slots."""

from __future__ import annotations

import pytest

from repro.streaming import stress


@pytest.mark.parametrize("seed", range(4))
def test_each_scenario_family_passes(seed):
    report = stress.run_stream_scenario(seed, workers=2, timeout=60.0)
    assert report.mode == stress.MODES[seed % 4]
    assert report.ok, report.problems


def test_runtime_abort_variant_is_exercised():
    # seeds 14/18 take the workflow-abort branch of the abort family
    # (they submit the failing DAG task); keep them pinned so the
    # interrupt-driven unwind path never silently loses coverage.
    report = stress.run_stream_scenario(14, workers=2, timeout=60.0)
    assert report.mode == "abort"
    assert report.ok, report.problems
    assert report.n_tasks >= 1  # the _boom task really ran


def test_reference_windows_helper():
    assert stress._windows_of([1, 2, 3, 4, 5], 2) == [3, 7, 5]
    assert stress._windows_of([], 3) == []


def test_cli_entry(capsys):
    rc = stress.main(["--seeds", "2", "--workers", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 seeds passed" in out
