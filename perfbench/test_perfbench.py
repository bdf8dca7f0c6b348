"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import REPLAY_K, REPLAY_MAX_STEP, loglog_budget_holds, replay_reaches


@pytest.fixture
def spawner():
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    with run.Spawner() as spawner:
        yield spawner
    shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.mark.parametrize("workload, metric, expected", [
    ("greedy-k160", "intset.sums_built", 2_769_200),
    ("loglog-k10", "construction.budget_evals", 13_611),
])
def test_exact_counters_repeat_between_traced_runs(spawner, workload, metric, expected):
    first, second = (run.session(spawner, run.WORKLOADS[workload], 1, traced=True) for _ in range(2))
    for s in (first, second):
        assert s.failed == 0
        assert set(s.layers) == set(run.LAYER_METRICS)
    assert first.layers[metric] == second.layers[metric] == expected
    for name in ("intset.sumset_calls", "construction.extend_calls", "oracle.checks_failed"):
        assert first.layers[name] == second.layers[name]


def test_replay_reaches_are_seeded_powers_of_ten():
    reaches = replay_reaches(7)
    assert reaches == replay_reaches(7)
    assert reaches != replay_reaches(8)
    assert len(reaches) == REPLAY_K - 1
    assert all(r == "1" + "0" * (len(r) - 1) for r in reaches)
    digits = [len(r) - 1 for r in reaches]
    assert digits[0] == 1
    steps = [b - a for a, b in zip(digits, digits[1:])]
    assert all(1 <= step <= REPLAY_MAX_STEP for step in steps)
    # antithetic pairs: every seed ends at the same size
    assert digits[-1] == 1 + (REPLAY_K - 2) // 2 * (REPLAY_MAX_STEP + 1)


def test_loglog_budget_decision():
    # 2*ln(ln(4)) + 4 = 4.653...
    assert loglog_budget_holds("1", 4) is True
    assert loglog_budget_holds("1", 5) is False
    # ln(ln(10**1000 + 3)) = 7.74..., so f = 19.48...
    assert loglog_budget_holds("1" + "0" * 1000, 19) is True
    assert loglog_budget_holds("1" + "0" * 1000, 20) is False


def test_missing_target_names_are_left_out(tmp_path):
    recorder = tracer.Recorder()
    recorder.install({
        "gone.module": ("urbasis.no_such_module.f",),
        "gone.method": ("urbasis.intset.IntSet.no_such_method",),
    })
    assert recorder.groups == {}
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({
        "tracefile.parse": {"calls": 1, "total_s": 0.5, "self_s": 0.5, "items": 0, "failed": 0},
    }))
    assert run._layer_metrics([str(spans)]) == {"tracefile.parse_s": 0.5}
    session = run.Session(seconds={name: [1.0] for name in run.COMMANDS}, layers={"tracefile.parse_s": 0.5})
    metrics, absent = run.per_layer([session], [session])
    assert metrics["tracefile.parse_s"] == (0.5, "s")
    assert metrics["trace.overhead_s"] == (0.0, "s")
    assert set(absent) == set(run.LAYER_METRICS) - {"tracefile.parse_s"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy-k160",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
