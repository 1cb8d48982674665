"""Bench harness behaviour: routing, scaling, shared-mem stripping."""

import math

import pytest

from repro.bench.harness import (
    RUNTIMES,
    copy_fraction,
    default_num_tasks,
    geometric_mean,
    make_tasks,
    run_benchmark,
    run_tasks,
    speedups_vs,
    strip_shared_mem,
)
from repro.tasks import RunStats, TaskResult


def test_runtime_registry_is_complete():
    assert set(RUNTIMES) == {
        "pagoda", "pagoda-batching", "hyperq", "gemtc", "fusion",
        "pthreads", "sequential",
    }


def test_unknown_runtime_raises():
    tasks = make_tasks("mb", 2)
    with pytest.raises(KeyError):
        run_tasks(tasks, "nope")


def test_default_num_tasks_scaled(monkeypatch):
    monkeypatch.delenv("PAGODA_FULL", raising=False)
    assert default_num_tasks("mb") == 768
    monkeypatch.setenv("PAGODA_FULL", "1")
    assert default_num_tasks("mb") == 32 * 1024
    assert default_num_tasks("slud") == 273 * 1024


def test_make_tasks_honours_threads():
    tasks = make_tasks("fb", 4, threads=64)
    assert all(t.threads_per_block == 64 for t in tasks)


def test_strip_shared_mem():
    tasks = make_tasks("mm", 3)
    assert all(t.shared_mem_bytes for t in tasks)
    stripped = strip_shared_mem(tasks)
    assert all(t.shared_mem_bytes == 0 for t in stripped)
    # originals untouched
    assert all(t.shared_mem_bytes for t in tasks)


def test_gemtc_gets_shared_mem_stripped_automatically():
    tasks = make_tasks("mm", 8)
    stats = run_tasks(tasks, "gemtc")  # would raise if not stripped
    assert stats.runtime == "gemtc"


def test_run_benchmark_end_to_end():
    stats = run_benchmark("mb", "pagoda", num_tasks=16, threads=64)
    assert stats.makespan > 0
    assert len(stats.results) == 16


def test_speedups_vs_baseline():
    stats = {
        "a": RunStats(runtime="a", makespan=100.0),
        "b": RunStats(runtime="b", makespan=50.0),
    }
    speeds = speedups_vs(stats, "a")
    assert speeds == {"a": 1.0, "b": 2.0}


def test_copy_fraction_bounds():
    stats = run_benchmark("dct", "hyperq", num_tasks=32, threads=64)
    frac = copy_fraction(stats)
    assert 0.0 < frac < 1.0


def test_copy_fraction_small_without_payload_copies():
    """With payload copies off, only TaskTable copy-back traffic
    remains on the bus."""
    with_copies = run_benchmark("mb", "pagoda", num_tasks=8)
    without = run_benchmark("mb", "pagoda", num_tasks=8, copies=False)
    assert without.copy_time < with_copies.copy_time


def test_geometric_mean_basic():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([5.0]) == pytest.approx(5.0)


def test_geometric_mean_matches_paper_style():
    speedups = [1.2, 1.5, 2.0, 0.9]
    expected = math.exp(sum(math.log(s) for s in speedups) / 4)
    assert geometric_mean(speedups) == pytest.approx(expected)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
