"""The one host driver behind run_pagoda, run_multi_gpu_pagoda and
run_partitioned: every runner retries launch failures, and no runner
silently ignores a spacing or batching knob."""

import pytest

from repro.core import PagodaConfig, run_multi_gpu_pagoda, run_pagoda
from repro.faults import FaultPlan, FaultSpec
from repro.partition import PartitionPlan, run_partitioned
from repro.tasks import TaskSpec

from tests.chaos.harness import const_kernel
from tests.test_determinism import fingerprint


def _tasks(n=24, inst=20_000):
    return [TaskSpec(f"t{i}", 128, 1, const_kernel(inst))
            for i in range(n)]


def _launch_fail_plan():
    return FaultPlan(specs=[FaultSpec(kind="cuda.launch_fail")])


def _run_partitioned(tasks, config=None, fault_plan=None):
    plan = PartitionPlan.from_mode("DPX", names=["a", "b"])
    plan.by_name("a").fault_plan = fault_plan
    return run_partitioned({"a": tasks}, plan, config=config)["a"]


@pytest.mark.parametrize("runner", ["pagoda", "multi-gpu", "partitioned"])
def test_one_launch_failure_is_retried(runner):
    """An injected cudaErrorLaunchFailure is re-issued after a backoff;
    every task still completes."""
    tasks = _tasks()
    if runner == "partitioned":
        report = _run_partitioned(tasks, fault_plan=_launch_fail_plan())
        assert report.executed == len(tasks)
        assert report.failed == 0
        assert len(report.latencies_ns) == len(tasks)
        return
    config = PagodaConfig(fault_plan=_launch_fail_plan())
    if runner == "pagoda":
        stats = run_pagoda(tasks, config=config)
    else:
        stats = run_multi_gpu_pagoda(tasks, num_gpus=2, config=config)
    # a count-1 fault fires once per run, however many GPUs the node has
    assert stats.meta["faults_injected"] == 1
    assert stats.meta["tasks_failed"] == 0
    assert all(r.end_time > 0 for r in stats.results)


@pytest.mark.parametrize("runner,field", [
    ("multi-gpu", "open_loop"),
    ("multi-gpu", "batch_size"),
    ("partitioned", "spawn_gap_ns"),
    ("partitioned", "open_loop"),
    ("partitioned", "batch_size"),
])
def test_no_knob_is_silently_ignored(runner, field):
    """Each spacing/batching knob is honoured or rejected by name."""
    value = {"open_loop": True, "batch_size": 4,
             "spawn_gap_ns": 2_000.0}[field]
    tasks = _tasks()
    if runner == "multi-gpu":
        # honoured: one GPU replays run_pagoda's schedule for the knob,
        # and the knob changes that schedule
        gap = PagodaConfig(spawn_gap_ns=2_000.0)
        config = PagodaConfig(spawn_gap_ns=2_000.0, **{field: value})
        single = run_multi_gpu_pagoda(tasks, num_gpus=1, config=config)
        assert fingerprint(single) == fingerprint(
            run_pagoda(tasks, config=config))
        assert fingerprint(single) != fingerprint(
            run_multi_gpu_pagoda(tasks, num_gpus=1, config=gap))
    elif field == "batch_size":
        # honoured: waiting for each batch to drain stretches the run
        batched = _run_partitioned(tasks, PagodaConfig(batch_size=value))
        assert batched.executed == len(tasks)
        assert batched.makespan_ns > _run_partitioned(tasks).makespan_ns
    else:
        # rejected: partitions are spaced by run_partitioned(gaps=...)
        with pytest.raises(ValueError, match=field):
            _run_partitioned(tasks, PagodaConfig(**{field: value}))


@pytest.mark.parametrize("runner", ["pagoda", "multi-gpu", "partitioned"])
def test_failed_task_in_a_batch_does_not_abort(runner):
    """Pagoda-Batching waits for each batch to drain; a task that
    raises inside a batch is counted as failed and the run goes on."""
    tasks = _tasks(16)
    plan = FaultPlan(specs=[FaultSpec(kind="task.raise")])
    if runner == "partitioned":
        report = _run_partitioned(tasks, PagodaConfig(batch_size=4),
                                  fault_plan=plan)
        assert report.failed == 1
        assert report.executed == len(tasks) - 1
        return
    config = PagodaConfig(batch_size=4, fault_plan=plan)
    if runner == "pagoda":
        stats = run_pagoda(tasks, config=config)
        assert stats.meta["tasks_failed"] == 1
    else:
        stats = run_multi_gpu_pagoda(tasks, num_gpus=2, config=config)
        # the node's GPUs share one injector: the fault fires once
        assert stats.meta["tasks_failed"] == 1
    assert all(r.end_time > 0 for r in stats.results)


def test_multi_gpu_node_shares_one_fault_injector():
    """Every GPU stack of a node draws from the node's one injector,
    and a multi-GPU server counts that injector once."""
    from repro.core import MultiGpuPagoda
    from repro.serve import ServeConfig, TaskServer, TenantSpec
    from repro.serve.arrivals import PoissonArrivals

    config = PagodaConfig(fault_plan=_launch_fail_plan())
    node = MultiGpuPagoda(num_gpus=2, config=config)
    assert all(s.faults is node.faults for s in node.sessions)
    tenant = TenantSpec("svc", _tasks(12),
                        PoissonArrivals(150_000.0, seed=11))
    server = TaskServer([tenant], ServeConfig(pagoda=config, num_gpus=2))
    report = server.run()
    assert server.faults_injected() == 1
    assert report.faults_injected == 1
