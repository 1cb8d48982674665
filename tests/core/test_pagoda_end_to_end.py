"""End-to-end Pagoda runtime tests: MasterKernel + TaskTable + host API.

These exercise the full §4 machinery: continuous spawning, pipelined
promotion, Algorithm 1/2 scheduling, shared-memory allocation, named
barriers, and completion reporting.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    MTB_ARENA_BYTES,
    MasterKernel,
    PagodaConfig,
    PagodaSession,
    run_pagoda,
)
from repro.core.masterkernel import MTBS_PER_SMM
from repro.gpu import Gpu, titan_x
from repro.gpu.phases import BLOCK_SYNC, Phase
from repro.obs import Obs
from repro.tasks import TaskResult, TaskSpec

from tests.sched_decisions import decision_series


def const_kernel(inst, mem=0.0):
    def kernel(task, block_id, warp_id):
        yield Phase(inst=float(inst), mem_bytes=float(mem))
    return kernel


def sync_kernel(task, block_id, warp_id):
    yield Phase(inst=100.0 * (warp_id + 1))
    yield BLOCK_SYNC
    yield Phase(inst=100.0)


# -- MasterKernel bring-up ---------------------------------------------------

def test_masterkernel_occupies_whole_gpu():
    """§4.1: the MasterKernel acquires all 64 warps of every SMM —
    100% occupancy."""
    session = PagodaSession()
    for smm in session.gpu.smms:
        assert smm.free_warps == 0
        assert smm.free_blocks == smm.spec.max_blocks_per_smm - MTBS_PER_SMM
        assert smm.free_registers == 0  # 32 regs/thread exactly fills 64K
    assert session.gpu.resident_warps() == 64 * 24
    session.shutdown()


def test_masterkernel_has_48_mtbs_on_titan_x():
    session = PagodaSession()
    assert len(session.master.mtbs) == 48
    assert session.table.num_columns == 48
    session.shutdown()


def test_masterkernel_leaves_shared_mem_for_scheduling_structures():
    """Each MTB reserves 32KB; the SMM keeps 96-64=32KB for the
    scheduler's own data structures (§4.1)."""
    session = PagodaSession()
    for smm in session.gpu.smms:
        assert smm.free_shared_mem == 96 * 1024 - MTBS_PER_SMM * MTB_ARENA_BYTES
    session.shutdown()


def test_masterkernel_rejects_mismatched_table():
    from repro.core import TaskTable
    from repro.pcie import PcieBus
    from repro.sim import Engine
    from repro.gpu.timing import DEFAULT_TIMING

    eng = Engine()
    gpu = Gpu(eng, titan_x(), DEFAULT_TIMING)
    bus = PcieBus(eng, DEFAULT_TIMING)
    table = TaskTable(eng, bus, 10)
    with pytest.raises(ValueError):
        MasterKernel(eng, gpu, table)


# -- basic execution ----------------------------------------------------------

def test_single_task_runs_and_completes():
    tasks = [TaskSpec("t", 128, 1, const_kernel(1000))]
    stats = run_pagoda(tasks)
    assert len(stats.results) == 1
    res = stats.results[0]
    assert res.end_time > res.start_time >= res.sched_time > 0
    assert res.latency > 0
    assert stats.runtime == "pagoda"


def test_many_tasks_all_complete():
    tasks = [TaskSpec(f"t{i}", 128, 1, const_kernel(500)) for i in range(300)]
    stats = run_pagoda(tasks)
    assert len(stats.results) == 300
    assert all(r.end_time > 0 for r in stats.results)


def test_task_wider_than_mtb_rejected():
    """A threadblock needs <= 31 executor warps (§4.1 geometry)."""
    tasks = [TaskSpec("wide", 1024, 1, const_kernel(10))]
    with pytest.raises(ValueError):
        run_pagoda(tasks)


def test_multi_block_task_runs_in_one_mtb():
    """§4.3: all warps of a task execute in the same MTB."""
    session = PagodaSession()
    eng, host, table = session.engine, session.host, session.table
    task = TaskSpec("t", 128, 4, const_kernel(100))  # 16 warps
    result = TaskResult(0, "t")

    def driver():
        yield from host.task_spawn(task, result)
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    executed = [m for m in session.master.mtbs if m.tasks_executed]
    assert len(executed) == 1
    assert result.end_time > 0
    session.shutdown()


def test_block_sync_joins_warps_within_task():
    tasks = [TaskSpec("t", 128, 1, sync_kernel, needs_sync=True)]
    stats = run_pagoda(tasks)
    # slowest pre-barrier warp (4 * 100) bounds the barrier exit
    res = stats.results[0]
    assert res.exec_time >= 500.0


def test_more_tasks_than_tasktable_capacity():
    """Spawner must reclaim entries via copy-back when 1536 entries are
    all occupied; verify > capacity tasks flow through."""
    config = PagodaConfig(rows=2)  # capacity = 96 entries
    tasks = [TaskSpec(f"t{i}", 64, 1, const_kernel(2000)) for i in range(300)]
    stats = run_pagoda(tasks, config=config)
    assert len([r for r in stats.results if r.end_time > 0]) == 300
    assert stats.meta["copy_backs"] >= 1


def test_irregular_tasks_no_batch_barrier():
    """One long task must not delay unrelated short tasks' completion
    (the anti-batching property motivating Pagoda vs GeMTC)."""
    def long_kernel(task, block_id, warp_id):
        yield Phase(inst=500_000)

    tasks = [TaskSpec("long", 32, 1, long_kernel)]
    tasks += [TaskSpec(f"s{i}", 32, 1, const_kernel(100)) for i in range(50)]
    stats = run_pagoda(tasks)
    long_res = stats.results[0]
    short_end = max(r.end_time for r in stats.results[1:])
    assert short_end < long_res.end_time


# -- shared memory -------------------------------------------------------------

def test_shared_memory_tasks_get_disjoint_regions():
    session = PagodaSession()
    eng, host = session.engine, session.host
    tasks = [
        TaskSpec(f"t{i}", 64, 1, const_kernel(5000), shared_mem_bytes=8192)
        for i in range(8)
    ]
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]

    def driver():
        for t, r in zip(tasks, results):
            yield from host.task_spawn(t, r)
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    assert all(r.end_time > 0 for r in results)
    for mtb in session.master.mtbs:
        mtb.buddy.flush_deferred()
        mtb.buddy.check_invariants()
        assert mtb.buddy.allocated_bytes == 0
    session.shutdown()


def test_shared_memory_contention_serializes_blocks():
    """Tasks needing 32KB each can only run one block per MTB at a
    time; they still all complete."""
    tasks = [
        TaskSpec(f"t{i}", 64, 1, const_kernel(1000),
                 shared_mem_bytes=MTB_ARENA_BYTES)
        for i in range(60)
    ]
    stats = run_pagoda(tasks)
    assert all(r.end_time > 0 for r in stats.results)


def test_shared_memory_request_above_arena_fails():
    tasks = [TaskSpec("t", 64, 1, const_kernel(10),
                      shared_mem_bytes=MTB_ARENA_BYTES + 1)]
    with pytest.raises(Exception):
        run_pagoda(tasks)


# -- functional execution -----------------------------------------------------

def test_functional_execution_produces_results():
    out = np.zeros(256, dtype=np.float64)

    def func(ctx):
        tid = ctx.tid()
        out[tid] = np.sqrt(tid.astype(np.float64))

    tasks = [TaskSpec("t", 128, 2, const_kernel(100), func=func)]
    run_pagoda(tasks, config=PagodaConfig(functional=True))
    np.testing.assert_allclose(out, np.sqrt(np.arange(256.0)))


def test_functional_shared_memory_via_buddy_arena():
    """getSMPtr hands out real buddy-arena views; concurrent tasks'
    stage pipelines must not corrupt each other."""
    n_tasks = 12
    outs = [np.zeros(64, dtype=np.int64) for _ in range(n_tasks)]

    def make_func(k):
        def func(ctx):
            sm = ctx.get_sm_ptr()
            assert len(sm) == 2048
            view = sm[:64 * 8].view(np.int64)
            view[:] = ctx.tid() + k  # stage 1: write shared
            ctx.sync_block()
            outs[k][:] = view  # stage 2: read back
        return func

    tasks = [
        TaskSpec(f"t{k}", 64, 1, const_kernel(1000), shared_mem_bytes=2048,
                 needs_sync=True, func=make_func(k))
        for k in range(n_tasks)
    ]
    run_pagoda(tasks, config=PagodaConfig(functional=True))
    for k in range(n_tasks):
        np.testing.assert_array_equal(outs[k], np.arange(64) + k)


# -- batching ablation ---------------------------------------------------------

def test_pagoda_batching_mode_completes():
    tasks = [TaskSpec(f"t{i}", 64, 1, const_kernel(500)) for i in range(64)]
    stats = run_pagoda(tasks, config=PagodaConfig(batch_size=16))
    assert stats.runtime == "pagoda-batching"
    assert all(r.end_time > 0 for r in stats.results)


def test_batching_is_slower_with_irregular_tasks():
    """Fig. 11's mechanism: a batch ends with its longest task."""
    def make_kernel(i):
        inst = 200_000 if i % 16 == 0 else 1_000
        return const_kernel(inst)

    tasks = [TaskSpec(f"t{i}", 32, 1, make_kernel(i)) for i in range(128)]
    cont = run_pagoda(tasks)
    batched = run_pagoda(tasks, config=PagodaConfig(batch_size=16))
    assert batched.makespan > cont.makespan


# -- host API ------------------------------------------------------------------

def test_wait_and_check_api():
    session = PagodaSession()
    eng, host = session.engine, session.host
    observations = []

    def driver():
        tid = yield from host.task_spawn(
            TaskSpec("t", 64, 1, const_kernel(1000)), TaskResult(0, "t")
        )
        observations.append(host.check(tid))  # not yet observed
        yield from host.wait(tid)
        observations.append(host.check(tid))

    eng.spawn(driver())
    eng.run()
    assert observations == [False, True]
    session.shutdown()


def test_useful_occupancy_reported():
    tasks = [TaskSpec(f"t{i}", 128, 1, const_kernel(20_000))
             for i in range(400)]
    stats = run_pagoda(tasks)
    assert 0.0 < stats.mean_occupancy <= 1.0


def test_spawn_gap_spaces_arrivals():
    tasks = [TaskSpec(f"t{i}", 64, 1, const_kernel(100)) for i in range(5)]
    stats = run_pagoda(tasks, config=PagodaConfig(spawn_gap_ns=10_000))
    spawns = sorted(r.spawn_time for r in stats.results)
    assert spawns[1] - spawns[0] >= 10_000


def test_sequential_spawn_promotion_chain_integrity():
    """Every task (except the pipeline tail) is promoted exactly once
    by its successor; the tail by the host.  The chain must hold for a
    long single-column-colliding sequence."""
    session = PagodaSession(config=PagodaConfig(obs=Obs(profile=False)))
    eng, host = session.engine, session.host
    n = 200

    def driver():
        for i in range(n):
            yield from host.task_spawn(
                TaskSpec(f"t{i}", 32, 1, const_kernel(50)),
                TaskResult(i, "t"))
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    promoted = [task_id for _t, task_id
                in decision_series(session.obs)["promote"]]
    session.shutdown()
    # n-1 scheduler-side promotions, no double promotion
    assert len(promoted) == n - 1
    assert len(set(promoted)) == n - 1


def test_makespan_insensitive_to_wait_timeout_when_gpu_bound():
    """The lazy copy-back period must not gate a GPU-bound run's
    completion by more than ~one timeout."""
    import dataclasses as dc
    from repro.gpu.timing import DEFAULT_TIMING

    tasks = [TaskSpec(f"t{i}", 128, 1, const_kernel(80_000))
             for i in range(300)]
    base = run_pagoda(tasks, config=PagodaConfig(copy_inputs=False,
                                                 copy_outputs=False))
    slow_poll = run_pagoda(
        tasks,
        timing=dc.replace(DEFAULT_TIMING, wait_timeout_ns=400_000.0),
        config=PagodaConfig(copy_inputs=False, copy_outputs=False),
    )
    assert slow_poll.makespan <= base.makespan + 2 * 400_000.0
