"""Determinism: every runtime is a pure function of its inputs.

The simulator has no wall-clock or global RNG dependence; repeated
runs must agree to the bit.  This is what makes the paper-vs-measured
tables in EXPERIMENTS.md stable artifacts rather than samples.

The golden-schedule section additionally proves the *optimized* hot
paths (slotted timer records + ready ring in ``repro.sim.engine``,
virtual-time processor sharing in ``repro.sim.resources``) are
behaviorally identical to the frozen seed implementation in
``repro.sim.reference``: same event ordering, same final clocks, same
event counts, same per-task stats.
"""

import random

import pytest

import repro.gpu.device as device_mod
import repro.gpu.smm as smm_mod
from repro.bench.harness import RUNTIMES, make_tasks, run_tasks
from repro.sim import Delay, Engine, Event, ProcessorSharing
from repro.sim.reference import (
    ReferenceEngine,
    ReferenceProcessorSharing,
)

WORKLOAD = "mpe"  # touches sync, shared memory, and irregularity at once


def fingerprint(stats):
    return (
        stats.makespan,
        stats.copy_time,
        tuple((r.spawn_time, r.sched_time, r.start_time, r.end_time)
              for r in sorted(stats.results, key=lambda r: r.name)),
    )


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_runtime_is_deterministic(runtime):
    if runtime == "fusion":
        tasks = make_tasks("mb", 32, 128, seed=5)  # fusion: 1-block tasks
    else:
        tasks = make_tasks(WORKLOAD, 32, 128, seed=5)
    a = run_tasks(tasks, runtime)
    b = run_tasks(tasks, runtime)
    assert fingerprint(a) == fingerprint(b)


def test_task_generation_is_seeded():
    a = make_tasks("3des", 16, 128, seed=9)
    b = make_tasks("3des", 16, 128, seed=9)
    c = make_tasks("3des", 16, 128, seed=10)
    assert [t.input_bytes for t in a] == [t.input_bytes for t in b]
    assert [t.input_bytes for t in a] != [t.input_bytes for t in c]


def test_multigpu_is_deterministic():
    from repro.core import PagodaConfig
    from repro.core.multigpu import run_multi_gpu_pagoda

    tasks = make_tasks("mb", 40, 128, seed=3)
    config = PagodaConfig(copy_inputs=False, copy_outputs=False)
    a = run_multi_gpu_pagoda(tasks, num_gpus=2, config=config)
    b = run_multi_gpu_pagoda(tasks, num_gpus=2, config=config)
    assert fingerprint(a) == fingerprint(b)
    assert a.meta["placements"] == b.meta["placements"]


# ---------------------------------------------------------------------------
# Golden-schedule equivalence: optimized core vs frozen seed implementation
# ---------------------------------------------------------------------------

#: (workload, runtime, seed) cells empirically bit-exact between the
#: virtual-time PS and the seed rescan PS.  Both formulations compute
#: the same real numbers; only the float *rounding order* differs
#: (tag subtraction vs repeated decrement), and on these cells the
#: roundings happen to agree to the last ULP.
GOLDEN_EXACT_CASES = [
    ("mpe", "pagoda", 5),
    ("mb", "hyperq", 3),
    ("3des", "pagoda", 7),
    ("fb", "pagoda", 11),
    ("dct", "hyperq", 1),
    ("mm", "pagoda", 13),
]

#: Cells where the rounding orders diverge in the last couple of ULPs
#: (observed worst relative delta ~6e-16); compared with a tolerance
#: ten thousand times tighter than any quantity the paper reports.
GOLDEN_APPROX_CASES = [
    ("conv", "gemtc", 2),
]

GOLDEN_REL = 1e-12


def _run_with_seed_ps(tasks, runtime):
    """Run a workload with the seed PS swapped into both import sites.

    ``ProcessorSharing`` is imported by exactly two production modules
    (the SMM issue pool and the device DRAM pool); patching both makes
    every pool in the run the seed implementation.
    """
    originals = (smm_mod.ProcessorSharing, device_mod.ProcessorSharing)
    smm_mod.ProcessorSharing = ReferenceProcessorSharing
    device_mod.ProcessorSharing = ReferenceProcessorSharing
    try:
        return run_tasks(tasks, runtime)
    finally:
        smm_mod.ProcessorSharing, device_mod.ProcessorSharing = originals


def assert_fingerprints_close(got, want, rel=GOLDEN_REL):
    assert got[0] == pytest.approx(want[0], rel=rel)
    assert got[1] == pytest.approx(want[1], rel=rel)
    assert len(got[2]) == len(want[2])
    for got_row, want_row in zip(got[2], want[2]):
        assert got_row == pytest.approx(want_row, rel=rel, abs=1e-9)


def _engine_soup(engine_cls):
    """A process soup exercising every engine command type.

    Returns ``(trace, final_clock, event_count)``; the plan is drawn
    from a local seeded RNG *before* any process runs, so both engines
    replay exactly the same scenario.
    """
    rng = random.Random(20170204)
    plan = [
        [round(rng.uniform(0.1, 5.0), 3) for _ in range(rng.randrange(1, 6))]
        for _ in range(12)
    ]
    eng = engine_cls()
    trace = []
    gate = Event()

    def sleeper(i, delays):
        for j, d in enumerate(delays):
            if j % 3 == 2:
                yield Delay(d)            # Delay command
            elif j % 3 == 1:
                yield max(1, int(round(d)))  # int command
            else:
                yield d                   # float fast path
            trace.append((eng.now, "tick", i, j))
        return i * 10

    def joiner(i, target):
        value = yield target              # process join
        trace.append((eng.now, "joined", i, value))
        woke = yield gate                 # shared Event (fired or not)
        trace.append((eng.now, "gated", i, woke))

    def firer():
        yield 7.5
        trace.append((eng.now, "fire"))
        gate.fire("open")

    def victim():
        trace.append((eng.now, "victim-waits"))
        yield Event()                     # never fires; interrupted below
        trace.append((eng.now, "victim-woke"))  # pragma: no cover

    def killer(v):
        yield 3.25
        v.interrupt()
        trace.append((eng.now, "interrupted"))

    def timed():
        value = yield eng.timeout(2.5, "t")  # timeout command
        trace.append((eng.now, "timeout", value))

    sleepers = [eng.spawn(sleeper(i, d), name=f"s{i}")
                for i, d in enumerate(plan)]
    for i, proc in enumerate(sleepers[:4]):
        eng.spawn(joiner(i, proc), name=f"j{i}")
    doomed = eng.spawn(victim(), name="victim")
    eng.spawn(killer(doomed), name="killer")
    eng.spawn(firer(), name="firer")
    eng.spawn(timed(), name="timed")
    end = eng.run()
    return tuple(trace), end, eng.event_count


def test_engine_matches_reference_trace():
    """Optimized engine ≡ seed engine: trace, clock, and event count."""
    opt = _engine_soup(Engine)
    ref = _engine_soup(ReferenceEngine)
    assert opt == ref


def _ps_churn(engine_cls, ps_cls):
    """Randomized arrival/departure churn on a single PS pool."""
    rng = random.Random(7)
    arrivals = [
        (round(rng.uniform(0.0, 50.0), 3), round(rng.uniform(0.5, 20.0), 3))
        for _ in range(200)
    ]
    eng = engine_cls()
    pool = ps_cls(eng, rate=8.0, per_job_cap=2.0)
    completions = []

    def job(i, start, amount):
        yield float(start)
        yield pool.consume(amount)
        completions.append((i, eng.now))

    for i, (start, amount) in enumerate(arrivals):
        eng.spawn(job(i, start, amount), name=f"job{i}")
    end = eng.run()
    return completions, end, pool.utilization()


def test_processor_sharing_matches_reference_churn():
    """Virtual-time PS ≡ seed rescan PS under heavy churn.

    Completion *order* must match exactly; completion *times* and the
    utilization integral to within float rounding-order drift.
    """
    opt_done, opt_end, opt_util = _ps_churn(Engine, ProcessorSharing)
    ref_done, ref_end, ref_util = _ps_churn(
        ReferenceEngine, ReferenceProcessorSharing)
    assert [i for i, _t in opt_done] == [i for i, _t in ref_done]
    for (_i, opt_t), (_j, ref_t) in zip(opt_done, ref_done):
        assert opt_t == pytest.approx(ref_t, rel=GOLDEN_REL)
    assert opt_end == pytest.approx(ref_end, rel=GOLDEN_REL)
    assert opt_util == pytest.approx(ref_util, rel=GOLDEN_REL)


@pytest.mark.parametrize("workload,runtime,seed", GOLDEN_EXACT_CASES)
def test_pagoda_golden_schedule_exact(workload, runtime, seed):
    """End-to-end runs are bit-identical to the seed implementation."""
    tasks = make_tasks(workload, 24, 128, seed=seed)
    opt = fingerprint(run_tasks(tasks, runtime))
    ref = fingerprint(_run_with_seed_ps(tasks, runtime))
    assert opt == ref


@pytest.mark.parametrize("workload,runtime,seed", GOLDEN_APPROX_CASES)
def test_pagoda_golden_schedule_within_rounding(workload, runtime, seed):
    """Cells with ULP-level drift still agree to 1e-12 relative."""
    tasks = make_tasks(workload, 24, 128, seed=seed)
    opt = fingerprint(run_tasks(tasks, runtime))
    ref = fingerprint(_run_with_seed_ps(tasks, runtime))
    assert_fingerprints_close(opt, ref)


# ---------------------------------------------------------------------------
# Runtime-layer golden traces: scheduler decisions and buddy allocations
# ---------------------------------------------------------------------------

def _runtime_layer_trace(use_seed_ps):
    """Run a Pagoda session recording every scheduler decision and
    every buddy allocation ``(column, size, offset)``.

    The indexed runtime structures (dirty-row queues, warp free mask,
    interval buddy) must not change *which* decisions are made or
    *where* blocks land — only how cheaply they are found.  Comparing
    these traces between the optimized and seed PS runs pins the whole
    decision sequence, not just the end-to-end fingerprint.
    """
    from repro.core import PagodaConfig
    from repro.core.runtime import PagodaSession
    from repro.obs import Obs
    from repro.tasks import TaskResult

    from tests.sched_decisions import decision_series

    tasks = make_tasks("mpe", 24, 128, seed=5)
    originals = (smm_mod.ProcessorSharing, device_mod.ProcessorSharing)
    if use_seed_ps:
        smm_mod.ProcessorSharing = ReferenceProcessorSharing
        device_mod.ProcessorSharing = ReferenceProcessorSharing
    try:
        session = PagodaSession(config=PagodaConfig(
            copy_inputs=False, copy_outputs=False, obs=Obs(profile=False)))
        alloc_log = []
        for mtb in session.master.mtbs:
            def logged_alloc(size, _buddy=mtb.buddy, _col=mtb.column,
                             _orig=None):
                offset = type(_buddy).alloc(_buddy, size)
                alloc_log.append((session.engine.now, _col, size, offset))
                return offset
            mtb.buddy.alloc = logged_alloc

        eng, host = session.engine, session.host
        results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]

        def driver():
            for task, result in zip(tasks, results):
                yield from host.task_spawn(task, result)
            yield from host.wait_all()

        eng.spawn(driver())
        eng.run()
        decisions = tuple(
            (name, tuple(series))
            for name, series in decision_series(session.obs).items()
        )
        session.shutdown()
        return decisions, tuple(alloc_log), eng.now
    finally:
        smm_mod.ProcessorSharing, device_mod.ProcessorSharing = originals


def test_runtime_layer_golden_traces_exact():
    """Scheduler decision stream and buddy placement stream are
    bit-identical between the optimized core and the seed PS run."""
    opt_decisions, opt_allocs, opt_end = _runtime_layer_trace(False)
    ref_decisions, ref_allocs, ref_end = _runtime_layer_trace(True)
    assert opt_allocs, "workload never exercised the buddy allocator"
    assert any(count for _name, count in
               ((n, len(s)) for n, s in opt_decisions)), \
        "scheduler trace is empty"
    assert opt_decisions == ref_decisions
    assert opt_allocs == ref_allocs
    assert opt_end == ref_end
