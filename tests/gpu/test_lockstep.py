"""Lockstep gangs: a block's warps as one weighted customer.

The Pagoda, HyperQ (CUDA) and GeMTC runtimes run the warps of a block
through :meth:`Smm.execute_lockstep`, which simulates warps whose phase
streams agree as one weighted processor-sharing customer and hands
every warp back to a per-warp loop at the first disagreement.  The
``per_warp`` fixture replaces the helper with one that hands every
warp back before its first item, so each test below compares the gang
schedule against plain per-warp execution of the same run.
"""

import pytest

import repro.gpu.device as device_mod
import repro.gpu.smm as smm_mod
from repro.bench.harness import make_tasks, run_tasks
from repro.core import PagodaConfig, PagodaSession
from repro.core.errors import TaskError
from repro.gpu.phases import BLOCK_SYNC, Phase
from repro.gpu.smm import Smm
from repro.sim import ProcessorSharing
from repro.tasks import TaskResult, TaskSpec
from repro.workloads import REGISTRY

from tests.chaos.harness import chaos_spec
from tests.test_determinism import fingerprint

RUNTIMES = ("pagoda", "hyperq", "gemtc")


def _hand_back_at_once(self, streams, dram, sync_ns, barrier):
    return list(streams)
    yield  # pragma: no cover - makes this a generator


@pytest.fixture
def per_warp(monkeypatch):
    """Run the block of ``fn()`` per warp; returns ``fn()``'s result."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(Smm, "execute_lockstep", _hand_back_at_once)
            return fn()
    return run


@pytest.fixture
def hand_backs(monkeypatch):
    """Count the gangs that stopped agreeing before their streams ended."""
    count = [0]
    real = Smm.execute_lockstep

    def counted(self, streams, dram, sync_ns, barrier):
        rest = yield from real(self, streams, dram, sync_ns, barrier)
        if rest is not None:
            count[0] += 1
        return rest

    monkeypatch.setattr(Smm, "execute_lockstep", counted)
    return count


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("app", sorted(REGISTRY.names()))
def test_gang_schedule_equals_per_warp(app, runtime, per_warp):
    tasks = make_tasks(app, 48, 128, seed=0)
    gang = fingerprint(run_tasks(tasks, runtime))
    assert per_warp(lambda: fingerprint(run_tasks(tasks, runtime))) == gang


def diverging_kernel(task, block_id, warp_id):
    """Lockstep for three phases and a barrier, then each warp's own
    phase lengths."""
    for i in range(6):
        if i == 2:
            yield BLOCK_SYNC
        skew = 150.0 * warp_id if i >= 3 else 0.0
        yield Phase(inst=900.0 + skew, mem_bytes=256.0)


def _diverging_tasks():
    return [TaskSpec(f"d{i}", 128, 2, diverging_kernel, needs_sync=True)
            for i in range(24)]


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_divergence_hands_warps_back(runtime, per_warp, hand_backs):
    tasks = _diverging_tasks()
    gang = fingerprint(run_tasks(tasks, runtime, copies=False))
    assert hand_backs[0] == 2 * len(tasks)
    assert per_warp(lambda: fingerprint(
        run_tasks(tasks, runtime, copies=False))) == gang


def raising_kernel(task, block_id, warp_id):
    for i in range(5):
        if i == 3 and task.name == "bad":
            raise ValueError(f"bad input in block {block_id}")
        yield Phase(inst=800.0, mem_bytes=128.0)


def _pagoda_session_run(tasks, watchdog_ns=None):
    """Spawn ``tasks`` on a small GPU and wait for each; returns the
    schedule, every failure's (name, reason, time), the watchdog kill
    count and the final clock."""
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False,
        watchdog_deadline_ns=watchdog_ns))
    host = session.host
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
    errors = []

    def driver():
        ids = []
        for task, result in zip(tasks, results):
            ids.append((yield from host.task_spawn(task, result)))
        for tid in ids:
            try:
                yield from host.wait(tid)
            except TaskError as exc:
                errors.append((exc.name, exc.reason, exc.when_ns))

    session.engine.spawn(driver(), name="driver")
    session.engine.run()
    schedule = tuple((r.sched_time, r.start_time, r.end_time)
                     for r in results)
    kills = len(session.master.watchdog_kills())
    session.shutdown()
    return schedule, tuple(errors), kills, session.engine.now


def test_kernel_exception_reason_matches_per_warp(per_warp, hand_backs):
    tasks = [TaskSpec(name, 128, 2, raising_kernel)
             for name in ("ok0", "bad", "ok1", "ok2")]
    gang = _pagoda_session_run(tasks)
    ((name, reason, _when),) = gang[1]
    assert (name, reason) == (
        "bad", "kernel exception: ValueError: bad input in block 0")
    assert hand_backs[0] >= 1
    assert per_warp(lambda: _pagoda_session_run(tasks)) == gang


@pytest.mark.parametrize("runtime", ["hyperq", "gemtc"])
def test_cuda_kernel_exception_matches_per_warp(runtime, per_warp):
    tasks = [TaskSpec(name, 128, 2, raising_kernel)
             for name in ("ok0", "bad")]
    with pytest.raises(ValueError) as gang:
        run_tasks(tasks, runtime, copies=False)

    def run():
        with pytest.raises(ValueError) as warp:
            run_tasks(tasks, runtime, copies=False)
        return str(warp.value)

    assert per_warp(run) == str(gang.value)


def long_kernel(task, block_id, warp_id):
    for _ in range(4):
        yield Phase(inst=40_000.0 if task.name == "hog" else 900.0,
                    mem_bytes=512.0)


def test_watchdog_kill_of_a_gang_matches_per_warp(per_warp):
    tasks = [TaskSpec(name, 128, 2, long_kernel)
             for name in ("ok0", "hog", "ok1", "ok2", "ok3")]
    gang = _pagoda_session_run(tasks, watchdog_ns=60_000.0)
    assert gang[2] == 1 and gang[1][0][0] == "hog"
    assert per_warp(lambda: _pagoda_session_run(
        tasks, watchdog_ns=60_000.0)) == gang


class _CountedPool(ProcessorSharing):
    """A ProcessorSharing that remembers every instance."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CountedPool.made.append(self)


def _arrivals_per_task(runtime, monkeypatch):
    """PS arrivals on the SMM issue and DRAM pools per 128-thread MM
    task (each pool's ``_next_id`` counts its heap pushes)."""
    _CountedPool.made = []
    monkeypatch.setattr(smm_mod, "ProcessorSharing", _CountedPool)
    monkeypatch.setattr(device_mod, "ProcessorSharing", _CountedPool)
    tasks = make_tasks("mm", 48, 128, seed=0)
    run_tasks(tasks, runtime, copies=False)
    return sum(pool._next_id for pool in _CountedPool.made) / len(tasks)


#: PS arrivals per MM task (48 tasks, 128 threads, seed 0); per warp
#: it is four times as many, one per warp of the 4-warp block.
PINNED_ARRIVALS_PER_MM_TASK = {"pagoda": 10.0, "hyperq": 10.0, "gemtc": 26.0}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_ps_arrivals_per_task_are_pinned(runtime, monkeypatch, per_warp):
    gang = _arrivals_per_task(runtime, monkeypatch)
    assert gang == PINNED_ARRIVALS_PER_MM_TASK[runtime]
    assert per_warp(lambda: _arrivals_per_task(runtime, monkeypatch)) \
        == 4 * gang
