"""Scheduler-decision tracing through the ``Obs`` event stream."""

from repro.core import PagodaConfig, PagodaSession
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.tasks import TaskResult, TaskSpec

from tests.sched_decisions import decision_series


def kernel(task, block_id, warp_id):
    yield Phase(inst=500)


def run_traced(n_tasks=10, **config_kw):
    session = PagodaSession(config=PagodaConfig(obs=Obs(profile=False),
                                                **config_kw))
    eng, host = session.engine, session.host
    ids = []

    def driver():
        for i in range(n_tasks):
            tid = yield from host.task_spawn(
                TaskSpec(f"t{i}", 64, 1, kernel), TaskResult(i, "t"))
            ids.append(tid)
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    session.shutdown()
    return decision_series(session.obs), ids


def test_trace_records_full_lifecycle():
    trace, ids = run_traced(10)
    # the pipeline tail is promoted by the host's finalization, not a
    # scheduler warp: n-1 scheduler-side promotions
    assert len(trace["promote"]) == 9
    assert len(trace["schedule"]) == 10
    assert len(trace["task_done"]) == 10
    # every spawned task appears in the terminal stage
    assert sorted(v for _t, v in trace["task_done"]) == sorted(ids)


def test_trace_event_ordering_per_task():
    trace, ids = run_traced(6)
    promotes = dict((v, t) for t, v in trace["promote"])
    for tid in ids:
        t_sched = next(t for t, v in trace["schedule"] if v == tid)
        t_done = next(t for t, v in trace["task_done"] if v == tid)
        assert t_sched <= t_done
        if tid in promotes:  # the tail task is host-finalized instead
            assert promotes[tid] <= t_sched


def test_defer_events_recorded():
    """A wide flood on the deferred scheduler produces defer events."""
    session = PagodaSession(config=PagodaConfig(
        obs=Obs(profile=False), deferred_scheduling=True))
    eng, host = session.engine, session.host

    def heavy(task, block_id, warp_id):
        yield Phase(inst=200_000)

    def driver():
        for i in range(600):
            yield from host.task_spawn(
                TaskSpec(f"t{i}", 256, 1, heavy), TaskResult(i, "t"))
        yield from host.wait_all()

    eng.spawn(driver())
    eng.run()
    trace = decision_series(session.obs)
    session.shutdown()
    assert len(trace.get("defer", [])) > 0
    assert len(trace["task_done"]) == 600
