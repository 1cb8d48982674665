"""Worker-failure detection: a shard process that dies or raises
mid-protocol surfaces as :class:`ClusterWorkerError` instead of
hanging the coordinator on a dead pipe, and the pool layout counts
the coordinator as one of the ``workers`` shard hosts."""

import multiprocessing

import pytest

from repro.cluster import (
    ClusterWorkerError,
    NodeSpec,
    RouterPolicy,
    Topology,
    run_cluster,
)
from repro.cluster.worker import InProcessHost, WorkerPoolHost, make_host
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec


def _bad_kernel(task, block_id, warp_id):
    # module-level so the spec pickles into worker processes
    yield "not a phase"


def _topology(n=6):
    return Topology(nodes=[NodeSpec(f"n{i}") for i in range(n)],
                    link_ns=25_000.0)


def _pool(workers=3):
    return WorkerPoolHost(_topology(), [("t", SloClass())], None,
                          obs=False, workers=workers)


def test_error_names_nodes_exitcode_and_epoch():
    err = ClusterWorkerError(["n0", "n2"], -9, 7)
    assert err.nodes == ["n0", "n2"]
    assert err.exitcode == -9
    assert err.epoch == 7
    assert err.error is None
    assert "['n0', 'n2']" in str(err)
    assert "exitcode=-9" in str(err)
    assert "epoch 7" in str(err)
    assert isinstance(err, RuntimeError)


def test_killed_worker_raises_instead_of_hanging():
    host = _pool(workers=3)
    try:
        # one clean epoch proves the pool works, then kill a child
        results = host.step(25_000.0, {})
        assert set(results) == {f"n{i}" for i in range(6)}
        victim = host._procs[0]
        victim.terminate()
        victim.join(timeout=10)
        with pytest.raises(ClusterWorkerError) as exc:
            host.step(50_000.0, {})
        # round-robin assignment over three hosts: the coordinator
        # keeps n0/n3, the first child hosts n1/n4
        assert exc.value.nodes == ["n1", "n4"]
        assert exc.value.epoch == 2
        assert exc.value.exitcode is not None
        # the whole pool was torn down, not just the dead child
        assert all(not p.is_alive() for p in host._procs)
    finally:
        host.close()


def test_killed_worker_raises_from_finish_too():
    host = _pool(workers=3)
    try:
        host.step(25_000.0, {})
        host._procs[1].terminate()
        host._procs[1].join(timeout=10)
        with pytest.raises(ClusterWorkerError) as exc:
            host.finish()
        assert exc.value.nodes == ["n2", "n5"]
    finally:
        host.close()


def test_workers_one_forks_no_child():
    before = len(multiprocessing.active_children())
    host = make_host(_topology(), [("t", SloClass())], None, obs=False,
                     workers=1)
    try:
        assert isinstance(host, InProcessHost)
        assert len(multiprocessing.active_children()) == before
        assert set(host.step(25_000.0, {})) == {f"n{i}" for i in range(6)}
    finally:
        host.close()


def test_workers_two_forks_exactly_one_child():
    before = len(multiprocessing.active_children())
    host = make_host(_topology(), [("t", SloClass())], None, obs=False,
                     workers=2)
    try:
        assert isinstance(host, WorkerPoolHost)
        assert len(host._procs) == 1
        assert len(multiprocessing.active_children()) == before + 1
        # the coordinator steps n0/n2/n4, the child n1/n3/n5
        assert host._names == [["n1", "n3", "n5"]]
        assert set(host.step(25_000.0, {})) == {f"n{i}" for i in range(6)}
    finally:
        host.close()


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="workers"):
        make_host(_topology(), [("t", SloClass())], None, obs=False,
                  workers=-1)


class _PinRouter(RouterPolicy):
    """Place every request on one node."""

    def __init__(self, node):
        self.node = node

    def route(self, req, view):
        return self.node

    def describe(self):
        return f"pin({self.node})"


def _run_bad_kernel(workers):
    tenant = TenantSpec("t", [TaskSpec("bad", 1, 32, _bad_kernel)],
                        PoissonArrivals(100_000.0, seed=1))
    # two hosts: the coordinator steps n0, the child steps n1
    return run_cluster([tenant], _topology(2), router=_PinRouter("n1"),
                       workers=workers)


def test_shard_exception_in_child_keeps_type_and_message():
    with pytest.raises(TypeError, match="kernel yielded 'not a phase'"):
        _run_bad_kernel(workers=0)
    with pytest.raises(ClusterWorkerError) as exc:
        _run_bad_kernel(workers=2)
    err = exc.value
    assert err.nodes == ["n1"]
    assert err.epoch >= 1
    assert "TypeError: kernel yielded 'not a phase'" in err.error
    assert "Traceback" in err.error
    assert "TypeError: kernel yielded 'not a phase'" in str(err)
    assert f"epoch {err.epoch}" in str(err)


def test_shard_exception_on_coordinator_share_raises_unwrapped():
    tenant = TenantSpec("t", [TaskSpec("bad", 1, 32, _bad_kernel)],
                        PoissonArrivals(100_000.0, seed=1))
    before = len(multiprocessing.active_children())
    with pytest.raises(TypeError, match="kernel yielded 'not a phase'"):
        run_cluster([tenant], _topology(2), router=_PinRouter("n0"),
                    workers=2)
    # the child stepping n1 was torn down with the failed run
    assert len(multiprocessing.active_children()) == before
