"""Exact occupancy pins for the time-weighted gauges.

``RunStats.mean_occupancy`` (SMM resident warps, MTB busy executor
warps, GeMTC busy warps) and the partition report's ``busy_warp_ns``
are time integrals of piecewise-constant warp counts.  They feed the
figures and the elastic rebalancer, so the integrator behind them must
reproduce these values to the last bit.  The numbers were recorded
from the original run and are compared with ``==``.
"""

import pytest

from repro.bench.harness import RUNTIMES, make_tasks, run_tasks
from repro.gpu.phases import Phase
from repro.partition import ElasticConfig, PartitionPlan, run_partitioned
from repro.tasks import TaskSpec

#: mean_occupancy of every runtime on the golden-corpus cell
#: ``make_tasks("mpe", 24, 128, seed=5)``.
MEAN_OCCUPANCY = {
    "fusion": 0.005141147804703432,
    "gemtc": 0.004716163611586204,
    "hyperq": 0.0042356684889333605,
    "pagoda": 0.00344267127600919,
    "pagoda-batching": 0.00344267127600919,
    "pthreads": 0.0,
    "sequential": 0.0,
}


def test_pins_cover_every_runtime():
    assert sorted(MEAN_OCCUPANCY) == sorted(RUNTIMES)


@pytest.mark.parametrize("runtime", sorted(MEAN_OCCUPANCY))
def test_mean_occupancy_is_pinned(runtime):
    tasks = make_tasks("mpe", 24, 128, seed=5)
    stats = run_tasks(tasks, runtime)
    assert stats.mean_occupancy == MEAN_OCCUPANCY[runtime]


def _kernel(task, block_id, warp_id):
    yield Phase(inst=20_000.0)
    yield Phase(inst=20_000.0, mem_bytes=512.0)


def _tasks(prefix, n):
    return [TaskSpec(f"{prefix}{i}", threads_per_block=128, num_blocks=1,
                     kernel=_kernel) for i in range(n)]


def test_partition_busy_warp_ns_is_pinned():
    """Two DPX partitions, the quiet one trickling, the noisy one
    slamming its columns (the fault-domain isolation layout)."""
    plan = PartitionPlan.from_mode("DPX", names=["noisy", "quiet"])
    reports = run_partitioned(
        {"quiet": _tasks("q", 24), "noisy": _tasks("n", 24)}, plan,
        gaps={"noisy": 500.0, "quiet": 4_000.0})
    assert reports["noisy"].busy_warp_ns == 14900732.952380957
    assert reports["quiet"].busy_warp_ns == 14553522.28571428


def test_elastic_busy_warp_ns_is_pinned():
    """The rebalancer reads busy_integral every epoch; an idle sibling
    donates SMMs, so the pinned integral depends on those reads."""
    elastic = ElasticConfig(epoch_ns=20_000.0, high_util=0.3,
                            low_util=0.15, min_smms=4, quota_step=0.5,
                            moves_per_epoch=1)
    plan = PartitionPlan.from_mode("DPX", names=["noisy", "quiet"],
                                   elastic=elastic)
    reports = run_partitioned({"noisy": _tasks("n", 200)}, plan)
    assert reports["quiet"].smms == [12, 13, 14, 15]
    assert reports["noisy"].busy_warp_ns == 384456337.7382838
    assert reports["quiet"].busy_warp_ns == 0.0
