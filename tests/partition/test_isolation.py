"""Partition fault-domain isolation.

The contract SR-IOV-style partitioning makes: a fault plan scoped to
one partition may wreck that partition's schedule, but every sibling
partition's canonical report stays byte-identical — both to the same
run without the fault and to the sibling running entirely alone.
"""

import hashlib

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.partition import ElasticConfig, PartitionPlan, run_partitioned
from repro.tasks import TaskSpec

#: sha256 of every partition's ``PartitionReport.to_json()`` per
#: layout, recorded from the original per-partition host loop.
REPORT_SHA256 = {
    "elastic": {
        "noisy": "0a58516e2486222fc059fe2e0bff8f29"
                 "eb0ab27fc44e7194b433f9e2de4e56e0",
        "quiet": "3786347fea3e6a06b6bef0f2169c0e5a"
                 "8984eb10124fecc90d6c9945f475c3e4",
    },
    "static": {
        "noisy": "8a8f23f864460c5525fa91ebe87bb0eb"
                 "2191c8f95a7de6b3b481639c912a0df1",
        "quiet": "a3c472d49b2221faffabc8d86ab30b7a"
                 "92718080a6b63232b45325031432847c",
    },
    "static-brownout": {
        "noisy": "df2fa84242c2cf2e27c71e7300682e15"
                 "8641b6c07d52f40c58490296d415352d",
        "quiet": "a3c472d49b2221faffabc8d86ab30b7a"
                 "92718080a6b63232b45325031432847c",
    },
    "static-solo": {
        "noisy": "a97b38876431c16ae049e12055fd7bd1"
                 "38c968d65a6c62a357fc33ecd7e3dbd0",
        "quiet": "a3c472d49b2221faffabc8d86ab30b7a"
                 "92718080a6b63232b45325031432847c",
    },
}


def _kernel(task, block_id, warp_id):
    yield Phase(inst=20_000.0)
    yield Phase(inst=20_000.0, mem_bytes=512.0)


def _tasks(prefix, n):
    return [TaskSpec(f"{prefix}{i}", threads_per_block=128, num_blocks=1,
                     kernel=_kernel) for i in range(n)]


def _plan(fault_plan=None):
    plan = PartitionPlan.from_mode("DPX", names=["noisy", "quiet"])
    plan.by_name("noisy").fault_plan = fault_plan
    return plan


def _brownout_plan():
    # mid-run brown-outs of two of the noisy partition's own MTBs
    return FaultPlan(specs=[
        FaultSpec(kind="gpu.brownout", at_ns=30_000.0, target=0),
        FaultSpec(kind="gpu.brownout", at_ns=45_000.0, target=5),
    ])


def _run(fault_plan=None, include_noisy=True):
    groups = {"quiet": _tasks("q", 24)}
    if include_noisy:
        groups["noisy"] = _tasks("n", 24)
    # quiet trickles in; noisy slams every column at once so the
    # brown-outs land on occupied MTBs
    gaps = {name: (500.0 if name == "noisy" else 4_000.0)
            for name in groups}
    return run_partitioned(groups, _plan(fault_plan), gaps=gaps)


def test_brownout_leaves_sibling_report_bytes_unchanged():
    clean = _run()
    faulted = _run(fault_plan=_brownout_plan())
    # the fault domain held: the sibling's canonical report is
    # byte-for-byte the report it got without the fault
    assert faulted["quiet"].to_json() == clean["quiet"].to_json()
    # and the fault was real: the noisy partition's own report moved
    assert faulted["noisy"].to_json() != clean["noisy"].to_json()
    assert clean["quiet"].executed == 24


def test_sibling_schedule_matches_solo_run():
    solo = _run(include_noisy=False)
    duo = _run()
    faulted = _run(fault_plan=_brownout_plan())
    assert duo["quiet"].to_json() == solo["quiet"].to_json()
    assert faulted["quiet"].to_json() == solo["quiet"].to_json()


def _elastic_run():
    """An idle sibling donates SMMs to a saturated partition."""
    elastic = ElasticConfig(epoch_ns=20_000.0, high_util=0.3,
                            low_util=0.15, min_smms=4, quota_step=0.5,
                            moves_per_epoch=1)
    plan = PartitionPlan.from_mode("DPX", names=["noisy", "quiet"],
                                   elastic=elastic)
    return run_partitioned({"noisy": _tasks("n", 200)}, plan)


LAYOUTS = {
    "static": _run,
    "static-brownout": lambda: _run(fault_plan=_brownout_plan()),
    "static-solo": lambda: _run(include_noisy=False),
    "elastic": _elastic_run,
}


def _report_digests(reports):
    return {name: hashlib.sha256(r.to_json()).hexdigest()
            for name, r in sorted(reports.items())}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_report_bytes_are_pinned(layout):
    assert _report_digests(LAYOUTS[layout]()) == REPORT_SHA256[layout]
