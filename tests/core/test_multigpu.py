"""Multi-GPU Pagoda extension tests."""

import pytest

from repro.bench.harness import make_tasks as make_app_tasks
from repro.core import PagodaConfig
from repro.core.multigpu import MultiGpuPagoda, run_multi_gpu_pagoda
from repro.gpu.phases import Phase
from repro.tasks import TaskSpec

from tests.differential.harness import digest
from tests.test_determinism import fingerprint

NO_COPIES = PagodaConfig(copy_inputs=False, copy_outputs=False)


#: :func:`node_fingerprint` digest of ``make_tasks("mb", 40, 128,
#: seed=3)`` on two GPUs, copies off.
MB40_X2_DIGEST = "376b163d0ee887a5"


def node_fingerprint(stats):
    """Everything a multi-GPU run decides: the per-task schedule, the
    makespan, copy time, occupancy, placements and failovers.  The
    ``faults_injected`` tally is a report, not a decision; tests that
    inject faults assert it directly."""
    return fingerprint(stats) + (stats.mean_occupancy, repr(sorted(
        (k, v) for k, v in stats.meta.items() if k != "faults_injected")))


def const_kernel(inst):
    def kernel(task, block_id, warp_id):
        yield Phase(inst=float(inst))
    return kernel


def make_tasks(n, inst=50_000):
    return [TaskSpec(f"t{i}", 128, 1, const_kernel(inst)) for i in range(n)]


def test_validation():
    with pytest.raises(ValueError):
        MultiGpuPagoda(num_gpus=0)


def test_all_tasks_complete_across_two_gpus():
    stats = run_multi_gpu_pagoda(make_tasks(200), num_gpus=2,
                                 config=NO_COPIES)
    assert stats.runtime == "pagoda-x2"
    assert all(r.end_time > 0 for r in stats.results)


def test_tasks_spread_over_both_gpus():
    stats = run_multi_gpu_pagoda(make_tasks(100), num_gpus=2,
                                 config=NO_COPIES)
    placements = set(stats.meta["placements"])
    assert placements == {0, 1}


def _outcopy_bytes(monkeypatch, run):
    """Run ``run()`` and return the payload of every output copy the
    host driver issued (the ``nbytes`` its D2H transfers carry)."""
    from repro.sim import Engine

    payload = []
    spawn = Engine.spawn

    def spy(self, gen, name="", daemon=False):
        if "outcopy" in name:
            payload.append(gen.gi_frame.f_locals["nbytes"])
        return spawn(self, gen, name, daemon)

    monkeypatch.setattr(Engine, "spawn", spy)
    stats = run()
    monkeypatch.setattr(Engine, "spawn", spawn)
    return stats, sum(payload)


def test_single_gpu_degenerates_to_pagoda(monkeypatch):
    """One GPU is run_pagoda's schedule exactly: same makespan, copy
    time, occupancy and per-task spawn/schedule/start/end times; and
    each output copy carries its own task's ``output_bytes``."""
    from repro.core import run_pagoda
    cells = {"const60": make_tasks(60),
             "3des96": make_app_tasks("3des", 96, 128, seed=3)}
    for name, tasks in cells.items():
        for copies in (False, True):
            config = PagodaConfig(copy_inputs=copies, copy_outputs=copies)
            single, single_out = _outcopy_bytes(
                monkeypatch, lambda: run_multi_gpu_pagoda(
                    tasks, num_gpus=1, config=config))
            baseline, baseline_out = _outcopy_bytes(
                monkeypatch, lambda: run_pagoda(tasks, config=config))
            cell = (name, copies)
            assert (fingerprint(single) + (single.mean_occupancy,)
                    == fingerprint(baseline) + (baseline.mean_occupancy,)
                    ), cell
            want = sum(t.output_bytes for t in tasks) if copies else 0
            assert single_out == baseline_out == want, cell


def test_two_gpus_speed_up_gpu_bound_work():
    """Heavy narrow tasks that saturate one GPU split ~2x across two."""
    tasks = make_tasks(600, inst=200_000)
    one = run_multi_gpu_pagoda(tasks, num_gpus=1, config=NO_COPIES)
    two = run_multi_gpu_pagoda(tasks, num_gpus=2, config=NO_COPIES)
    assert two.makespan < one.makespan
    assert one.makespan / two.makespan > 1.3


def test_pick_gpu_prefers_shorter_queue():
    node = MultiGpuPagoda(num_gpus=3)
    node._outstanding = [5, 2, 7]
    assert node.pick_gpu() == 1
    node.shutdown()


def test_two_gpu_clean_run_is_pinned():
    """Exact digest of the clean 2-GPU cell, recorded from the
    original multi-GPU host loop (copies off, so the output-size
    lookup plays no part)."""
    stats = run_multi_gpu_pagoda(make_app_tasks("mb", 40, 128, seed=3),
                                 num_gpus=2, config=NO_COPIES)
    assert digest(node_fingerprint(stats)) == MB40_X2_DIGEST
