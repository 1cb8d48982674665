"""Shared plumbing for the differential suite.

Every helper runs one deterministic scenario and returns a
byte-comparable artifact (fingerprint tuple, JSON string).  The
end-to-end tests compare :func:`digest` of each artifact with a value
pinned in ``test_lanes.py``; any change to simulated behaviour must
update those pins deliberately.

Run ``PYTHONPATH=src python -m tests.differential.harness`` to print
the current digests, and the obs snapshots' work counts, in the layout
of the pin tables.
"""

import hashlib
import json

from repro.core import PagodaConfig, run_pagoda
from repro.faults import FaultPlan
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.tasks import TaskSpec

from tests.chaos.harness import CHAOS_COLUMNS, chaos_spec, chaos_tasks
from tests.test_determinism import fingerprint

#: seed sweep width (the acceptance bar is >= 25 seeds).
DIFF_SEEDS = range(25)

#: obs-snapshot seeds.
OBS_SEEDS = (0, 7, 19)


def digest(artifact) -> str:
    """Short stable hash of a fingerprint tuple or a JSON string."""
    text = artifact if isinstance(artifact, str) else repr(artifact)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def chaos_fingerprint(seed: int, faulty: bool = False) -> tuple:
    """One hostile-mix Pagoda run on the 2-SMM chaos GPU.

    With ``faulty`` a seed-generated :class:`FaultPlan` is active and
    the fingerprint additionally pins the fault bookkeeping (injected
    count, failures, per-task error reasons).
    """
    plan = None
    watchdog = None
    if faulty:
        plan = FaultPlan.generate(seed=seed, n_faults=4,
                                  horizon_ns=300_000.0,
                                  columns=CHAOS_COLUMNS)
        watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    stats = run_pagoda(chaos_tasks(seed), spec=chaos_spec(),
                       config=PagodaConfig(
                           copy_inputs=False, copy_outputs=False,
                           fault_plan=plan,
                           watchdog_deadline_ns=watchdog))
    extra = ()
    if faulty:
        extra = (stats.meta["faults_injected"],
                 stats.meta["tasks_failed"],
                 tuple(sorted(stats.meta["task_errors"].items())),
                 stats.meta["watchdog_kills"],
                 tuple(stats.meta["quarantined_slots"]))
    return fingerprint(stats) + extra


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def obs_snapshot_json(seed: int) -> str:
    """Canonical JSON of a fully instrumented run's stats snapshot
    (profiler attached, so ``profile.heap_peak`` is part of it)."""
    stats = run_pagoda(chaos_tasks(seed), spec=chaos_spec(),
                       config=PagodaConfig(
                           copy_inputs=False, copy_outputs=False,
                           obs=Obs()))
    return _canonical(stats.meta["stats_snapshot"])


def split_work_counts(snapshot_json: str) -> tuple:
    """Split an obs snapshot into what the simulation decided and how
    much host work it took.

    Returns ``(behaviour_json, counts)``.  ``behaviour_json`` is the
    snapshot without ``sim.events_executed`` and ``profile``; those
    count engine events and process resumes, which move whenever the
    simulator does the same schedule with less work.  ``counts`` is
    ``(events_executed, heap_peak, total_events, processes,
    digest(profile))``.
    """
    snapshot = json.loads(snapshot_json)
    events = snapshot["sim"].pop("events_executed")
    profile = snapshot.pop("profile")
    counts = (events, profile["heap_peak"], profile["total_events"],
              profile["processes"], digest(_canonical(profile)))
    return _canonical(snapshot), counts


def _serve_kernel(task, block_id, warp_id):
    yield Phase(inst=1500, mem_bytes=128)


def serve_report_json(faulty: bool = False, n_requests: int = 60) -> str:
    """One SLO-serving run; returns the report's canonical bytes."""
    from repro.serve import (PoissonArrivals, ServeConfig, SloClass,
                             TenantSpec, serve)

    plan = None
    watchdog = None
    if faulty:
        plan = FaultPlan.generate(seed=3, n_faults=6,
                                  horizon_ns=300_000.0, columns=48)
        watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    tasks = [TaskSpec(f"t{i}", 128, 1, _serve_kernel)
             for i in range(n_requests)]
    tenants = [TenantSpec("svc", tasks,
                          PoissonArrivals(150_000.0, seed=11),
                          slo=SloClass("svc", deadline_ns=2.0e5))]
    report = serve(tenants, ServeConfig(pagoda=PagodaConfig(
        fault_plan=plan, watchdog_deadline_ns=watchdog)))
    return report.to_json()


def corpus_fingerprint(workload: str, runtime: str, seed: int) -> tuple:
    """One golden-corpus cell (``tests/test_determinism.py``)."""
    from repro.bench.harness import make_tasks, run_tasks

    return fingerprint(run_tasks(make_tasks(workload, 24, 128, seed=seed),
                                 runtime))


def _print_pins() -> None:  # pragma: no cover - maintenance aid
    from tests.test_determinism import GOLDEN_APPROX_CASES, GOLDEN_EXACT_CASES

    print("CORPUS_DIGESTS = {")
    for case in GOLDEN_EXACT_CASES + GOLDEN_APPROX_CASES:
        print(f"    {case!r}: {digest(corpus_fingerprint(*case))!r},")
    print("}")
    for faulty in (False, True):
        name = "CHAOS_FAULTY_DIGESTS" if faulty else "CHAOS_DIGESTS"
        print(f"{name} = [")
        for seed in DIFF_SEEDS:
            print(f"    {digest(chaos_fingerprint(seed, faulty))!r},")
        print("]")
    obs = {seed: split_work_counts(obs_snapshot_json(seed))
           for seed in OBS_SEEDS}
    print("OBS_DIGESTS = {")
    for seed, (behaviour, _counts) in obs.items():
        print(f"    {seed}: {digest(behaviour)!r},")
    print("}")
    print("OBS_WORK_COUNTS = {")
    for seed, (_behaviour, counts) in obs.items():
        print(f"    {seed}: {counts!r},")
    print("}")
    print("SERVE_DIGESTS = {")
    for faulty in (False, True):
        print(f"    {faulty}: {digest(serve_report_json(faulty))!r},")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _print_pins()
