"""End-to-end Pagoda runner: assemble the stack and execute a task set.

This is the reproduction's equivalent of "link against libpagoda and
run": it brings up a GPU, a PCIe bus, the TaskTable, the MasterKernel
daemon, and a host, then plays a task list through the Table 1 API.

The host side is :mod:`repro.core.driver`, shared with the multi-GPU
and partitioned runners: a *spawner* thread issuing input copies and
``taskSpawn`` calls, and a *collector* thread waiting on completions
and pulling output data back (Fig. 1a).  A ``batch_size`` turns the
runner into the **Pagoda-Batching** ablation of Fig. 11 (spawn a batch,
wait for it to drain, spawn the next — concurrent scheduling but no
continuous spawning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.driver import HostDriver, SingleNode
from repro.core.host_api import PagodaHost
from repro.core.masterkernel import MTBS_PER_SMM, MasterKernel
from repro.core.tasktable import TaskTable
from repro.gpu.device import Gpu
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.pcie.bus import PcieBus
from repro.sim import Engine
from repro.tasks import RunStats, TaskSpec


@dataclass
class PagodaConfig:
    """Knobs for one Pagoda run."""

    #: run functional kernels (validated outputs) alongside timing.
    functional: bool = False
    #: spacing between task arrivals at the host (0 = all available).
    spawn_gap_ns: float = 0.0
    #: open-loop arrivals: task i *arrives* at i x spawn_gap_ns on the
    #: wall clock regardless of host progress (a sensor feed); latency
    #: is then measured from arrival, so host-side queueing shows up.
    #: Closed-loop (default) spaces spawns relative to host progress.
    open_loop: bool = False
    #: Pagoda-Batching mode: wait for each batch to finish before
    #: spawning the next (Fig. 11 ablation).  None = continuous.
    batch_size: Optional[int] = None
    #: move per-task input/output payloads over PCIe.
    copy_inputs: bool = True
    copy_outputs: bool = True
    #: TaskTable rows per MTB column (§4.2: Pagoda uses 32).
    rows: int = 32
    #: spawn protocol (§4.2.1): "pipelined" (Pagoda's), "two-copies"
    #: (safe strawman, doubles copy overhead), or "unsafe-single"
    #: (demonstrates the PCIe ordering hazard — may corrupt entries).
    protocol: str = "pipelined"
    #: ablation: disable Algorithm 2's warp-parallel search — the
    #: scheduler places one warp per pass.
    serial_psched: bool = False
    #: extension: requeue tasks that cannot start placement instead of
    #: blocking the scheduler warp (Algorithm 1 blocks).  Required for
    #: priorities to reorder a deep backlog.
    deferred_scheduling: bool = False
    #: optional :class:`repro.faults.FaultPlan`; attaching one wires a
    #: seeded FaultInjector into every layer of the stack.  ``None``
    #: (and a zero-fault plan) leaves scheduling bit-identical to the
    #: fault-free run.
    fault_plan: Optional[object] = None
    #: kill-and-reclaim tasks still on the GPU this long after their
    #: scheduling started (None disables the MasterKernel watchdog).
    watchdog_deadline_ns: Optional[float] = None
    #: consecutive lethal failures before a TaskTable slot is retired
    #: from the free list (None disables quarantine).
    quarantine_threshold: Optional[int] = 3
    #: optional :class:`repro.obs.Obs`; attaching one instruments every
    #: layer of the stack (engine profiler, PCIe counters, TaskTable
    #: occupancy, scheduler decisions, per-SMM utilization timelines)
    #: and puts a ``stats_snapshot`` into ``RunStats.meta``.  ``None``
    #: (the default) leaves the run bit-identical and unslowed.
    obs: Optional[object] = None
    #: optional :class:`repro.partition.PartitionPlan`: split the GPU
    #: into isolated compute partitions (SPX/DPX/QPX or arbitrary SMM
    #: masks), each with its own MasterKernel/TaskTable/host.  A plain
    #: :class:`PagodaSession` cannot host partitions — build a
    #: :class:`repro.partition.PartitionedStack` (or let
    #: ``repro.partition.serve.serve_partitioned`` do it); the serve
    #: frontend dispatches there automatically when this is set.
    partition: Optional[object] = None


class PagodaSession:
    """A live Pagoda stack, for API-level use (examples, tests)."""

    def __init__(self, spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 config: Optional[PagodaConfig] = None,
                 engine: Optional[Engine] = None,
                 faults=None) -> None:
        self.spec = spec or titan_x()
        self.timing = timing or DEFAULT_TIMING
        self.config = config or PagodaConfig()
        if self.config.partition is not None:
            raise ValueError(
                "PagodaConfig.partition is set: a PagodaSession owns the "
                "whole device; build a repro.partition.PartitionedStack "
                "for partitioned runs"
            )
        # a shared engine lets several sessions (e.g. one per GPU of a
        # multi-GPU node) advance on one simulated clock
        self.engine = engine or Engine()
        #: seeded fault injector shared by every layer (None when the
        #: config carries no fault plan).  A multi-GPU node passes its
        #: own, so one plan's faults fire once per node, not per GPU.
        self.faults = faults
        if faults is None and self.config.fault_plan is not None:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(self.engine, self.config.fault_plan)
        #: optional Obs shared by every layer (None = no instrumentation).
        self.obs = self.config.obs
        if self.obs is not None and getattr(self.obs, "profiler", None):
            self.engine.profiler = self.obs.profiler
        if self.obs is not None:
            # start the occupancy memo from a clean slate so the
            # snapshot's hit/miss counters are per-run deterministic
            # (the lru_caches are process-global otherwise)
            from repro.gpu.occupancy import reset_memo_counters
            reset_memo_counters()
        self.gpu = Gpu(self.engine, self.spec, self.timing, obs=self.obs)
        self.bus = PcieBus(self.engine, self.timing,
                           faults=self.faults, obs=self.obs)
        num_columns = self.spec.num_smms * MTBS_PER_SMM
        self.table = TaskTable(
            self.engine, self.bus, num_columns, rows=self.config.rows,
            faults=self.faults,
            quarantine_threshold=self.config.quarantine_threshold,
            obs=self.obs,
        )
        self.master = MasterKernel(
            self.engine, self.gpu, self.table,
            functional=self.config.functional,
            serial_psched=self.config.serial_psched,
            deferred_scheduling=self.config.deferred_scheduling,
            watchdog_deadline_ns=self.config.watchdog_deadline_ns,
            faults=self.faults,
            obs=self.obs,
        )
        self.host = PagodaHost(self.engine, self.table, self.timing,
                               protocol=self.config.protocol,
                               faults=self.faults)
        if self.faults is not None:
            self._arm_timed_faults(num_columns)

    def _arm_timed_faults(self, num_columns: int) -> None:
        """Schedule the plan's time-triggered faults (SMM brown-outs)
        as engine callbacks.  ``gpu.die`` specs are left to the
        multi-GPU node, which owns device lifetime."""
        for spec in self.faults.time_triggered("gpu.brownout"):
            column = (spec.target or 0) % num_columns

            def fire(s=spec, c=column):
                self.master.brownout(c, reason=s.kind)
                self.faults.record_fired(s, f"mtb{c}")

            self.engine.call_at(spec.at_ns, fire)

    def shutdown(self) -> None:
        """Interrupt this component's daemon processes."""
        self.master.shutdown()


def run_pagoda(tasks: List[TaskSpec],
               spec: Optional[GpuSpec] = None,
               timing: Optional[TimingModel] = None,
               config: Optional[PagodaConfig] = None) -> RunStats:
    """Execute ``tasks`` under Pagoda; returns RunStats.

    Builds one :class:`PagodaSession` and plays the task list through
    the host driver (:mod:`repro.core.driver`): one spawner thread and
    one collector thread, as in Fig. 1a.  This is the one-GPU case of
    :func:`~repro.core.multigpu.run_multi_gpu_pagoda`, with the same
    schedule; it differs only in the ``runtime`` label and ``meta``.
    """
    config = config or PagodaConfig()
    session = PagodaSession(spec, timing, config)
    engine, table, bus = session.engine, session.table, session.bus
    driver = HostDriver(SingleNode(session), tasks, config).run()
    results = driver.results
    makespan = driver.finish_ns
    session.shutdown()

    executed = session.master.tasks_executed()
    failed = session.master.tasks_failed()
    if executed != len(tasks) and session.faults is None:
        raise RuntimeError(
            f"executed {executed} of {len(tasks)} tasks"
        )
    meta = {
        "entry_copies": table.entry_copies,
        "copy_backs": table.copy_backs,
    }
    if session.faults is not None:
        meta.update({
            "faults_injected": session.faults.injected_count,
            "tasks_failed": failed,
            "task_errors": {e.task_id: e.reason
                            for e in session.host.task_errors()},
            "watchdog_kills": len(session.master.watchdog_kills()),
            "quarantined_slots": sorted(table.quarantined),
        })
    if session.obs is not None:
        from repro.gpu.occupancy import memo_stats
        memo = memo_stats()
        session.obs.counter("gpu.occupancy.memo_hits").inc(memo["hits"])
        session.obs.counter("gpu.occupancy.memo_misses").inc(memo["misses"])
        meta["stats_snapshot"] = session.obs.snapshot(engine)
    return RunStats(
        runtime="pagoda" if not config.batch_size else "pagoda-batching",
        makespan=makespan,
        results=results,
        copy_time=bus.total_busy_time(),
        compute_time=max(r.end_time for r in results) if results else 0.0,
        mean_occupancy=session.master.useful_occupancy(makespan),
        meta=meta,
    )
