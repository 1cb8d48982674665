"""GeMTC baseline: SuperKernel with batch launching and one FIFO queue.

Re-implemented from the paper's description (§1, §6.2, §7):

- a persistent *SuperKernel* acquires a fixed pool of worker
  threadblocks (``worker_threads`` each; the paper's default of 32 gave
  50 % occupancy, the evaluation uses ≥64 for 100 %);
- every task executes as a **single threadblock** on one worker;
- workers pull from a **single FIFO queue**, serializing on a
  global-memory atomic per pop;
- tasks arrive in **batches**: no new batch is submitted until every
  task of the previous batch has finished, so a batch's completion time
  is set by its longest task (the load-imbalance §6.6 measures);
- **no shared-memory support** (tasks requesting it are rejected, as in
  the paper's evaluation which dropped shared memory from GeMTC
  versions);
- the task count must be known up front (why SLUD cannot run, §6.2) —
  inherent here since the batch schedule is precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.cuda.barrier import WarpBarrier
from repro.device_api import run_functional
from repro.gpu.device import Gpu
from repro.gpu.occupancy import blocks_per_smm, registers_per_block
from repro.gpu.phases import BlockSync, Phase
from repro.gpu.spec import GpuSpec, titan_x
from repro.gpu.timing import DEFAULT_TIMING, TimingModel
from repro.obs.registry import Gauge
from repro.pcie.bus import Direction, PcieBus
from repro.sim import Engine, Event, FifoResource, Store
from repro.tasks import RunStats, TaskResult, TaskSpec

#: Registers per thread the SuperKernel compiles to (same -maxrregcount
#: discipline as the MasterKernel).
WORKER_REGS = 32


@dataclass
class GemtcConfig:
    """Knobs for one GeMTC run."""

    #: threads per SuperKernel worker threadblock.
    worker_threads: int = 128
    #: tasks per batch; ``None`` uses one task per worker.
    batch_size: Optional[int] = None
    copy_inputs: bool = True
    copy_outputs: bool = True
    spawn_gap_ns: float = 0.0
    functional: bool = False


class _GemtcDevice:
    """The SuperKernel: worker pool + single FIFO queue."""

    def __init__(self, engine: Engine, gpu: Gpu, timing: TimingModel,
                 worker_threads: int, functional: bool) -> None:
        self.engine = engine
        self.gpu = gpu
        self.timing = timing
        self.functional = functional
        self.queue: Store = Store(engine, "gemtc.fifo")
        self.queue_lock = FifoResource(engine, 1, "gemtc.queue_lock")
        self.busy_warps = Gauge("gemtc.busy_warps")
        self.worker_warps = -(-worker_threads // 32)
        regs = registers_per_block(gpu.spec, worker_threads, WORKER_REGS)
        per_smm = blocks_per_smm(gpu.spec, worker_threads, WORKER_REGS, 0)
        self.num_workers = per_smm * gpu.spec.num_smms
        if self.num_workers == 0:
            raise ValueError("worker shape does not fit on the GPU")
        self._procs = []
        for smm in gpu.smms:
            for _ in range(per_smm):
                smm.reserve_block(self.worker_warps, regs, 0)
                self._procs.append(engine.spawn(
                    self._worker(smm), f"gemtc.worker.{len(self._procs)}"
                ))

    def shutdown(self) -> None:
        """Interrupt this component's daemon processes."""
        for proc in self._procs:
            proc.interrupt()

    def _worker(self, smm) -> Generator:
        while True:
            item = yield self.queue.get()
            task, block_id, result, on_done = item
            # serialize on the single FIFO queue's atomic pop
            yield self.queue_lock.acquire()
            yield self.timing.gemtc_pop_ns
            self.queue_lock.release()
            if result is not None and not result.start_time:
                result.start_time = self.engine.now
            yield from self._run_block(task, block_id, smm)
            on_done()

    def _run_block(self, task: TaskSpec, block_id: int, smm) -> Generator:
        warps = task.warps_per_block
        if warps > self.worker_warps:
            raise ValueError(
                f"task {task.name!r} needs {warps} warps; worker has "
                f"{self.worker_warps}"
            )
        self.busy_warps.add(self.engine.now, warps)
        barrier = WarpBarrier(warps)
        done = Event()
        remaining = [warps]

        def warp_proc(warp_id):
            for item in task.warp_phases(block_id, warp_id):
                if isinstance(item, Phase):
                    yield from smm.execute_phase(item, self.gpu.dram)
                elif isinstance(item, BlockSync):
                    yield self.timing.syncthreads_ns
                    yield barrier.arrive()
                else:
                    raise TypeError(f"kernel yielded {item!r}")
            remaining[0] -= 1
            if remaining[0] == 0:
                done.fire(None)

        for warp_id in range(warps):
            self.engine.spawn(warp_proc(warp_id),
                              f"gemtc.warp.{task.name}.{block_id}.{warp_id}")
        yield done
        self.busy_warps.add(self.engine.now, -warps)


def run_gemtc(tasks: List[TaskSpec],
              spec: Optional[GpuSpec] = None,
              timing: Optional[TimingModel] = None,
              config: Optional[GemtcConfig] = None) -> RunStats:
    """Execute ``tasks`` under the GeMTC model."""
    config = config or GemtcConfig()
    timing = timing or DEFAULT_TIMING
    for task in tasks:
        if task.shared_mem_bytes:
            raise ValueError(
                f"GeMTC has no shared-memory support (task {task.name!r})"
            )
    engine = Engine()
    gpu = Gpu(engine, spec or titan_x(), timing)
    bus = PcieBus(engine, timing)
    device = _GemtcDevice(engine, gpu, timing, config.worker_threads,
                          config.functional)
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
    batch_size = config.batch_size or device.num_workers

    def host():
        # one launch of the SuperKernel itself
        yield timing.kernel_launch_ns
        for start in range(0, len(tasks), batch_size):
            batch = list(range(start, min(start + batch_size, len(tasks))))
            if config.spawn_gap_ns:
                yield config.spawn_gap_ns * len(batch)
            batch_done = Event()
            pending = [sum(tasks[i].num_blocks for i in batch)]
            in_copies = []
            for i in batch:
                results[i].spawn_time = engine.now
                yield timing.gemtc_task_setup_ns  # per-task marshalling
                if config.copy_inputs and tasks[i].input_bytes:
                    yield timing.memcpy_issue_ns
                    in_copies.append(engine.spawn(
                        bus.transfer(tasks[i].input_bytes, Direction.H2D),
                        f"gemtc.incopy.{i}",
                    ))
            # the batch cannot launch until its inputs are resident
            for proc in in_copies:
                yield proc
            # submit the batch descriptor table in one transaction
            yield timing.gemtc_batch_submit_ns
            yield from bus.transfer(
                sum(tasks[i].param_bytes for i in batch), Direction.H2D
            )
            for i in batch:
                results[i].sched_time = engine.now
                task = tasks[i]

                def make_on_done(idx, blocks_left=None):
                    state = {"left": tasks[idx].num_blocks}

                    def on_done():
                        state["left"] -= 1
                        pending[0] -= 1
                        if state["left"] == 0:
                            results[idx].end_time = engine.now
                            if config.functional:
                                run_functional(tasks[idx])
                        if pending[0] == 0:
                            batch_done.fire(None)
                    return on_done

                on_done = make_on_done(i)
                for block_id in range(task.num_blocks):
                    device.queue.put((task, block_id, results[i], on_done))
            # batch barrier: wait for the longest task in the batch
            yield batch_done
            out_copies = []
            for i in batch:
                if config.copy_outputs and tasks[i].output_bytes:
                    yield timing.memcpy_issue_ns
                    out_copies.append(engine.spawn(
                        bus.transfer(tasks[i].output_bytes, Direction.D2H),
                        f"gemtc.outcopy.{i}",
                    ))
            for proc in out_copies:
                yield proc

    host_proc = engine.spawn(host(), "gemtc-host")
    engine.run()
    if host_proc.alive:
        raise RuntimeError("GeMTC run did not complete (deadlock?)")
    makespan = engine.now
    device.shutdown()
    missing = [r for r in results if r.end_time == 0]
    if missing:
        raise RuntimeError(f"{len(missing)} tasks never completed")
    total_warp_slots = gpu.spec.total_warp_slots
    return RunStats(
        runtime="gemtc",
        makespan=makespan,
        results=results,
        copy_time=bus.total_busy_time(),
        compute_time=max(r.end_time for r in results),
        mean_occupancy=device.busy_warps.average(makespan) / total_warp_slots,
        meta={"workers": device.num_workers, "batch_size": batch_size},
    )
