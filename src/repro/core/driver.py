"""The host driver: Fig. 1a's two host threads, written once.

Pagoda's host side is a *spawner* that issues input copies and
``taskSpawn`` calls (the pipelined protocol of §4.2.1) and a
*collector* that polls the lazy aggregate copy-backs of §4.2.2 and
pulls outputs back.  Every runner plays its task list through this one
loop:

- :func:`~repro.core.runtime.run_pagoda` drives one
  :class:`~repro.core.runtime.PagodaSession` (a :class:`SingleNode`);
- :func:`~repro.core.multigpu.run_multi_gpu_pagoda` drives a
  :class:`~repro.core.multigpu.MultiGpuPagoda` node and re-queues a
  dead GPU's in-flight tasks through :meth:`HostDriver.requeue`;
- :func:`~repro.partition.run_partitioned` drives each partition as a
  :class:`SingleNode`, claiming its Zorua quota through the
  ``acquire``/``release`` hooks.

A *node* is anything with an ``engine``, a list of session-shaped
``sessions`` (``bus``, ``table``, ``host``, ``timing``), a
``pick_gpu()`` placement and the host-side ``_outstanding`` task
counts it places by.  There is one spawner per driver (a failover
starts a fresh one only after the first has finished) and one
collector per session.

Spacing: with ``spawn_gap_ns`` each task waits that long after the
previous spawn (closed loop) or, with ``open_loop``, *arrives* at
``(i + 1) * spawn_gap_ns`` whatever the host's progress, and its
latency is measured from that arrival.  ``config.batch_size`` turns the spawner
into the Pagoda-Batching ablation of Fig. 11: after each batch it
waits for every live session to drain; a failed task in the batch is
counted like any other failure, it does not abort the run.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, List, Optional

from repro.core.errors import GpuDeadError, TaskError, TaskErrorGroup
from repro.pcie.bus import Direction
from repro.tasks import TaskResult, TaskSpec


class SingleNode:
    """The node shape over one stack: one 'GPU', always picked."""

    def __init__(self, session) -> None:
        self.engine = session.engine
        self.sessions = [session]
        self._outstanding = [0]

    def pick_gpu(self) -> int:
        return 0

    def shutdown(self) -> None:
        """The caller owns the stack's lifetime; nothing to stop here."""


class HostDriver:
    """One spawner and one collector per session over a node.

    ``config`` is a :class:`~repro.core.runtime.PagodaConfig`;
    ``prefix`` namespaces the process names.  The optional
    ``acquire(task)`` hook is a subroutine run before each spawn whose
    return value is handed to ``release`` when the collector observes
    that task finish.
    """

    def __init__(self, node, tasks: List[TaskSpec], config, *,
                 prefix: str = "",
                 acquire: Optional[Callable[[TaskSpec], Generator]] = None,
                 release: Optional[Callable[[object], None]] = None,
                 ) -> None:
        self.node = node
        self.engine = node.engine
        self.tasks = tasks
        self.config = config
        self.prefix = prefix
        self._acquire = acquire
        self._release = release
        self.results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]
        #: session index each task was last spawned on (-1: not placed).
        self.placements: List[int] = [-1] * len(tasks)
        #: task indices not yet (or no longer) handed to a session.
        self.pending = deque(range(len(tasks)))
        #: per session, live taskID -> (task index, acquire claim).
        self.inflight = [{} for _ in node.sessions]
        self.remaining = len(tasks)
        #: when the last collector finished: the makespan.  The
        #: watchdog's stale one-shot timers outlive the workload and
        #: inflate ``engine.now``, so this is not when the queue drained.
        self.finish_ns = 0.0
        self.spawners: List = []
        self.collectors: List = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> List:
        """Spawn the spawner and the collectors; returns the collectors."""
        engine = self.engine
        self.spawners.append(
            engine.spawn(self.spawner(), f"{self.prefix}spawner0"))
        many = len(self.node.sessions) > 1
        for g in range(len(self.node.sessions)):
            tag = f".{g}" if many else ""
            self.collectors.append(engine.spawn(
                self.collector(g), f"{self.prefix}collector{tag}"))
        return self.collectors

    def run(self) -> "HostDriver":
        """Start, run the engine to completion, check every collector
        finished."""
        self.start()
        self.engine.run(raise_on_deadlock=True)
        if not all(proc._done for proc in self.collectors):
            raise RuntimeError("Pagoda run did not complete (deadlock?)")
        return self

    def requeue(self, gpu_idx: int) -> int:
        """Hand the in-flight tasks of a session whose host just died
        back to the spawner; returns how many were re-queued."""
        lost = self.inflight[gpu_idx]
        self.inflight[gpu_idx] = {}
        indices = sorted(i for i, _claim in lost.values())
        for i in indices:
            self.placements[i] = -1
            self.pending.append(i)
        if self.pending and not any(p.alive for p in self.spawners):
            # the spawner already finished; without a fresh one the
            # failed-over work would never be issued
            self.spawners.append(self.engine.spawn(
                self.spawner(), f"{self.prefix}respawner.{gpu_idx}"))
        return len(indices)

    def _done_spawning(self) -> bool:
        return not self.pending and not any(p.alive for p in self.spawners)

    # -- the spawner thread ---------------------------------------------------

    def spawner(self) -> Generator:
        """Process body: space, copy in and spawn every pending task."""
        engine, node, config = self.engine, self.node, self.config
        tasks, results, pending = self.tasks, self.results, self.pending
        gap, open_loop = config.spawn_gap_ns, config.open_loop
        spawned = 0
        while pending:
            i = pending.popleft()
            task = tasks[i]
            result = results[i]
            if not result.spawn_time:  # a failed-over task keeps its stamp
                if gap and open_loop:
                    arrival = (i + 1) * gap
                    if engine.now < arrival:
                        yield arrival - engine.now
                    result.spawn_time = arrival
                else:
                    if gap:
                        yield gap
                    result.spawn_time = engine.now
            gpu_idx = node.pick_gpu()
            session = node.sessions[gpu_idx]
            if config.copy_inputs and task.input_bytes:
                yield session.timing.memcpy_issue_ns  # cudaMemcpyAsync
                engine.spawn(
                    session.bus.transfer(task.input_bytes, Direction.H2D),
                    f"{self.prefix}incopy.{i}",
                )
            claim = None
            if self._acquire is not None:
                claim = yield from self._acquire(task)
            try:
                task_id = yield from session.host.task_spawn_relaunch(
                    task, result)
            except GpuDeadError:
                # the device died while this spawn was in flight: put
                # the task back and try a survivor
                pending.appendleft(i)
                continue
            self.placements[i] = gpu_idx
            node._outstanding[gpu_idx] += 1
            self.inflight[gpu_idx][task_id] = (i, claim)
            spawned += 1
            if config.batch_size and spawned % config.batch_size == 0:
                for s in node.sessions:
                    try:
                        yield from s.host.wait_all()
                    except GpuDeadError:
                        pass  # its tasks were re-queued
                    except (TaskError, TaskErrorGroup):
                        pass  # counted through tasks_failed/task_errors

    # -- the collector thread (one per session) -------------------------------

    def collector(self, gpu_idx: int) -> Generator:
        """Process body: observe one session's completions and copy
        their outputs back."""
        engine, node, config = self.engine, self.node, self.config
        session = node.sessions[gpu_idx]
        host, table, bus = session.host, session.table, session.bus
        timing = session.timing
        tag = f".{gpu_idx}" if len(node.sessions) > 1 else ""
        transfers = []
        while not host.dead:  # a dead host's tasks were re-queued
            done_spawning = self._done_spawning()
            if done_spawning:
                yield from host.finalize_last()
            yield timing.wait_timeout_ns
            if host.dead:
                break
            yield from table.copy_back()
            # push-based completion reporting: the copy-back already
            # recorded which tasks newly finished
            for task_id in table.drain_completions():
                entry = self.inflight[gpu_idx].pop(task_id, None)
                if entry is None:
                    continue
                i, claim = entry
                if claim is not None:
                    self._release(claim)
                self.remaining -= 1
                node._outstanding[gpu_idx] -= 1
                nbytes = self.tasks[i].output_bytes
                if config.copy_outputs and nbytes:
                    yield timing.memcpy_issue_ns  # issued by this thread
                    transfers.append(engine.spawn(
                        bus.transfer(nbytes, Direction.D2H),
                        f"{self.prefix}outcopy{tag}.{task_id}",
                    ))
            if done_spawning and self.remaining == 0:
                break
        for proc in transfers:
            yield proc
        self.finish_ns = max(self.finish_ns, engine.now)
