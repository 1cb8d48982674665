"""The task server: ingress, admission, dispatch, and collection.

This is the serve layer's engine room.  It turns a
:class:`~repro.core.MultiGpuPagoda` node (one stack for the common
single-GPU case) into a request server wired from four kinds of sim
processes:

- one **load generator** per tenant, replaying that tenant's seeded
  :class:`~repro.serve.arrivals.ArrivalProcess` (open-loop: arrivals
  track the schedule regardless of progress; closed-loop: each arrival
  waits for the previous response);
- the **admission gate** (:mod:`repro.serve.policies`), consulted at
  every arrival against the bounded ingress queue — drops are counted
  and answered immediately, backpressure blocks the source;
- one **dispatcher**, which pops queue-front batches (optionally fused
  by the :mod:`repro.serve.batcher`), remaps priorities through the
  SLO shim, picks the shortest-queue GPU, and drives the Table 1
  ``taskSpawn`` path;
- one **collector per GPU**, pulling completions back via the
  TaskTable's push-based ``drain_completions`` and stamping the
  per-stage latency breakdown into the accountant's histograms
  (ingress wait → PCIe post → TaskTable ready → warp exec).

Determinism: every source of variation — arrival schedules, admission
state, fault plans — is fixed before ``engine.run()``; the report of
:func:`serve` is a pure function of ``(tenants, config)`` and
byte-identical across repeated runs with the same seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.errors import CudaLaunchError, RetryPolicy
from repro.core.multigpu import MultiGpuPagoda
from repro.core.runtime import PagodaConfig
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.pcie.bus import Direction
from repro.serve.arrivals import ArrivalProcess
from repro.serve.batcher import BatchPolicy, fuse_key, fuse_specs
from repro.serve.histogram import LatencyHistogram
from repro.serve.policies import ADMIT, DROP, WAIT, AdmissionPolicy
from repro.serve.slo import SloClass, apply_slo
from repro.sim import Event, Signal
from repro.tasks import TaskResult, TaskSpec

#: latency pipeline stages, in order (report + trace rows use these).
STAGES = ("ingress_wait", "pcie_post", "table_ready", "warp_exec")


@dataclass
class TenantSpec:
    """One traffic source: its tasks, arrival process, and contract."""

    name: str
    #: task specs issued in order, one per arrival; the tenant's
    #: request count is ``len(tasks)``.
    tasks: List[TaskSpec]
    arrivals: ArrivalProcess
    slo: SloClass = field(default_factory=SloClass)
    #: closed-loop tenants wait for each response (or drop) before
    #: clocking the next inter-arrival gap; open-loop tenants track
    #: their absolute schedule no matter how the server is doing.
    closed_loop: bool = False
    #: name of the compute partition serving this tenant, when the
    #: pagoda config carries a :class:`repro.partition.PartitionPlan`.
    #: Required whenever the plan has more than one partition; ignored
    #: (and must be None) on unpartitioned runs.
    partition: Optional[str] = None


@dataclass
class Request:
    """One in-flight unit of service with its stage timestamps."""

    index: int
    tenant: str
    spec: TaskSpec
    slo: SloClass
    arrival_ns: float
    done: Event
    status: str = "pending"  # queued | inflight | done | failed | dropped
    admit_ns: float = -1.0
    dispatch_ns: float = -1.0
    observed_ns: float = -1.0
    gpu_index: int = -1
    batch_size: int = 1
    result: Optional[TaskResult] = None

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion latency (meaningful once done)."""
        if self.result is None:
            return 0.0
        return self.result.end_time - self.arrival_ns


class IngressQueue:
    """Bounded-by-policy ingress buffer: global FIFO or per-tenant
    round-robin (when the admission policy asks for fair dequeue)."""

    def __init__(self, tenants: List[TenantSpec], fair: bool = False) -> None:
        self.fair = fair
        self._names = [t.name for t in tenants]
        self._per_tenant: Dict[str, deque] = {n: deque() for n in self._names}
        self._fifo: deque = deque()
        self._rr = 0
        self._len = 0
        self.max_depth_seen = 0

    def __len__(self) -> int:
        return self._len

    def tenant_names(self) -> List[str]:
        """All registered tenants (so fair policies can size slices)."""
        return list(self._names)

    def depth(self, tenant: str) -> int:
        """Queued requests of one tenant."""
        if self.fair:
            return len(self._per_tenant[tenant])
        return sum(1 for r in self._fifo if r.tenant == tenant)

    def append(self, request: Request) -> None:
        if self.fair:
            self._per_tenant[request.tenant].append(request)
        else:
            self._fifo.append(request)
        self._len += 1
        if self._len > self.max_depth_seen:
            self.max_depth_seen = self._len

    def _pick_queue(self) -> deque:
        if not self.fair:
            return self._fifo
        n = len(self._names)
        for step in range(n):
            q = self._per_tenant[self._names[(self._rr + step) % n]]
            if q:
                self._rr = (self._rr + step + 1) % n
                return q
        raise IndexError("pop from empty ingress queue")

    def clear(self) -> List[Request]:
        """Empty the queue, returning the evicted requests in queue
        order (the node-death failover path; ``max_depth_seen`` is
        deliberately preserved for the post-mortem report)."""
        evicted: List[Request] = []
        if self.fair:
            n = len(self._names)
            while self._len:
                q = self._per_tenant[self._names[self._rr % n]]
                self._rr = (self._rr + 1) % n
                while q:
                    evicted.append(q.popleft())
                    self._len -= 1
        else:
            evicted.extend(self._fifo)
            self._fifo.clear()
            self._len = 0
        return evicted

    def pop_batch(self, policy: BatchPolicy) -> List[Request]:
        """Pop the next request plus any fusable run behind it.

        Only consecutive requests at the *front* of the picked queue
        are considered — coalescing never reorders service.
        """
        if self._len == 0:
            raise IndexError("pop from empty ingress queue")
        q = self._pick_queue()
        head = q.popleft()
        batch = [head]
        if policy.enabled:
            key = fuse_key(head.spec)
            blocks = head.spec.num_blocks
            while (key is not None and q
                   and policy.can_extend(batch, q[0].spec, key, blocks)):
                nxt = q.popleft()
                blocks += nxt.spec.num_blocks
                batch.append(nxt)
        self._len -= len(batch)
        return batch


@dataclass
class ServeConfig:
    """Knobs for one serving run."""

    #: admission policy at the ingress queue.
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: same-kernel coalescing ahead of the TaskTable (off by default).
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    #: the underlying runtime's configuration (fault plans, watchdog,
    #: deferred scheduling for SLO priorities, ... all plug in here).
    pagoda: PagodaConfig = field(default_factory=PagodaConfig)
    #: Pagoda stacks behind the one ingress queue (shortest-queue
    #: placement; ``gpu.die`` fault specs are not served — device
    #: failover stays with :func:`repro.core.run_multi_gpu_pagoda`).
    num_gpus: int = 1
    #: histogram resolution: percentiles are exact to 2**-bits.
    precision_bits: int = 10
    #: report label.
    label: str = "serve"


class TaskServer:
    """One serving run over a live Pagoda node."""

    #: remote frontends (:class:`repro.serve.remote.NodeFrontend`)
    #: receive their tasks by injection instead of local generators.
    remote = False
    #: prefix for this server's process names — set by multiplexing
    #: frontends (one server per partition) to keep traces readable.
    _name_prefix = ""

    def __init__(self, tenants: List[TenantSpec],
                 config: Optional[ServeConfig] = None,
                 spec: Optional[GpuSpec] = None,
                 timing: Optional[TimingModel] = None,
                 node=None) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        for t in tenants:
            if not t.tasks and not self.remote:
                raise ValueError(f"tenant {t.name!r} has no tasks")
        self.tenants = list(tenants)
        self.config = config or ServeConfig()
        #: the Pagoda node served against — built here for the common
        #: case, or injected prebuilt (a partition of a shared stack,
        #: in which case several servers share one engine and the
        #: caller owns ``engine.run``).
        self.node = node if node is not None else MultiGpuPagoda(
            self.config.num_gpus, spec, timing, self.config.pagoda)
        self.engine = self.node.engine
        self.timing = self.node.sessions[0].timing
        self.policy = self.config.policy
        self.queue = IngressQueue(self.tenants,
                                  fair=self.policy.fair_dequeue)

        #: optional :class:`repro.obs.Obs`, inherited from the pagoda
        #: config so one context spans the whole stack.  The report
        #: stays byte-identical either way; obs data rides separately.
        self.obs = self.config.pagoda.obs
        if self.obs is not None:
            obs = self.obs
            self._obs_offered = obs.counter("serve.offered")
            self._obs_admitted = obs.counter("serve.admitted")
            self._obs_dropped = obs.counter("serve.dropped")
            self._obs_completed = obs.counter("serve.completed")
            self._obs_failed = obs.counter("serve.failed")
            self._obs_queue = obs.timeline("serve.queue_depth")
            self._obs_inflight = obs.timeline("serve.inflight")

        #: every request ever created, in global arrival order.
        self.requests: List[Request] = []
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        self.completed = 0
        self.failed = 0
        self.spawns = 0  # taskSpawn calls (== batches dispatched)
        self.makespan = 0.0
        self.max_inflight = 0

        #: latency accountant: total + per-stage + per-tenant.
        bits = self.config.precision_bits
        self.hist_total = LatencyHistogram(bits)
        self.stage_hists = {s: LatencyHistogram(bits) for s in STAGES}
        self.tenant_stats: Dict[str, Dict] = {
            t.name: {"offered": 0, "dropped": 0, "completed": 0,
                     "failed": 0, "good": 0,
                     "hist": LatencyHistogram(bits)}
            for t in self.tenants
        }
        #: counter timeline: (t_ns, queue_depth, inflight, dropped,
        #: finished) — one row per state change (same-instant rows
        #: coalesced), feeding the Chrome-trace counter export.
        self.timeline: List[tuple] = []

        self._work = Signal()
        self._space = Signal()
        self._dispatch_idle = False
        self._inflight: List[Dict[int, List[Request]]] = [
            {} for _ in range(self.config.num_gpus)
        ]
        self._inflight_count = 0
        self._gen_procs: List = []
        self._dispatch_proc = None
        self._collector_procs: List = []
        self._finish_ns = 0.0

    # -- bookkeeping ----------------------------------------------------------

    def _sample(self) -> None:
        row = (self.engine.now, len(self.queue), self._inflight_count,
               self.dropped, self.completed + self.failed)
        if self._inflight_count > self.max_inflight:
            self.max_inflight = self._inflight_count
        if self.timeline and self.timeline[-1][0] == row[0]:
            self.timeline[-1] = row
        else:
            self.timeline.append(row)
        if self.obs is not None:
            self._obs_queue.set(row[0], row[1])
            self._obs_inflight.set(row[0], row[2])

    def _note_terminal(self, req: Request) -> None:
        """Hook: ``req`` just reached a terminal status (``done`` /
        ``failed`` / ``dropped``).  The remote node frontend overrides
        this to log the answer for the cluster's reliability ledger;
        the local server needs nothing."""

    def _generators_done(self) -> bool:
        return not any(p.alive for p in self._gen_procs)

    def _all_done(self) -> bool:
        return (self._generators_done()
                and self._dispatch_proc is not None
                and self._dispatch_proc._done
                and len(self.queue) == 0
                and self._inflight_count == 0)

    # -- the sim processes ----------------------------------------------------

    def _new_request(self, tenant: TenantSpec, spec: TaskSpec,
                     arrival_ns: float) -> Request:
        req = Request(index=len(self.requests), tenant=tenant.name,
                      spec=spec, slo=tenant.slo, arrival_ns=arrival_ns,
                      done=Event())
        self.requests.append(req)
        self.offered += 1
        self.tenant_stats[tenant.name]["offered"] += 1
        if self.obs is not None:
            self._obs_offered.inc()
        return req

    def _offer(self, req: Request) -> Generator:
        """Put one request through the admission gate (may block the
        caller under a backpressure policy)."""
        while True:
            decision = self.policy.admit(req, self.queue, self.engine.now)
            if decision == ADMIT:
                req.admit_ns = self.engine.now
                req.status = "queued"
                self.admitted += 1
                self.queue.append(req)
                if self.obs is not None:
                    self._obs_admitted.inc()
                self._sample()
                self._work.pulse()
                return
            if decision == DROP:
                req.status = "dropped"
                self.dropped += 1
                self.tenant_stats[req.tenant]["dropped"] += 1
                if self.obs is not None:
                    self._obs_dropped.inc()
                    self.obs.instant("serve", "drop", self.engine.now,
                                     tenant=req.tenant, index=req.index)
                self._sample()
                self._note_terminal(req)
                req.done.fire(None)
                return
            if decision != WAIT:
                raise ValueError(
                    f"admission policy returned {decision!r}"
                )
            yield self._space.wait()

    def _generate(self, tenant: TenantSpec) -> Generator:
        engine = self.engine
        n = len(tenant.tasks)
        if tenant.closed_loop:
            for spec, gap in zip(tenant.tasks, tenant.arrivals.gaps(n)):
                if gap:
                    yield gap
                req = self._new_request(tenant, spec, engine.now)
                yield from self._offer(req)
                yield req.done
        else:
            for spec, at in zip(tenant.tasks, tenant.arrivals.schedule(n)):
                if engine.now < at:
                    yield at - engine.now
                # the arrival instant is the *offered-load* schedule
                # point even if backpressure delayed the previous offer
                req = self._new_request(tenant, spec, at)
                yield from self._offer(req)
        # wake the dispatcher so "generators done" is re-evaluated —
        # deferred one engine step, because a pulse fired from inside
        # this generator's final send() would wake the dispatcher
        # while this process still counts as alive
        engine.call_after(0.0, self._work.pulse)

    def _dispatch(self) -> Generator:
        engine = self.engine
        retry_policy = RetryPolicy()
        while True:
            if len(self.queue) == 0:
                if self._generators_done():
                    return
                self._dispatch_idle = True
                yield self._work.wait()
                self._dispatch_idle = False
                continue
            batch = self.queue.pop_batch(self.config.batch)
            self._space.pulse()
            head = batch[0]
            now = engine.now
            for r in batch:
                r.dispatch_ns = now
                r.status = "inflight"
                r.batch_size = len(batch)
            spec = (fuse_specs([r.spec for r in batch])
                    if len(batch) > 1 else head.spec)
            spec = apply_slo(spec, head.slo, head.arrival_ns, now)
            claim = yield from self._acquire_slot(spec)
            gpu_idx = self.node.pick_gpu()
            session = self.node.sessions[gpu_idx]
            result = TaskResult(0, spec.name)
            if self.config.pagoda.copy_inputs and spec.input_bytes:
                yield self.timing.memcpy_issue_ns
                engine.spawn(
                    session.bus.transfer(spec.input_bytes, Direction.H2D),
                    f"serve-incopy.{head.index}",
                )
            attempt = 0
            while True:
                try:
                    task_id = yield from session.host.task_spawn(spec, result)
                    break
                except CudaLaunchError:
                    attempt += 1
                    if attempt >= retry_policy.max_attempts:
                        raise
                    yield retry_policy.backoff_ns(attempt - 1)
            # latency is measured from arrival, not from when the host
            # got around to posting the entry
            result.spawn_time = head.arrival_ns
            self.spawns += 1
            self._note_claim(task_id, claim)
            for r in batch:
                r.result = result
                r.gpu_index = gpu_idx
            self.node._outstanding[gpu_idx] += len(batch)
            self._inflight[gpu_idx][task_id] = batch
            self._inflight_count += len(batch)
            self._sample()

    def _record_latency(self, req: Request) -> None:
        res = req.result
        arrival = req.arrival_ns
        stages = (
            ("ingress_wait", req.dispatch_ns - arrival),
            ("pcie_post", res.post_time - req.dispatch_ns),
            ("table_ready", res.sched_time - res.post_time),
            ("warp_exec", res.end_time - res.sched_time),
        )
        for name, dur in stages:
            self.stage_hists[name].record(max(0.0, dur))
        total = max(0.0, res.end_time - arrival)
        self.hist_total.record(total)
        stats = self.tenant_stats[req.tenant]
        stats["hist"].record(total)
        deadline = req.slo.deadline_ns
        if deadline is None or total <= deadline:
            stats["good"] += 1

    # -- resource-admission hooks ---------------------------------------------
    # Default implementations are observational no-ops that add ZERO
    # engine events, keeping unpartitioned reports byte-identical.
    # The partition server overrides them with quota-ledger claims.

    def _acquire_slot(self, spec: TaskSpec) -> Generator:
        """Hook: block until the backend may admit ``spec``; returns an
        opaque claim handle (``None`` here)."""
        return None
        yield  # pragma: no cover - unreachable; makes this a generator

    def _note_claim(self, task_id: int, claim) -> None:
        """Hook: associate a claim handle with the spawned task."""

    def _release_slot(self, task_id: int) -> None:
        """Hook: the task finished; return its claim."""

    def _finish_batch(self, gpu_idx: int, task_id: int,
                      batch: List[Request], transfers: List) -> Generator:
        session = self.node.sessions[gpu_idx]
        self._release_slot(task_id)
        err = session.table.errors.get(task_id)
        now = self.engine.now
        self._inflight_count -= len(batch)
        self.node._outstanding[gpu_idx] -= len(batch)
        for r in batch:
            r.observed_ns = now
            if err is not None:
                r.status = "failed"
                self.failed += 1
                self.tenant_stats[r.tenant]["failed"] += 1
                if self.obs is not None:
                    self._obs_failed.inc()
            else:
                r.status = "done"
                self.completed += 1
                self.tenant_stats[r.tenant]["completed"] += 1
                if self.obs is not None:
                    self._obs_completed.inc()
                self._record_latency(r)
            self._note_terminal(r)
            r.done.fire(r)
        self._sample()
        out_bytes = sum(r.spec.output_bytes for r in batch)
        if self.config.pagoda.copy_outputs and out_bytes and err is None:
            yield self.timing.memcpy_issue_ns
            transfers.append(self.engine.spawn(
                session.bus.transfer(out_bytes, Direction.D2H),
                f"serve-outcopy.{gpu_idx}.{task_id}",
            ))

    def _collect(self, gpu_idx: int) -> Generator:
        session = self.node.sessions[gpu_idx]
        host, table = session.host, session.table
        transfers: List = []
        while not self._all_done():
            if self._dispatch_idle or (
                    self._dispatch_proc is not None
                    and self._dispatch_proc._done):
                # no spawn is imminent: promote the pipeline tail so the
                # last posted task cannot wedge at (-1, 0) (§4.2.2)
                yield from host.finalize_last()
            yield self.timing.wait_timeout_ns
            yield from table.copy_back()
            for task_id in table.drain_completions():
                batch = self._inflight[gpu_idx].pop(task_id, None)
                if batch is None:
                    continue
                yield from self._finish_batch(gpu_idx, task_id, batch,
                                              transfers)
        for proc in transfers:
            yield proc
        self._finish_ns = max(self._finish_ns, self.engine.now)

    # -- driver ---------------------------------------------------------------

    def start(self) -> List:
        """Spawn this server's sim processes (no engine.run).

        Returns the processes whose completion marks the run done, so a
        caller multiplexing several servers onto one engine (the
        partitioned frontend) can drive and check them itself.
        """
        engine = self.engine
        pre = self._name_prefix
        for tenant in self.tenants:
            self._gen_procs.append(engine.spawn(
                self._generate(tenant), f"{pre}serve-gen.{tenant.name}"))
        self._dispatch_proc = engine.spawn(self._dispatch(),
                                           f"{pre}serve-dispatch")
        self._collector_procs = [
            engine.spawn(self._collect(i), f"{pre}serve-collect.{i}")
            for i in range(self.config.num_gpus)
        ]
        return [self._dispatch_proc] + self._collector_procs

    def finish(self):
        """Post-run checks + report (engine already drained)."""
        for proc in [self._dispatch_proc] + self._collector_procs:
            if not proc._done:
                raise RuntimeError(
                    f"serving run did not complete ({proc.name} stuck)"
                )
        self.makespan = self._finish_ns
        self.node.shutdown()
        if (self.completed + self.failed) != self.admitted:
            raise RuntimeError(
                f"served {self.completed}+{self.failed} of "
                f"{self.admitted} admitted requests"
            )
        from repro.serve.report import build_report
        return build_report(self)

    def run(self):
        """Run to quiescence and return the :class:`ServeReport`."""
        self.start()
        self.engine.run(raise_on_deadlock=True)
        return self.finish()

    def faults_injected(self) -> int:
        """Faults fired across every session's injector."""
        return sum(s.faults.injected_count
                   for s in self.node.sessions if s.faults is not None)


def serve(tenants: List[TenantSpec],
          config: Optional[ServeConfig] = None,
          spec: Optional[GpuSpec] = None,
          timing: Optional[TimingModel] = None):
    """Run one serving experiment.

    Returns a :class:`~repro.serve.report.ServeReport` — or, when the
    pagoda config carries a :class:`repro.partition.PartitionPlan`, a
    dict of per-partition reports from the partitioned frontend.
    """
    if config is not None and config.pagoda.partition is not None:
        from repro.partition.serve import serve_partitioned
        return serve_partitioned(tenants, config, spec, timing)
    for t in tenants:
        if t.partition is not None:
            raise ValueError(
                f"tenant {t.name!r} names partition {t.partition!r} but "
                "the pagoda config carries no PartitionPlan"
            )
    return TaskServer(tenants, config, spec, timing).run()
