"""One Streaming Multiprocessor: issue bandwidth + resource accounting.

The SMM is where warp-granularity contention happens.  Instruction
issue is a :class:`~repro.sim.resources.ProcessorSharing` pool: up to
``warp_schedulers_per_smm`` warp-instructions per cycle for the SMM,
at most one per cycle for any single warp.  With four schedulers, 1–4
resident warps each run at full speed; beyond four they share —
exactly the contention profile occupancy arguments rely on.

Registers, shared memory, block slots, and warp slots are counted
(not timed) resources claimed when a block is placed and returned when
it retires.

Warps of one threadblock run in SIMT lockstep, and every timing kernel
gives each warp of a block the same phase stream.  So the runtimes
execute a block's warps as a *gang*: :meth:`Smm.execute_lockstep`
pulls the next item from every warp's stream together and, while they
agree, runs them as one weighted customer of the issue and DRAM pools
(``weight`` = warps in the gang; exact, see
:mod:`repro.sim.resources`).  On the first disagreement it hands every
warp back, with its own stream and pending item, to a per-warp loop.
CUDA and GeMTC blocks use :meth:`Smm.run_block` (gang, then
:meth:`Smm.run_warp` per warp); Pagoda's executor warps have their own
per-warp loop (``repro.core.masterkernel``).
"""

from __future__ import annotations

from itertools import chain
from typing import Generator, List, Optional

from repro.gpu.phases import BlockSync, Phase
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.obs.registry import Gauge
from repro.sim import Engine, Event, ProcessorSharing

#: pending item of a warp whose stream ended
_ENDED = object()


class _Raised:
    """Pending item of a warp whose stream raised ``exc``."""

    __slots__ = ("exc",)

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


def _reraise(exc: Exception) -> Generator:
    raise exc
    yield  # pragma: no cover - makes this a generator


def _replay(pending, stream):
    """``stream`` with its already-pulled ``pending`` item put back in
    front, so a per-warp loop sees exactly what the warp would have."""
    if pending is _ENDED:
        return stream
    if type(pending) is _Raised:
        return _reraise(pending.exc)
    return chain((pending,), stream)


class Smm:
    """Event-driven model of one SMM."""

    def __init__(
        self, engine: Engine, spec: GpuSpec, timing: TimingModel, index: int,
        obs=None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.timing = timing
        self.index = index
        issue_rate = spec.warp_schedulers_per_smm * spec.clock_ghz
        self.issue = ProcessorSharing(
            engine, rate=issue_rate, per_job_cap=spec.clock_ghz,
            name=f"smm{index}.issue",
        )
        self.free_warps = spec.max_warps_per_smm
        self.free_blocks = spec.max_blocks_per_smm
        self.free_registers = spec.registers_per_smm
        self.free_shared_mem = spec.shared_mem_per_smm
        #: owned, not registered: mean_occupancy reads it with obs off
        self.resident_warps = Gauge(f"gpu.smm{index}.resident_warps")
        #: optional :class:`repro.obs.Obs`: the per-SMM occupancy
        #: timeline (resident warps over virtual time, a Perfetto
        #: counter track).  ``None`` costs nothing.
        self.obs = obs
        self._obs_resident = (
            obs.timeline(f"gpu.smm{index}.resident_warps")
            if obs is not None else None
        )

    # -- block placement -------------------------------------------------

    def can_host(self, warps: int, registers: int, shared_mem: int) -> bool:
        """Whether a block needing these resources fits right now."""
        return (
            self.free_blocks >= 1
            and self.free_warps >= warps
            and self.free_registers >= registers
            and self.free_shared_mem >= shared_mem
        )

    def reserve_block(self, warps: int, registers: int, shared_mem: int) -> None:
        """Claim resources for one resident block (must fit)."""
        if not self.can_host(warps, registers, shared_mem):
            raise RuntimeError(
                f"SMM {self.index}: block does not fit "
                f"(warps={warps}, regs={registers}, smem={shared_mem})"
            )
        self.free_blocks -= 1
        self.free_warps -= warps
        self.free_registers -= registers
        self.free_shared_mem -= shared_mem
        self.resident_warps.add(self.engine.now, warps)
        if self._obs_resident is not None:
            self._obs_resident.add(self.engine.now, warps)

    def release_block(self, warps: int, registers: int, shared_mem: int) -> None:
        """Return a retired block's resources."""
        self.free_blocks += 1
        self.free_warps += warps
        self.free_registers += registers
        self.free_shared_mem += shared_mem
        if (
            self.free_blocks > self.spec.max_blocks_per_smm
            or self.free_warps > self.spec.max_warps_per_smm
            or self.free_registers > self.spec.registers_per_smm
            or self.free_shared_mem > self.spec.shared_mem_per_smm
        ):
            raise RuntimeError(f"SMM {self.index}: resource over-release")
        self.resident_warps.add(self.engine.now, -warps)
        if self._obs_resident is not None:
            self._obs_resident.add(self.engine.now, -warps)

    # -- warp execution ----------------------------------------------------

    def execute_phase(self, phase: Phase, dram: ProcessorSharing,
                      weight: int = 1) -> Generator:
        """Subroutine: one warp runs one phase on this SMM.

        Instruction issue contends on this SMM's schedulers; memory
        traffic first exposes the DRAM access latency (a stall private
        to this warp — other warps keep issuing, so occupancy hides it)
        and then contends on the GPU-wide DRAM bandwidth pool.
        ``weight`` warps in lockstep run the phase together as one
        weighted customer of both pools.
        """
        overhead = self.timing.phase_overhead_ns
        stall = 0.0
        if phase.inst:
            # the fixed issue overhead immediately precedes the issue
            # demand, so the warp parks on one event for both
            yield self.issue.consume_after(overhead, phase.inst, weight)
            if self.timing.warp_stall_ratio:
                # dependency stalls: private to this warp, hidden only
                # when enough *other* warps are resident (occupancy)
                stall = (phase.inst * self.timing.warp_stall_ratio
                         / self.spec.clock_ghz)
        elif overhead:
            yield overhead
        if phase.mem_bytes:
            # the stall and the DRAM access latency are both private
            # sleeps with nothing observable in between — fuse them
            # with the bandwidth demand into one parked wait
            yield dram.consume_after(stall + self.timing.mem_latency_ns,
                                     phase.mem_bytes, weight)
        elif stall:
            yield stall

    def execute_lockstep(self, streams: List, dram: ProcessorSharing,
                         sync_ns: float, barrier) -> Generator:
        """Subroutine: run warps whose phase streams agree as one gang.

        Pulls the next item from every stream in lockstep.  Equal
        :class:`Phase` items run once at weight ``len(streams)``; a
        ``BLOCK_SYNC`` on every stream pays ``sync_ns`` once and makes
        one ``barrier`` arrival per warp, so barrier accounting stays
        per warp.  Returns ``None`` when every stream ends together.
        Otherwise — items differ, a stream ends or raises early, a sync
        with no ``barrier``, or an unknown item — returns one iterator
        per warp that replays its pending item (re-raising a kernel
        exception) and then the rest of its stream, for the caller's
        per-warp loop.
        """
        n = len(streams)
        execute_phase = self.execute_phase
        while True:
            items = []
            append = items.append
            for stream in streams:
                try:
                    append(next(stream))
                except StopIteration:
                    append(_ENDED)
                except Exception as exc:
                    append(_Raised(exc))
            first = items[0]
            if type(first) is Phase:
                inst = first.inst
                mem = first.mem_bytes
                for item in items:
                    if (type(item) is not Phase or item.inst != inst
                            or item.mem_bytes != mem):
                        break
                else:
                    yield from execute_phase(first, dram, n)
                    continue
            elif first is _ENDED:
                if all(item is _ENDED for item in items):
                    return None
            elif isinstance(first, BlockSync) and barrier is not None:
                if all(isinstance(item, BlockSync) for item in items):
                    yield sync_ns
                    for _ in range(n):
                        gate = barrier.arrive()
                    yield gate
                    continue
            return [_replay(item, stream)
                    for item, stream in zip(items, streams)]

    def run_warp(self, stream, dram: ProcessorSharing, sync_ns: float,
                 barrier) -> Generator:
        """Subroutine: one warp runs its phase stream on its own (the
        per-warp fallback of :meth:`run_block`)."""
        for item in stream:
            if isinstance(item, Phase):
                yield from self.execute_phase(item, dram)
            elif isinstance(item, BlockSync):
                yield sync_ns
                yield barrier.arrive()
            else:
                raise TypeError(f"kernel yielded {item!r}")

    def run_block(self, streams: List, dram: ProcessorSharing,
                  sync_ns: float, barrier, name: str) -> Generator:
        """Subroutine: run one threadblock's warps until all finish.

        The calling process leads the gang (:meth:`execute_lockstep`).
        If the warps stop agreeing, it continues as warp 0 and spawns
        one process per other warp, named ``f"{name}.{warp}"``.  The
        first hop puts the gang where the first warp's own process
        would have run among same-instant events.
        """
        yield 0.0
        rest: Optional[List] = yield from self.execute_lockstep(
            streams, dram, sync_ns, barrier)
        if rest is None:
            return
        left = [len(rest)]
        done = Event()

        def warp(stream) -> Generator:
            yield from self.run_warp(stream, dram, sync_ns, barrier)
            left[0] -= 1
            if left[0] == 0:
                done.fire(None)

        for warp_id in range(1, len(rest)):
            self.engine.spawn(warp(rest[warp_id]), f"{name}.{warp_id}")
        yield from warp(rest[0])
        if left[0]:
            yield done

    def mean_occupancy(self, end: float | None = None) -> float:
        """Time-averaged resident warps / warp slots."""
        end = self.engine.now if end is None else end
        return self.resident_warps.average(end) / self.spec.max_warps_per_smm
