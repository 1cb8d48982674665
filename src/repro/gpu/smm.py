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
"""

from __future__ import annotations

from typing import Generator

from repro.gpu.phases import Phase
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.obs.registry import Gauge
from repro.sim import Engine, ProcessorSharing


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

    def execute_phase(self, phase: Phase, dram: ProcessorSharing) -> Generator:
        """Subroutine: one warp runs one phase on this SMM.

        Instruction issue contends on this SMM's schedulers; memory
        traffic first exposes the DRAM access latency (a stall private
        to this warp — other warps keep issuing, so occupancy hides it)
        and then contends on the GPU-wide DRAM bandwidth pool.
        """
        overhead = self.timing.phase_overhead_ns
        stall = 0.0
        if phase.inst:
            # the fixed issue overhead immediately precedes the issue
            # demand, so the warp parks on one event for both
            yield self.issue.consume_after(overhead, phase.inst)
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
                                     phase.mem_bytes)
        elif stall:
            yield stall

    def mean_occupancy(self, end: float | None = None) -> float:
        """Time-averaged resident warps / warp slots."""
        end = self.engine.now if end is None else end
        return self.resident_warps.average(end) / self.spec.max_warps_per_smm
