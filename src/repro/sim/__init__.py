"""Discrete-event simulation substrate.

This package is the execution substrate for the whole reproduction: a
lean, callback-cored discrete-event engine with generator-coroutine
processes, plus the synchronization and resource primitives the hardware
models are built from.

Public surface:

- :class:`~repro.sim.engine.Engine` — event loop and simulated clock.
- :class:`~repro.sim.engine.Process` — a running coroutine.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Signal` —
  one-shot and broadcast waitables.
- :class:`~repro.sim.resources.FifoResource` — N-server FIFO queue.
- :class:`~repro.sim.resources.ProcessorSharing` — rate-shared resource
  with a per-customer rate cap (models SMM issue slots, memory and PCIe
  bandwidth).
- :class:`~repro.sim.resources.Store` — FIFO item queue (producer /
  consumer).

Metrics (counters, time-weighted gauges, trace events) live in
:mod:`repro.obs`, not here.
"""

from repro.sim.engine import DeadlockError, Engine, Process, Delay
from repro.sim.events import Event, Signal, all_of, any_of
from repro.sim.resources import FifoResource, ProcessorSharing, Store

__all__ = [
    "DeadlockError",
    "Engine",
    "Process",
    "Delay",
    "Event",
    "Signal",
    "any_of",
    "all_of",
    "FifoResource",
    "ProcessorSharing",
    "Store",
]
