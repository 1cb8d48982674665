"""Spans around the benchmark's calls, and per-layer self time.

:class:`Tracer` keeps one span per cell, step or fleet run in memory,
all tagged with the run's id, and writes them out once the run ends.
Given a :class:`LayerProfile` it also switches a cProfile profiler on
for the duration of each leaf span, so the profile covers exactly the
calls the spans time.

:class:`LayerProfile` folds cProfile's per-function self times into
``repro.<module>`` layers. A C builtin has no module of its own: its
time is charged to the layer of the function that called it, split by
caller, so heapq, list and dict operations land in the layer that asked
for them.
"""

from __future__ import annotations

import contextlib
import cProfile
import inspect
import json
import os
import pstats
import time
from typing import Dict, Iterator, List, Optional

#: profiled layers, by the package under ``repro``.
LAYERS = ("sim", "core", "gpu", "pcie", "cuda", "baselines", "cpu",
          "workloads", "serve", "cluster")
#: packages charged to another layer: the fleet's fabric faults run in
#: repro.faults on behalf of the cluster layer.
LAYER_ALIASES = {"faults": "cluster"}


class Tracer:
    """In-memory spans of one workload run.

    ``profile`` may be set and cleared between spans: only spans opened
    while it is set are profiled, and each span records whether it was.
    """

    def __init__(self, run_id: str,
                 profile: Optional["LayerProfile"] = None) -> None:
        self.run_id = run_id
        self.profile = profile
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, group: Optional[str] = None,
             **attrs) -> Iterator[dict]:
        """Time the body as one span; with a profile and a ``group``,
        also profile it under that group."""
        record = {"id": len(self.spans), "run_id": self.run_id,
                  "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        profiler = (self.profile.profiler(group)
                    if self.profile is not None and group else None)
        record["profiled"] = profiler is not None
        record["start_s"] = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end_s"] - record["start_s"]

    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the time its children cover."""
        own = {s["id"]: self.duration(s) for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(s)
        return own

    def write(self, path: str) -> None:
        """Write every span, with its self time, as one JSON file."""
        own = self.self_times()
        rows = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": rows}, fh, indent=1)
            fh.write("\n")


def _ps_lines() -> tuple:
    """(file, first, last) source lines of ProcessorSharing, so its
    methods and the closures inside them can be told apart from the
    rest of repro/sim/resources.py."""
    from repro.sim.resources import ProcessorSharing
    lines, first = inspect.getsourcelines(ProcessorSharing)
    return (os.path.realpath(inspect.getsourcefile(ProcessorSharing)),
            first, first + len(lines) - 1)


def layer_of(filename: str, lineno: int = 0, ps_lines=None) -> str:
    """The layer a Python function's source file belongs to."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    head = path[at + len(marker):].split("/", 1)[0]
    head = LAYER_ALIASES.get(head, head)
    if head == "sim" and ps_lines is not None:
        ps_file, first, last = ps_lines
        if (os.path.realpath(filename) == ps_file
                and first <= lineno <= last):
            return "sim.ps"
    return head if head in LAYERS else "other"


def _is_builtin(func: tuple) -> bool:
    return func[0] == "~"


class LayerProfile:
    """cProfile profilers, one per group, folded into layers."""

    def __init__(self) -> None:
        self._profilers: Dict[str, cProfile.Profile] = {}
        self._ps_lines = _ps_lines()

    def profiler(self, group: str) -> cProfile.Profile:
        prof = self._profilers.get(group)
        if prof is None:
            prof = self._profilers[group] = cProfile.Profile()
        return prof

    def disable_after_fork(self) -> None:
        """Forked workers inherit an enabled profiler; switch it off in
        them so they run at full speed and the coordinator's profile
        is the only one."""
        def _off():
            for prof in self._profilers.values():
                prof.disable()
        os.register_at_fork(after_in_child=_off)

    def stats(self, groups: Optional[List[str]] = None) -> dict:
        """Raw pstats table merged over ``groups`` (all by default)."""
        merged: Optional[pstats.Stats] = None
        for name in sorted(self._profilers):
            if groups is not None and name not in groups:
                continue
            prof = self._profilers[name]
            prof.create_stats()
            if not prof.stats:
                continue
            if merged is None:
                merged = pstats.Stats(prof)
            else:
                merged.add(prof)
        return merged.stats if merged is not None else {}

    def layer_self_s(self, groups: Optional[List[str]] = None
                     ) -> Dict[str, float]:
        """Self seconds per layer (``sim`` includes ``sim.ps``)."""
        out = {name: 0.0 for name in LAYERS + ("sim.ps", "other")}
        table = self.stats(groups)
        for func, (_cc, _nc, tt, _ct, callers) in table.items():
            if not _is_builtin(func):
                out[layer_of(func[0], func[1], self._ps_lines)] += tt
                continue
            # a builtin: charge each caller's share to the caller's
            # layer; whatever the callers do not explain goes to other
            charged = 0.0
            for caller, row in callers.items():
                share = row[2]
                layer = ("other" if _is_builtin(caller)
                         else layer_of(caller[0], caller[1],
                                       self._ps_lines))
                out[layer] += share
                charged += share
            out["other"] += max(0.0, tt - charged)
        out["sim"] += out["sim.ps"]
        return out

    def function_cum_s(self, groups: List[str], module_suffix: str,
                       names: tuple) -> float:
        """Cumulative seconds of functions called ``names`` defined in
        a file ending in ``module_suffix``."""
        total = 0.0
        for func, row in self.stats(groups).items():
            if (func[0].replace(os.sep, "/").endswith(module_suffix)
                    and func[2] in names):
                total += row[3]
        return total

    def builtin_cum_s(self, groups: List[str], needle: str) -> float:
        """Cumulative seconds of C builtins whose name holds ``needle``."""
        return sum(row[3] for func, row in self.stats(groups).items()
                   if _is_builtin(func) and needle in func[2])
