"""Perfetto / Chrome trace-event export for runs, serves, and obs data.

One JSON file, loadable in ``chrome://tracing`` or ui.perfetto.dev,
carrying up to four layers:

- **per-task spans** — one thread row per task with its queued
  (spawn→sched) and exec (start→end) phases, from any runtime's
  :class:`~repro.tasks.RunStats`;
- **serve counter tracks** — ingress queue depth, tasks in flight,
  drop rate, from a :class:`~repro.serve.ServeReport` timeline;
- **obs counter tracks** — every :class:`~repro.obs.Series` timeline
  an instrumented run recorded (per-SMM busy warps, TaskTable slot
  occupancy, serve queue depth);
- **obs instant/span events** — the structured event stream (scheduler
  promote/schedule/defer decisions, drops), rendered as Chrome instant
  events on their own track.

Note on the queued span: a task spawned at t=0 whose scheduling also
happened at t=0 *was* queued (for zero time) and gets a zero-duration
span — dropping it (as the seed's ``sched_time > 0`` predicate did)
makes t=0 tasks look like they skipped the queue.  A ``sched_time``
before ``spawn_time`` means the record never got a real scheduling
stamp (e.g. the task died first); no span is emitted rather than a
negative-clamped one.
"""

from __future__ import annotations

import json
import warnings
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    # annotation only: the hardware models import repro.obs.registry,
    # and a runtime import here would close a cycle through repro.tasks
    from repro.tasks import RunStats

#: trace-event timestamps are microseconds
_NS_PER_US = 1e3

#: Chrome counter tracks run in their own (fake) process rows so they
#: group above the per-task spans in the viewer.
_SERVE_COUNTER_PID = 1
_OBS_COUNTER_PID = 2
_OBS_EVENT_PID = 3


def chrome_trace_events(stats: RunStats, max_tasks: int = 2000) -> List[Dict]:
    """Build trace events: one row per task, queueing + execution spans.

    ``max_tasks`` caps output size for huge runs (the viewer chokes on
    hundreds of thousands of rows); when the cap actually truncates,
    a :class:`UserWarning` says how many tasks were dropped rather
    than silently producing a partial trace.
    """
    if len(stats.results) > max_tasks:
        warnings.warn(
            f"trace truncated: {len(stats.results)} tasks, keeping the "
            f"first {max_tasks} (raise max_tasks to keep more)",
            stacklevel=2,
        )
    events: List[Dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": f"runtime: {stats.runtime}"},
    }]
    for res in stats.results[:max_tasks]:
        tid = res.task_id
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": res.name},
        })
        # a consistent record queues for sched_time - spawn_time >= 0;
        # zero duration (t=0 spawns scheduled instantly) still emits,
        # and an inverted pair (never actually scheduled) emits nothing
        if res.sched_time >= res.spawn_time >= 0:
            events.append({
                "name": "queued", "cat": "spawn", "ph": "X", "pid": 0,
                "tid": tid,
                "ts": res.spawn_time / _NS_PER_US,
                "dur": (res.sched_time - res.spawn_time) / _NS_PER_US,
                "args": {"task_id": res.task_id},
            })
        if res.end_time > res.start_time:
            events.append({
                "name": "exec", "cat": "gpu", "ph": "X", "pid": 0,
                "tid": tid,
                "ts": res.start_time / _NS_PER_US,
                "dur": (res.end_time - res.start_time) / _NS_PER_US,
                "args": {"latency_us": res.latency / _NS_PER_US},
            })
    return events


# -- serving-run counters ------------------------------------------------------


def serve_counter_events(report) -> List[Dict]:
    """Counter tracks from a :class:`~repro.serve.ServeReport` timeline.

    Three tracks, sampled at every admission/dispatch/completion edge:
    ingress queue depth, tasks in flight on the GPU(s), and the drop
    rate (requests/s, finite-differenced between samples — cumulative
    totals make a useless flat line in the viewer).
    """
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _SERVE_COUNTER_PID,
        "args": {"name": f"serve: {report.label}"},
    }]
    prev_t = prev_drops = 0.0
    for t_ns, depth, inflight, dropped, _finished in report.timeline:
        ts = t_ns / _NS_PER_US
        events.append({
            "name": "ingress queue", "ph": "C", "pid": _SERVE_COUNTER_PID,
            "ts": ts, "args": {"depth": depth},
        })
        events.append({
            "name": "in flight", "ph": "C", "pid": _SERVE_COUNTER_PID,
            "ts": ts, "args": {"tasks": inflight},
        })
        dt_ns = t_ns - prev_t
        rate = (dropped - prev_drops) * 1e9 / dt_ns if dt_ns > 0 else 0.0
        events.append({
            "name": "drops/s", "ph": "C", "pid": _SERVE_COUNTER_PID,
            "ts": ts, "args": {"rate": round(rate, 3)},
        })
        prev_t, prev_drops = t_ns, dropped
    return events


# -- obs tracks ----------------------------------------------------------------


def obs_counter_events(obs) -> List[Dict]:
    """One Chrome counter track per recorded :class:`~repro.obs.Series`
    timeline (per-SMM busy warps, slot occupancy, queue depth, ...)."""
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _OBS_COUNTER_PID,
        "args": {"name": "obs counters"},
    }]
    for name in sorted(obs.series):
        for t_ns, value in obs.series[name].samples:
            events.append({
                "name": name, "ph": "C", "pid": _OBS_COUNTER_PID,
                "ts": t_ns / _NS_PER_US, "args": {"value": value},
            })
    return events


def obs_instant_events(obs) -> List[Dict]:
    """The structured event stream as Chrome instant + duration events.

    Each distinct ``track`` gets a thread row; scheduler decisions
    (``promote``/``schedule``/``defer``) land as thread-scoped instants
    carrying their args, so a Perfetto query can count decisions per
    MTB directly from the trace.
    """
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _OBS_EVENT_PID,
        "args": {"name": "obs events"},
    }]
    tracks: Dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = tracks.get(track)
        if tid is None:
            tid = tracks[track] = len(tracks)
            events.append({
                "name": "thread_name", "ph": "M", "pid": _OBS_EVENT_PID,
                "tid": tid, "args": {"name": track},
            })
        return tid

    for track, name, t_ns, args in obs.instants:
        events.append({
            "name": name, "cat": track, "ph": "i", "s": "t",
            "pid": _OBS_EVENT_PID, "tid": tid_for(track),
            "ts": t_ns / _NS_PER_US, "args": dict(args),
        })
    for track, name, t_ns, dur_ns, args in obs.spans:
        events.append({
            "name": name, "cat": track, "ph": "X",
            "pid": _OBS_EVENT_PID, "tid": tid_for(track),
            "ts": t_ns / _NS_PER_US, "dur": dur_ns / _NS_PER_US,
            "args": dict(args),
        })
    return events


# -- writers -------------------------------------------------------------------


def _write(events: List[Dict], path: str) -> int:
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)


def export_chrome_trace(stats: RunStats, path: str,
                        max_tasks: int = 2000, obs=None) -> int:
    """Write one run's trace (spans, plus obs tracks when given);
    returns the number of events written."""
    events = chrome_trace_events(stats, max_tasks)
    if obs is not None:
        events.extend(obs_counter_events(obs))
        events.extend(obs_instant_events(obs))
    return _write(events, path)


def export_serve_trace(report, path: str, max_tasks: int = 2000,
                       obs=None) -> int:
    """Write one trace for a serving run: the counter tracks plus the
    usual per-request queueing/execution spans — and, when an ``obs``
    context is given, its counter timelines and structured events.
    Returns the number of events written."""
    events = serve_counter_events(report)
    events.extend(chrome_trace_events(report.run_stats(), max_tasks))
    if obs is not None:
        events.extend(obs_counter_events(obs))
        events.extend(obs_instant_events(obs))
    return _write(events, path)
