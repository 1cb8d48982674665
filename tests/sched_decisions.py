"""Scheduler decisions read back from a run's ``Obs`` event stream.

Every MasterKernel decision (``schedule``, ``promote``, ``defer``,
``task_done``, ``task_fail``) is an instant event on a ``sched.mtb<k>``
track carrying the task ID.  Tests attach ``Obs(profile=False)`` via
``PagodaConfig(obs=...)`` and group those instants by decision name.
"""

from typing import Dict, List, Tuple


def decision_series(obs) -> Dict[str, List[Tuple[float, int]]]:
    """Decision name -> ``[(t_ns, task_id), ...]`` in emission order,
    with names sorted."""
    series: Dict[str, List[Tuple[float, int]]] = {}
    for track, name, t_ns, args in obs.instants:
        if track.startswith("sched.mtb"):
            series.setdefault(name, []).append((t_ns, args["task_id"]))
    return dict(sorted(series.items()))
