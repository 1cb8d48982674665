"""Shard hosts: the same epoch protocol, in-process or across workers.

The coordinator (:mod:`repro.cluster.driver`) never talks to a
:class:`~repro.cluster.node.NodeShard` directly; it talks to a *host*:

- :class:`InProcessHost` builds shards in the coordinator's own
  interpreter and steps them sequentially — the reference execution
  when ``workers <= 1``;
- :class:`WorkerPoolHost` partitions the nodes round-robin across
  ``workers`` shard hosts, the coordinator included: it steps the
  first share itself in an :class:`InProcessHost` and forks
  ``workers - 1`` child processes for the others.  Each child rebuilds
  its shards from the plain pickled topology/config data and serves
  the *identical* step protocol over a pipe.

Both hosts are pure transports: every routing/ordering decision is
made coordinator-side from data that is identical in either mode, and
each shard's evolution is a pure function of its deliveries — which
is why the merged fleet report is byte-identical for any worker
count (asserted by ``tests/cluster``).

Children are plain ``multiprocessing`` processes (``fork`` where
available, ``spawn`` elsewhere — task-spec kernels must be picklable,
i.e. module-level, for ``spawn``).  Child environments are scrubbed
with :func:`repro.bench.subproc.silence_conda` so nothing pollutes
stdout mid-protocol.  A child that fails mid-protocol is *detected*,
not waited on, and raises :class:`ClusterWorkerError` naming the nodes
and the epoch after tearing the pool down: an exception inside a shard
is sent back with its formatted traceback, and a child that dies (OOM
kill, segfault) is caught by watching its process sentinel alongside
the pipe instead of blocking forever on a dead pipe.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.subproc import silence_conda
from repro.cluster.fabric import Message
from repro.cluster.node import NodeShard, Outbound
from repro.cluster.topology import Topology

#: per-node step result: ``(outbox, status)``.
StepResult = Tuple[List[Outbound], Dict[str, int]]


class ClusterWorkerError(RuntimeError):
    """A shard worker process failed mid-protocol.

    Carries the nodes the worker hosted, its exit code, the epoch the
    coordinator was stepping, and — when a shard raised rather than
    the process dying — the shard's formatted traceback (``error``)."""

    def __init__(self, nodes: List[str], exitcode: Optional[int],
                 epoch: int, error: Optional[str] = None) -> None:
        self.nodes = list(nodes)
        self.exitcode = exitcode
        self.epoch = epoch
        self.error = error
        head = f"cluster worker hosting nodes {self.nodes}"
        if error is None:
            super().__init__(f"{head} died (exitcode={exitcode}) "
                             f"during epoch {epoch}")
        else:
            super().__init__(f"{head} raised during epoch {epoch}:\n"
                             f"{error.rstrip()}")


class InProcessHost:
    """Sequential shard stepping inside the calling process."""

    def __init__(self, topology: Topology, tenant_slos: Sequence[tuple],
                 template, obs: bool, reliable: bool = False,
                 names: Optional[Sequence[str]] = None) -> None:
        self._order = list(names) if names is not None \
            else topology.node_names
        self.shards = {
            name: NodeShard(topology.node(name), tenant_slos, template,
                            obs, reliable=reliable)
            for name in self._order
        }

    def step(self, epoch_end: float,
             inboxes: Dict[str, List[Message]]) -> Dict[str, StepResult]:
        return {
            name: self.shards[name].step(epoch_end, inboxes.get(name, []))
            for name in self._order
        }

    def finish(self) -> Dict[str, tuple]:
        return {name: self.shards[name].finish() for name in self._order}

    def close(self) -> None:
        pass


def _worker_main(conn, topology: Topology, names: List[str],
                 tenant_slos, template, obs: bool,
                 reliable: bool = False) -> None:
    """One child process: host the assigned shards and speak the
    step/finish protocol over the pipe until told to exit.  Replies
    are ``("ok", results)``, or ``("error", traceback)`` after which
    the child exits."""
    silence_conda()
    host = InProcessHost(topology, tenant_slos, template, obs,
                         reliable=reliable, names=names)
    while True:
        cmd = conn.recv()
        if cmd[0] == "exit":
            conn.close()
            return
        try:
            if cmd[0] == "step":
                reply = host.step(cmd[1], cmd[2])
            elif cmd[0] == "finish":
                reply = host.finish()
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown worker command {cmd[0]!r}")
        except Exception:
            conn.send(("error", traceback.format_exc()))
            conn.close()
            return
        conn.send(("ok", reply))


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerPoolHost:
    """``workers`` shard hosts, nodes partitioned round-robin: the
    coordinator steps the first share, ``workers - 1`` children the
    rest."""

    def __init__(self, topology: Topology, tenant_slos: Sequence[tuple],
                 template, obs: bool, workers: int,
                 reliable: bool = False) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        order = topology.node_names
        workers = min(workers, len(order))
        assigned: List[List[str]] = [[] for _ in range(workers)]
        for i, name in enumerate(order):
            assigned[i % workers].append(name)
        ctx = _mp_context()
        self._conns = []
        self._procs = []
        #: node names of each child, parallel to ``_procs``.
        self._names: List[List[str]] = assigned[1:]
        self._epoch = 0
        for names in self._names:
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child, topology, names, list(tenant_slos),
                      template, obs, reliable),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # built after the fork so children do not inherit these shards
        self._local = InProcessHost(topology, tenant_slos, template, obs,
                                    reliable=reliable, names=assigned[0])

    def _fail(self, proc, names: List[str],
              error: Optional[str] = None) -> ClusterWorkerError:
        """Tear the pool down and build the error naming ``proc``."""
        proc.join(timeout=5)
        self._teardown()
        return ClusterWorkerError(names, proc.exitcode, self._epoch, error)

    def _recv(self, conn, proc, names: List[str]):
        """Receive one reply, watching the child's sentinel: a dead
        child raises instead of blocking the coordinator forever."""
        ready = _conn_wait([conn, proc.sentinel])
        if conn in ready:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                pass  # pipe torn down mid-reply: treat as death
            else:
                if status == "ok":
                    return payload
                raise self._fail(proc, names, payload)
        raise self._fail(proc, names)

    def _teardown(self) -> None:
        """Kill every child (one shard host failed; the fleet state is
        unrecoverable mid-epoch)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)

    def _round(self, cmd, local) -> dict:
        """One protocol round: send every child its command *before*
        stepping the local share, so the coordinator's core works
        while the children do, then collect the children's replies."""
        for conn, names, proc in zip(self._conns, self._names, self._procs):
            try:
                conn.send(cmd(names))
            except (BrokenPipeError, OSError):
                raise self._fail(proc, names)
        try:
            results = local()
        except BaseException:
            self._teardown()
            raise
        for conn, names, proc in zip(self._conns, self._names, self._procs):
            results.update(self._recv(conn, proc, names))
        return results

    def step(self, epoch_end: float,
             inboxes: Dict[str, List[Message]]) -> Dict[str, StepResult]:
        self._epoch += 1
        return self._round(
            lambda names: ("step", epoch_end,
                           {n: inboxes[n] for n in names if n in inboxes}),
            lambda: self._local.step(epoch_end, inboxes))

    def finish(self) -> Dict[str, tuple]:
        return self._round(lambda names: ("finish",), self._local.finish)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


def make_host(topology: Topology, tenant_slos: Sequence[tuple],
              template, obs: bool, workers: int,
              reliable: bool = False):
    """``workers <= 1`` -> sequential in-process host; ``>= 2`` -> the
    coordinator plus ``workers - 1`` child processes."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers <= 1:
        return InProcessHost(topology, tenant_slos, template, obs,
                             reliable=reliable)
    return WorkerPoolHost(topology, tenant_slos, template, obs, workers,
                          reliable=reliable)
