"""One worker-process primitive: pipe-connected subprocesses and their loop.

The sharded serving gateway (:mod:`repro.serving.gateway`) runs its
shard workers through this module, the only one that creates processes
or pipes.

Parent side, :class:`WorkerPool`: one daemon process per spec, each
running ``worker(conn, spec)`` at the far end of a duplex pipe. The pool
owns the lifecycle (start, kill, respawn from the same spec, close) and
the wire (a locked ``send``, ``recv``, ``request``); callers own their
protocol and policy (heartbeats, failover, scheduling). ``Module``
objects do not pickle, so specs carry IR as printed text and workers
parse it back.

Worker side, :func:`serve`: the one receive loop. It hands each message
and a thread-safe ``send`` to the caller's handler until the handler
returns ``False`` or the parent goes away.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from typing import Any, Callable, List, Sequence

__all__ = ["WorkerPool", "serve"]


class WorkerPool:
    """``len(specs)`` worker processes, each ``worker(conn, spec)``.

    Workers start with the platform's default start method. The pool
    runs no threads; ``send`` takes a per-worker lock so several caller
    threads may share a worker.
    """

    def __init__(
        self, worker: Callable[[Any, Any], None], specs: Sequence[Any]
    ):
        self._worker = worker
        self._specs = list(specs)
        self._locks = [threading.Lock() for _ in self._specs]
        self._procs: List[Any] = [None] * len(self._specs)
        self._conns: List[Any] = [None] * len(self._specs)
        self._closed = False
        for i in range(len(self._specs)):
            self._start(i)

    def _start(self, i: int) -> None:
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=self._worker, args=(child_conn, self._specs[i]),
            daemon=True,
        )
        proc.start()
        # The parent keeps only its own end, so a dead worker shows as EOF.
        child_conn.close()
        self._procs[i] = proc
        self._conns[i] = parent_conn

    def __len__(self) -> int:
        return len(self._specs)

    def process(self, i: int):
        """Worker ``i``'s current process (a new object after respawn)."""
        return self._procs[i]

    def conn(self, i: int):
        """Worker ``i``'s current parent-side connection."""
        return self._conns[i]

    def send(self, i: int, msg: Any) -> None:
        """Send one message; raises ``OSError`` if the worker is gone."""
        with self._locks[i]:
            self._conns[i].send(msg)

    def recv(self, i: int) -> Any:
        """One reply; raises ``EOFError``/``OSError`` if the worker died."""
        return self._conns[i].recv()

    def request(self, i: int, msg: Any) -> Any:
        self.send(i, msg)
        return self.recv(i)

    def alive(self, i: int) -> bool:
        return self._procs[i].is_alive()

    def kill(self, i: int) -> None:
        """SIGKILL worker ``i`` and reap it."""
        proc = self._procs[i]
        proc.kill()
        proc.join(timeout=5.0)

    def respawn(self, i: int) -> None:
        """Replace worker ``i`` with a fresh process from the same spec."""
        self.kill(i)
        with self._locks[i]:
            self._conns[i].close()
            self._start(i)

    def close(self, timeout: float = 5.0) -> None:
        """Ask every worker to exit, wait up to ``timeout``, then terminate.

        Idempotent. The ``("close",)`` message is best effort: a worker
        that already exited (or ignores it) is joined or terminated.
        """
        if self._closed:
            return
        self._closed = True
        for i, conn in enumerate(self._conns):
            try:
                with self._locks[i]:
                    conn.send(("close",))
            except OSError:  # worker already gone
                pass
            conn.close()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(conn, handle: Callable[[Any, Callable[[Any], None]], Any]) -> None:
    """Worker-side loop: ``handle(msg, send)`` per message until it
    returns ``False``.

    ``send`` is locked (handlers may reply from other threads) and drops
    replies once the parent is gone. A closed pipe or an interrupt ends
    the loop; ``conn`` is always closed on the way out.
    """
    lock = threading.Lock()

    def send(msg: Any) -> None:
        with lock:
            try:
                conn.send(msg)
            except OSError:  # parent died or the loop already closed conn
                pass

    try:
        while handle(conn.recv(), send) is not False:
            pass
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()
