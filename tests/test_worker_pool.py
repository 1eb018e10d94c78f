"""Fault injection against the one worker-process primitive.

The gateway shards run on :class:`repro.workers.WorkerPool` and
:func:`repro.workers.serve`, so worker death, dead-pipe sends, wedged workers and shutdown are tested
here once. Each test uses at most two worker processes.
"""

import multiprocessing as mp
import time

import pytest

from repro.ir.fingerprint import module_fingerprint
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.workers import WorkerPool, serve
from repro.workloads import ProgramProfile, generate_program


def _echo_worker(conn, spec):
    """Replies to ``("fingerprint",)``, ``("echo", x)``, ``("sleep", s)``."""
    module = parse_module(spec) if spec else None

    def handle(msg, send):
        cmd = msg[0]
        if cmd == "fingerprint":
            send(module_fingerprint(module))
        elif cmd == "echo":
            send(msg[1])
        elif cmd == "sleep":
            time.sleep(msg[1])
            send("woke")
        elif cmd == "close":
            return False

    serve(conn, handle)


def _deaf_worker(conn, spec):
    """Ignores every message, ``close`` included."""
    serve(conn, lambda msg, send: time.sleep(3600))


def _no_children_left(timeout=10.0):
    deadline = time.monotonic() + timeout
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not mp.active_children()


def test_round_trip_carries_ir_as_text():
    modules = [
        generate_program(ProgramProfile(name=f"wp{i}", seed=60 + i, segments=2))
        for i in range(2)
    ]
    with WorkerPool(_echo_worker, [print_module(m) for m in modules]) as pool:
        assert len(pool) == 2
        for i, module in enumerate(modules):
            assert pool.request(i, ("fingerprint",)) == module_fingerprint(
                module
            )
    assert _no_children_left()


def test_kill_mid_request_raises_then_respawn_serves():
    with WorkerPool(_echo_worker, [None, None]) as pool:
        pool.send(0, ("sleep", 60))
        first = pool.process(0)
        t0 = time.monotonic()
        pool.kill(0)
        with pytest.raises((EOFError, OSError)):
            pool.recv(0)
        assert time.monotonic() - t0 < 10.0
        assert not pool.alive(0)
        assert pool.request(1, ("echo", "sibling")) == "sibling"

        pool.respawn(0)
        assert pool.process(0) is not first
        assert pool.alive(0)
        assert pool.request(0, ("echo", "again")) == "again"
        assert pool.request(1, ("echo", "still")) == "still"
    assert _no_children_left()


def test_send_to_dead_worker_raises_and_spares_siblings():
    with WorkerPool(_echo_worker, [None, None]) as pool:
        pool.kill(0)
        with pytest.raises(OSError):
            pool.send(0, ("echo", "lost"))
        assert pool.alive(1)
        assert pool.request(1, ("echo", "fine")) == "fine"
    assert _no_children_left()


def test_wedged_worker_is_terminated_within_timeout():
    pool = WorkerPool(_deaf_worker, [None])
    proc = pool.process(0)
    pool.send(0, ("anything",))  # now stuck in the handler
    t0 = time.monotonic()
    pool.close(timeout=0.5)
    assert time.monotonic() - t0 < 3.0
    assert not proc.is_alive()


def test_close_is_idempotent_and_reaps_every_worker():
    pool = WorkerPool(_echo_worker, [None, None])
    assert pool.request(0, ("echo", 1)) == 1
    pool.close()
    pool.close()
    assert not pool.alive(0) and not pool.alive(1)
    assert mp.active_children() == []
