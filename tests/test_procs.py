"""The worker transport both process pools share (:mod:`repro._procs`).

Each test starts a trivial child: ``wait`` must wake on a death that
left no message behind, and ``shutdown`` must let a child blocked on a
reply larger than the pipe buffer exit cleanly, yet still end a child
that ignores the stop message within its bound.
"""

from __future__ import annotations

import os
import signal
import time

from repro._procs import Child, shutdown, wait

#: Far past any socketpair buffer (64 KiB pipes; ~200 KiB unix sockets).
BIG_REPLY = 4 << 20


def _until_stopped(conn) -> None:
    conn.recv()


def _big_reply_then_stop(conn) -> None:
    conn.send_bytes(b"x" * BIG_REPLY)
    conn.recv()


def _ignore_stop(conn) -> None:
    time.sleep(60.0)


def _started(target) -> Child:
    child = Child()
    child.start(target, (), name="procs-test-child")
    return child


def test_wait_wakes_on_the_sentinel_of_a_killed_silent_child():
    child = _started(_until_stopped)
    try:
        assert wait([child], timeout=0.2) == []  # alive and silent
        os.kill(child.process.pid, signal.SIGKILL)
        started = time.monotonic()
        exited = False
        while not exited:
            ready = wait([child], timeout=5.0)
            assert [c for c, _ in ready] == [child], "wait timed out on a dead child"
            exited = ready[0][1]
        assert time.monotonic() - started < 1.0
        # It wrote nothing: the pipe only holds the EOF (which may land
        # a moment after the sentinel).
        assert child.conn.poll(5.0)
        try:
            child.conn.recv()
        except EOFError:
            pass
        else:  # pragma: no cover - the failure branch
            raise AssertionError("a silent child's pipe held a message")
    finally:
        child.process.join(timeout=5.0)
        child.conn.close()
    assert child.process.exitcode == -signal.SIGKILL


def test_shutdown_drains_a_reply_larger_than_the_pipe_buffer():
    child = _started(_big_reply_then_stop)
    shutdown([child], timeout=30.0)
    child.conn.close()
    # Joined on its own, not terminated: the drain let its send finish.
    assert child.process.exitcode == 0


def test_shutdown_without_drain_leaves_a_blocked_sender_to_terminate():
    child = _started(_big_reply_then_stop)
    shutdown([child], timeout=0.5, drain=False)
    child.conn.close()
    assert child.process.exitcode == -signal.SIGTERM


def test_shutdown_terminates_a_child_that_ignores_stop_within_its_bound():
    child = _started(_ignore_stop)
    started = time.monotonic()
    shutdown([child], timeout=0.5)
    elapsed = time.monotonic() - started
    child.conn.close()
    assert child.process.exitcode == -signal.SIGTERM
    assert 0.5 <= elapsed < 3.0
