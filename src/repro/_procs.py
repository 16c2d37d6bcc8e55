"""The one worker transport: child processes on a duplex pipe each.

Both process pools — the parallel build's workers
(:mod:`repro.storage.parallel`) and the serving workers
(:mod:`repro.serving.workers`) — start children with :meth:`Child.start`,
block in :func:`wait` over every pipe *and* process sentinel (a message
and a death wake the parent alike, with no polling), and stop them with
:func:`shutdown`. Per-message I/O stays with the pools, on
:attr:`Child.conn`.
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache

__all__ = ["PIPE_ERRORS", "Child", "build_mp_context", "shutdown", "wait"]

#: What a pipe raises once its other end is gone or this end is closed.
PIPE_ERRORS = (OSError, EOFError, ValueError)


@lru_cache(maxsize=None)
def build_mp_context():
    """The multiprocessing context every child runs under, picked once.

    ``fork`` where the platform offers it (children inherit the parent's
    state copy-on-write), ``spawn`` otherwise (what a child needs is
    pickled). The test harness starts its children with it too.
    """
    # Lazy: multiprocessing pulls in socket, ~1 MiB per ``import repro``.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Child:
    """One child process, the parent's end of its pipe, and the lock
    whoever sends on that end holds when several threads may."""

    def __init__(self) -> None:
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()

    def start(self, target, args: tuple, name: str) -> None:
        """Run ``target(conn, *args)`` in a new daemon process on a new pipe.

        A previous process's pipe is closed: nothing more can arrive on it.
        """
        context = build_mp_context()
        conn, child_conn = context.Pipe()
        process = context.Process(target=target, args=(child_conn, *args), daemon=True, name=name)
        with self.send_lock:
            stale, self.conn = self.conn, conn
        if stale is not None:
            stale.close()
        self.process = process
        process.start()
        # Only the child holds its end now, so its death reads as EOF here.
        child_conn.close()


def _wait_any(objects, timeout):
    from multiprocessing.connection import wait as wait_any  # lazy, as above

    return wait_any(objects, timeout)


def wait(children, timeout: float | None = None) -> list:
    """Block until some child has a message waiting or has exited.

    Returns ``(child, exited)`` for each ready child, in ``children``
    order; ``exited`` means its sentinel fired (what it wrote before
    dying can still be read). Empty when ``timeout`` passed first.
    """
    ready = set(_wait_any([c.conn for c in children] + [c.process.sentinel for c in children], timeout))
    return [
        (child, child.process.sentinel in ready)
        for child in children
        if child.conn in ready or child.process.sentinel in ready
    ]


def shutdown(children, timeout: float, drain: bool = True) -> None:
    """Send each child the ``None`` stop message, wait on the sentinels with
    one ``timeout`` bound, then terminate and join whatever is left.

    With ``drain`` the pipes are read meanwhile and what arrives is
    discarded, so a child blocked writing a reply larger than the pipe
    buffer can still exit; ``drain=False`` leaves them to their reader.
    """
    children = [child for child in children if child.process is not None]
    for child in children:
        try:
            with child.send_lock:
                child.conn.send(None)
        except PIPE_ERRORS:
            pass  # already gone
    running = {child.process.sentinel: child for child in children}
    readable = {child.conn for child in children} if drain else set()
    deadline = time.monotonic() + timeout
    while running and (remaining := deadline - time.monotonic()) > 0:
        for ready in _wait_any([*readable, *running], remaining):
            if ready in running:
                del running[ready]
                continue
            try:
                ready.recv_bytes()
            except PIPE_ERRORS:
                readable.discard(ready)  # EOF: nothing more can arrive
    for child in running.values():
        child.process.terminate()
    for child in children:
        child.process.join(timeout=2.0)
