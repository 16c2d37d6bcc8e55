"""The serving worker pool: N processes over one mmap'd store directory.

Each worker process opens the corpus store directory **read-only** via
:meth:`GitTables.load` and warms its query engines from the store's
fingerprint-guarded index artifacts — one ``np.load(mmap_mode="r")``
per index instead of a corpus-wide re-embed, with the page cache shared
across the whole pool. The parent never ships corpus data to workers:
a task is just ``(batch id, endpoint, compatibility key, payloads)``
and a result is the pickled list of per-request results.

Each worker has one duplex ``multiprocessing.Pipe`` to the parent — no
queue, no feeder thread. A task is pickled and written by whichever
thread dispatches it (a submitting caller or the micro-batcher), under
the worker's send lock. One collector thread blocks in
``multiprocessing.connection.wait`` on every pipe *and* process
sentinel, so it wakes the moment a result arrives or a worker dies.

The parent-side :class:`WorkerPool` routes each batch to the
least-loaded live worker, preferring one with room (fewer than
:data:`WORKER_BATCH_DEPTH` batches outstanding), tells the micro-batcher
whenever a worker regains room (the ``on_room`` callback), respawns a
dead worker as soon as its sentinel fires (within the configured
budget), and re-dispatches its in-flight batches exactly once — a batch
orphaned twice fails with :class:`~repro.errors.WorkerCrashed`. The
collector resolves every request future; a result that lands after its
request's deadline resolves to :class:`~repro.errors.DeadlineExceeded`
instead.

:class:`LocalExecutor` is the degenerate pool for ``workers=0`` (and
for sessions without a store directory): batches execute inline on the
batcher thread against the parent's own session — still micro-batched,
no processes involved. It never reports room, so its windows stay open
for the full ``max_wait_ms``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback

from ..errors import ServiceClosed, ServingError, WorkerCrashed
from ..storage.parallel import build_mp_context
from ..storage.sharded import read_store_version
from .batcher import Request
from .endpoints import execute_batch

__all__ = ["LocalExecutor", "WorkerPool"]

#: How long pool construction waits for every worker's ready ack.
STARTUP_TIMEOUT_SECONDS = 120.0

#: Minimum seconds between a worker's store-version probes (one bounded
#: manifest read each) — reload detection latency, not correctness, is
#: at stake.
EPOCH_PROBE_INTERVAL_SECONDS = 0.5

#: Batches a worker may have outstanding and still "have room" for the
#: micro-batcher to dispatch at once: one running plus one queued behind
#: it, so the worker starts its next batch while the previous result is
#: still on its way back to the parent. At this depth or more the
#: batcher keeps accumulating a window instead.
WORKER_BATCH_DEPTH = 2

#: What a pipe raises once its other end is gone or this end is closed.
_PIPE_ERRORS = (OSError, EOFError, ValueError)


def _serving_worker_main(directory: str, worker: int, parent_pid: int, conn, index_config=None):
    """Worker process entry point: serve endpoint batches until told to stop.

    Sends ``("ready", worker, pid)`` on ``conn`` once the session is
    loaded and its engines are warm, then answers every ``("batch", id,
    endpoint, key, payloads)`` task with ``("ok", worker, id, results,
    index_stats, store_state)`` — or ``("error", worker, id, traceback,
    None, store_state)`` for a failing batch, which does *not* kill the
    worker (one malformed batch must not take down the pool). The
    piggybacked ``index_stats`` element is the session's cumulative
    ANN-tier instrumentation (None when no engine is built) and
    ``store_state`` is ``{"epoch": ..., "generation": ..., "reloads":
    ..., "reload_failures": ...}``, so the parent's metrics see the tier
    and store version in use without an extra round trip.

    Between batches (and on idle ticks) the worker probes the store
    manifest's epoch and generation counters: when the directory has
    been **extended** (sealed at a newer epoch than the session was
    loaded from) the session is reloaded — warming from the
    delta-refreshed artifacts, or delta-refreshing them itself when it
    wins the race; when it has been **compacted** (layout generation
    bumped, same content fingerprint) the reload re-opens the new shard
    layout over the *same* mmap'd artifacts, so no embedding work
    happens at all. Either way a long-lived pool follows the store
    without a restart. A reload that fails leaves the worker serving
    its current view; it is counted in ``reload_failures`` and retried
    at the next probe. Exits on the ``None`` sentinel, when the parent
    closes its end, or when the parent dies.
    """

    def reply(message) -> bool:
        try:
            conn.send_bytes(message)
        except _PIPE_ERRORS:
            return False  # the parent is gone
        return True

    try:
        from ..api import GitTables

        # Warm the served engines now — resolved from mmap'd artifacts
        # when the store holds valid ones — so the first request does
        # not pay the build cost.
        session = GitTables.load(directory, index_config=index_config).warm()
        epoch, _sealed, generation = read_store_version(directory)
    except Exception:
        reply(pickle.dumps(("error", worker, None, traceback.format_exc(), None, None)))
        return
    if not reply(pickle.dumps(("ready", worker, os.getpid()))):
        return
    memo: dict = {}
    reloads = 0
    reload_failures = 0
    last_probe = time.monotonic()

    def maybe_reload():
        """Reload when the store sealed a newer epoch or re-sharded."""
        nonlocal session, epoch, generation, reloads, reload_failures, last_probe
        now = time.monotonic()
        if now - last_probe < EPOCH_PROBE_INTERVAL_SECONDS:
            return
        last_probe = now
        try:
            current, sealed, current_generation = read_store_version(directory)
            if not sealed or (current <= epoch and current_generation == generation):
                return
            fresh = GitTables.load(directory, index_config=index_config).warm()
        except Exception:
            reload_failures += 1
            return  # keep serving the current view; retry next probe
        session = fresh
        memo.clear()  # memoized results may describe the older view
        epoch = current
        generation = current_generation
        reloads += 1

    while True:
        try:
            if not conn.poll(EPOCH_PROBE_INTERVAL_SECONDS):
                if os.getppid() != parent_pid:
                    return  # orphaned by a dead parent
                maybe_reload()
                continue
            task = conn.recv()
        except _PIPE_ERRORS:
            return  # the parent closed its end
        if task is None:
            return
        maybe_reload()
        store_state = {
            "epoch": epoch,
            "generation": generation,
            "reloads": reloads,
            "reload_failures": reload_failures,
        }
        _, batch_id, endpoint, key, payloads = task
        try:
            results = execute_batch(session, endpoint, key, payloads, memo=memo)
            stats = session.index_stats() or None
            message = pickle.dumps(("ok", worker, batch_id, results, stats, store_state))
        except Exception:
            message = pickle.dumps(("error", worker, batch_id, traceback.format_exc(), None, store_state))
        if not reply(message):
            return


class LocalExecutor:
    """Inline batch execution against the parent's own session."""

    def __init__(self, session, resolve, on_stats=None) -> None:
        self._session = session
        self._resolve = resolve
        self._on_stats = on_stats
        self._memo: dict = {}

    def dispatch(self, requests: list[Request]) -> None:
        first = requests[0]
        try:
            results = execute_batch(
                self._session,
                first.endpoint,
                first.key,
                [request.payload for request in requests],
                memo=self._memo,
            )
        except Exception as error:
            for request in requests:
                self._resolve(request, error=error)
            return
        if self._on_stats is not None:
            stats = self._session.index_stats()
            if stats:
                self._on_stats("local", stats)
        for request, result in zip(requests, results):
            self._resolve(request, result=result)

    def has_room(self, depth: int = 0) -> bool:
        return False  # batches run on the batcher thread itself

    def drain(self, timeout: float) -> bool:
        return True  # dispatch is synchronous; nothing is ever in flight

    def close(self) -> None:
        pass

    def worker_pids(self) -> list[int]:
        return []

    def worker_info(self) -> dict:
        return {"configured": 0, "alive": 0}


class _WorkerHandle:
    """Parent-side state for one worker slot (survives respawns)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None  # the parent's end of the pipe (replaced on respawn)
        self.send_lock = threading.Lock()  # any thread may dispatch to ``conn``
        self.pid: int | None = None
        self.load = 0
        #: Batches sent to this worker and not yet answered.
        self.outstanding = 0
        self.dead = False


class _Batch:
    """One dispatched compatibility group awaiting its result."""

    def __init__(self, batch_id: int, requests: list[Request], worker: int) -> None:
        self.batch_id = batch_id
        self.requests = requests
        self.worker = worker
        self.retried = False


class WorkerPool:
    """N serving processes plus the dispatcher/collector glue.

    ``resolve`` is the service's resolution callback
    (``resolve(request, result=..., error=...)``); the pool guarantees
    every dispatched request is eventually resolved exactly once —
    normally, with the endpoint result, or with
    :class:`~repro.errors.WorkerCrashed` when the retry budget is spent.

    ``on_room()`` is called (without the pool lock held) whenever a live
    worker regains room — its outstanding batches drop below
    :data:`WORKER_BATCH_DEPTH`, or a crashed worker is respawned — so a
    micro-batcher waiting on :meth:`has_room` can close its window.
    """

    def __init__(
        self,
        directory: str,
        workers: int,
        resolve,
        max_respawns: int = 3,
        on_crash=None,
        on_stats=None,
        on_store=None,
        on_room=None,
        index_config=None,
        mp_context=None,
    ) -> None:
        self._directory = str(directory)
        self._resolve = resolve
        self._max_respawns = max_respawns
        self._on_crash = on_crash
        self._on_stats = on_stats
        self._on_store = on_store
        self._on_room = on_room
        self._index_config = index_config
        self._mp = mp_context if mp_context is not None else build_mp_context()
        self._lock = threading.Lock()
        self._batches: dict[int, _Batch] = {}
        self._next_batch_id = 0
        self._respawns_used = 0
        self._closed = False
        self._workers = [_WorkerHandle(index) for index in range(workers)]
        for handle in self._workers:
            self._start_worker(handle)
        self._await_ready()
        self._collector = threading.Thread(
            target=self._collect, name="gittables-serve-collector", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle --------------------------------------------------

    def _start_worker(self, handle: _WorkerHandle) -> None:
        conn, child_conn = self._mp.Pipe()
        handle.process = self._mp.Process(
            target=_serving_worker_main,
            args=(self._directory, handle.index, os.getpid(), child_conn, self._index_config),
            daemon=True,
            name=f"gittables-serve-w{handle.index:02d}",
        )
        with handle.send_lock:
            stale, handle.conn = handle.conn, conn
        if stale is not None:
            stale.close()  # a dead worker's pipe: nothing more can arrive on it
        handle.dead = False
        handle.pid = None
        handle.load = 0
        handle.outstanding = 0
        handle.process.start()
        # Only the worker holds its end now, so its death reads as EOF here.
        child_conn.close()

    def _await_ready(self) -> None:
        """Block until every worker acked readiness (or one failed to load)."""
        # Lazy, as in _collect: it pulls in socket, ~1 MiB per ``import repro``.
        from multiprocessing.connection import wait

        pending = list(self._workers)
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        while pending:
            ready = wait([h.conn for h in pending] + [h.process.sentinel for h in pending],
                         timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                self.close()
                raise ServingError(
                    f"serving workers {[h.index for h in pending]} did not become ready in time"
                )
            for handle in [h for h in pending if h.conn in ready or h.process.sentinel in ready]:
                try:
                    message = handle.conn.recv()
                except _PIPE_ERRORS:
                    message = ("error", handle.index, None, "the process died during startup")
                if message[0] != "ready":
                    self.close()
                    raise ServingError(f"serving worker {handle.index} failed to start:\n{message[3]}")
                handle.pid = message[2]
                pending.remove(handle)

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [handle.pid for handle in self._workers if not handle.dead and handle.pid]

    def worker_info(self) -> dict:
        with self._lock:
            return {"configured": len(self._workers), "alive": len(self._live_locked())}

    def _live_locked(self) -> list[_WorkerHandle]:
        return [h for h in self._workers if not h.dead and h.process is not None]

    # -- dispatch ----------------------------------------------------------

    def has_room(self, depth: int = WORKER_BATCH_DEPTH) -> bool:
        """Whether some live worker has fewer than ``depth`` batches outstanding."""
        with self._lock:
            return any(h.outstanding < depth for h in self._live_locked())

    def dispatch(self, requests: list[Request]) -> None:
        """Route one compatibility group to the least-loaded live worker."""
        with self._lock:
            batch = _Batch(self._next_batch_id, requests, worker=-1)
            self._next_batch_id += 1
        self._route(batch)

    def _route(self, batch: _Batch, exclude: int | None = None) -> None:
        """Register ``batch`` on the least-loaded live worker and send it."""
        with self._lock:
            target = self._least_loaded_locked(exclude=exclude)
            if target is not None:
                batch.worker = target.index
                self._batches[batch.batch_id] = batch
                target.load += len(batch.requests)
                target.outstanding += 1
        if target is None:
            error = WorkerCrashed("no live serving workers remain")
            for request in batch.requests:
                self._resolve(request, error=error)
            return
        self._send(target, batch)

    def _send(self, target: _WorkerHandle, batch: _Batch) -> None:
        """Write one registered batch to a worker's pipe.

        The write can fail — the worker died and its pipe is broken, or
        the parent already closed that end. Swallowing that would strand
        every future in the batch until its deadline (the worker never
        saw the task, so no result can ever arrive). Instead the failure
        is handled exactly like an orphaned batch of a crashed worker:
        unregister, retry once on another worker (the rejecting one only
        when no other is live), then fail with
        :class:`~repro.errors.WorkerCrashed`.
        """
        first = batch.requests[0]
        task = pickle.dumps(
            ("batch", batch.batch_id, first.endpoint, first.key,
             [request.payload for request in batch.requests])
        )
        try:
            with target.send_lock:
                target.conn.send_bytes(task)
            return
        except _PIPE_ERRORS:
            pass
        with self._lock:
            owned = self._batches.pop(batch.batch_id, None) is not None
            room = owned and self._release_locked(target, batch)
        if room:
            self._room_opened()
        if not owned:
            # Crash handling already claimed this batch (and will
            # re-dispatch or fail it); a second owner would double-resolve.
            return
        if batch.retried:
            error = WorkerCrashed(
                f"serving worker {target.index} rejected this request's batch "
                f"twice (pipe broken or closed)"
            )
            for request in batch.requests:
                self._resolve(request, error=error)
            return
        batch.retried = True
        self._route(batch, exclude=target.index)

    def _least_loaded_locked(self, exclude: int | None = None):
        live = self._live_locked()
        if exclude is not None and len(live) > 1:
            live = [h for h in live if h.index != exclude]
        if not live:
            return None
        # A respawn still loading (no ready ack) last; then workers with
        # room first: the batcher dispatched because one has.
        return min(
            live,
            key=lambda h: (h.pid is None, h.outstanding >= WORKER_BATCH_DEPTH, h.load, h.index),
        )

    @staticmethod
    def _release_locked(handle: _WorkerHandle, batch: _Batch) -> bool:
        """Unregister ``batch`` from ``handle``; True when that frees room."""
        handle.load -= len(batch.requests)
        handle.outstanding -= 1
        return handle.outstanding == WORKER_BATCH_DEPTH - 1

    def _room_opened(self) -> None:
        if self._on_room is not None:
            self._on_room()

    # -- collection --------------------------------------------------------

    def _collect(self) -> None:
        """Resolve results and handle deaths until no live worker remains."""
        from multiprocessing.connection import wait

        while True:
            with self._lock:
                live = self._live_locked()
            if not live:
                return  # closed (or every respawn spent)
            ready = wait([h.conn for h in live] + [h.process.sentinel for h in live])
            for handle in live:
                died = handle.process.sentinel in ready
                if died or handle.conn in ready:
                    # Read what the worker wrote before any death first.
                    if not self._receive(handle) or died:
                        self._handle_crash(handle)

    def _receive(self, handle: _WorkerHandle) -> bool:
        """Handle every message waiting on ``handle``'s pipe; False at EOF."""
        try:
            while handle.conn.poll():
                self._on_message(handle.conn.recv())
        except _PIPE_ERRORS:
            return False
        return True

    def _on_message(self, message) -> None:
        kind = message[0]
        if kind == "ready":
            _, index, pid = message
            with self._lock:
                self._workers[index].pid = pid
            return
        _, worker, batch_id, body, index_stats, store_state = message
        if index_stats is not None and self._on_stats is not None:
            self._on_stats(f"worker-{worker:02d}", index_stats)
        if store_state is not None and self._on_store is not None:
            self._on_store(f"worker-{worker:02d}", store_state)
        if batch_id is None:
            return  # init failure of a respawn; its sentinel follows
        with self._lock:
            batch = self._batches.pop(batch_id, None)
            room = batch is not None and self._release_locked(self._workers[batch.worker], batch)
        if room:
            self._room_opened()
        if batch is None:
            return  # duplicate result for a re-dispatched batch
        if kind == "ok":
            for request, result in zip(batch.requests, body):
                self._resolve(request, result=result)
        else:
            error = ServingError(f"serving worker {worker} failed a batch:\n{body}")
            for request in batch.requests:
                self._resolve(request, error=error)

    def _handle_crash(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker and re-dispatch its orphaned batches."""
        with self._lock:
            handle.dead = True
            if self._closed:
                return  # an exit on close; close() fails whatever is left
            orphaned = [
                batch for batch in self._batches.values() if batch.worker == handle.index
            ]
            for batch in orphaned:
                del self._batches[batch.batch_id]
            handle.load = 0
            handle.outstanding = 0
            respawn = self._respawns_used < self._max_respawns
            if respawn:
                self._respawns_used += 1
        if respawn:
            # Anything the dead worker never answered is re-dispatched
            # below; its process cannot produce results any more, so
            # nothing can double-resolve.
            self._start_worker(handle)
        # Counters flip only after the replacement handle is live, so a
        # metrics snapshot never reports a respawn with zero alive workers.
        if self._on_crash is not None:
            self._on_crash(respawned=respawn)
        error = WorkerCrashed(f"serving worker {handle.index} died twice while running this request")
        for batch in orphaned:
            if batch.retried:  # a second orphaning implicates the requests themselves
                for request in batch.requests:
                    self._resolve(request, error=error)
            else:  # one retry per batch: read-only queries are safe to re-run
                batch.retried = True
                self._route(batch)
        if respawn:
            self._room_opened()  # after the retries, so older requests go first

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float) -> bool:
        """Wait until no batch is in flight; False if ``timeout`` elapsed."""
        deadline = time.monotonic() + timeout
        while self._batches and time.monotonic() < deadline:
            time.sleep(0.02)
        return not self._batches

    def close(self) -> None:
        """Stop every worker and the collector; fail anything still in flight."""
        self._closed = True
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    with handle.send_lock:
                        handle.conn.send(None)
                except _PIPE_ERRORS:
                    pass  # already gone
        deadline = time.monotonic() + 10.0
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=2.0)
        collector = getattr(self, "_collector", None)
        if collector is not None and collector.is_alive():
            collector.join(timeout=5.0)
        with self._lock:
            stranded = list(self._batches.values())
            self._batches.clear()
        error = ServiceClosed("service closed before the batch resolved")
        for batch in stranded:
            for request in batch.requests:
                self._resolve(request, error=error)
        for handle in self._workers:
            if handle.conn is not None:
                handle.conn.close()
