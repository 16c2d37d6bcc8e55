"""The serving worker pool: N processes over one mmap'd store directory.

Each worker process opens the corpus store directory **read-only** via
:meth:`GitTables.load` and warms its query engines from the store's
fingerprint-guarded index artifacts — one ``np.load(mmap_mode="r")``
per index instead of a corpus-wide re-embed, with the page cache shared
across the whole pool. The parent never ships corpus data to workers:
a task is just ``(batch id, endpoint, compatibility key, payloads)``
and a result is the pickled list of per-request results.

The parent-side :class:`WorkerPool` routes each batch to the
least-loaded live worker, preferring one with room (fewer than
:data:`WORKER_BATCH_DEPTH` batches outstanding), tells the micro-batcher
whenever a worker regains room (the ``on_room`` callback), watches for
crashed workers (a worker that died mid-batch is detected on the
collector's next idle tick), respawns them within the configured
budget, and re-dispatches a dead worker's in-flight batches exactly
once — a batch orphaned twice fails with
:class:`~repro.errors.WorkerCrashed`. Request futures are resolved by
one collector thread; a result that lands after its request's deadline
resolves to :class:`~repro.errors.DeadlineExceeded` instead.

:class:`LocalExecutor` is the degenerate pool for ``workers=0`` (and
for sessions without a store directory): batches execute inline on the
batcher thread against the parent's own session — still micro-batched,
no processes involved. It never reports room, so its windows stay open
for the full ``max_wait_ms``.
"""

from __future__ import annotations

import os
import queue as queue_module
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


def _serving_worker_main(
    directory: str, worker: int, parent_pid: int, task_queue, result_queue, index_config=None
):
    """Worker process entry point: serve endpoint batches until told to stop.

    Sends ``("ready", worker, pid)`` once the session is loaded and its
    engines are warm, then answers every ``("batch", id, endpoint, key,
    payloads)`` task with ``("ok", worker, id, results, index_stats,
    store_state)`` — or ``("error", worker, id, traceback, None,
    store_state)`` for a failing batch, which does *not* kill the worker
    (one malformed batch must not take down the pool). The piggybacked
    ``index_stats`` element is the session's cumulative ANN-tier
    instrumentation (None when no engine is built) and ``store_state``
    is ``{"epoch": ..., "generation": ..., "reloads": ...,
    "reload_failures": ...}``, so the parent's metrics see the tier and
    store version in use without an extra round trip.

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
    at the next probe. Exits on the ``None`` sentinel or when the
    parent dies.
    """

    def leave():
        # Never block process exit on flushing acks nobody will read
        # (same rationale as the build workers).
        result_queue.cancel_join_thread()

    try:
        from ..api import GitTables

        # Warm the served engines now — resolved from mmap'd artifacts
        # when the store holds valid ones — so the first request does
        # not pay the build cost.
        session = GitTables.load(directory, index_config=index_config).warm()
        epoch, _sealed, generation = read_store_version(directory)
    except Exception:
        result_queue.put(("error", worker, None, traceback.format_exc(), None, None))
        return leave()
    result_queue.put(("ready", worker, os.getpid()))
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
            task = task_queue.get(timeout=0.5)
        except queue_module.Empty:
            if os.getppid() != parent_pid:
                return leave()  # orphaned by a dead parent
            maybe_reload()
            continue
        if task is None:
            return leave()
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
            result_queue.put(
                ("ok", worker, batch_id, results, session.index_stats() or None, store_state)
            )
        except Exception:
            result_queue.put(
                ("error", worker, batch_id, traceback.format_exc(), None, store_state)
            )


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

    def has_room(self) -> bool:
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
        self.task_queue = None
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
        self._result_queue = self._mp.Queue()
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
        handle.task_queue = self._mp.Queue()
        handle.process = self._mp.Process(
            target=_serving_worker_main,
            args=(
                self._directory,
                handle.index,
                os.getpid(),
                handle.task_queue,
                self._result_queue,
                self._index_config,
            ),
            daemon=True,
            name=f"gittables-serve-w{handle.index:02d}",
        )
        handle.dead = False
        handle.pid = None
        handle.load = 0
        handle.outstanding = 0
        handle.process.start()

    def _await_ready(self) -> None:
        """Block until every worker acked readiness (or one failed to load)."""
        pending = {handle.index for handle in self._workers}
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ServingError(
                    f"serving workers {sorted(pending)} did not become ready in time"
                )
            try:
                message = self._result_queue.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                for index in list(pending):
                    if not self._workers[index].process.is_alive():
                        self.close()
                        raise ServingError(f"serving worker {index} died during startup")
                continue
            if message[0] == "error":
                self.close()
                raise ServingError(f"serving worker {message[1]} failed to start:\n{message[3]}")
            if message[0] == "ready":
                _, index, pid = message
                self._workers[index].pid = pid
                pending.discard(index)

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [handle.pid for handle in self._workers if not handle.dead and handle.pid]

    def worker_info(self) -> dict:
        with self._lock:
            return {
                "configured": len(self._workers),
                "alive": sum(
                    1
                    for handle in self._workers
                    if not handle.dead and handle.process is not None
                ),
            }

    # -- dispatch ----------------------------------------------------------

    def has_room(self) -> bool:
        """Whether some live worker can take a batch without queueing deep."""
        with self._lock:
            return any(
                not handle.dead
                and handle.process is not None
                and handle.outstanding < WORKER_BATCH_DEPTH
                for handle in self._workers
            )

    def dispatch(self, requests: list[Request]) -> None:
        """Route one compatibility group to the least-loaded live worker."""
        with self._lock:
            target = self._least_loaded_locked()
            if target is None:
                error = WorkerCrashed("no live serving workers remain")
                batch = None
            else:
                error = None
                batch = _Batch(self._next_batch_id, requests, target.index)
                self._next_batch_id += 1
                self._batches[batch.batch_id] = batch
                target.load += len(requests)
                target.outstanding += 1
        if error is not None:
            for request in requests:
                self._resolve(request, error=error)
            return
        self._send(target, batch)

    def _send(self, target: _WorkerHandle, batch: _Batch) -> None:
        """Enqueue one registered batch on a worker's task queue.

        ``put`` can raise — the queue is full, or its feeder is gone
        because the worker crashed and was torn down. Swallowing that
        would strand every future in the batch until its deadline (the
        worker never saw the task, so no result can ever arrive).
        Instead the failure is handled exactly like an orphaned batch of
        a crashed worker: unregister, retry once on another worker (the
        rejecting one only when no other is live), then fail with
        :class:`~repro.errors.WorkerCrashed`.
        """
        first = batch.requests[0]
        try:
            target.task_queue.put(
                ("batch", batch.batch_id, first.endpoint, first.key,
                 [request.payload for request in batch.requests])
            )
            return
        except Exception:
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
                f"twice (task queue full or closed)"
            )
            for request in batch.requests:
                self._resolve(request, error=error)
            return
        batch.retried = True
        self._redispatch(batch, exclude=target.index)

    def _least_loaded_locked(self, exclude: int | None = None):
        live = [h for h in self._workers if not h.dead and h.process is not None]
        if exclude is not None and len(live) > 1:
            live = [h for h in live if h.index != exclude]
        if not live:
            return None
        # Workers with room first: the batcher dispatched because one has.
        return min(
            live,
            key=lambda h: (h.outstanding >= WORKER_BATCH_DEPTH, h.load, h.index),
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
        while True:
            try:
                message = self._result_queue.get(timeout=0.2)
            except queue_module.Empty:
                if self._closed and not self._batches:
                    return
                self._check_liveness()
                continue
            kind = message[0]
            if kind == "ready":
                _, index, pid = message
                with self._lock:
                    self._workers[index].pid = pid
                continue
            _, worker, batch_id, body, index_stats, store_state = message
            if index_stats is not None and self._on_stats is not None:
                self._on_stats(f"worker-{worker:02d}", index_stats)
            if store_state is not None and self._on_store is not None:
                self._on_store(f"worker-{worker:02d}", store_state)
            if batch_id is None:
                continue  # init failure of a respawn; liveness check handles it
            with self._lock:
                batch = self._batches.pop(batch_id, None)
                room = batch is not None and self._release_locked(
                    self._workers[batch.worker], batch
                )
            if room:
                self._room_opened()
            if batch is None:
                continue  # duplicate result for a re-dispatched batch
            if kind == "ok":
                for request, result in zip(batch.requests, body):
                    self._resolve(request, result=result)
            else:
                error = ServingError(f"serving worker {worker} failed a batch:\n{body}")
                for request in batch.requests:
                    self._resolve(request, error=error)

    def _check_liveness(self) -> None:
        """Respawn crashed workers and re-dispatch their orphaned batches."""
        crashed = []
        with self._lock:
            for handle in self._workers:
                if handle.dead or handle.process is None:
                    continue
                if not handle.process.is_alive():
                    handle.dead = True
                    crashed.append(handle)
        for handle in crashed:
            self._handle_crash(handle)

    def _handle_crash(self, handle: _WorkerHandle) -> None:
        with self._lock:
            orphaned = [
                batch for batch in self._batches.values() if batch.worker == handle.index
            ]
            for batch in orphaned:
                del self._batches[batch.batch_id]
            handle.load = 0
            handle.outstanding = 0
            respawn = not self._closed and self._respawns_used < self._max_respawns
            if respawn:
                self._respawns_used += 1
        if respawn:
            # Abandon the dead worker's task queue (anything it never
            # picked up is re-dispatched below; the old process cannot
            # produce results, so nothing can double-resolve).
            handle.task_queue.cancel_join_thread()
            self._start_worker(handle)
        # Counters flip only after the replacement handle is live, so a
        # metrics snapshot never reports a respawn with zero alive workers.
        if self._on_crash is not None:
            self._on_crash(respawned=respawn)
        failures, retries = [], []
        for batch in orphaned:
            (failures if batch.retried else retries).append(batch)
        for batch in retries:
            # One retry per batch: requests are read-only queries, so
            # re-running them is safe; a second orphaning means the
            # requests themselves are implicated, so they fail instead.
            batch.retried = True
            self._redispatch(batch)
        for batch in failures:
            error = WorkerCrashed(
                f"serving worker {handle.index} died twice while running this request"
            )
            for request in batch.requests:
                self._resolve(request, error=error)
        if respawn:
            self._room_opened()  # after the retries, so older requests go first

    def _redispatch(self, batch: _Batch, exclude: int | None = None) -> None:
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

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float) -> bool:
        """Wait until no batch is in flight; False if ``timeout`` elapsed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._batches:
                    return True
            time.sleep(0.02)
        with self._lock:
            return not self._batches

    def close(self) -> None:
        """Stop every worker and the collector; fail anything still in flight."""
        self._closed = True
        for handle in self._workers:
            if handle.task_queue is not None:
                try:
                    handle.task_queue.put_nowait(None)
                except Exception:  # pragma: no cover - full/closed queue
                    pass
        deadline = time.monotonic() + 10.0
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                process.join(timeout=0.2)
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
            if handle.task_queue is not None:
                handle.task_queue.cancel_join_thread()
        self._result_queue.cancel_join_thread()
