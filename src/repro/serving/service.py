"""The concurrent query service fronting one :class:`GitTables` session.

::

    submitting thread (admission, deadline; dispatches itself when the
        │   batcher is idle and a worker is idle)
        └─> micro-batcher (while every worker is full: until room,
              │   max_batch or max_wait_ms)
              └─> worker pool (least-loaded routing, a pipe per worker,
                    │   one collector on pipes + sentinels, respawn)
                    └─> N processes, each mmap'ing the store's artifacts

:class:`QueryService` is what :meth:`GitTables.serve` returns. Callers
submit requests from any number of threads; admission is bounded (a
full queue rejects with :class:`~repro.errors.ServiceOverloaded`
instead of growing without limit), every request carries a deadline,
and results are delivered through per-request futures — bit-identical
to the same single-shot call on a lone session, because every kernel on
the batched path guarantees batch-size independence.

The blocking conveniences (:meth:`search`, :meth:`complete_schema`,
:meth:`detect_types`) are submit-plus-wait; concurrent callers that
find every worker full are coalesced into shared kernel batches.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from ..config import ServingConfig
from ..errors import (
    CorpusError,
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    ServingError,
)
from ..storage.sharded import read_store_version
from .batcher import MicroBatcher, Request
from .endpoints import canonicalize
from .metrics import ServiceMetrics
from .workers import LocalExecutor, WorkerPool

__all__ = ["QueryService"]


class QueryService:
    """A micro-batched, multi-worker query service over one session.

    Not constructed directly in normal use — :meth:`GitTables.serve`
    builds one, choosing between the process worker pool (store-backed
    sessions) and in-process execution (``workers=0``).
    """

    def __init__(
        self,
        session,
        config: ServingConfig | None = None,
        directory=None,
        mp_context=None,
    ) -> None:
        self.config = config or ServingConfig()
        self._session = session
        self._directory = str(directory) if directory is not None else None
        self._metrics = ServiceMetrics(latency_samples=self.config.latency_samples)
        self._lock = threading.Lock()
        self._inflight = 0
        self._next_seq = 0
        self._closed = False
        self._batcher = None  # the pool may report room before it exists
        if self.config.workers > 0:
            if directory is None:
                raise ServingError(
                    "process serving workers need a sharded store directory; "
                    "save() the corpus first or serve with workers=0"
                )
            self._executor = WorkerPool(
                directory=str(directory),
                workers=self.config.workers,
                resolve=self._resolve,
                max_respawns=self.config.max_respawns,
                on_crash=self._metrics.record_worker_crash,
                on_stats=self._metrics.record_index_stats,
                on_store=self._metrics.record_worker_store,
                on_room=self._wake_batcher,
                index_config=self.config.index,
                mp_context=mp_context,
            )
        else:
            self._executor = LocalExecutor(
                session, resolve=self._resolve, on_stats=self._metrics.record_index_stats
            )
        self._batcher = MicroBatcher(
            dispatch=self._dispatch,
            has_room=self._executor.has_room,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
        )

    # -- submission --------------------------------------------------------

    def submit_search(self, query: str, k: int = 10, timeout: float | None = None) -> Future:
        """Admit one search request; resolves to ``list[SearchResult]``."""
        return self._submit("search", (query,), k=k, timeout=timeout)

    def submit_complete_schema(
        self, prefix, k: int = 10, timeout: float | None = None
    ) -> Future:
        """Admit one completion request; resolves to ``list[SchemaCompletion]``."""
        return self._submit("complete_schema", (prefix,), k=k, timeout=timeout)

    def submit_detect_types(self, timeout: float | None = None, **options) -> Future:
        """Admit one type-detection request; resolves to a ``TypeDetectionResult``."""
        return self._submit("detect_types", (options,), timeout=timeout)

    def _submit(self, endpoint: str, payload_args: tuple, k=None, timeout=None) -> Future:
        # Validation runs here, in the submitter's thread, so a bad
        # payload raises at the call site and can never poison a batch.
        key, payload = canonicalize(endpoint, payload_args, k)
        if timeout is None:
            timeout = self.config.default_timeout_s
        with self._lock:
            if self._closed:
                raise ServiceClosed("the service is closed")
            if self._inflight >= self.config.max_queue:
                self._metrics.record_rejected(endpoint)
                raise ServiceOverloaded(
                    f"{self._inflight} requests in flight (limit {self.config.max_queue})"
                )
            self._inflight += 1
            seq = self._next_seq
            self._next_seq += 1
            depth = self._inflight
        now = time.monotonic()
        request = Request(
            seq=seq,
            endpoint=endpoint,
            key=key,
            payload=payload,
            future=Future(),
            submitted_at=now,
            deadline=now + timeout,
        )
        self._metrics.record_submitted(endpoint, queue_depth=depth)
        if self._batcher.idle() and self._executor.has_room(depth=1):
            # Nothing to coalesce with and a worker is idle. One merely below its
            # depth is fed by the batcher, so a burst coalesces, not fans out.
            self._dispatch([request])
        else:
            self._batcher.submit(request)
        return request.future

    # -- blocking conveniences ---------------------------------------------

    def _wait(self, future: Future, timeout: float | None):
        if timeout is None:
            timeout = self.config.default_timeout_s
        try:
            # Slack on top of the request deadline: the resolver is the
            # authority on expiry; this wait is just a backstop.
            return future.result(timeout=timeout + 1.0)
        except FutureTimeoutError:
            raise DeadlineExceeded("timed out waiting for the request result") from None

    def search(self, query: str, k: int = 10, timeout: float | None = None):
        """Blocking search through the service (coalesced when concurrent)."""
        return self._wait(self.submit_search(query, k=k, timeout=timeout), timeout)

    def complete_schema(self, prefix, k: int = 10, timeout: float | None = None):
        """Blocking schema completion through the service."""
        return self._wait(self.submit_complete_schema(prefix, k=k, timeout=timeout), timeout)

    def detect_types(self, timeout: float | None = None, **options):
        """Blocking type detection through the service (memoized per options)."""
        return self._wait(self.submit_detect_types(timeout=timeout, **options), timeout)

    # -- internals ---------------------------------------------------------

    def _dispatch(self, requests: list) -> None:
        """Batcher callback: one compatibility group ready for execution."""
        self._metrics.record_batch(requests[0].endpoint, len(requests))
        self._executor.dispatch(requests)

    def _wake_batcher(self) -> None:
        """Pool callback: a worker regained room, so a busy window may close."""
        if self._batcher is not None:
            self._batcher.wake()

    def _resolve(self, request, result=None, error=None) -> None:
        """Resolve one request exactly once, enforcing its deadline."""
        future = request.future
        with self._lock:
            if request.resolved:
                return
            request.resolved = True
            self._inflight -= 1
            depth = self._inflight
        now = time.monotonic()
        if error is not None:
            self._metrics.record_failed(request.endpoint, queue_depth=depth)
            future.set_exception(error)
            return
        if request.expired(now):
            self._metrics.record_deadline_expired(request.endpoint, queue_depth=depth)
            future.set_exception(
                DeadlineExceeded(
                    f"{request.endpoint} result arrived after the request deadline"
                )
            )
            return
        self._metrics.record_completed(
            request.endpoint, latency_s=now - request.submitted_at, queue_depth=depth
        )
        future.set_result(result)

    # -- introspection -----------------------------------------------------

    def metrics(self) -> dict:
        """A point-in-time snapshot dict (QPS, batch histogram, latency).

        For store-backed services the ``workers`` section also reports
        the store's current sealed epoch and shard-layout generation
        next to each worker's served epoch/generation and reload count
        — a live view of an in-place :meth:`GitTables.extend` (or
        :meth:`GitTables.compact`) propagating through the pool.
        """
        store_epoch = None
        store_generation = None
        if self._directory is not None:
            try:
                epoch, sealed, generation = read_store_version(self._directory)
            except (CorpusError, ValueError):
                pass  # unreadable manifest: report the store version as unknown
            else:
                store_generation = generation
                if sealed:
                    store_epoch = epoch
        return self._metrics.snapshot(
            queue_limit=self.config.max_queue,
            workers=self._executor.worker_info(),
            store_epoch=store_epoch,
            store_generation=store_generation,
        )

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (empty in in-process mode)."""
        return self._executor.worker_pids()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain admitted requests, stop the workers, fail any stragglers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.stop()
        self._executor.drain(timeout=self.config.drain_timeout_s)
        self._executor.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> None:
        self.close()
