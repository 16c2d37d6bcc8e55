"""The micro-batcher: coalesce concurrent requests into kernel batches.

Concurrent callers pay per-request Python and dispatch overhead; the
corpus-side kernels (``search_batch``, ``embed_many``, ``query_batch``)
amortize almost all of it across a batch. The batcher closes that gap
without charging a lone request for it. The first queued request opens
a *window*, which takes whatever else is already queued (up to
``max_batch``) and then:

* dispatches at once when the executor **has room** (a worker that can
  start the batch without waiting behind a full backlog) — the window
  is *work-conserving*, so an idle pool never sits on a request;
* otherwise keeps accumulating until room opens (the executor calls
  :meth:`MicroBatcher.wake`), ``max_batch`` requests arrived, or
  ``max_wait_ms`` elapsed, whichever comes first. ``max_wait_ms`` is
  the upper bound of a busy window; an executor that never reports
  room (inline execution) keeps that fixed window.

The window is then split into **compatibility groups** — requests whose
payloads can ride in one kernel call, e.g. searches sharing ``k`` — and
each group is handed to the dispatch callable as one batch.

Batching never changes results: every kernel on the dispatch path is
bit-identical between batched and single-shot execution (a property the
embedding and nearest-neighbour layers maintain deliberately), so a
request observes exactly the bytes a lone ``GitTables`` call returns,
whatever shape its window took.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

__all__ = ["MicroBatcher", "Request"]

#: Queue sentinel telling the window loop to shut down.
_CLOSE = object()
#: Queue sentinel telling a busy window that the executor may have room;
#: the window loop re-checks ``has_room`` and otherwise ignores it.
_WAKE = object()


@dataclass
class Request:
    """One admitted request riding through the batcher to a worker."""

    seq: int
    endpoint: str
    #: Compatibility key: requests are batched together iff equal.
    key: tuple
    #: Endpoint-specific payload (query string, prefix tuple, options).
    payload: object
    #: Resolved with the endpoint result (or a ServingError).
    future: object
    #: ``time.monotonic()`` at admission (latency measurement base).
    submitted_at: float = field(default_factory=time.monotonic)
    #: Absolute ``time.monotonic()`` deadline, or None for no deadline.
    deadline: float | None = None
    #: Set (under the service lock) when the request has been resolved;
    #: guards against double resolution on crash/close races.
    resolved: bool = False

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline


class MicroBatcher:
    """Collects queued requests into windows and dispatches them grouped.

    ``dispatch`` receives a non-empty list of requests sharing one
    compatibility key; it must resolve (or arrange resolution of) every
    future it is handed, even on failure. The batcher thread never
    blocks on results — dispatch is expected to either hand the batch to
    a worker pool asynchronously or execute it inline.

    ``has_room`` is the executor's "can a batch start now" probe; the
    executor calls :meth:`wake` whenever room opens so a busy window
    closes without waiting out ``max_wait_ms``. An executor that never
    has room (inline execution) gets the full ``max_wait_ms`` window.
    """

    def __init__(self, dispatch, has_room, max_batch: int, max_wait_ms: float) -> None:
        self._dispatch = dispatch
        self._has_room = has_room
        self._max_batch = max_batch
        self._max_wait_s = max_wait_ms / 1000.0
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        #: True while a window waits for room; wake() is a no-op otherwise,
        #: so routine completions do not stir an idle window loop.
        self._waiting_for_room = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="gittables-serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, request: Request) -> None:
        """Enqueue one admitted request (admission control is the caller's)."""
        self._queue.put(request)

    def wake(self) -> None:
        """Tell a busy window that the executor may have room now."""
        if self._waiting_for_room:
            self._queue.put(_WAKE)

    def stop(self) -> None:
        """Dispatch everything already queued, then stop the window loop."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_CLOSE)
        self._thread.join()

    # -- window loop -------------------------------------------------------

    def _run(self) -> None:
        closing = False
        while not closing:
            first = self._queue.get()
            if first is _CLOSE:
                break
            if first is _WAKE:
                continue  # stale: no window was waiting for room
            window = [first]
            window_closes = time.monotonic() + self._max_wait_s
            # Take whatever is queued; once the queue is empty, wait for
            # more only while the executor is full. The flag is raised
            # before the room check, so a racing wake() is never lost.
            self._waiting_for_room = True
            while not closing and len(window) < self._max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    if self._has_room():
                        break
                    remaining = window_closes - time.monotonic()
                    try:
                        nxt = self._queue.get(timeout=max(0.0, remaining))
                    except queue.Empty:
                        break
                if nxt is _CLOSE:
                    closing = True
                elif nxt is not _WAKE:
                    window.append(nxt)
            self._waiting_for_room = False
            self._dispatch_window(window)
        # Closing: everything still queued was admitted before stop(),
        # so it is dispatched (drained), not dropped.
        leftovers: list[Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _CLOSE or item is _WAKE:
                continue
            leftovers.append(item)
            if len(leftovers) >= self._max_batch:
                self._dispatch_window(leftovers)
                leftovers = []
        if leftovers:
            self._dispatch_window(leftovers)

    def _dispatch_window(self, window: list) -> None:
        """Split one window into compatibility groups and dispatch each."""
        groups: dict[tuple, list[Request]] = {}
        for request in window:
            groups.setdefault(request.key, []).append(request)
        for group in groups.values():
            try:
                self._dispatch(group)
            except Exception as error:  # pragma: no cover - defensive
                for request in group:
                    if not request.future.done():
                        request.future.set_exception(error)
