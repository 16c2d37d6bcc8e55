"""Thread-safe counters and latency reservoirs for the query service.

One :class:`ServiceMetrics` instance per service, shared by the
admission path (submitter threads), the micro-batcher and the result
collector. Everything is folded into plain counters/deques under one
lock so :meth:`ServiceMetrics.snapshot` can render a complete picture —
per-endpoint QPS, batch-size histogram, queue depth and latency
percentiles — without stopping the service.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

__all__ = ["ServiceMetrics"]

#: Latency percentiles reported by snapshots.
PERCENTILES = (50, 95, 99)


def _percentile(ordered: list[float], q: int) -> float:
    """The ``q``-th percentile of a sorted sample (nearest-rank)."""
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


def _histogram_bucket(size: int) -> int:
    """The power-of-two bucket (upper bound) a batch size falls in."""
    return 1 << max(0, size - 1).bit_length()


class _EndpointStats:
    """Mutable per-endpoint counters (guarded by the owning metrics lock)."""

    def __init__(self, latency_samples: int) -> None:
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.deadline_expired = 0
        self.failed = 0
        self.batches = 0
        self.batched_requests = 0
        #: batch-size bucket (power-of-two upper bound) -> dispatch count.
        self.batch_histogram: dict[int, int] = {}
        self.latencies: deque[float] = deque(maxlen=latency_samples)
        self.first_submitted_at: float | None = None
        self.last_resolved_at: float | None = None


class ServiceMetrics:
    """Counters, gauges and reservoirs behind ``QueryService.metrics()``."""

    def __init__(self, latency_samples: int = 4096) -> None:
        self._lock = threading.Lock()
        self._latency_samples = latency_samples
        self._endpoints: dict[str, _EndpointStats] = {}
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._worker_crashes = 0
        self._worker_respawns = 0
        #: source ("local" / "worker-00" / ...) -> latest index_stats()
        #: dict reported by that executor (engine -> tier stats).
        self._index_stats: dict[str, dict] = {}
        #: source -> latest {"epoch": ..., "generation": ..., "reloads":
        #: ..., "reload_failures": ...} store state piggybacked by that
        #: worker (epoch and layout generation it serves, cumulative
        #: reloads after store extensions or compactions, and cumulative
        #: reload attempts that failed and left the older view served).
        self._worker_store: dict[str, dict] = {}
        self._started_at = time.monotonic()

    def _endpoint(self, endpoint: str) -> _EndpointStats:
        stats = self._endpoints.get(endpoint)
        if stats is None:
            stats = self._endpoints[endpoint] = _EndpointStats(self._latency_samples)
        return stats

    # -- recording ---------------------------------------------------------

    def record_submitted(self, endpoint: str, queue_depth: int) -> None:
        with self._lock:
            stats = self._endpoint(endpoint)
            stats.submitted += 1
            if stats.first_submitted_at is None:
                stats.first_submitted_at = time.monotonic()
            self._queue_depth = queue_depth
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)

    def record_rejected(self, endpoint: str) -> None:
        with self._lock:
            self._endpoint(endpoint).rejected += 1

    def record_batch(self, endpoint: str, size: int) -> None:
        with self._lock:
            stats = self._endpoint(endpoint)
            stats.batches += 1
            stats.batched_requests += size
            bucket = _histogram_bucket(size)
            stats.batch_histogram[bucket] = stats.batch_histogram.get(bucket, 0) + 1

    def _resolved(self, endpoint: str, queue_depth: int) -> _EndpointStats:
        stats = self._endpoint(endpoint)
        stats.last_resolved_at = time.monotonic()
        self._queue_depth = queue_depth
        return stats

    def record_completed(self, endpoint: str, latency_s: float, queue_depth: int) -> None:
        with self._lock:
            stats = self._resolved(endpoint, queue_depth)
            stats.completed += 1
            stats.latencies.append(latency_s)

    def record_deadline_expired(self, endpoint: str, queue_depth: int) -> None:
        with self._lock:
            self._resolved(endpoint, queue_depth).deadline_expired += 1

    def record_failed(self, endpoint: str, queue_depth: int) -> None:
        with self._lock:
            self._resolved(endpoint, queue_depth).failed += 1

    def record_worker_crash(self, respawned: bool) -> None:
        with self._lock:
            self._worker_crashes += 1
            if respawned:
                self._worker_respawns += 1

    def record_index_stats(self, source: str, stats: dict) -> None:
        """Store one executor's latest index-tier snapshot.

        ``stats`` is a :meth:`GitTables.index_stats`-shaped dict (engine
        name -> tier stats). Each worker's counters are cumulative, so
        only the latest report per source is kept; :meth:`snapshot`
        merges across sources.
        """
        with self._lock:
            self._index_stats[source] = stats

    def record_worker_store(self, source: str, state: dict) -> None:
        """Store one worker's latest store-version report.

        ``state`` is ``{"epoch": ..., "generation": ..., "reloads":
        ..., "reload_failures": ...}``: the store epoch and shard-layout
        generation the worker's session currently serves, its cumulative
        count of reloads triggered by store extensions or online
        compactions, and how many reload attempts failed (the worker
        then keeps serving its current view and retries later).
        Cumulative, so only the latest report per source is kept.
        """
        with self._lock:
            self._worker_store[source] = state

    @staticmethod
    def _merged_index_stats(per_source: dict[str, dict]) -> dict:
        """Fold per-worker cumulative index stats into one view per engine."""
        merged: dict[str, dict] = {}
        for source in sorted(per_source):
            for engine, stats in per_source[source].items():
                current = merged.get(engine)
                if current is None:
                    current = merged[engine] = dict(stats)
                    current["probed_partitions"] = dict(stats.get("probed_partitions", {}))
                    continue
                for key in ("queries", "candidate_rows"):
                    if key in stats:
                        current[key] = current.get(key, 0) + stats[key]
                for bucket, count in stats.get("probed_partitions", {}).items():
                    histogram = current["probed_partitions"]
                    histogram[bucket] = histogram.get(bucket, 0) + count
        for current in merged.values():
            if current.get("tier") != "partitioned":
                current.pop("probed_partitions", None)
                continue
            queries = current.get("queries", 0)
            rows = current.get("rows", 0)
            current["mean_candidate_fraction"] = (
                current.get("candidate_rows", 0) / (queries * rows) if queries and rows else 0.0
            )
        return merged

    # -- reporting ---------------------------------------------------------

    def snapshot(
        self,
        queue_limit: int | None = None,
        workers: dict | None = None,
        store_epoch: int | None = None,
        store_generation: int | None = None,
    ) -> dict:
        """A point-in-time picture of the whole service, as plain data.

        ``store_epoch`` and ``store_generation`` are the parent's
        current view of the backing store's sealed epoch and shard
        layout generation (None without a store directory); the
        ``workers`` section additionally reports each worker's served
        epoch/generation and cumulative reload count, so an in-flight
        store extension (or online compaction) is visible as parent
        epoch (generation) ahead of worker epochs (generations) until
        every worker has reloaded; ``reload_failures`` counts, per worker,
        the reload attempts that failed and were retried.
        """
        with self._lock:
            endpoints: dict[str, dict] = {}
            for name in sorted(self._endpoints):
                stats = self._endpoints[name]
                ordered = sorted(stats.latencies)
                window = None
                if stats.first_submitted_at is not None and stats.last_resolved_at is not None:
                    window = max(stats.last_resolved_at - stats.first_submitted_at, 1e-9)
                endpoints[name] = {
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "rejected": stats.rejected,
                    "deadline_expired": stats.deadline_expired,
                    "failed": stats.failed,
                    "qps": (stats.completed / window) if window else 0.0,
                    "batches": stats.batches,
                    "mean_batch_size": (
                        stats.batched_requests / stats.batches if stats.batches else 0.0
                    ),
                    "batch_size_histogram": {
                        str(bucket): stats.batch_histogram[bucket]
                        for bucket in sorted(stats.batch_histogram)
                    },
                    "latency_ms": {
                        **{
                            f"p{q}": _percentile(ordered, q) * 1000.0
                            for q in PERCENTILES
                        },
                        "mean": (sum(ordered) / len(ordered) * 1000.0) if ordered else 0.0,
                        "max": (ordered[-1] * 1000.0) if ordered else 0.0,
                        "samples": len(ordered),
                    },
                }
            snapshot = {
                "uptime_seconds": time.monotonic() - self._started_at,
                "queue": {
                    "depth": self._queue_depth,
                    "max_depth": self._max_queue_depth,
                    "limit": queue_limit,
                },
                "workers": {
                    **(workers or {}),
                    "crashes": self._worker_crashes,
                    "respawns": self._worker_respawns,
                    "store_epoch": store_epoch,
                    "store_generation": store_generation,
                    "epochs": {
                        source: state.get("epoch")
                        for source, state in sorted(self._worker_store.items())
                    },
                    "generations": {
                        source: state.get("generation", 1)
                        for source, state in sorted(self._worker_store.items())
                    },
                    "artifact_reloads": {
                        source: state.get("reloads", 0)
                        for source, state in sorted(self._worker_store.items())
                    },
                    "reload_failures": {
                        source: state.get("reload_failures", 0)
                        for source, state in sorted(self._worker_store.items())
                    },
                },
                "index": self._merged_index_stats(self._index_stats),
                "endpoints": endpoints,
            }
        return snapshot
