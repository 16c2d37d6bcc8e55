"""Tests for the concurrent query serving layer (``repro.serving``).

Covers the ISSUE-6 edge cases: empty corpora, single-request windows
(no batching regression), bit-identity of coalesced results, deadline
expiry mid-batch, overload rejection, close semantics, and a worker
SIGKILL mid-request with transparent respawn (reusing the PR-5 fault
idiom of killing a live worker pid and asserting recovery).

The in-process tests (``workers=0``) run the exact same batcher and
endpoint groups as the pool, minus the process hop, so they pin the
coalescing semantics cheaply; the pool tests exercise the mmap'd
worker path over a real saved store.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import time

import pytest

from repro import GitTables, GitTablesCorpus, ServingConfig
from repro.config import PipelineConfigError
from repro.errors import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    ServingError,
)

DETECT_OPTIONS = {"columns_per_type": 8, "epochs": 2, "n_splits": 2}


@pytest.fixture(scope="module")
def store_session(gittables_corpus, tmp_path_factory):
    """The small corpus saved to a sharded store, reloaded for serving."""
    directory = tmp_path_factory.mktemp("serving_store") / "corpus"
    GitTables.from_corpus(gittables_corpus).save(directory)
    return GitTables.load(directory)


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.workers == 2
        assert config.max_batch == 64

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": -1},
            {"workers": 100},
            {"max_batch": 0},
            {"max_wait_ms": -0.1},
            {"max_queue": 0},
            {"default_timeout_s": 0.0},
            {"max_respawns": -1},
            {"drain_timeout_s": 0.0},
            {"latency_samples": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(PipelineConfigError):
            ServingConfig(**overrides)

    def test_replace_and_in_process(self):
        config = ServingConfig().replace(max_batch=8)
        assert config.max_batch == 8
        assert ServingConfig.in_process().workers == 0


class TestInProcessService:
    def test_empty_corpus_serves_empty_results(self):
        session = GitTables.from_corpus(GitTablesCorpus())
        with session.serve(workers=0) as service:
            assert service.search("anything", k=5) == []
            assert service.complete_schema(["alpha", "beta"], k=5) == []

    def test_single_request_window_matches_single_shot(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_wait_ms=0.0) as service:
            served = service.search("employee salary", k=5)
        assert served == session.search("employee salary", k=5)
        snapshot = service.metrics()
        stats = snapshot["endpoints"]["search"]
        assert stats["completed"] == 1
        assert stats["batch_size_histogram"] == {"1": 1}
        assert stats["mean_batch_size"] == 1.0

    def test_concurrent_searches_are_bit_identical(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        queries = [f"table about topic {index}" for index in range(12)]
        expected = [session.search(query, k=4) for query in queries]
        with session.serve(workers=0, max_wait_ms=20.0) as service:
            futures = [service.submit_search(query, k=4) for query in queries]
            results = [future.result(timeout=60) for future in futures]
        assert results == expected
        snapshot = service.metrics()
        stats = snapshot["endpoints"]["search"]
        assert stats["completed"] == len(queries)
        # The coalescer must have merged at least some of the burst.
        assert stats["batches"] < len(queries)

    def test_mixed_endpoints_share_a_window(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        expected_search = session.search("orders", k=3)
        expected_completion = session.complete_schema(["name", "email"], k=3)
        with session.serve(workers=0, max_wait_ms=20.0) as service:
            search_future = service.submit_search("orders", k=3)
            completion_future = service.submit_complete_schema(["name", "email"], k=3)
            assert search_future.result(timeout=60) == expected_search
            assert completion_future.result(timeout=60) == expected_completion

    def test_detect_types_requests_share_one_run(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        expected = session.detect_types(**DETECT_OPTIONS)
        with session.serve(workers=0, max_wait_ms=50.0) as service:
            futures = [
                service.submit_detect_types(**DETECT_OPTIONS) for _ in range(3)
            ]
            results = [future.result(timeout=120) for future in futures]
        assert all(result == expected for result in results)
        stats = service.metrics()["endpoints"]["detect_types"]
        assert stats["completed"] == 3

    def test_invalid_payloads_rejected_at_submit(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0) as service:
            with pytest.raises(ServingError):
                service.submit_search("", k=3)
            with pytest.raises(ServingError):
                service.submit_search("ok", k=0)
            with pytest.raises(ServingError):
                service.submit_complete_schema([], k=3)
            with pytest.raises(ServingError):
                service.submit_detect_types(eval_corpus=GitTablesCorpus())
        # Rejected payloads never entered the pipeline.
        assert service.metrics()["endpoints"] == {}

    def test_overloaded_queue_rejects_new_requests(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_queue=1, max_wait_ms=500.0) as service:
            # The first request holds the window open for up to 500ms;
            # the second submit exceeds the queue bound immediately.
            held = service.submit_search("first", k=2)
            with pytest.raises(ServiceOverloaded):
                service.submit_search("second", k=2)
            assert held.result(timeout=60) == session.search("first", k=2)
        snapshot = service.metrics()
        assert snapshot["endpoints"]["search"]["rejected"] == 1

    def test_closed_service_rejects_submissions(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        service = session.serve(workers=0)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit_search("anything", k=2)
        # close() is idempotent.
        service.close()


class TestWorkerPoolService:
    def test_pool_requires_store_directory(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with pytest.raises(ServingError):
            session.serve(workers=1)

    def test_pool_results_match_single_shot(self, store_session):
        queries = [f"table about topic {index}" for index in range(10)]
        prefixes = [["name", "email"], ["order", "price"]]
        expected_search = [store_session.search(query, k=4) for query in queries]
        expected_completion = [
            store_session.complete_schema(prefix, k=4) for prefix in prefixes
        ]
        with store_session.serve(workers=2, max_wait_ms=20.0) as service:
            assert len(service.worker_pids()) == 2
            search_futures = [service.submit_search(q, k=4) for q in queries]
            completion_futures = [
                service.submit_complete_schema(p, k=4) for p in prefixes
            ]
            searched = [f.result(timeout=120) for f in search_futures]
            completed = [f.result(timeout=120) for f in completion_futures]
        assert searched == expected_search
        assert completed == expected_completion
        snapshot = service.metrics()
        assert snapshot["workers"]["configured"] == 2
        assert snapshot["workers"]["crashes"] == 0

    def test_deadline_expiry_mid_batch(self, store_session):
        with store_session.serve(workers=1, max_wait_ms=0.0) as service:
            future = service.submit_search("anything", k=3, timeout=1e-6)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=120)
            # A later request with a sane deadline still succeeds: the
            # expired request poisoned neither the batch nor the worker.
            assert service.search("anything", k=3) == store_session.search(
                "anything", k=3
            )
        snapshot = service.metrics()
        assert snapshot["endpoints"]["search"]["deadline_expired"] == 1

    def test_worker_sigkill_mid_request_is_transparent(self, store_session):
        # Ten distinct detect runs (distinct option keys, so no memo
        # sharing) give the lone worker ~2s of sequential work; the kill
        # lands while some are in flight and some are still queued.
        option_sets = [
            {"columns_per_type": 8, "epochs": epochs, "n_splits": 2}
            for epochs in range(2, 12)
        ]
        expected = [store_session.detect_types(**options) for options in option_sets]
        with store_session.serve(workers=1, max_wait_ms=0.0) as service:
            pids = service.worker_pids()
            assert len(pids) == 1
            futures = [
                service.submit_detect_types(timeout=300, **options)
                for options in option_sets
            ]
            # Let the first batches reach the worker before killing it.
            time.sleep(0.5)
            os.kill(pids[0], signal.SIGKILL)
            results = [future.result(timeout=300) for future in futures]
            assert results == expected
            # The crash is detected on a collector tick and the counters
            # flip before the replacement handle is registered; poll the
            # whole recovered state within a bounded window rather than
            # asserting on the first snapshot.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                snapshot = service.metrics()
                workers = snapshot["workers"]
                if (
                    workers["crashes"] >= 1
                    and workers["respawns"] >= 1
                    and workers["alive"] == 1
                ):
                    break
                time.sleep(0.1)
            assert snapshot["workers"]["crashes"] >= 1
            assert snapshot["workers"]["respawns"] >= 1
            assert snapshot["workers"]["alive"] == 1

    def test_worker_sigkill_under_steady_load_is_seen_at_once(self, store_session):
        # Four clients keep both workers busy; a death must not wait for
        # the stream to go quiet before its batches are re-dispatched.
        import threading

        requests = [("search", f"steady stream topic {index}") for index in range(6)] + [
            ("complete", ("name", "email")),
            ("complete", ("order", "price", "date")),
        ]
        expected = {
            request: store_session.search(request[1], k=4)
            if request[0] == "search"
            else store_session.complete_schema(list(request[1]), k=4)
            for request in requests
        }
        records: list[tuple[float, float, bool]] = []
        failures: list[BaseException] = []
        stop = threading.Event()
        with store_session.serve(workers=2) as service:
            victim = service.worker_pids()[0]

            def client(offset: int) -> None:
                position = offset
                while not stop.is_set():
                    request = requests[position % len(requests)]
                    position += 1
                    submitted = time.monotonic()
                    resolved = []
                    try:
                        if request[0] == "search":
                            future = service.submit_search(request[1], k=4)
                        else:
                            future = service.submit_complete_schema(request[1], k=4)
                        future.add_done_callback(lambda _: resolved.append(time.monotonic()))
                        result = future.result(timeout=30)
                    except Exception as error:
                        failures.append(error)
                        return
                    records.append((submitted, resolved[0], result == expected[request]))

            clients = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in clients:
                thread.start()
            time.sleep(0.5)
            # Freeze the victim first, so it surely holds unanswered
            # batches when it dies, while the other worker keeps the
            # result stream busy.
            os.kill(victim, signal.SIGSTOP)
            time.sleep(0.05)
            killed_at = time.monotonic()
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.5)
            stop.set()
            for thread in clients:
                thread.join(timeout=60)
            workers = service.metrics()["workers"]
        assert failures == []
        assert all(correct for _, _, correct in records)
        in_flight = [resolved for submitted, resolved, _ in records
                     if submitted < killed_at < resolved]
        assert in_flight
        assert max(in_flight) - killed_at < 0.1
        assert workers["crashes"] == workers["respawns"] == 1

    def test_blocking_wait_converts_timeout(self, store_session):
        with store_session.serve(workers=0, max_wait_ms=0.0) as service:
            with pytest.raises(DeadlineExceeded):
                service.detect_types(timeout=1e-6, **DETECT_OPTIONS)


class TestServiceMetricsSnapshot:
    def test_snapshot_shape(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_wait_ms=5.0) as service:
            service.search("snapshot probe", k=2)
            snapshot = service.metrics()
        assert snapshot["queue"]["limit"] == ServingConfig().max_queue
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["queue"]["max_depth"] >= 1
        stats = snapshot["endpoints"]["search"]
        latency = stats["latency_ms"]
        assert latency["samples"] == 1
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert stats["qps"] > 0.0

    def test_concurrent_submitters_all_resolve(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        queries = [f"threaded query {index}" for index in range(8)]
        expected = {query: session.search(query, k=3) for query in queries}
        with session.serve(workers=0, max_wait_ms=10.0) as service:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                results = dict(
                    zip(
                        queries,
                        pool.map(lambda q: service.search(q, k=3), queries),
                    )
                )
        assert results == expected


class TestIndexTierMetrics:
    """``snapshot()['index']`` — the ANN-tier view fed by the executors."""

    def test_local_executor_reports_flat_tier(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0) as service:
            service.search("index tier probe", k=3)
            index = service.metrics()["index"]
        # The small corpus stays below the ANN scale gate: flat tier,
        # no probe histogram to report.
        assert index["search"]["tier"] == "flat"
        assert "probed_partitions" not in index["search"]

    def test_local_executor_reports_partitioned_tier(self, gittables_corpus):
        from repro.config import IndexConfig

        session = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1, nprobe=2)
        )
        with session.serve(workers=0) as service:
            service.search("index tier probe", k=3)
            service.complete_schema(["name", "email"], k=3)
            index = service.metrics()["index"]
        assert index["search"]["tier"] == "partitioned"
        assert index["search"]["queries"] >= 1
        assert index["search"]["probed_partitions"]
        assert 0.0 < index["search"]["mean_candidate_fraction"] <= 1.0
        assert index["completion"]["tier"] == "partitioned"

    def test_worker_pool_merges_tier_stats(self, gittables_corpus, tmp_path):
        from repro.config import IndexConfig

        directory = tmp_path / "corpus"
        GitTables.from_corpus(gittables_corpus).save(directory)
        session = GitTables.load(
            directory, index_config=IndexConfig(min_rows=1, nprobe=2)
        )
        queries = [f"pooled tier probe {index}" for index in range(6)]
        expected = [session.search(query, k=3) for query in queries]
        with session.serve(workers=2, max_wait_ms=10.0) as service:
            results = [service.search(query, k=3) for query in queries]
            index = service.metrics()["index"]
        assert results == expected
        assert index["search"]["tier"] == "partitioned"
        # Counters are merged across workers: every query is accounted for.
        assert index["search"]["queries"] >= len(queries)
        assert sum(index["search"]["probed_partitions"].values()) >= len(queries)


class TestDispatchQueueGuard:
    """Regression: a failing task write during dispatch used to be
    swallowed, stranding every future in the batch until its deadline —
    the worker never saw the task, so no result could ever arrive. The
    pool must treat it like an orphaned batch of a crashed worker:
    retry once on another worker, then fail with ``WorkerCrashed``."""

    @staticmethod
    def _stub_pool(connections):
        import threading

        from repro.serving.workers import WorkerPool, _WorkerHandle

        pool = WorkerPool.__new__(WorkerPool)
        pool._lock = threading.Lock()
        pool._batches = {}
        pool._next_batch_id = 0
        pool.resolved = []
        pool._resolve = lambda request, result=None, error=None: pool.resolved.append(
            (request, error)
        )
        pool._workers = []
        for index, connection in enumerate(connections):
            handle = _WorkerHandle(index)
            handle.process = object()  # routing only checks "not dead, not None"
            handle.conn = connection
            pool._workers.append(handle)
        return pool

    @staticmethod
    def _requests(n):
        from concurrent.futures import Future

        from repro.serving.batcher import Request

        return [
            Request(seq=i, endpoint="search", key=("search", 4), payload=(f"q{i}",), future=Future())
            for i in range(n)
        ]

    class _BrokenPipe:
        def __init__(self):
            self.sends = 0

        def send_bytes(self, data):
            self.sends += 1
            raise BrokenPipeError("worker end closed")

    class _GoodPipe:
        def __init__(self):
            self.items = []

        def send_bytes(self, data):
            import pickle

            self.items.append(pickle.loads(data))

        def close(self):
            pass

    def test_rejected_dispatch_retries_on_another_worker(self):
        full, good = self._BrokenPipe(), self._GoodPipe()
        pool = self._stub_pool([full, good])
        requests = self._requests(2)
        pool.dispatch(requests)
        # The batch landed on the healthy worker and is still in flight.
        assert full.sends == 1
        assert len(good.items) == 1
        assert good.items[0][2] == "search"
        assert good.items[0][4] == [request.payload for request in requests]
        assert pool.resolved == []
        [batch] = pool._batches.values()
        assert batch.worker == 1 and batch.retried
        assert pool._workers[0].load == 0
        assert pool._workers[1].load == len(requests)

    def test_twice_rejected_dispatch_fails_with_worker_crashed(self):
        from repro.errors import WorkerCrashed

        pool = self._stub_pool([self._BrokenPipe(), self._BrokenPipe()])
        requests = self._requests(3)
        pool.dispatch(requests)
        # Nothing is stranded: every future fails loudly and promptly.
        assert len(pool.resolved) == len(requests)
        assert {id(request) for request, _ in pool.resolved} == {
            id(request) for request in requests
        }
        assert all(isinstance(error, WorkerCrashed) for _, error in pool.resolved)
        assert pool._batches == {}
        assert all(handle.load == 0 for handle in pool._workers)

    def test_unowned_batch_is_left_to_the_crash_handler(self):
        from repro.serving.workers import _Batch

        full = self._BrokenPipe()
        pool = self._stub_pool([full])
        requests = self._requests(1)
        # The crash handler already claimed this batch (it is not in
        # pool._batches); _send must not resolve or re-dispatch it — a
        # second owner would double-resolve the futures.
        batch = _Batch(99, requests, worker=0)
        pool._send(pool._workers[0], batch)
        assert pool.resolved == []
        assert not batch.retried
        assert pool._batches == {}


class TestWorkConservingWindow:
    """The batcher's window rule against a stub executor (no processes):
    dispatch at once while the executor has room; while it is full,
    accumulate until ``wake()``, ``max_batch`` or ``max_wait_ms``."""

    class _StubExecutor:
        def __init__(self, room: bool, gate=None):
            import threading

            self.room = room
            self.gate = gate
            self.batches: list[tuple[float, list]] = []
            self.dispatched = threading.Event()

        def has_room(self) -> bool:
            return self.room

        def dispatch(self, requests) -> None:
            self.batches.append((time.monotonic(), list(requests)))
            self.dispatched.set()
            if self.gate is not None:
                self.gate.wait(timeout=30)

    @staticmethod
    def _request(seq: int):
        from concurrent.futures import Future

        from repro.serving.batcher import Request

        return Request(seq=seq, endpoint="search", key=("search", 4), payload=(f"q{seq}",),
                       future=Future())

    def _batcher(self, executor, max_wait_ms: float, max_batch: int = 64):
        from repro.serving.batcher import MicroBatcher

        return MicroBatcher(
            dispatch=executor.dispatch,
            has_room=executor.has_room,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
        )

    def test_lone_request_with_room_dispatches_at_once(self):
        executor = self._StubExecutor(room=True)
        batcher = self._batcher(executor, max_wait_ms=500.0)
        try:
            submitted = time.monotonic()
            batcher.submit(self._request(0))
            assert executor.dispatched.wait(timeout=5.0)
            dispatched_at, batch = executor.batches[0]
            assert [request.seq for request in batch] == [0]
            assert dispatched_at - submitted < 0.2  # not the 500 ms window
        finally:
            batcher.stop()

    def test_full_window_coalesces_until_wake(self):
        executor = self._StubExecutor(room=False)
        batcher = self._batcher(executor, max_wait_ms=60_000.0)
        try:
            for seq in range(3):
                batcher.submit(self._request(seq))
            time.sleep(0.1)
            assert executor.batches == []  # full: still accumulating
            executor.room = True
            batcher.wake()
            assert executor.dispatched.wait(timeout=5.0)
            [(_, batch)] = executor.batches
            assert [request.seq for request in batch] == [0, 1, 2]
        finally:
            batcher.stop()

    def test_full_window_without_wake_closes_at_max_wait(self):
        executor = self._StubExecutor(room=False)
        batcher = self._batcher(executor, max_wait_ms=100.0)
        try:
            submitted = time.monotonic()
            batcher.submit(self._request(0))
            batcher.submit(self._request(1))
            assert executor.dispatched.wait(timeout=5.0)
            [(dispatched_at, batch)] = executor.batches
            assert [request.seq for request in batch] == [0, 1]
            assert dispatched_at - submitted >= 0.09
        finally:
            batcher.stop()

    def test_stop_drains_with_wake_sentinels_queued(self):
        import threading

        from repro.serving.batcher import _CLOSE, _WAKE

        gate = threading.Event()
        executor = self._StubExecutor(room=True, gate=gate)
        batcher = self._batcher(executor, max_wait_ms=10.0, max_batch=2)
        batcher.submit(self._request(0))
        assert executor.dispatched.wait(timeout=5.0)
        # The window loop is parked inside dispatch, so this queue order
        # is exactly what it sees next: a window, the close, then the
        # stop() drain — with wake sentinels in every part of it.
        for item in (_WAKE, self._request(1), _WAKE, self._request(2), self._request(3),
                     _CLOSE, _WAKE, self._request(4), _WAKE, self._request(5)):
            batcher._queue.put(item)
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        batches = [[request.seq for request in batch] for _, batch in executor.batches]
        assert batches == [[0], [1, 2], [3], [4, 5]]


class TestPoolRoomCallbacks:
    """Every path that gives a worker room back tells the batcher."""

    @staticmethod
    def _pool(queues):
        pool = TestDispatchQueueGuard._stub_pool(queues)
        pool.rooms = 0

        def on_room():
            pool.rooms += 1

        pool._on_room = on_room
        return pool

    def test_failed_send_calls_on_room(self):
        from repro.serving.workers import WORKER_BATCH_DEPTH

        full, good = TestDispatchQueueGuard._BrokenPipe(), TestDispatchQueueGuard._GoodPipe()
        pool = self._pool([full, good])
        for handle in pool._workers:
            handle.outstanding = WORKER_BATCH_DEPTH - 1
        pool.dispatch(TestDispatchQueueGuard._requests(2))
        # Worker 0 filled up, rejected the task and got its room back;
        # the retry landed on worker 1.
        assert full.sends == 1 and len(good.items) == 1
        assert pool.rooms == 1
        assert [handle.outstanding for handle in pool._workers] == [
            WORKER_BATCH_DEPTH - 1,
            WORKER_BATCH_DEPTH,
        ]
        assert pool.has_room()

    def test_collected_result_below_depth_calls_on_room(self):
        import multiprocessing
        import types

        from repro.serving.workers import WORKER_BATCH_DEPTH

        pool = self._pool([TestDispatchQueueGuard._GoodPipe()])
        pool._closed = True
        pool._on_stats = pool._on_store = None
        for _ in range(WORKER_BATCH_DEPTH):
            pool.dispatch(TestDispatchQueueGuard._requests(1))
        assert not pool.has_room()
        # The answers arrive on a real pipe whose worker end then closes;
        # the process sentinel is a pipe nobody writes, so it never fires.
        conn, worker_end = multiprocessing.Pipe()
        quiet, unwritten = os.pipe()
        handle = pool._workers[0]
        handle.conn = conn
        handle.process = types.SimpleNamespace(sentinel=quiet)
        for batch_id in sorted(pool._batches):
            worker_end.send(("ok", 0, batch_id, ["answer"], None, None))
        worker_end.close()
        try:
            pool._collect()  # returns at EOF: closed, so no worker is left
        finally:
            conn.close()
            os.close(quiet)
            os.close(unwritten)
        # Only the drop from full to one below the depth opens room.
        assert pool.rooms == 1
        assert pool._workers[0].outstanding == 0
        assert [error for _, error in pool.resolved] == [None] * WORKER_BATCH_DEPTH

    def test_crash_respawn_calls_on_room(self):
        from repro.serving.workers import WORKER_BATCH_DEPTH, _Batch

        fresh = TestDispatchQueueGuard._GoodPipe()
        pool = self._pool([TestDispatchQueueGuard._GoodPipe()])
        pool._closed = False
        pool._respawns_used, pool._max_respawns = 0, 1
        pool._on_crash = None

        def respawn(handle):
            handle.conn = fresh
            handle.dead = False
            handle.load = handle.outstanding = 0

        pool._start_worker = respawn
        handle = pool._workers[0]
        requests = TestDispatchQueueGuard._requests(1)
        pool._batches[0] = _Batch(0, requests, worker=0)
        handle.load, handle.outstanding = 1, WORKER_BATCH_DEPTH
        handle.dead = True
        pool._handle_crash(handle)
        # The orphaned batch was retried on the respawned worker, then
        # the batcher was told the slot has room again.
        assert len(fresh.items) == 1 and fresh.items[0][1] == 0
        assert pool.rooms == 1
        assert handle.outstanding == 1 and pool.has_room()
        assert pool.resolved == []


class TestServiceMetricsFixes:
    def test_percentiles_are_nearest_rank(self):
        from repro.serving.metrics import _percentile

        assert _percentile([1, 2, 3, 4, 5], 50) == 3
        # Nearest rank ceil(0.99 * 1060) = 1050, i.e. index 1049 — the
        # rank the life-cycle benchmark's p99 uses on the same data.
        assert _percentile(list(range(1060)), 99) == 1049

    def test_failed_worker_reload_is_counted(self, gittables_corpus, monkeypatch):
        import multiprocessing
        import threading

        from repro.serving import workers
        from repro.serving.endpoints import canonicalize

        session = GitTables.from_corpus(gittables_corpus)
        loads = []

        def load(directory, index_config=None):
            loads.append(directory)
            if len(loads) > 1:
                raise OSError("store vanished mid-reload")
            return session

        probes = []

        def read_store_version(directory):
            probes.append(directory)
            return (1, True, 1) if len(probes) == 1 else (2, True, 1)

        monkeypatch.setattr(GitTables, "load", staticmethod(load))
        monkeypatch.setattr(workers, "read_store_version", read_store_version)
        monkeypatch.setattr(workers, "EPOCH_PROBE_INTERVAL_SECONDS", 0)

        conn, worker_end = multiprocessing.Pipe()
        key, payload = canonicalize("search", ("employee salary",), 5)
        conn.send(("batch", 7, "search", key, [payload]))
        conn.send(None)
        worker = threading.Thread(
            target=workers._serving_worker_main,
            args=(worker_end, "store", 0, os.getppid()),
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert conn.recv()[0] == "ready"
        kind, _, batch_id, body, _, store_state = conn.recv()
        assert (kind, batch_id) == ("ok", 7)
        assert store_state["reload_failures"] == 1
        assert store_state["reloads"] == 0 and store_state["epoch"] == 1
        assert body == [session.search("employee salary", k=5)]
        assert len(loads) == 2

    def test_snapshot_surfaces_reload_failures(self):
        from repro.serving.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.record_worker_store(
            "worker-00", {"epoch": 1, "generation": 1, "reloads": 2, "reload_failures": 3}
        )
        workers = metrics.snapshot()["workers"]
        assert workers["artifact_reloads"] == {"worker-00": 2}
        assert workers["reload_failures"] == {"worker-00": 3}
