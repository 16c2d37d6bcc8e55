"""Benchmark: micro-batched multi-worker serving vs an unbatched loop.

Measures the concurrent query serving layer (``repro.serving``) over a
store built on disk:

* **baseline** — a 1-worker service with batching disabled
  (``max_batch=1``, ``max_wait_ms=0``), driven as a closed loop: each
  request is submitted and awaited before the next. This is the
  one-request-per-IPC-round-trip lower bound.
* **served** — a ``WORKERS``-worker service with micro-batching on,
  driven as an open burst: every request is submitted up front and the
  coalescer packs them into windows that fan out across the pool, each
  worker answering whole batches against its own mmap'd artifacts.

Both arms serve the same uniform-``k`` query workload (one
compatibility key, so every window rides as a single kernel batch),
get an untimed warm-up burst (worker import/page-fault and encoder
cache effects hit once, not inside the measurement), and are timed
over ``ROUNDS`` rounds with the best round kept — the machines this
runs on are small and share their CPUs, so single-shot wall-clock is
noisy.

The headline number is ``speedup`` (served QPS / baseline QPS); every
response of both arms, in every round, is asserted byte-identical to
the single-shot session call with the same arguments. A trailing
open-loop trickle of paced requests contributes per-request latency
samples on top of the burst rounds; ``latency_ms`` summarises both.

``scripts/bench.py --suite serving`` reuses these helpers to write the
``BENCH_serving.json`` perf baseline. The pytest wrapper is marked
``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from time import perf_counter

import pytest

from repro.api import GitTables
from repro.config import PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig

N_TABLES = 300
SHARD_SIZE = 32
WORKERS = 4
N_REQUESTS = 200
N_PACED = 60
ROUNDS = 4
MAX_BATCH = 128
MAX_WAIT_MS = 10.0
_K = 10
#: Required QPS improvement of the micro-batched pool over the
#: 1-worker unbatched loop.
MIN_SPEEDUP = 3.0

_QUERY_TOPICS = (
    "status and sales amount per product",
    "employee name email and salary",
    "order id price quantity",
    "country population statistics",
    "temperature sensor reading log",
    "customer address and phone",
    "monthly revenue per region",
    "inventory stock level by warehouse",
)


def _workload(n_requests: int) -> list[str]:
    """A deterministic distinct-query search workload."""
    return [
        f"{_QUERY_TOPICS[index % len(_QUERY_TOPICS)]} variant {index}"
        for index in range(n_requests)
    ]


def run_serving_benchmark(
    n_tables: int = N_TABLES,
    workers: int = WORKERS,
    n_requests: int = N_REQUESTS,
    rounds: int = ROUNDS,
    shard_size: int = SHARD_SIZE,
    seed: int = 13,
) -> dict:
    """Time the micro-batched pool against a 1-worker unbatched loop."""
    config = PipelineConfig(target_tables=n_tables, seed=seed)
    generator = GeneratorConfig(seed=seed).scaled_to_files(n_tables * 8)
    queries = _workload(n_requests)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        CorpusBuilder(config, generator_config=generator).build(
            store_dir=store_dir, shard_size=shard_size
        )
        session = GitTables.load(store_dir)
        # Single-shot ground truth (also warms + publishes the artifacts
        # the workers will mmap, outside every timed section).
        expected = [session.search(query, k=_K) for query in queries]

        # Arm 1: one worker, batching off, closed request loop.
        baseline_times = []
        with session.serve(workers=1, max_batch=1, max_wait_ms=0.0) as baseline:
            # Full untimed warm-up pass: worker wake-up, encoder cache
            # and mmap page faults settle before the measured rounds.
            for query in queries:
                baseline.search(query, k=_K)
            for _ in range(rounds):
                started = perf_counter()
                results = [baseline.search(query, k=_K) for query in queries]
                baseline_times.append(perf_counter() - started)
                if results != expected:
                    raise AssertionError("baseline responses diverged from single-shot")

        # Arm 2: worker pool with micro-batching, open burst.
        served_times = []
        with session.serve(
            workers=workers, max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS
        ) as served:
            warmup = [served.submit_search(query, k=_K) for query in queries]
            for future in warmup:
                future.result(timeout=600)
            for _ in range(rounds):
                started = perf_counter()
                futures = [served.submit_search(query, k=_K) for query in queries]
                results = [future.result(timeout=600) for future in futures]
                served_times.append(perf_counter() - started)
                if results != expected:
                    raise AssertionError("served responses diverged from single-shot")

            # Open-loop trickle: adds paced per-request latency samples.
            paced = []
            for query in _workload(N_PACED):
                paced.append(served.submit_search(f"paced {query}", k=_K))
                time.sleep(0.002)
            for future in paced:
                future.result(timeout=600)
            snapshot = served.metrics()

    search_stats = snapshot["endpoints"]["search"]
    baseline_seconds = min(baseline_times)
    served_seconds = min(served_times)
    baseline_qps = n_requests / baseline_seconds if baseline_seconds else 0.0
    served_qps = n_requests / served_seconds if served_seconds else 0.0
    return {
        "n_tables": n_tables,
        "n_requests": n_requests,
        "n_paced_requests": N_PACED,
        "rounds": rounds,
        "workers": workers,
        "max_batch": MAX_BATCH,
        "max_wait_ms": MAX_WAIT_MS,
        "baseline_seconds": baseline_seconds,
        "baseline_round_seconds": [round(value, 6) for value in baseline_times],
        "baseline_qps": baseline_qps,
        "served_seconds": served_seconds,
        "served_round_seconds": [round(value, 6) for value in served_times],
        "served_qps": served_qps,
        "speedup": served_qps / baseline_qps if baseline_qps else 0.0,
        "results_equal": True,  # every round asserted above
        "batch_size_histogram": search_stats["batch_size_histogram"],
        "mean_batch_size": search_stats["mean_batch_size"],
        "latency_ms": search_stats["latency_ms"],
        "worker_crashes": snapshot["workers"]["crashes"],
    }


@pytest.mark.slow
def test_bench_serving(benchmark):
    result = benchmark.pedantic(run_serving_benchmark, rounds=1, iterations=1)
    latency = result["latency_ms"]
    print(
        f"\n{result['n_requests']} searches: 1-worker unbatched "
        f"{result['baseline_qps']:.0f} QPS vs {result['workers']}-worker "
        f"micro-batched {result['served_qps']:.0f} QPS "
        f"({result['speedup']:.1f}x; mean batch {result['mean_batch_size']:.1f}, "
        f"p50 {latency['p50']:.1f}ms p99 {latency['p99']:.1f}ms)"
    )
    assert result["results_equal"], "served responses must be bit-identical"
    assert result["worker_crashes"] == 0
    assert result["speedup"] >= MIN_SPEEDUP
