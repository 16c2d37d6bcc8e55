"""Benchmark: online compaction under a live serving worker pool.

Builds a sharded store through the real pipeline (warmed, published
index artifacts), serves it with a process worker pool, and re-shards
it **while the pool keeps answering**:

* **steady window** — blocking searches against the untouched store,
  giving the baseline QPS;
* **compaction window** — the same query loop, with
  :func:`repro.storage.compaction.compact_store` rewriting the
  directory to a coarser shard size in a separate compactor process
  (how an operator runs it against a live service); the window runs
  from the moment the rewrite starts until every reporting worker has
  hot-reloaded the new layout generation.

The acceptance gates: QPS during compaction stays within
``MIN_QPS_RATIO`` of steady state, every response in both windows is
bit-identical to the single-shot answer, the store's
``content_fingerprint`` is unchanged by the re-shard (the zero
re-embedding guarantee), and the pool settles on the new generation.

``scripts/bench.py --suite compaction`` reuses these helpers to write
the ``BENCH_compaction.json`` perf baseline. The pytest wrapper is
marked ``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro._procs import build_mp_context
from repro.api import GitTables
from repro.config import PipelineConfig
from repro.github.content import GeneratorConfig
from repro.storage.compaction import compact_store
from repro.storage.sharded import ShardedJsonlStore

N_TABLES = 1000
SHARD_SIZE = 32
COMPACT_SHARD_SIZE = 128
WORKERS = 2
#: Seconds of blocking queries per measured window. Long enough to
#: amortize the compactor's CPU burst even on a single shared core.
WINDOW_SECONDS = 4.0
#: QPS during compaction must stay within this fraction of steady state.
MIN_QPS_RATIO = 0.8
#: Hard cap on waiting for the pool to settle on the new generation.
SETTLE_TIMEOUT_SECONDS = 60.0

_QUERIES = (
    "status and sales amount per product",
    "sensor readings by day",
    "population by country",
)


def _query_window(service, expected, duration: float, until=None, tick=None) -> tuple:
    """Blocking searches round-robin for ``duration`` seconds.

    With ``until`` the window keeps going (up to the settle timeout)
    until the predicate holds, so the compaction window always spans
    the full swap *and* every worker's reload; ``tick`` (a cheap
    callback, e.g. a child-liveness probe) runs every iteration.
    Returns ``(completed, elapsed_seconds, all_equal)``.
    """
    completed = 0
    equal = True
    index = 0
    started = perf_counter()
    while True:
        if tick is not None:
            tick()
        elapsed = perf_counter() - started
        if elapsed >= duration and (until is None or until()):
            break
        if until is not None and elapsed >= SETTLE_TIMEOUT_SECONDS:
            break
        query = _QUERIES[index % len(_QUERIES)]
        index += 1
        equal = service.search(query, k=10) == expected[query] and equal
        completed += 1
    return completed, perf_counter() - started, equal


def run_compaction_benchmark(
    n_tables: int = N_TABLES,
    shard_size: int = SHARD_SIZE,
    compact_shard_size: int = COMPACT_SHARD_SIZE,
) -> dict:
    """Measure serving QPS with and without a concurrent re-shard."""
    config = PipelineConfig(target_tables=n_tables, seed=13)
    generator = GeneratorConfig(seed=13).scaled_to_files(n_tables * 8)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "store"
        started = perf_counter()
        session = GitTables.build(
            config, generator_config=generator, store_dir=directory, shard_size=shard_size
        )
        _ = session.search_engine
        _ = session.completer
        build_seconds = perf_counter() - started

        fingerprint = ShardedJsonlStore(directory).content_fingerprint()
        shards_before = len(ShardedJsonlStore(directory).shard_files())
        expected = {query: session.search(query, k=10) for query in _QUERIES}

        serving = GitTables.load(directory)
        with serving.serve(workers=WORKERS, max_wait_ms=2.0) as service:
            _query_window(service, expected, 0.5)  # warm the pool
            steady_count, steady_elapsed, steady_equal = _query_window(
                service, expected, WINDOW_SECONDS
            )

            # The compactor runs as its own process — the operational
            # shape (an admin task against a live service), and the only
            # fair one: an in-process compactor thread would fight the
            # dispatcher for the GIL and measure contention, not serving.
            box: dict = {}
            compact_started = perf_counter()
            compactor = build_mp_context().Process(
                target=compact_store,
                args=(str(directory),),
                kwargs={"shard_size": compact_shard_size},
                name="bench-compactor",
            )
            compactor.start()

            def _tick() -> None:
                if "seconds" not in box and not compactor.is_alive():
                    box["seconds"] = perf_counter() - compact_started

            def _settled() -> bool:
                if "seconds" not in box:
                    return False
                generations = service.metrics()["workers"]["generations"]
                return bool(generations) and all(
                    generation == 2 for generation in generations.values()
                )

            during_count, during_elapsed, during_equal = _query_window(
                service, expected, WINDOW_SECONDS, until=_settled, tick=_tick
            )
            settled = _settled()
            compactor.join()
            workers_after = service.metrics()["workers"]

        if compactor.exitcode != 0:
            raise RuntimeError(f"compactor exited with {compactor.exitcode}")
        store = ShardedJsonlStore(directory)
        fingerprints_equal = store.content_fingerprint() == fingerprint
        shards_after = len(store.shard_files())
        generation = store.generation

    steady_qps = steady_count / steady_elapsed
    during_qps = during_count / during_elapsed
    reloads = workers_after["artifact_reloads"]
    return {
        "n_tables": n_tables,
        "shard_size": shard_size,
        "compact_shard_size": compact_shard_size,
        "workers": WORKERS,
        "shards_before": shards_before,
        "shards_after": shards_after,
        "generation": generation,
        "build_seconds": build_seconds,
        "compact_seconds": box["seconds"],
        "steady_qps": steady_qps,
        "during_compaction_qps": during_qps,
        "qps_ratio": during_qps / steady_qps,
        "steady_requests": steady_count,
        "during_requests": during_count,
        "results_equal": steady_equal and during_equal,
        "fingerprints_equal": fingerprints_equal,
        "pool_settled_on_new_generation": settled,
        "workers_reloaded": bool(reloads) and all(count >= 1 for count in reloads.values()),
    }


@pytest.mark.slow
def test_online_compaction_serving_throughput():
    result = run_compaction_benchmark()
    print(
        f"\ncompaction {result['shards_before']} -> {result['shards_after']} shards "
        f"(generation {result['generation']}, {result['compact_seconds']:.2f}s rewrite): "
        f"steady {result['steady_qps']:.0f} QPS | "
        f"during {result['during_compaction_qps']:.0f} QPS | "
        f"ratio {result['qps_ratio']:.2f}"
    )
    assert result["generation"] == 2, "compaction did not publish a new generation"
    assert result["fingerprints_equal"], "compaction changed the content fingerprint"
    assert result["results_equal"], "served answers changed during the re-shard"
    assert result["pool_settled_on_new_generation"], "workers never reloaded the new layout"
    assert result["workers_reloaded"], "no worker reported a hot reload"
    assert result["qps_ratio"] >= MIN_QPS_RATIO, (
        f"QPS during compaction fell to {result['qps_ratio']:.2f}x of steady state "
        f"(gate {MIN_QPS_RATIO}x)"
    )
