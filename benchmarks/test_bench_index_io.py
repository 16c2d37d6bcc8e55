"""Benchmark: cold-start latency with and without persisted index artifacts.

Measures the mmap-backed artifact layer (``repro.storage.artifacts``):

* **cold, no artifacts** — ``GitTables.load()`` followed by the first
  ``search()``, which must embed every schema of the corpus before the
  query can be answered (the pre-artifact behaviour),
* **publish** — the first artifact-aware session's build-and-publish
  pass (one-time cost),
* **cold, with artifacts** — a fresh ``GitTables.load()`` plus first
  ``search()`` resolving the schema index from the fingerprint-guarded
  mmap'd artifact: zero corpus-wide embedding calls.

The headline number is ``speedup`` (cold-no-artifacts / cold-with-
artifacts); the results of both paths are asserted exactly equal.

``scripts/bench.py --suite index_io`` reuses these helpers to write the
``BENCH_index_io.json`` perf baseline. The pytest wrapper is marked
``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.api import GitTables
from repro.config import PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig

N_TABLES = 300
SHARD_SIZE = 32
#: Required cold-start improvement from mmap'd artifacts.
MIN_SPEEDUP = 5.0

_QUERY = "status and sales amount per product"


def run_index_io_benchmark(
    n_tables: int = N_TABLES, shard_size: int = SHARD_SIZE, seed: int = 13, k: int = 10
) -> dict:
    """Time cold load+first-query with and without persisted artifacts."""
    config = PipelineConfig(target_tables=n_tables, seed=seed)
    generator = GeneratorConfig(seed=seed).scaled_to_files(n_tables * 8)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        CorpusBuilder(config, generator_config=generator).build(
            store_dir=store_dir, shard_size=shard_size
        )

        # Cold start, artifact-free: load + first query embeds the corpus.
        started = perf_counter()
        plain = GitTables.load(store_dir, use_artifacts=False)
        plain_results = plain.search(_QUERY, k=k)
        cold_plain_seconds = perf_counter() - started

        # One-time publish pass (build once, persist next to the shards).
        started = perf_counter()
        GitTables.load(store_dir).warm()
        publish_seconds = perf_counter() - started

        # Cold start, artifact-backed: load + first query mmaps the index.
        started = perf_counter()
        warm = GitTables.load(store_dir)
        warm_results = warm.search(_QUERY, k=k)
        cold_artifact_seconds = perf_counter() - started

        n_indexed = len(warm.search_engine)

    return {
        "n_tables": n_tables,
        "n_indexed_schemas": n_indexed,
        "shard_size": shard_size,
        "cold_no_artifacts_seconds": cold_plain_seconds,
        "publish_seconds": publish_seconds,
        "cold_with_artifacts_seconds": cold_artifact_seconds,
        "speedup": (
            cold_plain_seconds / cold_artifact_seconds if cold_artifact_seconds else 0.0
        ),
        "results_equal": warm_results == plain_results,
    }


@pytest.mark.slow
def test_bench_index_io(benchmark):
    result = benchmark.pedantic(
        run_index_io_benchmark, kwargs={"n_tables": 150}, rounds=1, iterations=1
    )
    print(
        f"\ncold load+search over {result['n_indexed_schemas']} schemas: "
        f"{result['cold_no_artifacts_seconds']:.3f}s embedding everything vs "
        f"{result['cold_with_artifacts_seconds']:.3f}s from mmap'd artifacts "
        f"({result['speedup']:.1f}x; one-time publish "
        f"{result['publish_seconds']:.3f}s)"
    )
    assert result["results_equal"], "artifact-backed results must be bit-identical"
    assert result["speedup"] >= MIN_SPEEDUP
