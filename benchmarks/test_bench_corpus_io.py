"""Benchmark: sharded corpus storage I/O (build, save, reload, lazy get).

Measures the storage layer introduced with the pluggable-store refactor:

* **build** — streaming a corpus build straight into a sharded on-disk
  store (commit-per-batch, the resumable path),
* **save** — atomically snapshotting an in-memory corpus to shards,
* **reload** — a full streaming iteration over the lazily loaded store
  (at most ``cache_shards`` shards resident at any point),
* **lazy get** — single-table reads, which touch exactly one shard.

Peak RSS is recorded as a note (``ru_maxrss`` is a high-water mark for
the whole process, so it is context — not an isolated measurement).

``scripts/bench.py --suite corpus_io`` reuses these helpers to write the
``BENCH_corpus_io.json`` perf baseline. The pytest wrapper is marked
``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import resource
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.config import PipelineConfig
from repro.core.corpus import GitTablesCorpus
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig

N_TABLES = 300
SHARD_SIZE = 32


def _peak_rss_kb() -> int:
    """Process high-water RSS in KiB (Linux ru_maxrss unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_corpus_io_benchmark(
    n_tables: int = N_TABLES, shard_size: int = SHARD_SIZE, seed: int = 13
) -> dict:
    """Time build→store, save, streaming reload and lazy gets."""
    config = PipelineConfig(target_tables=n_tables, seed=seed)
    generator = GeneratorConfig(seed=seed).scaled_to_files(n_tables * 8)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        started = perf_counter()
        result = CorpusBuilder(config, generator_config=generator).build(
            store_dir=store_dir, shard_size=shard_size
        )
        build_seconds = perf_counter() - started
        n_built = len(result.corpus)

        # Atomic snapshot of an equivalent in-memory corpus.
        memory = GitTablesCorpus(name="bench")
        for annotated in result.corpus:
            memory.add(annotated)
        save_dir = Path(tmp) / "saved"
        started = perf_counter()
        memory.save(save_dir, shard_size=shard_size)
        save_seconds = perf_counter() - started

        # Full streaming reload: lazy store, iterate everything.
        started = perf_counter()
        reloaded = GitTablesCorpus.load(store_dir)
        n_reloaded = sum(1 for _ in reloaded)
        reload_seconds = perf_counter() - started

        # Lazy single-table reads on a cold store.
        cold = GitTablesCorpus.load(store_dir)
        table_ids = list(cold.table_ids())[:: max(1, len(reloaded) // 50)]
        started = perf_counter()
        for table_id in table_ids:
            assert cold.get(table_id) is not None
        get_seconds = perf_counter() - started

        n_shards = len(reloaded.store.shard_files())

    return {
        "n_tables": n_built,
        "n_reloaded": n_reloaded,
        "shard_size": shard_size,
        "n_shards": n_shards,
        "build_seconds": build_seconds,
        "build_tables_per_second": n_built / build_seconds if build_seconds else 0.0,
        "save_seconds": save_seconds,
        "reload_seconds": reload_seconds,
        "reload_tables_per_second": n_reloaded / reload_seconds if reload_seconds else 0.0,
        "lazy_gets": len(table_ids),
        "lazy_get_seconds": get_seconds,
        "peak_rss_kb_note": _peak_rss_kb(),
    }


@pytest.mark.slow
def test_bench_corpus_io(benchmark):
    result = benchmark.pedantic(
        run_corpus_io_benchmark, kwargs={"n_tables": 120}, rounds=1, iterations=1
    )
    print(
        f"\nbuilt {result['n_tables']} tables into {result['n_shards']} shards in "
        f"{result['build_seconds']:.2f}s ({result['build_tables_per_second']:.0f} t/s); "
        f"reload {result['reload_seconds']:.3f}s "
        f"({result['reload_tables_per_second']:.0f} t/s); "
        f"{result['lazy_gets']} lazy gets in {result['lazy_get_seconds']:.3f}s; "
        f"peak RSS {result['peak_rss_kb_note'] / 1024:.0f} MiB (process high-water)"
    )
    assert result["n_reloaded"] == result["n_tables"]
