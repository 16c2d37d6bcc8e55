"""Benchmark: incremental epoch growth vs a from-scratch rebuild.

Builds a 5k-table sharded store through the real pipeline (with warmed,
published index artifacts), then grows it by 10% two ways:

* **extend** — :meth:`GitTables.extend` on the existing directory: the
  pipeline resumes past the sealed epoch (only the new tables are
  parsed, annotated and appended as new shards) and the search/completion
  engines delta-refresh their artifacts (only the tail schemas are
  embedded). The base never read a statistic, so it holds no columnar
  projection and the extension refreshes none;
* **rebuild** — a from-scratch build of the grown configuration into a
  fresh directory, plus a full engine warm (corpus-wide embedding).

Neither timed arm resolves a projection: builds leave it to the first
statistics call, which the untimed equality check makes on each side.

The acceptance gate is a ≥5x speedup for the extend arm with *exactly*
equal results — same search rankings, same completions, same statistics,
and equal store content fingerprints (the extended directory holds the
same table bytes as the rebuilt one; only the manifest epoch trailer
differs).

``scripts/bench.py --suite incremental`` reuses these helpers to write
the ``BENCH_incremental.json`` perf baseline. The pytest wrapper is
marked ``slow`` and therefore excluded from the tier-1 run (see
``[tool.pytest.ini_options]`` in pyproject.toml).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.api import GitTables
from repro.config import PipelineConfig
from repro.github.content import GeneratorConfig
from repro.storage.sharded import ShardedJsonlStore, read_store_version

N_TABLES = 5000
GROWTH = 0.10
SHARD_SIZE = 256
MIN_SPEEDUP = 5.0

#: Queries / prefixes exercised for the exact-equality checks.
_QUERIES = (
    "status and sales amount per product",
    "sensor readings by day",
    "population by country",
)
_PREFIXES = (("id", "name", "date"), ("country", "city", "population"))


def _answers(session: GitTables) -> tuple:
    """The full checked surface of one session, as comparable values."""
    searches = tuple(tuple(session.search(query, k=10)) for query in _QUERIES)
    completions = tuple(tuple(session.complete_schema(prefix, k=10)) for prefix in _PREFIXES)
    return searches, completions, session.stats(), session.annotation_stats()


def run_incremental_benchmark(
    n_tables: int = N_TABLES, growth: float = GROWTH, shard_size: int = SHARD_SIZE
) -> dict:
    """Time in-place growth vs a from-scratch rebuild of the grown corpus."""
    grown_tables = int(n_tables * (1.0 + growth))
    base = PipelineConfig(target_tables=n_tables, seed=13)
    # The generator is sized for the *grown* corpus up front: an
    # extension must replay the same source stream, so both targets draw
    # their tables from one identically-seeded instance.
    generator = GeneratorConfig(seed=13).scaled_to_files(grown_tables * 8)

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        rebuild_dir = Path(tmp) / "rebuild"

        # Setup (amortized across the store's lifetime): the base build
        # plus its engine warm/publish, so the extend arm starts from a
        # fully artifact-backed directory — the steady state a grown
        # corpus lives in.
        started = perf_counter()
        session = GitTables.build(base, generator_config=generator, store_dir=base_dir,
                                  shard_size=shard_size)
        _ = session.search_engine
        _ = session.completer
        base_seconds = perf_counter() - started

        # Extend arm: reopen and grow in place. Covers the epoch build
        # (only new tables do pipeline work), the engines' delta
        # refresh (only tail schemas embedded) and the deferred prune.
        reopened = GitTables.load(base_dir)
        started = perf_counter()
        reopened.extend(target_tables=grown_tables, shard_size=shard_size)
        extend_seconds = perf_counter() - started

        # Rebuild arm: the same grown corpus from scratch — full
        # pipeline run plus a corpus-wide engine warm.
        grown = base.replace(target_tables=grown_tables)
        started = perf_counter()
        rebuilt = GitTables.build(grown, generator_config=generator, store_dir=rebuild_dir,
                                  shard_size=shard_size)
        _ = rebuilt.search_engine
        _ = rebuilt.completer
        rebuild_seconds = perf_counter() - started

        extended_answers = _answers(reopened)
        rebuilt_answers = _answers(rebuilt)
        fingerprints_equal = (
            ShardedJsonlStore(base_dir).content_fingerprint()
            == ShardedJsonlStore(rebuild_dir).content_fingerprint()
        )
        epoch, sealed = read_store_version(base_dir)[:2]

    new_tables = grown_tables - n_tables
    return {
        "n_tables": n_tables,
        "n_grown_tables": grown_tables,
        "n_new_tables": new_tables,
        "shard_size": shard_size,
        "epoch": epoch,
        "epoch_sealed": sealed,
        "base_build_seconds": base_seconds,
        "extend_seconds": extend_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / extend_seconds,
        "extend_new_tables_per_second": new_tables / extend_seconds,
        "rebuild_tables_per_second": grown_tables / rebuild_seconds,
        "results_equal": extended_answers == rebuilt_answers,
        "fingerprints_equal": fingerprints_equal,
    }


@pytest.mark.slow
def test_incremental_growth_speedup():
    result = run_incremental_benchmark()
    print(
        f"\ngrowth {result['n_tables']} -> {result['n_grown_tables']} tables "
        f"(epoch {result['epoch']}): "
        f"extend {result['extend_seconds']:.1f}s | "
        f"rebuild {result['rebuild_seconds']:.1f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"base build {result['base_build_seconds']:.1f}s"
    )
    assert result["epoch"] == 2 and result["epoch_sealed"], "extend did not seal a new epoch"
    assert result["results_equal"], "extended session differs from the from-scratch rebuild"
    assert result["fingerprints_equal"], "extended store content differs from the rebuild"
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"extend speedup {result['speedup']:.1f}x below the {MIN_SPEEDUP}x gate"
    )
