"""Benchmark: flat exact search vs the partitioned probe-then-rerank tier.

Measures the approximate nearest-neighbour tier (``repro.embeddings.ann``)
on a synthetic clustered corpus — unit-norm cluster centres plus small
gaussian noise, the regime the IVF layout is built for:

* **flat** — ``NearestNeighbourIndex.top_k_batch`` scoring every query
  against every row (the exact pre-ANN behaviour),
* **partitioned** — ``PartitionedIndex.top_k_batch`` scoring queries
  against centroids, probing the ``nprobe`` nearest partitions and
  exact-reranking each probed partition once against every query that
  probes it, with the same scoring kernel.

The headline numbers are ``speedup`` (flat batch seconds / partitioned
batch seconds) and ``recall_at_k`` (fraction of flat's top-k ids the
probe recovers, averaged over queries). Two exactness properties are
asserted alongside: every hit the tiers share carries a bit-identical
score, and with ``nprobe == n_partitions`` the partitioned tier returns
exactly the flat results.

``scripts/bench.py --suite ann`` reuses these helpers to write the
``BENCH_ann.json`` perf baseline. The pytest wrapper is marked ``slow``
and runs at a reduced scale.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.config import IndexConfig
from repro.embeddings import NearestNeighbourIndex, PartitionedIndex

N_ROWS = 50_000
DIM = 64
N_QUERIES = 512
TOP_K = 10
N_CLUSTERS = 256
#: Std-dev of the per-row gaussian noise around its cluster centre.
NOISE = 0.05
#: Required batch-query throughput improvement over the flat tier.
MIN_SPEEDUP = 5.0
#: Required recall@k against the exact flat top-k.
MIN_RECALL = 0.95


def make_clustered_corpus(
    n_rows: int, dim: int, n_clusters: int, noise: float, seed: int = 7
) -> np.ndarray:
    """Rows drawn around ``n_clusters`` random unit centres."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_clusters, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    assignment = rng.integers(0, n_clusters, size=n_rows)
    return centres[assignment] + rng.standard_normal((n_rows, dim)) * noise


def _recall_at_k(exact: list, approximate: list, k: int) -> float:
    total = 0.0
    for exact_row, approx_row in zip(exact, approximate):
        truth = {label for label, _ in exact_row[:k]}
        found = {label for label, _ in approx_row[:k]}
        total += len(truth & found) / max(len(truth), 1)
    return total / max(len(exact), 1)


def _shared_hits_identical(exact: list, approximate: list) -> bool:
    """Every id both tiers return must carry a bit-identical score."""
    for exact_row, approx_row in zip(exact, approximate):
        exact_scores = dict(exact_row)
        for label, score in approx_row:
            if label in exact_scores and exact_scores[label] != score:
                return False
    return True


def run_ann_benchmark(
    n_rows: int = N_ROWS,
    dim: int = DIM,
    n_queries: int = N_QUERIES,
    top_k: int = TOP_K,
    n_clusters: int = N_CLUSTERS,
    noise: float = NOISE,
    seed: int = 7,
) -> dict:
    """Time flat vs partitioned batch top-k over a clustered corpus."""
    vectors = make_clustered_corpus(n_rows, dim, n_clusters, noise, seed=seed)
    rng = np.random.default_rng(seed + 1)
    # Queries are perturbed corpus rows: near a cluster, not on it.
    picks = rng.integers(0, n_rows, size=n_queries)
    queries = vectors[picks] + rng.standard_normal((n_queries, dim)) * noise

    labels = list(range(n_rows))
    config = IndexConfig(min_rows=1)
    flat = NearestNeighbourIndex(labels, vectors)

    started = perf_counter()
    ann = PartitionedIndex.from_flat(flat, config)
    build_seconds = perf_counter() - started

    started = perf_counter()
    exact = flat.top_k_batch(queries, top_k=top_k)
    flat_seconds = perf_counter() - started

    started = perf_counter()
    approximate = ann.top_k_batch(queries, top_k=top_k)
    ann_seconds = perf_counter() - started
    # Snapshot before the full-probe check below inflates the counters.
    stats = ann.stats()

    # Exactness: nprobe == n_partitions must reproduce flat verbatim.
    full_probe = ann.top_k_batch(queries, top_k=top_k, nprobe=ann.n_partitions)
    return {
        "n_rows": n_rows,
        "dim": dim,
        "n_queries": n_queries,
        "top_k": top_k,
        "n_partitions": ann.n_partitions,
        "nprobe": ann.nprobe,
        "build_seconds": build_seconds,
        "flat_seconds": flat_seconds,
        "ann_seconds": ann_seconds,
        "speedup": flat_seconds / ann_seconds if ann_seconds else 0.0,
        "recall_at_k": _recall_at_k(exact, approximate, top_k),
        "holdout_recall": ann.recall["recall_at_k"] if ann.recall else None,
        "mean_candidate_fraction": stats["mean_candidate_fraction"],
        "shared_hits_identical": _shared_hits_identical(exact, approximate),
        "full_probe_equals_flat": full_probe == exact,
    }


@pytest.mark.slow
def test_bench_ann(benchmark):
    result = benchmark.pedantic(
        run_ann_benchmark,
        kwargs={"n_rows": 8_000, "n_queries": 128, "n_clusters": 64},
        rounds=1,
        iterations=1,
    )
    print(
        f"\n{result['n_queries']} queries x {result['n_rows']} rows: "
        f"flat {result['flat_seconds']:.3f}s vs partitioned "
        f"{result['ann_seconds']:.3f}s ({result['speedup']:.1f}x, "
        f"recall@{result['top_k']} {result['recall_at_k']:.3f}, "
        f"{result['n_partitions']} partitions / nprobe {result['nprobe']})"
    )
    assert result["shared_hits_identical"], "shared hits must score bit-identically"
    assert result["full_probe_equals_flat"], "full probe must equal the flat tier"
    assert result["recall_at_k"] >= MIN_RECALL
    # The reduced pytest scale keeps the wall-clock low; the throughput
    # gate is enforced at full scale by ``scripts/bench.py --suite ann``.
    assert result["speedup"] > 1.0
