"""Partitioned (IVF-style) approximate nearest-neighbour index tier.

The flat :class:`~repro.embeddings.similarity.NearestNeighbourIndex`
answers every query with one dense product over the *entire* unit-vector
matrix — O(corpus) per query, which stops fitting the serving latency
budget somewhere around 10⁴–10⁵ rows. This module adds the coarse
quantization tier the ROADMAP calls for:

* rows are clustered into ``n_partitions`` buckets by a **deterministic
  k-means** — centroids are seeded from a content-hash ordering of the
  rows and refined for a fixed iteration count, so a build is
  reproducible byte-for-byte with no RNG anywhere;
* a query is scored against the (few) partition centroids, the
  ``nprobe`` best partitions are probed, and their rows are
  **exact-reranked** with the kernel the flat index uses.

The rerank is partition-major, the inverted-list scan of IVF: each probed
partition's rows are gathered once and scored in one kernel call against
every query of the batch that probes it. Under the contract of
:func:`~repro.embeddings.similarity.kernel_for` every similarity the
partitioned index returns is bit-identical to the flat index's value for
that pair; only *which* rows enter the rerank is approximate.
``nprobe >= n_partitions`` delegates to the flat path
outright and reproduces its results exactly, boundary tie-breaks
included.

:func:`build_index` is the scale gate consumers use: corpora below
``IndexConfig.min_rows`` keep the flat index (never a silent result
change on small corpora); larger ones get the partitioned tier.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from ..config import DEFAULT_INDEX_CONFIG, IndexConfig
from .similarity import NearestNeighbourIndex, kernel_for, top_k_ids_scores

__all__ = ["PartitionedIndex", "build_index"]

def _normalize_queries(matrix: np.ndarray) -> np.ndarray:
    """Unit query rows, zero rows kept zero — the flat index's convention."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms > 0.0, norms, 1.0)


def _initial_centroids(unit_vectors: np.ndarray, n_partitions: int) -> np.ndarray:
    """Deterministic k-means seeds: a content-hash ordering of the rows.

    Rows are ordered by ``(blake2b(row bytes), row index)`` — a fixed
    pseudo-random shuffle that depends only on the data — and the first
    ``n_partitions`` rows with pairwise-distinct vectors become the
    initial centroids. Fewer distinct rows than partitions simply yields
    fewer partitions.
    """
    digests = [
        hashlib.blake2b(row.tobytes(), digest_size=16).digest() for row in unit_vectors
    ]
    order = sorted(range(len(digests)), key=lambda i: (digests[i], i))
    chosen: list[int] = []
    seen: set[bytes] = set()
    for i in order:
        key = unit_vectors[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        chosen.append(i)
        if len(chosen) == n_partitions:
            break
    return np.array(unit_vectors[np.array(chosen, dtype=np.int64)])


def _cluster(
    unit_vectors: np.ndarray, n_partitions: int, iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic spherical k-means over unit rows.

    Returns ``(centroids, row_ids, offsets)``: unit-norm centroids, row
    ids grouped by partition (ascending within each), and the int64
    prefix offsets such that partition ``p`` owns
    ``row_ids[offsets[p]:offsets[p + 1]]``. Empty partitions are
    compacted away. A fixed iteration count (not a convergence test)
    keeps the schedule — and therefore the output bytes — reproducible.
    """
    n, dim = unit_vectors.shape
    if n == 0:
        return (
            np.zeros((0, dim)),
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
    kernel = kernel_for(n)
    centroids = _initial_centroids(unit_vectors, n_partitions)
    p = len(centroids)
    for _ in range(iters):
        assign = np.argmax(kernel(centroids, unit_vectors), axis=0)
        counts = np.bincount(assign, minlength=p)
        sums = np.empty_like(centroids)
        for j in range(dim):
            sums[:, j] = np.bincount(assign, weights=unit_vectors[:, j], minlength=p)
        norms = np.linalg.norm(sums, axis=1, keepdims=True)
        updated = sums / np.where(norms > 0.0, norms, 1.0)
        # Partitions that lost all members (or whose members cancel out)
        # keep their previous centroid instead of collapsing to zero.
        stale = (counts == 0) | (norms[:, 0] == 0.0)
        centroids = np.where(stale[:, None], centroids, updated)
    assign = np.argmax(kernel(centroids, unit_vectors), axis=0)
    counts = np.bincount(assign, minlength=p)
    # Stable sort groups rows by partition while keeping ascending row
    # ids inside each partition — the order the rerank's tie-break needs.
    row_ids = np.argsort(assign, kind="stable").astype(np.int64)
    nonempty = counts > 0
    centroids = np.ascontiguousarray(centroids[nonempty])
    offsets = np.zeros(int(nonempty.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[nonempty], out=offsets[1:])
    return centroids, row_ids, offsets


class PartitionedIndex(NearestNeighbourIndex):
    """Probe-then-exact-rerank nearest-neighbour search.

    Shares the flat index's contract and unit-vector rows verbatim;
    :meth:`top_k_batch` additionally consults the centroid table to
    restrict the exact rerank to the ``nprobe`` most promising
    partitions. Similarities for returned hits are bit-identical to the
    flat index's values; an effective ``nprobe >= n_partitions``
    delegates to the flat kernel and reproduces its results exactly.
    """

    _centroids: np.ndarray
    _row_ids: np.ndarray
    _offsets: np.ndarray

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "use PartitionedIndex.build(...) / .from_flat(...), or load a "
            "published index with repro.embeddings.persist.load_index(...)"
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, labels: list[str], vectors: np.ndarray, config: IndexConfig | None = None
    ) -> "PartitionedIndex":
        """Cluster ``vectors`` (normalised like the flat index) and build."""
        return cls.from_flat(NearestNeighbourIndex(labels, vectors), config)

    @classmethod
    def from_flat(
        cls, flat: NearestNeighbourIndex, config: IndexConfig | None = None
    ) -> "PartitionedIndex":
        """Partition an existing flat index, sharing its unit rows verbatim."""
        config = config if config is not None else DEFAULT_INDEX_CONFIG
        units = np.asarray(flat._unit_vectors)
        n_partitions = config.resolve_partitions(len(flat.labels))
        centroids, row_ids, offsets = _cluster(units, n_partitions, config.kmeans_iters)
        index = cls._from_parts(
            flat.labels, flat._unit_vectors, centroids, row_ids, offsets, config.nprobe
        )
        index._recall = index._measure_recall(config.holdout_queries, config.recall_k)
        return index

    @classmethod
    def _from_parts(
        cls,
        labels: list[str],
        unit_vectors: np.ndarray,
        centroids: np.ndarray,
        row_ids: np.ndarray,
        offsets: np.ndarray,
        nprobe: int,
        recall: dict | None = None,
    ) -> "PartitionedIndex":
        index = cls.__new__(cls)
        index.labels = list(labels)
        index._unit_vectors = unit_vectors
        index._centroids = np.asarray(centroids)
        index._row_ids = np.asarray(row_ids)
        index._offsets = np.asarray(offsets)
        index._nprobe = max(1, int(nprobe))
        index._recall = recall
        index._stats_lock = threading.Lock()
        index._stat_queries = 0
        index._stat_candidate_rows = 0
        index._stat_probed: dict[int, int] = {}
        return index

    def view(self, nprobe: int) -> "PartitionedIndex":
        """This index's arrays under its own ``nprobe`` and probe statistics."""
        return PartitionedIndex._from_parts(
            self.labels,
            self._unit_vectors,
            self._centroids,
            self._row_ids,
            self._offsets,
            nprobe,
            self._recall,
        )

    # -- knobs and metadata ------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return len(self._centroids)

    @property
    def nprobe(self) -> int:
        """Partitions probed per query. Query-time knob — settable."""
        return self._nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        if int(value) < 1:
            raise ValueError("nprobe must be >= 1")
        self._nprobe = int(value)

    @property
    def recall(self) -> dict | None:
        """The build-time holdout recall measurement (None if disabled)."""
        return self._recall

    def _effective_nprobe(self, nprobe: int | None) -> int:
        effective = self._nprobe if nprobe is None else int(nprobe)
        return max(1, min(effective, max(1, self.n_partitions)))

    def _record(self, queries: int, probed: int, candidate_rows: int) -> None:
        with self._stats_lock:
            self._stat_queries += queries
            self._stat_candidate_rows += candidate_rows
            self._stat_probed[probed] = self._stat_probed.get(probed, 0) + queries

    def stats(self) -> dict:
        """Instrumentation snapshot (tier, probe histogram, recall, ...)."""
        with self._stats_lock:
            queries = self._stat_queries
            candidate_rows = self._stat_candidate_rows
            probed = {str(k): v for k, v in sorted(self._stat_probed.items())}
        n = len(self.labels)
        fraction = candidate_rows / (queries * n) if queries and n else 0.0
        return {
            "tier": "partitioned",
            "rows": n,
            "n_partitions": self.n_partitions,
            "nprobe": self._nprobe,
            "queries": queries,
            "candidate_rows": candidate_rows,
            "probed_partitions": probed,
            "mean_candidate_fraction": fraction,
            "recall": self._recall,
        }

    # -- search ------------------------------------------------------------

    def _probe(self, units: np.ndarray, effective: int) -> np.ndarray:
        """Per unit query row: the ``effective`` partitions it probes."""
        scores = self._score(units, self._centroids)
        if effective == 1:
            return np.argmax(scores, axis=1)[:, None]
        return np.argpartition(-scores, effective - 1, axis=1)[:, :effective]

    def _partition(self, p: int) -> np.ndarray:
        """Partition ``p``'s row ids, ascending."""
        return self._row_ids[self._offsets[p] : self._offsets[p + 1]]

    def probe_batch(
        self, matrix: np.ndarray, nprobe: int | None = None
    ) -> list[np.ndarray]:
        """Per query row: the ascending row ids the tier would rerank.

        The coarse half of the search alone — callers with their own
        rerank kernel (e.g. schema completion's prefix scoring) use this
        to cut the candidate set before scoring exactly.
        """
        matrix = np.asarray(matrix, dtype=float)
        n_queries = matrix.shape[0]
        n = len(self.labels)
        if n_queries == 0 or n == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(n_queries)]
        effective = self._effective_nprobe(nprobe)
        if effective >= self.n_partitions:
            self._record(n_queries, self.n_partitions, n * n_queries)
            return [np.arange(n, dtype=np.int64) for _ in range(n_queries)]
        probes = self._probe(_normalize_queries(matrix), effective)
        candidates = [
            np.sort(np.concatenate([self._partition(p) for p in row])) for row in probes
        ]
        self._record(n_queries, effective, sum(len(c) for c in candidates))
        return candidates

    def top_k_batch(
        self, matrix: np.ndarray, top_k: int = 1, nprobe: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """Per query row: ``top_k`` (index, similarity) pairs via probing.

        Candidates from the ``nprobe`` best partitions are exact-reranked
        with the flat index's kernel, so every returned similarity is
        bit-identical to the flat index's value for that (query, row)
        pair. An effective ``nprobe >= n_partitions`` short-circuits to
        the flat path and reproduces its output exactly.
        """
        matrix = np.asarray(matrix, dtype=float)
        n_queries = matrix.shape[0]
        n = len(self.labels)
        if n_queries == 0 or n == 0:
            return [[] for _ in range(n_queries)]
        effective = self._effective_nprobe(nprobe)
        if effective >= self.n_partitions:
            self._record(n_queries, self.n_partitions, n * n_queries)
            return NearestNeighbourIndex.top_k_batch(self, matrix, top_k=top_k)
        units = _normalize_queries(matrix)
        results, candidate_rows = self._rerank(units, self._probe(units, effective), min(top_k, n))
        self._record(n_queries, effective, candidate_rows)
        return results

    def _rerank(
        self, units: np.ndarray, probes: np.ndarray, top_k: int
    ) -> tuple[list[list[tuple[int, float]]], int]:
        """Exact top-k over each query's probed partitions, partition-major.

        Partitions probed by the same queries are gathered once and scored
        in one kernel call against those queries. A query's candidates are
        put back in ascending row-id order, the order the selection's
        tie-break expects, so no answer depends on the rest of the batch.
        Also returns the number of (query, row) pairs scored.
        """
        probing: dict[int, list[int]] = {}
        for q, chosen in enumerate(probes.tolist()):
            for p in chosen:
                probing.setdefault(p, []).append(q)
        shared: dict[tuple[int, ...], list[int]] = {}
        for p, queries in probing.items():
            shared.setdefault(tuple(queries), []).append(p)
        blocks = []
        for queries, partitions in shared.items():
            rows = np.sort(np.concatenate([self._partition(p) for p in partitions]))
            probing_units = units if len(queries) == len(units) else units[list(queries)]
            blocks.append((queries, rows, self._score(probing_units, self._unit_vectors[rows])))
        pieces: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(len(units))]
        for queries, rows, block in blocks:
            for q, sims in zip(queries, block):
                pieces[q].append((rows, sims))
        results = []
        for own in pieces:
            ids = np.concatenate([piece[0] for piece in own])
            ascending = np.argsort(ids)
            sims = np.concatenate([piece[1] for piece in own])[ascending]
            results.append(top_k_ids_scores(sims[None, :], min(top_k, len(ids)), ids=ids[ascending])[0])
        return results, sum(len(queries) * len(rows) for queries, rows, _ in blocks)

    def _measure_recall(self, holdout_queries: int, recall_k: int) -> dict | None:
        """recall@k of the probe path vs exact, on an evenly-spaced holdout.

        Uses index rows themselves as queries (deterministic — no
        sampling RNG) and does not touch the serving stats counters.
        """
        n = len(self.labels)
        if holdout_queries == 0 or n == 0:
            return None
        rows = np.unique(np.linspace(0, n - 1, min(holdout_queries, n)).astype(np.int64))
        queries = np.asarray(self._unit_vectors[rows])
        k = min(recall_k, n)
        effective = self._effective_nprobe(None)
        if effective >= self.n_partitions:
            recall = 1.0
        else:
            units = _normalize_queries(queries)
            exact = NearestNeighbourIndex.top_k_batch(self, queries, top_k=k)
            approx, _ = self._rerank(units, self._probe(units, effective), k)
            hits = sum(
                len({i for i, _ in a} & {i for i, _ in e})
                for a, e in zip(approx, exact)
            )
            recall = hits / (len(rows) * k)
        return {
            "recall_at_k": recall,
            "k": k,
            "holdout_queries": int(len(rows)),
            "nprobe": effective,
        }


def _validate_partition_tables(
    row_ids: np.ndarray, offsets: np.ndarray, n_partitions: int, n_rows: int
) -> None:
    """Structural checks on a loaded index artifact's partition tables."""
    if (
        offsets.ndim != 1
        or len(offsets) != n_partitions + 1
        or (n_partitions and offsets[0] != 0)
        or (n_partitions and offsets[-1] != len(row_ids))
        or np.any(np.diff(offsets) < 0)
        or len(row_ids) != n_rows
        or (n_rows and (row_ids.min() < 0 or row_ids.max() >= n_rows))
    ):
        raise ValueError("partition tables are inconsistent with the index")


def build_index(
    labels: list[str],
    vectors: np.ndarray,
    config: IndexConfig | None = None,
    n_rows: int | None = None,
) -> NearestNeighbourIndex:
    """The index for a corpus: flat below the scale gate, partitioned above.

    ``n_rows`` overrides the row count used for the gate (consumers gate
    on *corpus* size, which is known before any matrix is built, so the
    tier decision matches the one their artifact fingerprints encode).
    """
    config = config if config is not None else DEFAULT_INDEX_CONFIG
    count = len(labels) if n_rows is None else n_rows
    if not config.tier_active(count):
        return NearestNeighbourIndex(labels, vectors)
    return PartitionedIndex.build(labels, vectors, config)
