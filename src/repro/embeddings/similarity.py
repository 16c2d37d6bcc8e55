"""Cosine similarity utilities and a small nearest-neighbour index.

Every matrix product between query rows and index rows goes through the
kernel :func:`kernel_for` picks once per index, from its row count:

* an index of at least :data:`TILED_MIN_ROWS` rows takes :func:`score`,
  fixed-shape BLAS calls — rows in :data:`ROW_TILE`-row tiles (the tail
  tile zero-padded), queries in :data:`QUERY_TILE`-column tiles — so
  every GEMM it issues has the same ``(ROW_TILE, dim, QUERY_TILE)``
  shape. BLAS picks its micro-kernel, blocking and thread split from the
  call's shape, so a fixed shape fixes the accumulation order of every
  dot product: a (query, row) score is bit-identical alone, inside any
  batch, in any order, against any gathered subset of the rows and over
  any offset view into a larger buffer. A plain ``rows @ units.T`` keeps
  none of that (its results move in the last ulp with the row count);
* a smaller index takes einsum, whose own per-pair loop has the same
  independence; below the threshold the tiles' fixed cost (padding and
  reassembly) outweighs what BLAS saves.

The flat top-k, the partitioned tier's probe and rerank and its k-means
all take the index's kernel, so the tiers agree bit-for-bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "cosine_similarity",
    "cosine_similarity_matrix",
    "kernel_for",
    "score",
    "top_k_ids_scores",
    "NearestNeighbourIndex",
]

#: Rows per BLAS call of :func:`score`; with :data:`QUERY_TILE`, the
#: fastest pair of the README's per-shape grid. A ``64 * 4 * dim`` call
#: stays under OpenBLAS's 262 144 threading threshold for ``dim <= 1024``,
#: so it never wakes the BLAS thread pool.
ROW_TILE = 64
#: Query columns per BLAS call of :func:`score`.
QUERY_TILE = 4
#: Query rows per dense similarity block of a flat top-k (bounds its memory).
QUERY_BLOCK = 8 * QUERY_TILE
#: Indexes with at least this many rows score with the tiled BLAS
#: kernel, smaller ones with einsum (the crossover for one query).
TILED_MIN_ROWS = 1024


def score(units: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dot products ``(n_units, n_rows)`` from fixed-shape BLAS calls.

    Full row tiles are views into ``rows`` (one batched ``matmul`` per
    query block); the tail tile and a short last query block are
    zero-padded copies.
    """
    units = np.ascontiguousarray(units)
    n_units, dim = units.shape
    n_rows = rows.shape[0]
    out = np.empty((n_units, n_rows))
    if n_units == 0 or n_rows == 0:
        return out
    body = n_rows - n_rows % ROW_TILE
    tiles = rows[:body].reshape(-1, ROW_TILE, dim)
    tail = None
    if body < n_rows:
        tail = np.zeros((ROW_TILE, dim))
        tail[: n_rows - body] = rows[body:]
    for start in range(0, n_units, QUERY_TILE):
        block = units[start : start + QUERY_TILE]
        width = len(block)
        if width < QUERY_TILE:
            block = np.concatenate([block, np.zeros((QUERY_TILE - width, dim))])
        if body:
            products = np.matmul(tiles, block.T).reshape(body, QUERY_TILE)
            out[start : start + width, :body] = products.T[:width]
        if tail is not None:
            out[start : start + width, body:] = (tail @ block.T)[: n_rows - body].T[:width]
    return out


def _score_einsum(units: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dot products ``(n_units, n_rows)`` from einsum's per-pair loop."""
    return np.einsum("qd,ld->ql", units, rows)


def kernel_for(n_rows: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The product kernel an index of ``n_rows`` rows uses everywhere."""
    return score if n_rows >= TILED_MIN_ROWS else _score_einsum


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is zero)."""
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def cosine_similarity_matrix(queries: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: (n_queries, n_index).

    Scored with the kernel an index over ``index`` would use
    (:func:`kernel_for`).
    """
    if queries.size == 0 or index.size == 0:
        return np.zeros((queries.shape[0], index.shape[0]))
    query_norms = np.linalg.norm(queries, axis=1, keepdims=True)
    index_norms = np.linalg.norm(index, axis=1, keepdims=True)
    query_norms[query_norms == 0.0] = 1.0
    index_norms[index_norms == 0.0] = 1.0
    return kernel_for(index.shape[0])(queries / query_norms, index / index_norms)


def top_k_ids_scores(
    similarities: np.ndarray, top_k: int, ids: np.ndarray | None = None
) -> list[list[tuple[int, float]]]:
    """Top-k selection over a dense similarity block, fully vectorized.

    Given per-query similarities of shape ``(n_queries, n_candidates)``
    — against the whole index (``ids=None``: candidate column == global
    row id) or against a gathered candidate subset (``ids`` maps columns
    to global row ids) — return per query the ``top_k``
    ``(global_id, similarity)`` pairs ordered by descending similarity,
    ties broken by ascending global id.

    This is the shared selection kernel behind both the flat
    :meth:`NearestNeighbourIndex.top_k_batch` and the partitioned tier's
    rerank: one ``argpartition`` + ``take_along_axis`` + a single batched
    ``lexsort`` for the whole block, no per-row Python loop. When ``ids``
    is given its columns must be sorted ascending so the ``top_k == 1``
    argmax fast path (first maximum) keeps the ascending-id tie-break.
    ``top_k`` must already be clamped to ``n_candidates`` by the caller.
    """
    n_queries, n_candidates = similarities.shape
    if n_candidates == 0:
        return [[] for _ in range(n_queries)]
    if top_k == 1:
        # argmax returns the first maximum — with columns in ascending
        # global-id order that is exactly the ascending-id tie-break.
        best = np.argmax(similarities, axis=1)
        global_best = best if ids is None else np.asarray(ids)[best]
        scores = np.take_along_axis(similarities, best[:, None], axis=1)[:, 0]
        return [
            [(int(gid), float(score))] for gid, score in zip(global_best, scores)
        ]
    if top_k < n_candidates:
        columns = np.argpartition(-similarities, top_k - 1, axis=1)[:, :top_k]
    else:
        columns = np.tile(np.arange(n_candidates), (n_queries, 1))
    scores = np.take_along_axis(similarities, columns, axis=1)
    global_ids = columns if ids is None else np.asarray(ids)[columns]
    # One lexsort for the whole block: the row index is the primary key,
    # so each row's entries stay contiguous and are ordered internally by
    # (-score, ascending id) — the same comparison the old per-row
    # ``lexsort((candidates, -scores))`` performed.
    rows = np.repeat(np.arange(n_queries), top_k)
    order = np.lexsort((global_ids.ravel(), -scores.ravel(), rows))
    sorted_ids = global_ids.ravel()[order].reshape(n_queries, top_k)
    sorted_scores = scores.ravel()[order].reshape(n_queries, top_k)
    return [
        [(int(gid), float(score)) for gid, score in zip(id_row, score_row)]
        for id_row, score_row in zip(sorted_ids, sorted_scores)
    ]


class NearestNeighbourIndex:
    """Exact cosine nearest-neighbour search over labelled vectors.

    Batches are first-class: :meth:`top_k_batch` answers many queries with
    one call of the index's kernel (:func:`kernel_for`) plus an
    ``argpartition`` top-k selection (no full sort), and :meth:`query` is
    a thin wrapper over the same path.
    """

    def __init__(self, labels: list[str], vectors: np.ndarray) -> None:
        if len(labels) != vectors.shape[0]:
            raise ValueError("labels and vectors must have the same length")
        self.labels = list(labels)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._unit_vectors = vectors / norms

    @classmethod
    def _from_unit_vectors(cls, labels: list[str], unit_vectors: np.ndarray) -> "NearestNeighbourIndex":
        """Construct from vectors that are *already* the index's unit rows.

        The normalising division in ``__init__`` is skipped entirely —
        re-dividing already-normalised rows by their (not exactly 1.0)
        norms would perturb the last ulp and break the bit-identity
        guarantee between a persisted index and the one it was published
        from. Internal: used by the artifact loaders.
        """
        if len(labels) != unit_vectors.shape[0]:
            raise ValueError("labels and vectors must have the same length")
        index = cls.__new__(cls)
        index.labels = list(labels)
        index._unit_vectors = unit_vectors
        return index

    def __len__(self) -> int:
        return len(self.labels)

    def _score(self, units: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Products with this index's one kernel (see :func:`kernel_for`)."""
        return kernel_for(len(self.labels))(units, rows)

    def stats(self) -> dict:
        """Instrumentation snapshot; the exact tier has nothing to tune."""
        return {"tier": "flat", "rows": len(self.labels)}

    def top_k_batch(self, matrix: np.ndarray, top_k: int = 1) -> list[list[tuple[int, float]]]:
        """Per query row: the ``top_k`` (index, similarity) pairs.

        One kernel call against the whole index answers each block of
        :data:`QUERY_BLOCK` queries; the top-k selection uses ``argpartition``
        (O(n) per row) instead of a full sort, with ties broken by ascending
        index so results are deterministic. Zero-vector query rows score 0.
        """
        matrix = np.asarray(matrix, dtype=float)
        n_queries = matrix.shape[0]
        if n_queries == 0 or len(self.labels) == 0:
            return [[] for _ in range(n_queries)]
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        units = matrix / np.where(norms > 0.0, norms, 1.0)
        starts = range(0, n_queries, QUERY_BLOCK)
        blocks = (self._score(units[start : start + QUERY_BLOCK], self._unit_vectors) for start in starts)
        return [hit for block in blocks for hit in top_k_ids_scores(block, min(top_k, len(self.labels)))]

    def query_batch(self, matrix: np.ndarray, top_k: int = 1) -> list[list[tuple[str, float]]]:
        """Per query row: the ``top_k`` (label, similarity) pairs."""
        return [
            [(self.labels[index], score) for index, score in row]
            for row in self.top_k_batch(matrix, top_k=top_k)
        ]

    def query(self, vector: np.ndarray, top_k: int = 1) -> list[tuple[str, float]]:
        """Return the ``top_k`` most similar labels with their similarities."""
        if len(self.labels) == 0:
            return []
        return self.query_batch(np.asarray(vector, dtype=float)[None, :], top_k=top_k)[0]

    def best(self, vector: np.ndarray) -> tuple[str, float] | None:
        """The single most similar label, or None for an empty index."""
        results = self.query(vector, top_k=1)
        return results[0] if results else None
