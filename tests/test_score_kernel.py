"""The scoring kernel's bit-identity contract (``embeddings.similarity``).

Every product between query rows and index rows goes through the kernel
:func:`~repro.embeddings.similarity.kernel_for` picks for the index. The
flat top-k, the partitioned tier's probe and partition-major rerank and
the serving batches rely on one property of it: a (query, row) score has
the same bits alone (single), inside any batch, in any order of the
batch, against any gathered subset of the rows and over rows that are an
offset view into a larger buffer (as a memory-mapped artifact is).

The property runs at every tile edge of the BLAS kernel and once more in
a subprocess with a single-threaded BLAS, so neither the thread count
nor the shape of a call can move a score.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import IndexConfig
from repro.embeddings import NearestNeighbourIndex, PartitionedIndex
from repro.embeddings.similarity import (
    QUERY_TILE,
    ROW_TILE,
    TILED_MIN_ROWS,
    cosine_similarity_matrix,
    kernel_for,
    score,
)

KERNELS = {"tiled": score, "einsum": kernel_for(TILED_MIN_ROWS - 1)}

#: Row counts at and around every row-tile edge.
ROW_COUNTS = sorted(
    {1, 2}
    | {t * ROW_TILE + delta for t in (1, 2, 3) for delta in (-1, 0, 1)}
)
#: Query counts at and around every query-tile edge.
QUERY_COUNTS = sorted(
    {1} | {t * QUERY_TILE + delta for t in (1, 2, 3) for delta in (-1, 0, 1)}
)


def _units(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _offset_view(rows: np.ndarray, offset: int) -> np.ndarray:
    """``rows`` copied into a larger buffer, returned as a view at ``offset``."""
    n, dim = rows.shape
    buffer = np.zeros(1 + (n + offset + 2) * dim)
    view = buffer[1 : 1 + (n + offset) * dim].reshape(n + offset, dim)[offset:]
    view[:] = rows
    return view


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@given(
    n=st.sampled_from(ROW_COUNTS),
    q=st.sampled_from(QUERY_COUNTS),
    dim=st.sampled_from([3, 64, 128]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_score_is_independent_of_the_call(kernel, n, q, dim, seed):
    rng = np.random.default_rng(seed)
    kernel = KERNELS[kernel]
    rows = _units(rng, n, dim)
    units = _units(rng, q, dim)
    full = kernel(units, rows)
    assert full.shape == (q, n)
    np.testing.assert_allclose(full, units @ rows.T, atol=1e-12)

    i = int(rng.integers(q))
    assert np.array_equal(kernel(units[i : i + 1], rows)[0], full[i])
    perm = rng.permutation(q)
    assert np.array_equal(kernel(units[perm], rows), full[perm])
    subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    assert np.array_equal(kernel(units, rows[subset]), full[:, subset])
    offset = int(rng.integers(1, 2 * ROW_TILE))
    assert np.array_equal(kernel(units, _offset_view(rows, offset)), full)


def test_empty_operands():
    assert score(np.zeros((0, 4)), np.ones((5, 4))).shape == (0, 5)
    assert score(np.ones((3, 4)), np.zeros((0, 4))).shape == (3, 0)


def test_kernel_is_chosen_by_index_size():
    assert kernel_for(TILED_MIN_ROWS) is score
    assert kernel_for(TILED_MIN_ROWS - 1) is not score


class TestTiledIndex:
    """The index-level contracts on an index large enough to take the tiles."""

    @pytest.fixture(scope="class")
    def vectors(self):
        return np.random.default_rng(3).standard_normal((TILED_MIN_ROWS + 37, 16))

    @pytest.fixture(scope="class")
    def flat(self, vectors):
        return NearestNeighbourIndex(list(range(len(vectors))), vectors)

    @pytest.fixture(scope="class")
    def ann(self, flat):
        config = IndexConfig(min_rows=1, n_partitions=24, nprobe=4, holdout_queries=16)
        return PartitionedIndex.from_flat(flat, config)

    @pytest.fixture(scope="class")
    def queries(self):
        return np.random.default_rng(4).standard_normal((2 * QUERY_TILE + 3, 16))

    def test_full_probe_equals_flat(self, flat, ann, queries):
        expected = flat.top_k_batch(queries, top_k=7)
        assert ann.top_k_batch(queries, top_k=7, nprobe=ann.n_partitions) == expected

    def test_shared_hits_are_bit_identical(self, flat, ann, queries):
        exact = flat.top_k_batch(queries, top_k=len(flat))
        for exact_row, approx_row in zip(exact, ann.top_k_batch(queries, top_k=50)):
            exact_scores = dict(exact_row)
            assert approx_row
            for label, similarity in approx_row:
                assert similarity == exact_scores[label]

    def test_batch_shape_does_not_move_answers(self, ann, queries):
        batch = ann.top_k_batch(queries, top_k=5)
        assert [ann.top_k_batch(query[None, :], top_k=5)[0] for query in queries] == batch
        assert ann.top_k_batch(queries[::-1], top_k=5) == batch[::-1]

    def test_cosine_matrix_matches_the_index(self, flat, vectors, queries):
        matrix = cosine_similarity_matrix(queries, vectors)
        for row, hits in zip(matrix, flat.top_k_batch(queries, top_k=9)):
            for label, similarity in hits:
                assert row[label] == similarity


@pytest.mark.skipif(
    os.environ.get("OPENBLAS_NUM_THREADS") == "1", reason="already single-threaded"
)
def test_property_holds_with_single_threaded_blas():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "independent_of_the_call or TestTiledIndex"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:]
