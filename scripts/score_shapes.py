"""Per-shape timing of the scoring kernel against einsum.

Prints a Markdown table: for each (queries x rows x dim) shape the
workloads send, the p50 of the tiled BLAS kernel
(``repro.embeddings.similarity.score``), of einsum, and which of the two
an index of that many rows uses (``kernel_for``). The README's
Performance section quotes it; rerun after changing ``ROW_TILE``,
``QUERY_TILE`` or ``TILED_MIN_ROWS``:

    PYTHONPATH=src python scripts/score_shapes.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.embeddings.similarity import (
    QUERY_TILE,
    ROW_TILE,
    TILED_MIN_ROWS,
    kernel_for,
    score,
)

#: (what sends it, queries, rows scored, dim, rows of the index it scores).
SHAPES = (
    ("annotation (grow)", 10, 2831, 64, 2831),
    ("serve flat", 1, 80, 128, 80),
    ("probe (read search_batch)", 64, 16, 128, 80),
    ("partition rerank (read)", 32, 5, 128, 80),
    ("one query at the threshold", 1, TILED_MIN_ROWS, 64, TILED_MIN_ROWS),
    ("BENCH_ann (pytest scale)", 128, 8000, 64, 8000),
    ("BENCH_ann (full scale)", 512, 50000, 64, 50000),
)


def _p50_us(kernel, units: np.ndarray, rows: np.ndarray) -> float:
    """Median µs per call over enough calls to fill about half a second."""
    started = time.perf_counter()
    kernel(units, rows)
    once = time.perf_counter() - started
    calls = max(1, min(2000, int(0.05 / max(once, 1e-7))))
    repeats = 9 if once < 0.5 else 3
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            kernel(units, rows)
        samples.append((time.perf_counter() - started) / calls)
    return float(np.median(samples)) * 1e6


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"ROW_TILE={ROW_TILE} QUERY_TILE={QUERY_TILE} TILED_MIN_ROWS={TILED_MIN_ROWS}\n")
    print("| shape (queries × rows × dim) | sent by | tiled p50 | einsum p50 | index uses |")
    print("|---|---|---|---|---|")
    einsum = kernel_for(0)
    for sender, queries, rows, dim, index_rows in SHAPES:
        units = rng.standard_normal((queries, dim))
        matrix = rng.standard_normal((rows, dim))
        tiled_us = _p50_us(score, units, matrix)
        einsum_us = _p50_us(einsum, units, matrix)
        used = "tiled" if kernel_for(index_rows) is score else "einsum"
        print(
            f"| {queries}×{rows}×{dim} | {sender} | {tiled_us:,.1f} µs "
            f"| {einsum_us:,.1f} µs | {used} |"
        )


if __name__ == "__main__":
    main()
