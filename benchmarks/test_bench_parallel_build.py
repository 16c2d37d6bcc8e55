"""Benchmark: process-parallel corpus builds vs the serial writer.

Builds the 500-table benchmark corpus twice from one shared synthetic
GitHub instance — once through the single-process streaming writer, once
through :class:`~repro.storage.parallel.ParallelCorpusBuilder` with 4
worker processes — and asserts the parallel directory is byte-identical
to the serial one while finishing at least ``MIN_SPEEDUP``× faster.

**What the clock measures.** The production workload this models is
network-bound: the paper's extraction is paced by the GitHub Search
API's 30-requests/minute budget, so a real build spends most of its
wall-clock waiting on the API, and process-parallelism wins by
overlapping those waits (one rate-budget/token per worker) with each
other and with CPU work. The simulator normally runs that pacing on a
pure virtual clock; here ``REAL_TIME_FACTOR`` converts each request's
virtual time (latency + rate-limit wait) into a real ``time.sleep`` —
scaled down so the suite stays runnable — for **both** arms, giving the
serial baseline and the parallel build identical per-request costs.
``cpu_count`` is recorded in the baseline: on a single-core runner the
entire speedup is I/O-wait overlap; with more cores (the committed
baseline's host has 2) the parse/annotate CPU overlaps too and the
speedup grows.

``scripts/bench.py --suite parallel_build`` reuses these helpers to
write the ``BENCH_parallel_build.json`` perf baseline. The pytest
wrapper is marked ``slow`` and therefore excluded from the tier-1 run.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.config import ExtractionConfig, PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig
from repro.github.instance import build_instance
from repro.storage._io import directory_file_bytes as _dir_bytes
from repro.storage.parallel import ParallelCorpusBuilder

N_TABLES = 500
PROCESSES = 4
SHARD_SIZE = 64
#: Real seconds slept per virtual second of simulated GitHub API time
#: (latency + rate-limit waits). 0.01 ≈ a 100× time-compressed API.
REAL_TIME_FACTOR = 0.01
#: Acceptance floor: 4 processes must at least halve the wall-clock.
MIN_SPEEDUP = 2.0




def run_parallel_build_benchmark(
    n_tables: int = N_TABLES,
    processes: int = PROCESSES,
    real_time_factor: float = REAL_TIME_FACTOR,
    seed: int = 13,
) -> dict:
    """Time a serial vs a ``processes``-way build of the same corpus."""
    config = PipelineConfig(
        extraction=ExtractionConfig(topic_count=40),
        target_tables=n_tables,
        seed=seed,
    )
    generator = GeneratorConfig(seed=seed).scaled_to_files(n_tables * 8)
    # One shared instance: both arms extract from identical data, and
    # the (substantial) synthetic-GitHub generation cost stays out of
    # both measurements.
    instance = build_instance(generator)

    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        parallel_dir = Path(tmp) / "parallel"

        serial_builder = CorpusBuilder(
            config=config, instance=instance, real_time_factor=real_time_factor
        )
        started = perf_counter()
        serial_result = serial_builder.build(store_dir=serial_dir, shard_size=SHARD_SIZE)
        serial_seconds = perf_counter() - started

        parallel_builder = CorpusBuilder(
            config=config, instance=instance, real_time_factor=real_time_factor
        )
        started = perf_counter()
        parallel_result = ParallelCorpusBuilder(parallel_builder, processes=processes).build(
            parallel_dir, shard_size=SHARD_SIZE
        )
        parallel_seconds = perf_counter() - started

        byte_identical = _dir_bytes(serial_dir) == _dir_bytes(parallel_dir)
        n_serial = len(serial_result.corpus)
        n_parallel = len(parallel_result.corpus)

    return {
        "n_tables": n_serial,
        "n_parallel_tables": n_parallel,
        "processes": processes,
        "shard_size": SHARD_SIZE,
        "real_time_factor": real_time_factor,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds if parallel_seconds else 0.0,
        "serial_tables_per_second": n_serial / serial_seconds if serial_seconds else 0.0,
        "parallel_tables_per_second": (
            n_parallel / parallel_seconds if parallel_seconds else 0.0
        ),
        "byte_identical": byte_identical,
    }


@pytest.mark.slow
def test_bench_parallel_build(benchmark):
    result = benchmark.pedantic(
        run_parallel_build_benchmark, rounds=1, iterations=1
    )
    print(
        f"\nserial {result['serial_seconds']:.1f}s vs "
        f"{result['processes']}-process {result['parallel_seconds']:.1f}s "
        f"over {result['n_tables']} tables -> speedup {result['speedup']:.2f}x "
        f"(real_time_factor={result['real_time_factor']}, "
        f"{result['cpu_count']} CPU); byte_identical={result['byte_identical']}"
    )
    assert result["byte_identical"]
    assert result["n_tables"] == result["n_parallel_tables"] == N_TABLES
    assert result["speedup"] >= MIN_SPEEDUP
