#!/usr/bin/env python
"""Run perf benchmarks and write JSON baselines.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench.py [--suite SUITE] [--tables N]

Suites:

* ``annotation`` (default) — per-column vs batched annotation
  throughput; writes ``BENCH_annotation.json`` and enforces the ≥3x
  speedup / exact-equality acceptance criteria.
* ``corpus_io`` — sharded corpus storage I/O (streaming build into an
  on-disk store, atomic save, lazy reload, single-table gets) with a
  peak-RSS note; writes ``BENCH_corpus_io.json``.
* ``index_io`` — cold ``GitTables.load()`` + first-query latency with
  and without persisted mmap-backed index artifacts; enforces the ≥5x
  cold-start speedup / exact-equality acceptance criteria and writes
  ``BENCH_index_io.json``.
* ``parallel_build`` — serial vs 4-process corpus build of the
  500-table benchmark corpus under time-compressed (real-sleep)
  GitHub-API pacing; enforces the ≥2x wall-clock speedup and
  byte-identical-directory acceptance criteria and writes
  ``BENCH_parallel_build.json``.
* ``serving`` — micro-batched multi-worker query serving vs a 1-worker
  unbatched request loop over the same store; enforces the ≥3x QPS
  speedup / byte-identical-response acceptance criteria and writes
  ``BENCH_serving.json``.
* ``ann`` — flat exact batch search vs the partitioned probe-then-
  rerank tier over a 50k-row clustered corpus; enforces the ≥5x
  throughput / recall@10 ≥ 0.95 / shared-hit bit-identity acceptance
  criteria and writes ``BENCH_ann.json``.
* ``stats`` — the full corpus-statistics surface off the materialized
  columnar projection vs the streaming per-table scan over a 5k-table
  sharded store; enforces the ≥5x speedup / exact-equality acceptance
  criteria and writes ``BENCH_stats.json``.
* ``incremental`` — +10% in-place growth of a 5k-table store
  (:meth:`GitTables.extend`: epoch build + delta artifact refresh) vs a
  from-scratch rebuild of the grown corpus; enforces the ≥5x speedup /
  exact-equality / equal-content-fingerprint acceptance criteria and
  writes ``BENCH_incremental.json``.
* ``compaction`` — online re-shard of a sharded store while a
  2-worker pool keeps serving it: serving QPS during the concurrent
  :func:`~repro.storage.compaction.compact_store` (through worker
  hot-reload of the new generation) vs steady state; enforces the
  ≥0.8x QPS ratio / bit-identical-response / equal-content-fingerprint
  acceptance criteria and writes ``BENCH_compaction.json``.
* ``all`` — every suite.

``--compare`` turns a run into a **regression gate**: results are
written to a temporary file instead of the committed baseline, every
throughput key (``*_per_second``, ``*_qps``) is compared against the
committed ``BENCH_*.json``, and any throughput more than 20% below its
baseline exits nonzero. ``--list`` prints the suite registry without
running anything; ``--help`` lists every suite with its gate. The
pytest harness equivalents (all carry the ``slow`` marker, which the
default run deselects, so ``-m slow`` is required)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_annotation_throughput.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_corpus_io.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_index_io.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_parallel_build.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_serving.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_ann.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_stats.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_incremental.py -s -m slow
    PYTHONPATH=src python -m pytest benchmarks/test_bench_compaction.py -s -m slow
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for path in (REPO_ROOT / "src", REPO_ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from benchmarks.test_bench_annotation_throughput import (  # noqa: E402
    MIN_SPEEDUP,
    N_TABLES,
    run_throughput_comparison,
)
from benchmarks.test_bench_corpus_io import (  # noqa: E402
    N_TABLES as IO_N_TABLES,
    SHARD_SIZE,
    run_corpus_io_benchmark,
)
from benchmarks.test_bench_index_io import (  # noqa: E402
    MIN_SPEEDUP as INDEX_MIN_SPEEDUP,
    N_TABLES as INDEX_N_TABLES,
    run_index_io_benchmark,
)
from benchmarks.test_bench_parallel_build import (  # noqa: E402
    MIN_SPEEDUP as PARALLEL_MIN_SPEEDUP,
    N_TABLES as PARALLEL_N_TABLES,
    run_parallel_build_benchmark,
)
from benchmarks.test_bench_serving import (  # noqa: E402
    MIN_SPEEDUP as SERVING_MIN_SPEEDUP,
    N_TABLES as SERVING_N_TABLES,
    WORKERS as SERVING_WORKERS,
    run_serving_benchmark,
)
from benchmarks.test_bench_ann import (  # noqa: E402
    MIN_RECALL as ANN_MIN_RECALL,
    MIN_SPEEDUP as ANN_MIN_SPEEDUP,
    N_ROWS as ANN_N_ROWS,
    run_ann_benchmark,
)
from benchmarks.test_bench_stats import (  # noqa: E402
    MIN_SPEEDUP as STATS_MIN_SPEEDUP,
    N_TABLES as STATS_N_TABLES,
    run_stats_benchmark,
)
from benchmarks.test_bench_incremental import (  # noqa: E402
    MIN_SPEEDUP as INCREMENTAL_MIN_SPEEDUP,
    N_TABLES as INCREMENTAL_N_TABLES,
    run_incremental_benchmark,
)
from benchmarks.test_bench_compaction import (  # noqa: E402
    MIN_QPS_RATIO as COMPACTION_MIN_QPS_RATIO,
    N_TABLES as COMPACTION_N_TABLES,
    WORKERS as COMPACTION_WORKERS,
    run_compaction_benchmark,
)

#: Throughputs below ``baseline * (1 - REGRESSION_TOLERANCE)`` fail the
#: ``--compare`` gate.
REGRESSION_TOLERANCE = 0.20


def _write_baseline(output: Path, benchmark: str, result: dict) -> None:
    baseline = {
        "benchmark": benchmark,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **{
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in result.items()
        },
    }
    output.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline written to {output}")


def run_annotation_suite(tables: int, output: Path) -> int:
    result = run_throughput_comparison(n_tables=tables)
    _write_baseline(output, "annotation_throughput", result)
    print(
        f"annotated {result['n_tables']} tables / {result['n_columns']} columns "
        f"({result['unique_names']} distinct names)"
    )
    print(
        f"per-column {result['per_column_seconds']:.3f}s | "
        f"batched {result['batched_seconds']:.3f}s | "
        f"speedup {result['speedup']:.2f}x | "
        f"{result['batched_columns_per_second']:.0f} cols/sec batched"
    )
    if not result["results_equal"]:
        print("FAIL: batched results differ from per-column results", file=sys.stderr)
        return 1
    if result["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {result['speedup']:.2f}x below {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    return 0


def run_corpus_io_suite(tables: int, output: Path) -> int:
    result = run_corpus_io_benchmark(n_tables=tables, shard_size=SHARD_SIZE)
    _write_baseline(output, "corpus_io", result)
    print(
        f"built {result['n_tables']} tables into {result['n_shards']} shards "
        f"(shard_size={result['shard_size']}) in {result['build_seconds']:.2f}s "
        f"({result['build_tables_per_second']:.0f} tables/sec, resumable commits)"
    )
    print(
        f"atomic save {result['save_seconds']:.3f}s | "
        f"lazy reload {result['reload_seconds']:.3f}s "
        f"({result['reload_tables_per_second']:.0f} tables/sec) | "
        f"{result['lazy_gets']} single-table gets {result['lazy_get_seconds']:.3f}s"
    )
    print(
        f"peak RSS {result['peak_rss_kb_note'] / 1024:.0f} MiB "
        "(process high-water mark, note only)"
    )
    if result["n_reloaded"] != result["n_tables"]:
        print("FAIL: reload returned a different table count", file=sys.stderr)
        return 1
    return 0


def run_index_io_suite(tables: int, output: Path) -> int:
    result = run_index_io_benchmark(n_tables=tables)
    _write_baseline(output, "index_io", result)
    print(
        f"cold load+first-query over {result['n_indexed_schemas']} schemas: "
        f"no artifacts {result['cold_no_artifacts_seconds']:.3f}s | "
        f"with artifacts {result['cold_with_artifacts_seconds']:.3f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"one-time publish {result['publish_seconds']:.3f}s"
    )
    if not result["results_equal"]:
        print("FAIL: artifact-backed results differ from embedded results", file=sys.stderr)
        return 1
    if result["speedup"] < INDEX_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.1f}x below {INDEX_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_parallel_build_suite(tables: int, output: Path) -> int:
    result = run_parallel_build_benchmark(n_tables=tables)
    _write_baseline(output, "parallel_build", result)
    print(
        f"built {result['n_tables']} tables: serial {result['serial_seconds']:.1f}s | "
        f"{result['processes']}-process {result['parallel_seconds']:.1f}s | "
        f"speedup {result['speedup']:.2f}x "
        f"(real_time_factor={result['real_time_factor']}, {result['cpu_count']} CPU)"
    )
    if not result["byte_identical"]:
        print("FAIL: parallel directory differs from the serial build", file=sys.stderr)
        return 1
    if result["speedup"] < PARALLEL_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x below {PARALLEL_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_serving_suite(tables: int, output: Path) -> int:
    result = run_serving_benchmark(n_tables=tables)
    _write_baseline(output, "serving", result)
    latency = result["latency_ms"]
    print(
        f"{result['n_requests']} searches over {result['n_tables']} tables: "
        f"1-worker unbatched {result['baseline_qps']:.0f} QPS | "
        f"{result['workers']}-worker micro-batched {result['served_qps']:.0f} QPS | "
        f"speedup {result['speedup']:.2f}x"
    )
    print(
        f"mean batch {result['mean_batch_size']:.1f} "
        f"(histogram {result['batch_size_histogram']}) | "
        f"paced latency p50 {latency['p50']:.1f}ms "
        f"p95 {latency['p95']:.1f}ms p99 {latency['p99']:.1f}ms"
    )
    if not result["results_equal"]:
        print("FAIL: served responses differ from single-shot calls", file=sys.stderr)
        return 1
    if result["worker_crashes"]:
        print("FAIL: workers crashed during the benchmark", file=sys.stderr)
        return 1
    if result["speedup"] < SERVING_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x below {SERVING_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_ann_suite(rows: int, output: Path) -> int:
    result = run_ann_benchmark(n_rows=rows)
    _write_baseline(output, "ann", result)
    print(
        f"{result['n_queries']} queries x {result['n_rows']} rows "
        f"({result['n_partitions']} partitions, nprobe {result['nprobe']}): "
        f"flat {result['flat_seconds']:.3f}s | "
        f"partitioned {result['ann_seconds']:.3f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"build {result['build_seconds']:.2f}s"
    )
    print(
        f"recall@{result['top_k']} {result['recall_at_k']:.4f} "
        f"(holdout {result['holdout_recall']:.4f}) | "
        f"mean candidate fraction {result['mean_candidate_fraction']:.4f}"
    )
    if not result["shared_hits_identical"]:
        print("FAIL: shared hits scored differently across tiers", file=sys.stderr)
        return 1
    if not result["full_probe_equals_flat"]:
        print("FAIL: full probe differs from the flat tier", file=sys.stderr)
        return 1
    if result["recall_at_k"] < ANN_MIN_RECALL:
        print(
            f"FAIL: recall {result['recall_at_k']:.4f} below {ANN_MIN_RECALL}",
            file=sys.stderr,
        )
        return 1
    if result["speedup"] < ANN_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.1f}x below {ANN_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_stats_suite(tables: int, output: Path) -> int:
    result = run_stats_benchmark(n_tables=tables)
    _write_baseline(output, "stats", result)
    print(
        f"stats surface over {result['n_tables']} tables "
        f"({result['n_columns']} columns, {result['n_annotations']} annotations): "
        f"scan {result['scan_seconds']:.3f}s | "
        f"columnar {result['columnar_seconds']:.3f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"one-time build+publish {result['build_publish_seconds']:.3f}s"
    )
    if not result["results_equal"]:
        print("FAIL: columnar statistics differ from the streaming scan", file=sys.stderr)
        return 1
    if result["speedup"] < STATS_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.1f}x below {STATS_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_incremental_suite(tables: int, output: Path) -> int:
    result = run_incremental_benchmark(n_tables=tables)
    _write_baseline(output, "incremental", result)
    print(
        f"growth {result['n_tables']} -> {result['n_grown_tables']} tables "
        f"(epoch {result['epoch']}): "
        f"extend {result['extend_seconds']:.1f}s "
        f"({result['extend_new_tables_per_second']:.0f} new tables/sec) | "
        f"rebuild {result['rebuild_seconds']:.1f}s | "
        f"speedup {result['speedup']:.1f}x | "
        f"base build {result['base_build_seconds']:.1f}s"
    )
    if result["epoch"] != 2 or not result["epoch_sealed"]:
        print("FAIL: extend did not seal a new epoch", file=sys.stderr)
        return 1
    if not result["results_equal"]:
        print("FAIL: extended session differs from the rebuild", file=sys.stderr)
        return 1
    if not result["fingerprints_equal"]:
        print("FAIL: extended store content differs from the rebuild", file=sys.stderr)
        return 1
    if result["speedup"] < INCREMENTAL_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']:.1f}x below {INCREMENTAL_MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


def run_compaction_suite(tables: int, output: Path) -> int:
    result = run_compaction_benchmark(n_tables=tables)
    _write_baseline(output, "compaction", result)
    print(
        f"re-shard {result['shards_before']} -> {result['shards_after']} shards "
        f"over {result['n_tables']} tables "
        f"(generation {result['generation']}, {result['compact_seconds']:.2f}s rewrite, "
        f"{result['workers']} workers): "
        f"steady {result['steady_qps']:.0f} QPS | "
        f"during compaction {result['during_compaction_qps']:.0f} QPS | "
        f"ratio {result['qps_ratio']:.2f}x"
    )
    if result["generation"] != 2:
        print("FAIL: compaction did not publish a new generation", file=sys.stderr)
        return 1
    if not result["fingerprints_equal"]:
        print("FAIL: compaction changed the content fingerprint", file=sys.stderr)
        return 1
    if not result["results_equal"]:
        print("FAIL: served answers changed during the re-shard", file=sys.stderr)
        return 1
    if not result["pool_settled_on_new_generation"] or not result["workers_reloaded"]:
        print("FAIL: workers never hot-reloaded the new layout", file=sys.stderr)
        return 1
    if result["qps_ratio"] < COMPACTION_MIN_QPS_RATIO:
        print(
            f"FAIL: QPS during compaction fell to {result['qps_ratio']:.2f}x of "
            f"steady state (gate {COMPACTION_MIN_QPS_RATIO}x)",
            file=sys.stderr,
        )
        return 1
    return 0


def compare_against_baseline(baseline_path: Path, fresh: dict) -> list[str]:
    """Throughput regressions of ``fresh`` vs a committed baseline.

    Only throughput keys (``*_per_second``, ``*_qps``) are gated —
    higher is better, and they are robust to machine-to-machine scale
    differences in a way absolute seconds are not. Returns
    human-readable regression lines (empty when the gate passes).
    """
    baseline = json.loads(baseline_path.read_text())
    regressions = []
    for key, old in baseline.items():
        if not (key.endswith("_per_second") or key.endswith("_qps")):
            continue
        if not isinstance(old, (int, float)) or isinstance(old, bool) or old <= 0:
            continue
        new = fresh.get(key)
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            continue
        if new < old * (1.0 - REGRESSION_TOLERANCE):
            regressions.append(
                f"{key}: {new:.1f} vs baseline {old:.1f} "
                f"({(new / old - 1.0) * 100.0:+.0f}%, tolerance -{REGRESSION_TOLERANCE:.0%})"
            )
    return regressions


#: Suite registry: name → (runner, default table count, baseline file,
#: one-line description shown by ``--help``).
SUITES = {
    "annotation": (
        run_annotation_suite,
        N_TABLES,
        "BENCH_annotation.json",
        f"per-column vs batched annotation throughput (>={MIN_SPEEDUP}x gate)",
    ),
    "corpus_io": (
        run_corpus_io_suite,
        IO_N_TABLES,
        "BENCH_corpus_io.json",
        "sharded store build / atomic save / lazy reload I/O",
    ),
    "index_io": (
        run_index_io_suite,
        INDEX_N_TABLES,
        "BENCH_index_io.json",
        f"cold start with vs without mmap'd index artifacts (>={INDEX_MIN_SPEEDUP}x gate)",
    ),
    "parallel_build": (
        run_parallel_build_suite,
        PARALLEL_N_TABLES,
        "BENCH_parallel_build.json",
        f"serial vs multi-process corpus build (>={PARALLEL_MIN_SPEEDUP}x gate)",
    ),
    "serving": (
        run_serving_suite,
        SERVING_N_TABLES,
        "BENCH_serving.json",
        f"{SERVING_WORKERS}-worker micro-batched serving vs 1-worker unbatched "
        f"loop (>={SERVING_MIN_SPEEDUP}x QPS gate)",
    ),
    "ann": (
        run_ann_suite,
        ANN_N_ROWS,
        "BENCH_ann.json",
        f"flat vs partitioned probe-then-rerank batch search "
        f"(>={ANN_MIN_SPEEDUP}x at recall@10 >= {ANN_MIN_RECALL} gate)",
    ),
    "stats": (
        run_stats_suite,
        STATS_N_TABLES,
        "BENCH_stats.json",
        f"columnar projection vs streaming scan statistics (>={STATS_MIN_SPEEDUP}x gate)",
    ),
    "incremental": (
        run_incremental_suite,
        INCREMENTAL_N_TABLES,
        "BENCH_incremental.json",
        f"in-place +10% growth vs from-scratch rebuild (>={INCREMENTAL_MIN_SPEEDUP}x gate)",
    ),
    "compaction": (
        run_compaction_suite,
        COMPACTION_N_TABLES,
        "BENCH_compaction.json",
        f"online re-shard under a live {COMPACTION_WORKERS}-worker pool "
        f"(QPS ratio >= {COMPACTION_MIN_QPS_RATIO}x gate)",
    ),
}


def main(argv: list[str] | None = None) -> int:
    suite_lines = "\n".join(
        f"  {name:<15} {description}"
        for name, (_, _, _, description) in SUITES.items()
    )
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"suites:\n{suite_lines}\n  {'all':<15} every suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="annotation",
        help="which benchmark suite to run (listed below)",
    )
    parser.add_argument(
        "--tables",
        type=int,
        default=None,
        help="override corpus size (tables; rows for the ann suite)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON baseline (single-suite runs only)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the suite registry (name, default size, baseline, gate) and exit",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help=(
            "regression gate: run against a temporary output and fail "
            f"(exit nonzero) when any throughput key falls more than "
            f"{REGRESSION_TOLERANCE * 100:.0f}%% below the committed baseline"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, default_size, baseline_name, description) in SUITES.items():
            print(f"{name:<15} size={default_size:<7} {baseline_name:<26} {description}")
        return 0

    status = 0
    for name in SUITES if args.suite == "all" else (args.suite,):
        runner, default_tables, baseline_name, _ = SUITES[name]
        committed = REPO_ROOT / baseline_name
        if args.compare:
            if not committed.exists():
                print(f"SKIP {name}: no committed {baseline_name} to compare against")
                continue
            with tempfile.TemporaryDirectory() as tmp:
                fresh_path = Path(tmp) / baseline_name
                status |= runner(args.tables or default_tables, fresh_path)
                fresh = json.loads(fresh_path.read_text())
            regressions = compare_against_baseline(committed, fresh)
            for line in regressions:
                print(f"FAIL {name} regression: {line}", file=sys.stderr)
            if regressions:
                status = 1
            else:
                print(f"compare {name}: no throughput regression vs {baseline_name}")
            continue
        output = (
            args.output
            if args.output and args.suite != "all"
            else committed
        )
        status |= runner(args.tables or default_tables, output)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
