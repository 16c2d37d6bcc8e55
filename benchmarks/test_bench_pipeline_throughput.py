"""Benchmark: streaming stage-graph throughput (tables/sec, peak memory shape).

Baseline for future pipeline-performance PRs (parallel stages, sharded
corpora): end-to-end tables/sec through the Figure-1 stage graph, the
per-stage exclusive-time breakdown, and the peak number of result items
the runner materialized at once (bounded by ``batch_size`` — the
streaming guarantee a list-materializing pipeline would break).
"""

from __future__ import annotations

from repro.config import PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig

SCALE = "default"

BATCH_SIZE = 16
TARGET_TABLES = 120


def test_bench_pipeline_throughput(benchmark):
    config = PipelineConfig(target_tables=TARGET_TABLES, seed=321)
    generator = GeneratorConfig(n_repositories=260, mean_rows=50, mean_cols=9, seed=321)

    result = benchmark.pedantic(
        lambda: CorpusBuilder(config, generator_config=generator, batch_size=BATCH_SIZE).build(),
        rounds=1,
        iterations=1,
    )

    report = result.pipeline_report
    assert report is not None
    tables_per_second = (
        report.items_collected / report.total_seconds if report.total_seconds else 0.0
    )
    print(f"\ntables built: {report.items_collected} in {report.total_seconds:.2f}s "
          f"({tables_per_second:.1f} tables/sec)")
    print(f"batches: {report.batches} (batch_size={report.batch_size}, "
          f"peak materialized: {report.peak_batch_items})")
    for row in report.as_rows():
        print(f"  {row['stage']:>12}: {row['items_in']:>6} in, {row['items_out']:>6} out, "
              f"{row['seconds']:.3f}s")

    # Streaming guarantees the baseline must preserve:
    assert len(result.corpus) == TARGET_TABLES
    assert report.peak_batch_items <= BATCH_SIZE
    # No wasted annotation work past the corpus target.
    assert report.stage("annotation").items_in == TARGET_TABLES
    assert tables_per_second > 0.0
