"""Benchmark: end-to-end corpus construction (paper §3, Figure 1).

Times the full pipeline — extraction, parsing, filtering, annotation and
curation — at a reduced scale, and reports the per-stage statistics the
paper quotes (parse success rate, filter rate, PII fraction).
"""

from __future__ import annotations

from repro.config import PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.github.content import GeneratorConfig


def test_bench_pipeline_build(benchmark):
    config = PipelineConfig(target_tables=100, seed=123)
    generator = GeneratorConfig(n_repositories=200, mean_rows=60, mean_cols=10, seed=123)

    result = benchmark.pedantic(
        lambda: CorpusBuilder(config, generator_config=generator).build(), rounds=1, iterations=1
    )

    print(f"\ntables built: {len(result.corpus)}")
    print(f"parse success rate: {result.parsing_report.success_rate:.3f} (paper: 0.993)")
    print(
        "curation filter rate (excl. license): "
        f"{result.filter_report.drop_rate_excluding_license():.3f} (paper: ~0.09)"
    )
    print(
        "PII column fraction: "
        f"{result.curation_report.scrubbed_column_fraction:.4f} (paper: 0.003)"
    )
    assert len(result.corpus) > 0
    assert result.parsing_report.success_rate > 0.9
