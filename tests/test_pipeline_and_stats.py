"""Integration tests for the full pipeline and corpus statistics."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import AnnotationConfig, ExtractionConfig, PipelineConfig
from repro.core.annotation import AnnotationMethod
from repro.core.pipeline import CorpusBuilder
from repro.core.stats import AnnotationStatistics, CorpusStatistics, dimension_cdf, top_types
from repro.errors import PipelineConfigError
from repro.github.content import GeneratorConfig


class TestPipelineConfig:
    def test_default_validates(self):
        PipelineConfig.default().validate()

    def test_small_and_large_presets(self):
        assert PipelineConfig.small().target_tables < PipelineConfig.large().target_tables

    def test_invalid_topic_count_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError):
            ExtractionConfig(topic_count=0)

    def test_invalid_threshold_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError):
            AnnotationConfig(semantic_similarity_threshold=2.0)

    def test_unknown_ontology_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError):
            AnnotationConfig(ontologies=("freebase",))

    def test_replace_overrides_and_revalidates(self):
        config = PipelineConfig.small()
        tweaked = config.replace(target_tables=37, seed=9)
        assert (tweaked.target_tables, tweaked.seed) == (37, 9)
        # Untouched stage configs are carried over, not rebuilt.
        assert tweaked.extraction is config.extraction
        with pytest.raises(PipelineConfigError):
            config.replace(target_tables=0)


class TestPipelineEndToEnd:
    def test_pipeline_produces_tables(self, pipeline_result):
        assert len(pipeline_result.corpus) > 20
        assert pipeline_result.table_count == len(pipeline_result.corpus)

    def test_parse_success_rate_is_high(self, pipeline_result):
        assert pipeline_result.parsing_report.success_rate > 0.9

    def test_only_permissive_licenses_survive(self, pipeline_result, gittables_corpus):
        from repro.github.licenses import is_permissive

        assert all(is_permissive(annotated.license_key) for annotated in gittables_corpus)

    def test_filter_report_counts_are_consistent(self, pipeline_result):
        report = pipeline_result.filter_report
        assert report.evaluated == report.kept + report.dropped
        assert 0.0 <= report.drop_rate_excluding_license() <= 1.0

    def test_every_table_respects_minimum_dimensions(self, gittables_corpus, small_config):
        for annotated in gittables_corpus:
            assert annotated.table.num_rows >= small_config.curation.min_rows
            assert annotated.table.num_columns >= small_config.curation.min_columns

    def test_no_social_media_columns_survive(self, gittables_corpus):
        blocked = ("twitter", "tweet", "reddit", "facebook")
        for annotated in gittables_corpus:
            for name in annotated.table.header:
                assert not any(term in name.lower() for term in blocked)

    def test_every_table_is_annotated_by_the_semantic_method(self, gittables_corpus):
        without = [
            annotated
            for annotated in gittables_corpus
            if not annotated.annotations.for_method(AnnotationMethod.SEMANTIC)
        ]
        assert len(without) < 0.2 * len(gittables_corpus)

    def test_target_table_count_is_respected(self):
        config = PipelineConfig(target_tables=10)
        result = CorpusBuilder(config, generator_config=GeneratorConfig.small(seed=5)).build()
        assert len(result.corpus) <= 10

    def test_builder_accepts_existing_instance(self, github_instance):
        builder = CorpusBuilder(PipelineConfig(target_tables=15), instance=github_instance)
        result = builder.build()
        assert len(result.corpus) <= 15

    def test_pipeline_is_deterministic(self):
        config = PipelineConfig(target_tables=12, seed=77)
        generator = GeneratorConfig(n_repositories=60, mean_rows=30, seed=77)
        first = CorpusBuilder(config, generator_config=generator).build()
        second = CorpusBuilder(config, generator_config=generator).build()
        assert [a.table_id for a in first.corpus] == [a.table_id for a in second.corpus]


class TestCorpusStatistics:
    def test_basic_shape(self, gittables_corpus):
        stats = CorpusStatistics.from_corpus(gittables_corpus)
        assert stats.table_count == len(gittables_corpus)
        assert stats.avg_rows > 0
        assert stats.avg_cols >= 2

    def test_atomic_fractions_sum_to_one(self, gittables_corpus):
        stats = CorpusStatistics.from_corpus(gittables_corpus)
        assert sum(stats.atomic_type_fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_table1_and_table4_rows(self, gittables_corpus):
        stats = CorpusStatistics.from_corpus(gittables_corpus)
        row = stats.as_table1_row()
        assert row["n_tables"] == stats.table_count
        table4 = stats.as_table4_rows()
        assert set(table4) == {"numeric", "string", "other"}

    def test_gittables_is_larger_than_webtables(self, gittables_corpus, viznet_corpus):
        git = CorpusStatistics.from_corpus(gittables_corpus)
        viz = CorpusStatistics.from_corpus(viznet_corpus)
        assert git.avg_rows > viz.avg_rows
        assert git.avg_cols > viz.avg_cols

    def test_dimension_cdf_is_monotone(self, gittables_corpus):
        cdf = dimension_cdf(gittables_corpus, axis="rows")
        counts = [count for _, count in cdf]
        assert counts == sorted(counts)
        assert counts[-1] == len(gittables_corpus)

    def test_dimension_cdf_invalid_axis(self, gittables_corpus):
        with pytest.raises(ValueError):
            dimension_cdf(gittables_corpus, axis="cells")


class TestAnnotationStatistics:
    def test_table5_rows_cover_all_combinations(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        rows = stats.as_table5_rows()
        assert len(rows) == 4
        combos = {(row["method"], row["ontology"]) for row in rows}
        assert ("syntactic", "dbpedia") in combos and ("semantic", "schema_org") in combos

    def test_semantic_covers_more_columns_than_syntactic(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        assert stats.mean_coverage["semantic"] > stats.mean_coverage["syntactic"]

    def test_semantic_annotates_more_columns_per_ontology(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        for ontology in ("dbpedia", "schema_org"):
            assert (
                stats.stats_for("semantic", ontology).annotated_columns
                >= stats.stats_for("syntactic", ontology).annotated_columns
            )

    def test_similarity_scores_within_bounds(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        for scores in stats.similarity_scores.values():
            assert all(0.0 <= score <= 1.0 for score in scores)

    def test_top_types_sorted_by_count(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        top = top_types(stats, "syntactic", "dbpedia", k=10)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)

    def test_unknown_combination_raises(self, gittables_corpus):
        stats = AnnotationStatistics.from_corpus(gittables_corpus)
        with pytest.raises(KeyError):
            stats.stats_for("semantic", "freebase")



class TestSingleBuildAndStatsPath:
    """One way to parallelise a build, one way to compute a statistic."""

    def test_no_scan_fork_of_any_statistic_in_src(self):
        root = Path(repro.__file__).parent
        forks = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "from_scan"
        ]
        assert forks == []

    def test_no_thread_pool_in_the_pipeline(self):
        root = Path(repro.__file__).parent / "pipeline"
        users = [
            path.name
            for path in sorted(root.rglob("*.py"))
            if "ThreadPoolExecutor" in path.read_text(encoding="utf-8")
        ]
        assert users == []

    def test_process_count_is_a_build_argument_only(self):
        fields = {field.name for field in dataclasses.fields(PipelineConfig)}
        assert not fields & {"workers", "processes"}
        assert not hasattr(repro, "build_corpus")
        assert "build_corpus" not in repro.__all__
