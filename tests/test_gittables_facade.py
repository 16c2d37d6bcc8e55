"""Tests for the GitTables session facade (repro.api)."""

import pytest

from repro import GitTables, PipelineConfig
from repro.applications.data_search import TableSearchEngine
from repro.applications.kg_matching import (
    KGMatchingBenchmark,
    ValueLinkingMatcher,
    evaluate_matcher,
)
from repro.applications.schema_completion import NearestCompletion
from repro.applications.type_detection import TypeDetectionExperiment
from repro.github.content import GeneratorConfig


@pytest.fixture(scope="module")
def session(context):
    """A facade over the shared small corpus (shared with experiments)."""
    return GitTables.from_result(context.pipeline_result)


class TestConstruction:
    def test_build_runs_streaming_pipeline(self):
        gt = GitTables.build(
            PipelineConfig(target_tables=8, seed=13),
            generator_config=GeneratorConfig.small(seed=13),
        )
        assert len(gt) == len(gt.corpus) == 8
        assert gt.pipeline_report is not None
        assert gt.pipeline_report.stage("curation").items_out == 8
        assert "GitTables(8 tables" in repr(gt)

    def test_build_matches_legacy_build_corpus(self):
        """The facade builds what the bare builder below it builds."""
        from repro import CorpusBuilder

        config = PipelineConfig(target_tables=9, seed=21)
        generator = GeneratorConfig(n_repositories=60, mean_rows=30, seed=21)
        gt = GitTables.build(config, generator_config=generator)
        built = CorpusBuilder(config, generator_config=generator).build()
        assert [a.table_id for a in gt.corpus] == [a.table_id for a in built.corpus]
        for ours, theirs in zip(gt.corpus, built.corpus):
            assert ours.table.rows == theirs.table.rows

    def test_from_corpus_and_len_topics(self, gittables_corpus):
        gt = GitTables.from_corpus(gittables_corpus)
        assert len(gt) == len(gittables_corpus)
        assert gt.topics() == gittables_corpus.topics()
        assert gt.result is None and gt.pipeline_report is None

    def test_save_and_load_roundtrip(self, session, tmp_path):
        session.save(tmp_path / "corpus")
        loaded = GitTables.load(tmp_path / "corpus")
        assert len(loaded) == len(session)
        assert loaded.corpus.topics() == session.corpus.topics()


class TestApplicationEquivalence:
    """Facade methods return identical results to the bespoke constructors."""

    def test_search_matches_bespoke_engine(self, session, gittables_corpus):
        query = "status and sales amount per product"
        bespoke = TableSearchEngine(gittables_corpus).search(query, k=5)
        assert session.search(query, k=5) == bespoke

    def test_complete_schema_matches_bespoke_completer(self, session, gittables_corpus):
        prefix = ("order_id", "order_date", "status")
        bespoke = NearestCompletion(gittables_corpus).complete(prefix, k=5)
        assert session.complete_schema(prefix, k=5) == bespoke

    def test_evaluate_completion_matches_bespoke(self, session, gittables_corpus):
        schema = ("order_id", "order_date", "status", "quantity", "total_price")
        bespoke = NearestCompletion(gittables_corpus).evaluate(schema, prefix_length=3, k=5)
        ours = session.evaluate_completion(schema, prefix_length=3, k=5)
        assert ours == bespoke

    def test_detect_types_matches_bespoke_experiment(self, session, gittables_corpus):
        options = {"columns_per_type": 25, "epochs": 6, "n_splits": 2, "seed": 3}
        bespoke = TypeDetectionExperiment(**options).within_corpus(gittables_corpus)
        ours = session.detect_types(**options)
        assert ours == bespoke

    def test_match_kg_matches_bespoke_evaluation(self, session, gittables_corpus):
        benchmark = KGMatchingBenchmark.from_corpus(gittables_corpus, min_columns=3, min_rows=5)
        bespoke = evaluate_matcher(ValueLinkingMatcher(), benchmark, "dbpedia")
        assert session.match_kg(ontology="dbpedia") == bespoke

    def test_match_kg_all_covers_both_matchers_and_ontologies(self, session):
        scores = session.match_kg_all()
        combos = {(score.matcher, score.ontology) for score in scores}
        assert len(scores) == 4 and len(combos) == 4
        assert {score.ontology for score in scores} == {"dbpedia", "schema_org"}
        assert len({score.matcher for score in scores}) == 2

    def test_shift_report_matches_bespoke(self, session, viznet_corpus):
        from repro.applications.domain_classifier import detect_data_shift

        options = {"n_columns_per_corpus": 80, "n_splits": 3, "n_estimators": 5, "seed": 1}
        bespoke = detect_data_shift(session.corpus, viznet_corpus, **options)
        ours = session.shift_report(viznet_corpus, **options)
        assert ours == bespoke

    def test_shift_report_accepts_facade_argument(self, session, viznet_corpus):
        other = GitTables.from_corpus(viznet_corpus)
        options = {"n_columns_per_corpus": 40, "n_splits": 2, "n_estimators": 3, "seed": 2}
        assert session.shift_report(other, **options) == session.shift_report(
            viznet_corpus, **options
        )


class TestSharedCaches:
    def test_search_engine_and_completer_are_cached(self, session):
        assert session.search_engine is session.search_engine
        assert session.completer is session.completer

    def test_encoder_is_shared_across_applications(self, session):
        assert session.search_engine.encoder is session.encoder
        assert session.completer.encoder is session.encoder

    def test_kg_benchmark_cached_per_thresholds(self, session):
        assert session.kg_benchmark(3, 5) is session.kg_benchmark(3, 5)
        assert session.kg_benchmark(3, 5) is not session.kg_benchmark(2, 2)

    def test_reset_caches_drops_state(self, session):
        engine = session.search_engine
        session.reset_caches()
        assert session.search_engine is not engine

    def test_stats_and_annotation_stats(self, session):
        stats = session.stats()
        assert stats.table_count == len(session)
        assert session.annotation_stats().mean_coverage
