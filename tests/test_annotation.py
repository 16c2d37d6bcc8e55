"""Unit tests for column annotation (repro.core.annotation)."""

import sys
import threading

import numpy as np
import pytest

from repro.config import DEFAULT_INDEX_CONFIG, AnnotationConfig, IndexConfig
from repro.core import annotation as annotation_module
from repro.core.annotation import (
    AnnotationMethod,
    AnnotationPipeline,
    ColumnAnnotation,
    SemanticAnnotator,
    SyntacticAnnotator,
    TableAnnotations,
    annotate_table,
    preprocess_column_name,
)
from repro.embeddings import similarity as similarity_module
from repro.embeddings.ann import PartitionedIndex
from repro.embeddings.fasttext import FastTextModel
from repro.errors import AnnotationError
from repro.ontology.dbpedia import load_dbpedia
from repro.ontology.types import Ontology, SemanticType
from repro.storage.artifacts import IndexArtifactStore


@pytest.fixture(scope="module")
def dbpedia():
    return load_dbpedia()


@pytest.fixture(scope="module")
def syntactic(dbpedia):
    return SyntacticAnnotator(dbpedia)


@pytest.fixture(scope="module")
def semantic(dbpedia):
    return SemanticAnnotator(dbpedia, similarity_threshold=0.5)


class TestPreprocessing:
    def test_underscores_and_camelcase(self):
        assert preprocess_column_name("birth_Date") == "birth date"
        assert preprocess_column_name("birthDate") == "birth date"


class TestSyntacticAnnotator:
    def test_exact_match_has_confidence_one(self, syntactic):
        annotation = syntactic.annotate_column("Birth_Date")
        assert annotation.type_label == "birth date"
        assert annotation.confidence == 1.0
        assert annotation.method is AnnotationMethod.SYNTACTIC

    def test_unknown_name_returns_none(self, syntactic):
        assert syntactic.annotate_column("zzzz_unmatchable_name") is None

    def test_names_with_digits_are_skipped(self, syntactic):
        assert syntactic.annotate_column("field_1") is None

    def test_empty_name_returns_none(self, syntactic):
        assert syntactic.annotate_column("") is None
        assert syntactic.annotate_column("   ") is None

    def test_annotate_table(self, syntactic, orders_table):
        annotations = syntactic.annotate(orders_table)
        annotated_columns = {annotation.column for annotation in annotations}
        assert "status" in annotated_columns


class TestSemanticAnnotator:
    def test_exact_name_gets_similarity_one(self, semantic):
        annotation = semantic.annotate_column("status")
        assert annotation.type_label == "status"
        assert annotation.confidence == pytest.approx(1.0, abs=1e-6)

    def test_compound_name_maps_to_related_type(self, semantic):
        annotation = semantic.annotate_column("customer_email")
        assert annotation is not None
        assert "email" in annotation.type_label or "customer" in annotation.type_label

    def test_threshold_filters_weak_matches(self, dbpedia):
        strict = SemanticAnnotator(dbpedia, similarity_threshold=0.999)
        assert strict.annotate_column("xqzw_gibberish_column") is None

    def test_invalid_threshold_rejected(self, dbpedia):
        with pytest.raises(AnnotationError):
            SemanticAnnotator(dbpedia, similarity_threshold=1.5)

    def test_names_with_digits_are_skipped(self, semantic):
        assert semantic.annotate_column("col_2020") is None

    def test_annotates_more_columns_than_syntactic(self, syntactic, semantic):
        names = ["order_id", "ordr_dt", "sts", "total_price_val", "qty", "cstmr_email"]
        syntactic_hits = sum(syntactic.annotate_column(name) is not None for name in names)
        semantic_hits = sum(semantic.annotate_column(name) is not None for name in names)
        assert semantic_hits >= syntactic_hits


class TestTableAnnotations:
    def _make(self):
        annotations = TableAnnotations(table_id="t")
        annotations.add(
            ColumnAnnotation("status", "status", "dbpedia", AnnotationMethod.SYNTACTIC, 1.0)
        )
        annotations.add(
            ColumnAnnotation("status", "status", "schema_org", AnnotationMethod.SEMANTIC, 0.8)
        )
        annotations.add(
            ColumnAnnotation("email", "email", "schema_org", AnnotationMethod.SEMANTIC, 0.9)
        )
        return annotations

    def test_for_method_filters(self):
        annotations = self._make()
        assert len(annotations.for_method(AnnotationMethod.SEMANTIC)) == 2
        assert len(annotations.for_method(AnnotationMethod.SEMANTIC, "schema_org")) == 2
        assert len(annotations.for_method(AnnotationMethod.SYNTACTIC, "schema_org")) == 0

    def test_column_types_view(self):
        annotations = self._make()
        types = annotations.column_types(AnnotationMethod.SEMANTIC, "schema_org")
        assert types["email"] == ("email", 0.9)

    def test_annotated_column_fraction(self):
        annotations = self._make()
        assert annotations.annotated_column_fraction(AnnotationMethod.SEMANTIC, 4) == pytest.approx(0.5)
        assert annotations.annotated_column_fraction(AnnotationMethod.SEMANTIC, 0) == 0.0

    def test_pii_view_groups_by_column(self):
        view = self._make().pii_view()
        assert set(view) == {"status", "email"}
        assert ("email", 0.9) in view["email"]


class TestAnnotationPipeline:
    def test_annotates_against_both_ontologies(self, orders_table):
        pipeline = AnnotationPipeline(AnnotationConfig())
        annotations = pipeline.annotate(orders_table)
        ontologies = {annotation.ontology for annotation in annotations.all()}
        assert ontologies == {"dbpedia", "schema_org"}

    def test_single_ontology_config(self, orders_table):
        pipeline = AnnotationPipeline(AnnotationConfig(ontologies=("dbpedia",)))
        annotations = pipeline.annotate(orders_table)
        assert {a.ontology for a in annotations.all()} == {"dbpedia"}

    def test_annotate_table_helper_uses_cache(self, orders_table):
        first = annotate_table(orders_table)
        second = annotate_table(orders_table)
        assert len(first.all()) == len(second.all())

    def test_semantic_confidences_within_bounds(self, orders_table):
        annotations = annotate_table(orders_table)
        for annotation in annotations.for_method(AnnotationMethod.SEMANTIC):
            assert 0.0 <= annotation.confidence <= 1.0


class TestBatchAnnotation:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return AnnotationPipeline(AnnotationConfig())

    def _tables(self, orders_table, people_table):
        from repro.dataframe.table import Table

        edge_cases = Table(
            header=["field_1", "", "   ", "status", "unmatchable_zzz", "status"],
            rows=[["1", "2", "3", "4", "5", "6"]],
            table_id="edge-cases",
        )
        return [orders_table, people_table, edge_cases]

    def test_annotate_batch_equals_per_table_annotate(
        self, pipeline, orders_table, people_table
    ):
        tables = self._tables(orders_table, people_table)
        batched = pipeline.annotate_batch(tables)
        assert batched == [pipeline.annotate(table) for table in tables]

    def test_annotator_batch_equals_per_column(self, pipeline, orders_table, people_table):
        tables = self._tables(orders_table, people_table)
        for group in (pipeline.syntactic, pipeline.semantic):
            for annotator in group.values():
                batched = annotator.annotate_batch(tables)
                per_column = [
                    [
                        annotation
                        for annotation in (
                            annotator.annotate_column(name) for name in table.header
                        )
                        if annotation is not None
                    ]
                    for table in tables
                ]
                assert batched == per_column

    def test_empty_batch(self, pipeline):
        assert pipeline.annotate_batch([]) == []

    def test_batch_preserves_table_ids(self, pipeline, orders_table, people_table):
        batched = pipeline.annotate_batch([orders_table, people_table])
        assert [annotations.table_id for annotations in batched] == [
            orders_table.table_id,
            people_table.table_id,
        ]

    def test_annotate_tables_helper(self, orders_table, people_table):
        from repro.core.annotation import annotate_tables

        batched = annotate_tables([orders_table, people_table])
        assert batched == [annotate_table(orders_table), annotate_table(people_table)]


class TestPipelineCache:
    def test_explicit_config_reuses_pipeline(self, orders_table, monkeypatch):
        from repro.core import annotation as annotation_module

        built = []
        original_init = annotation_module.AnnotationPipeline.__init__

        def counting_init(self, config=None):
            built.append(config)
            original_init(self, config)

        monkeypatch.setattr(annotation_module.AnnotationPipeline, "__init__", counting_init)
        annotation_module._PIPELINE_CACHE.clear()
        config = AnnotationConfig(ontologies=("dbpedia",), semantic_similarity_threshold=0.6)
        annotate_table(orders_table, config)
        annotate_table(orders_table, config)
        annotate_table(orders_table, AnnotationConfig(ontologies=("dbpedia",), semantic_similarity_threshold=0.6))
        assert len(built) == 1

    def test_distinct_configs_get_distinct_pipelines(self, orders_table):
        from repro.core.annotation import _PIPELINE_CACHE, _pipeline_for

        strict = AnnotationConfig(semantic_similarity_threshold=0.9)
        loose = AnnotationConfig(semantic_similarity_threshold=0.1)
        assert _pipeline_for(strict) is not _pipeline_for(loose)
        assert _pipeline_for(strict) is _pipeline_for(strict)
        assert len(_PIPELINE_CACHE) <= 8


_TINY_LABELS = [
    f"{word} {suffix}"
    for word in ("order", "status", "city", "price", "email")
    for suffix in ("id", "code", "name", "date", "type", "value", "count", "total")
]


def _partitioned(**changes) -> IndexConfig:
    """A partitioned tier for the 40 tiny labels."""
    return IndexConfig(**{"min_rows": 16, "n_partitions": 4, "nprobe": 1, "holdout_queries": 8, **changes})


_PARTITIONED = _partitioned()


def _tiny_ontology(name: str = "tiny", labels=tuple(_TINY_LABELS)) -> Ontology:
    return Ontology(name, [SemanticType(label=label, ontology=name) for label in labels])


@pytest.fixture()
def label_embeds(monkeypatch):
    """An empty label-index memo for one test, plus every embed_batch call's texts."""
    monkeypatch.setattr(annotation_module, "_LABEL_INDEX_CACHE", {})
    calls: list[list[str]] = []
    original = FastTextModel.embed_batch

    def recording(self, texts):
        calls.append(list(texts))
        return original(self, texts)

    monkeypatch.setattr(FastTextModel, "embed_batch", recording)
    return calls


class TestLabelIndexMemo:
    """The process-wide ontology label-index memo of SemanticAnnotator."""

    def test_same_config_embeds_labels_once_per_process(self, label_embeds):
        config = AnnotationConfig()
        first = AnnotationPipeline(config)
        AnnotationPipeline(config)
        AnnotationPipeline(AnnotationConfig())
        assert len(label_embeds) == len(first.semantic)

    @pytest.mark.parametrize(
        "change",
        [
            {"model": FastTextModel(dim=32)},
            {"model": FastTextModel(ngram_sizes=(3,))},
            {"ontology": _tiny_ontology(labels=tuple(_TINY_LABELS) + ("extra label",))},
            {"ontology": _tiny_ontology(name="other")},
            {"index_config": _partitioned(n_partitions=3)},
            {"index_config": _partitioned(kmeans_iters=2)},
            {"index_config": DEFAULT_INDEX_CONFIG},
        ],
        ids=["dim", "ngram_sizes", "labels", "ontology_name", "n_partitions", "kmeans_iters", "flat_tier"],
    )
    def test_any_fingerprint_change_embeds_again(self, label_embeds, change):
        base = {"ontology": _tiny_ontology(), "model": FastTextModel(), "index_config": _PARTITIONED}
        SemanticAnnotator(**base)
        SemanticAnnotator(**{**base, **change})
        assert len(label_embeds) == 2

    def test_memo_hit_is_bit_identical_to_a_fresh_embedding(
        self, monkeypatch, orders_table, people_table
    ):
        monkeypatch.setattr(annotation_module, "_LABEL_INDEX_CACHE", {})
        config = AnnotationConfig()
        first = AnnotationPipeline(config)
        hit = AnnotationPipeline(config)
        annotation_module._LABEL_INDEX_CACHE.clear()
        fresh = AnnotationPipeline(config)
        for name, annotator in hit.semantic.items():
            assert annotator._index is first.semantic[name]._index
            assert annotator._index.labels == fresh.semantic[name]._index.labels
            assert np.array_equal(
                annotator._index._unit_vectors, fresh.semantic[name]._index._unit_vectors
            )
        tables = [orders_table, people_table]
        assert hit.annotate_batch(tables) == fresh.annotate_batch(tables)

    def test_partitioned_memo_hit_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(annotation_module, "_LABEL_INDEX_CACHE", {})
        names = ["order id", "customer email", "status", "unit price", "town"]
        SemanticAnnotator(_tiny_ontology(), index_config=_PARTITIONED)
        hit = SemanticAnnotator(_tiny_ontology(), index_config=_PARTITIONED)
        annotation_module._LABEL_INDEX_CACHE.clear()
        fresh = SemanticAnnotator(_tiny_ontology(), index_config=_PARTITIONED)
        assert isinstance(hit._index, PartitionedIndex)
        assert hit.resolve_normalized(names) == fresh.resolve_normalized(names)

    def test_memo_hit_still_publishes(self, label_embeds, tmp_path):
        config = AnnotationConfig()
        pipeline = AnnotationPipeline(config)
        embeds = len(label_embeds)
        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        AnnotationPipeline(config, artifacts=artifacts)
        assert len(label_embeds) == embeds
        assert sorted(artifacts.names()) == sorted(
            f"ontology-{annotator.ontology.name}" for annotator in pipeline.semantic.values()
        )

    def test_resolved_artifacts_are_not_memoised(self, label_embeds, tmp_path):
        config = AnnotationConfig()
        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        AnnotationPipeline(config, artifacts=artifacts)
        annotation_module._LABEL_INDEX_CACHE.clear()
        embeds = len(label_embeds)
        AnnotationPipeline(config, artifacts=artifacts)
        assert len(label_embeds) == embeds
        assert annotation_module._LABEL_INDEX_CACHE == {}

    def test_nprobe_does_not_leak_between_holders(self, label_embeds):
        ontology = _tiny_ontology()
        one = SemanticAnnotator(ontology, index_config=_PARTITIONED)
        three = SemanticAnnotator(ontology, index_config=_partitioned(nprobe=3))
        assert len(label_embeds) == 1
        assert (one._index.nprobe, three._index.nprobe) == (1, 3)
        one._index.nprobe = 2
        again = SemanticAnnotator(ontology, index_config=_PARTITIONED)
        assert (three._index.nprobe, again._index.nprobe) == (3, 1)
        one.resolve_normalized(["order id"])
        assert one.index_stats()["queries"] == 1
        assert three.index_stats()["queries"] == again.index_stats()["queries"] == 0

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(annotation_module, "_LABEL_INDEX_CACHE", {})
        ontology = _tiny_ontology()
        for dim in range(4, 4 + annotation_module._LABEL_INDEX_CACHE_MAX + 3):
            SemanticAnnotator(ontology, model=FastTextModel(dim=dim))
        assert len(annotation_module._LABEL_INDEX_CACHE) == annotation_module._LABEL_INDEX_CACHE_MAX

    def test_concurrent_constructors_embed_once(self, label_embeds):
        ontology = _tiny_ontology()
        built: list[SemanticAnnotator] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: built.append(SemanticAnnotator(ontology)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 8
        assert len(label_embeds) == 1
        assert all(annotator._index is built[0]._index for annotator in built)


_MANY_NAMES = [
    f"{first} {second}"
    for first in ("order", "customer", "home", "birth", "unit", "postal", "team", "album", "film", "river", "city")
    for second in ("id", "name", "date", "code", "price", "town", "total", "status", "place")
]


class TestBlockedResolve:
    """A flat index scores at most ``QUERY_BLOCK`` column names per dense block."""

    @pytest.fixture(scope="class", params=["flat", "partitioned-rerank", "partitioned-all"])
    def annotator(self, request, dbpedia):
        if request.param == "flat":
            return SemanticAnnotator(dbpedia, similarity_threshold=0.0)
        nprobe = 1 if request.param == "partitioned-rerank" else _PARTITIONED.n_partitions
        annotator = SemanticAnnotator(
            _tiny_ontology(), similarity_threshold=0.0, index_config=_partitioned(nprobe=nprobe)
        )
        assert isinstance(annotator._index, PartitionedIndex)
        return annotator

    @pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 3)], ids=str)
    def test_blocked_equals_unblocked_bit_for_bit(self, annotator, monkeypatch, offset):
        block = similarity_module.QUERY_BLOCK
        multiple, extra = offset
        names = _MANY_NAMES[: multiple * block + extra]
        assert len(names) == multiple * block + extra
        full_scans: list[int] = []
        original = similarity_module.NearestNeighbourIndex._score

        def spying(index, units, rows):
            if rows.shape[0] == len(index.labels):
                full_scans.append(units.shape[0])
            return original(index, units, rows)

        monkeypatch.setattr(similarity_module.NearestNeighbourIndex, "_score", spying)
        blocked = annotator.resolve_normalized(names)
        assert max(full_scans, default=0) <= block
        monkeypatch.setattr(similarity_module, "QUERY_BLOCK", len(names) + 1)
        unblocked = annotator.resolve_normalized(names)
        assert all(hit is not None for hit in blocked.values())
        assert list(blocked) == list(unblocked) == names
        for name, (label, confidence) in blocked.items():
            assert label == unblocked[name][0]
            assert np.float64(confidence).tobytes() == np.float64(unblocked[name][1]).tobytes()


class TestLabelsDigest:
    """``Ontology.labels_digest`` is computed once and dropped by ``add``."""

    def test_add_changes_the_digest_and_the_index_fingerprint(self):
        from repro.storage.artifacts import fingerprint_digest

        ontology = _tiny_ontology()
        annotator = SemanticAnnotator(ontology)
        digest = ontology.labels_digest
        fingerprint = annotator._index_fingerprint(ontology.labels())
        assert digest == fingerprint_digest(ontology.labels())
        ontology.add(SemanticType(label="extra label", ontology="tiny"))
        assert ontology.labels_digest != digest
        assert ontology.labels_digest == fingerprint_digest(ontology.labels())
        assert annotator._index_fingerprint(ontology.labels()) != fingerprint

    def test_second_annotator_hits_the_memo(self, monkeypatch):
        from repro.storage import artifacts as artifacts_module

        digested: list = []
        original = artifacts_module.fingerprint_digest

        def counting(value):
            digested.append(value)
            return original(value)

        monkeypatch.setattr(artifacts_module, "fingerprint_digest", counting)
        ontology = _tiny_ontology()
        SemanticAnnotator(ontology)
        SemanticAnnotator(ontology)
        assert digested.count(ontology.labels()) == 1
