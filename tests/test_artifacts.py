"""Tests for persistent mmap-backed index artifacts.

Covers the artifact store itself (publish/load/invalidate, fingerprint
guards, corruption handling), ``NearestNeighbourIndex.save``/``mmap``
bit-identity, and the consumer integrations: cold ``GitTables.load``
must answer queries from mmap'd artifacts with **zero corpus-wide
embedding calls** and results bit-identical to the artifact-free path,
while any staleness (different encoder config, mutated corpus,
truncated artifact file) must trigger a rebuild — never silently serve
wrong vectors.
"""

import json
import random

import numpy as np
import pytest

from repro.api import GitTables
from repro.applications.data_search import SEARCH_ARTIFACT, TableSearchEngine
from repro.applications.kg_matching import KGMatchingBenchmark
from repro.applications.schema_completion import COMPLETION_ARTIFACT, NearestCompletion
from repro.applications.type_detection import TypeDetectionExperiment
from repro.config import AnnotationConfig, PipelineConfig
from repro.core.annotation import AnnotationPipeline
from repro.core.corpus import GitTablesCorpus
from repro.core.pipeline import build_corpus
from repro.embeddings.persist import embedder_fingerprint, load_index, publish_index
from repro.embeddings.sentence import SentenceEncoder
from repro.embeddings.similarity import NearestNeighbourIndex
from repro.github.content import GeneratorConfig
from repro.storage import (
    IndexArtifactStore,
    ShardedCorpusWriter,
    corpus_content_fingerprint,
)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A small sharded corpus store shared by the integration tests."""
    directory = tmp_path_factory.mktemp("artifact-corpus") / "store"
    build_corpus(
        PipelineConfig(target_tables=24, seed=7),
        generator_config=GeneratorConfig(n_repositories=100, mean_rows=25, seed=7),
        store_dir=directory,
        shard_size=8,
    )
    return directory


QUERY = "status and sales amount per product"
PREFIX = ("order_id", "order_date", "status")


def _spy_embed_many(monkeypatch):
    """Record the size of every SentenceEncoder.embed_many call."""
    calls: list[int] = []
    original = SentenceEncoder.embed_many

    def spying(self, texts):
        calls.append(len(texts))
        return original(self, texts)

    monkeypatch.setattr(SentenceEncoder, "embed_many", spying)
    return calls


class TestIndexArtifactStore:
    def test_publish_load_roundtrip(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        matrix = np.random.default_rng(3).normal(size=(6, 4))
        store.publish("demo", {"v": 1}, arrays={"m": matrix}, payload={"labels": ["a"]})
        loaded = store.load("demo", {"v": 1})
        assert loaded is not None
        assert loaded.payload == {"labels": ["a"]}
        assert np.array_equal(loaded.arrays["m"], matrix)
        # Non-empty arrays come back mmap'd and read-only.
        assert isinstance(loaded.arrays["m"], np.memmap)
        assert not loaded.arrays["m"].flags.writeable

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"encoder": {"dim": 128}}, arrays={}, payload={})
        assert store.load("demo", {"encoder": {"dim": 128}}) is not None
        assert store.load("demo", {"encoder": {"dim": 64}}) is None

    def test_fingerprint_normalisation(self, tmp_path):
        """Tuples and lists in fingerprints compare equal (JSON round-trip)."""
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"sizes": (3, 4)}, arrays={}, payload={})
        assert store.load("demo", {"sizes": [3, 4]}) is not None

    def test_truncated_array_file_is_a_miss(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"v": 1}, arrays={"m": np.ones((8, 8))})
        path = store.path("demo") / "m.npy"
        path.write_bytes(path.read_bytes()[:64])
        assert store.load("demo", {"v": 1}) is None

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"v": 1}, arrays={})
        (store.path("demo") / "meta.json").write_text("{not json")
        assert store.load("demo", {"v": 1}) is None

    def test_missing_artifact_is_a_miss(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        assert store.load("absent", {"v": 1}) is None
        assert store.names() == []

    def test_republish_replaces(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"v": 1}, arrays={"m": np.zeros((2, 2))})
        store.publish("demo", {"v": 2}, arrays={"m": np.ones((3, 3))})
        assert store.load("demo", {"v": 1}) is None
        loaded = store.load("demo", {"v": 2})
        assert loaded.arrays["m"].shape == (3, 3)

    def test_invalidate(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("one", {"v": 1}, arrays={})
        store.publish("two", {"v": 1}, arrays={})
        store.invalidate("one")
        assert store.names() == ["two"]
        store.invalidate()
        assert store.names() == []

    def test_empty_arrays_supported(self, tmp_path):
        """Zero-size matrices (empty corpora) round-trip eagerly."""
        store = IndexArtifactStore(tmp_path / "artifacts")
        store.publish("demo", {"v": 1}, arrays={"m": np.zeros((0, 16))})
        loaded = store.load("demo", {"v": 1})
        assert loaded.arrays["m"].shape == (0, 16)

    def test_invalid_names_rejected(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        for bad in ("", ".hidden", "a/b", "a b"):
            with pytest.raises(ValueError):
                store.publish(bad, {"v": 1})


class TestIndexPersistence:
    """NearestNeighbourIndex.save/mmap bit-identity."""

    def test_mmap_queries_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 16))
        vectors[7] = 0.0  # zero vector row
        index = NearestNeighbourIndex([f"l{i}" for i in range(40)], vectors)
        index.save(tmp_path / "index")
        mapped = NearestNeighbourIndex.mmap(tmp_path / "index")
        assert isinstance(mapped._unit_vectors, np.memmap)
        queries = rng.normal(size=(9, 16))
        queries[2] = 0.0
        for top_k in (1, 3, 40):
            assert index.query_batch(queries, top_k=top_k) == mapped.query_batch(
                queries, top_k=top_k
            )
        assert index.query(queries[0], top_k=5) == mapped.query(queries[0], top_k=5)

    def test_empty_index_round_trip(self, tmp_path):
        index = NearestNeighbourIndex([], np.zeros((0, 8)))
        index.save(tmp_path / "index")
        mapped = NearestNeighbourIndex.mmap(tmp_path / "index")
        assert len(mapped) == 0
        assert mapped.query(np.zeros(8)) == []

    def test_tampered_vectors_rejected(self, tmp_path):
        index = NearestNeighbourIndex(["a"], np.ones((1, 4)))
        index.save(tmp_path / "index")
        meta_path = tmp_path / "index" / "index.json"
        meta = json.loads(meta_path.read_text())
        meta["shape"] = [2, 4]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            NearestNeighbourIndex.mmap(tmp_path / "index")

    def test_publish_load_index_helpers(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        index = NearestNeighbourIndex(["x", "y"], np.eye(2))
        publish_index(store, "idx", {"v": 1}, index, payload={"extra": 7})
        resolved = load_index(store, "idx", {"v": 1})
        assert resolved is not None
        loaded, payload = resolved
        assert loaded.labels == ["x", "y"]
        assert payload["extra"] == 7
        assert load_index(store, "idx", {"v": 2}) is None


class TestEmbedderFingerprint:
    def test_distinguishes_configurations(self):
        base = embedder_fingerprint(SentenceEncoder())
        assert embedder_fingerprint(SentenceEncoder()) == base
        assert embedder_fingerprint(SentenceEncoder(dim=64)) != base
        assert embedder_fingerprint(SentenceEncoder(seed=2)) != base
        assert embedder_fingerprint(SentenceEncoder(ngram_sizes=(3,))) != base

    def test_corpus_fingerprint_none_for_memory(self):
        assert corpus_content_fingerprint(GitTablesCorpus(name="m")) is None


class TestColdStartFromArtifacts:
    """The acceptance criterion: cold load + query = zero corpus-wide
    embedding calls, results bit-identical to the artifact-free path."""

    def test_cold_search_embeds_only_the_query(self, store_dir, monkeypatch):
        GitTables.load(store_dir).warm()  # publish (or refresh) artifacts
        baseline = GitTables.load(store_dir, use_artifacts=False).search(QUERY, k=5)
        calls = _spy_embed_many(monkeypatch)
        cold = GitTables.load(store_dir)
        results = cold.search(QUERY, k=5)
        assert calls == [1], f"expected only the query embedding, saw {calls}"
        assert results == baseline

    def test_cold_completion_embeds_only_the_prefix(self, store_dir, monkeypatch):
        GitTables.load(store_dir).warm()
        baseline = GitTables.load(store_dir, use_artifacts=False).complete_schema(PREFIX, k=5)
        calls = _spy_embed_many(monkeypatch)
        cold = GitTables.load(store_dir)
        results = cold.complete_schema(PREFIX, k=5)
        assert calls == [len(PREFIX)], calls
        assert results == baseline

    def test_cold_kg_benchmark_matches(self, store_dir):
        GitTables.load(store_dir).warm()
        baseline = GitTables.load(store_dir, use_artifacts=False).match_kg()
        assert GitTables.load(store_dir).match_kg() == baseline

    def test_cold_type_detection_matches(self, store_dir):
        options = {"columns_per_type": 20, "epochs": 4, "n_splits": 2, "seed": 3}
        warmup = GitTables.load(store_dir)
        published = warmup.detect_types(**options)
        baseline = GitTables.load(store_dir, use_artifacts=False).detect_types(**options)
        assert published == baseline
        assert GitTables.load(store_dir).detect_types(**options) == baseline

    def test_save_carries_artifacts(self, store_dir, tmp_path):
        session = GitTables.load(store_dir).warm()
        target = tmp_path / "copy"
        session.save(target, shard_size=8)
        names = IndexArtifactStore.for_corpus_dir(target).names()
        assert SEARCH_ARTIFACT in names and COMPLETION_ARTIFACT in names
        assert any(name.startswith("kg-benchmark") for name in names)
        reloaded = GitTables.load(target)
        assert reloaded.search(QUERY, k=5) == session.search(QUERY, k=5)


class TestArtifactInvalidation:
    """Staleness must always rebuild — never silently serve wrong vectors."""

    def test_different_encoder_config_rebuilds(self, store_dir, monkeypatch):
        GitTables.load(store_dir).warm()
        calls = _spy_embed_many(monkeypatch)
        other = GitTables(
            corpus=GitTablesCorpus.load(store_dir),
            encoder=SentenceEncoder(dim=64),
            artifacts=IndexArtifactStore.for_corpus_dir(store_dir),
        )
        results = other.search(QUERY, k=3)
        assert sum(calls) > 1, "a corpus-wide re-embedding pass must have happened"
        artifact_free = GitTables(
            corpus=GitTablesCorpus.load(store_dir), encoder=SentenceEncoder(dim=64)
        )
        assert results == artifact_free.search(QUERY, k=3)
        # Restore the default-encoder artifacts for the other tests.
        GitTables.load(store_dir).warm()

    def test_mutated_corpus_rebuilds(self, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "store"
        build_corpus(
            PipelineConfig(target_tables=10, seed=5),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=5),
            store_dir=corpus_dir,
            shard_size=4,
        )
        GitTables.load(corpus_dir).warm()
        # Mutate the stored corpus out-of-band: append one more table.
        from tests.test_storage import _annotated

        writer = ShardedCorpusWriter(corpus_dir)
        writer.add(_annotated("intruder"))
        writer.finalize()
        calls = _spy_embed_many(monkeypatch)
        session = GitTables.load(corpus_dir)
        results = session.search(QUERY, k=3)
        assert sum(calls) > 1, "mutated corpus must force a rebuild"
        assert len(session.search_engine) == len(session.corpus)
        fresh = GitTables.load(corpus_dir, use_artifacts=False).search(QUERY, k=3)
        assert results == fresh

    def test_truncated_artifact_rebuilds(self, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "store"
        build_corpus(
            PipelineConfig(target_tables=10, seed=6),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=6),
            store_dir=corpus_dir,
            shard_size=4,
        )
        baseline = GitTables.load(corpus_dir).warm().search(QUERY, k=3)
        artifacts = IndexArtifactStore.for_corpus_dir(corpus_dir)
        vectors = artifacts.path(SEARCH_ARTIFACT) / "unit_vectors.npy"
        vectors.write_bytes(vectors.read_bytes()[:100])
        calls = _spy_embed_many(monkeypatch)
        results = GitTables.load(corpus_dir).search(QUERY, k=3)
        assert sum(calls) > 1, "truncated artifact must force a rebuild"
        assert results == baseline

    def test_reset_caches_invalidates_artifacts(self, tmp_path):
        corpus_dir = tmp_path / "store"
        build_corpus(
            PipelineConfig(target_tables=10, seed=8),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=8),
            store_dir=corpus_dir,
            shard_size=4,
        )
        session = GitTables.load(corpus_dir).warm()
        assert session.artifacts.names()
        session.reset_caches()
        assert session.artifacts.names() == []
        # Keeping artifacts is possible too.
        session.warm()
        session.reset_caches(invalidate_artifacts=False)
        assert session.artifacts.names()


class TestConsumerUnits:
    def test_search_engine_artifact_roundtrip_is_bit_identical(self, store_dir):
        corpus = GitTablesCorpus.load(store_dir)
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        fresh = TableSearchEngine(corpus, encoder=SentenceEncoder(), artifacts=artifacts)
        warm = TableSearchEngine(corpus, encoder=SentenceEncoder(), artifacts=artifacts)
        assert np.array_equal(fresh._index._unit_vectors, warm._index._unit_vectors)
        assert warm._schemas == fresh._schemas
        assert warm.search_batch([QUERY, "people and cities"], k=4) == fresh.search_batch(
            [QUERY, "people and cities"], k=4
        )

    def test_completion_artifact_roundtrip_is_bit_identical(self, store_dir):
        corpus = GitTablesCorpus.load(store_dir)
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        fresh = NearestCompletion(corpus, encoder=SentenceEncoder(), artifacts=artifacts)
        warm = NearestCompletion(corpus, encoder=SentenceEncoder(), artifacts=artifacts)
        assert len(warm) == len(fresh)
        assert np.array_equal(np.asarray(fresh._flat_matrix), np.asarray(warm._flat_matrix))
        assert warm.complete(PREFIX, k=6) == fresh.complete(PREFIX, k=6)
        evaluation = warm.evaluate(PREFIX + ("quantity", "total_price"), prefix_length=3)
        assert evaluation == fresh.evaluate(PREFIX + ("quantity", "total_price"), prefix_length=3)

    def test_completion_views_are_zero_copy_and_bit_identical(self, store_dir):
        GitTables.load(store_dir).warm()  # publish the completion artifact
        completer = GitTables.load(store_dir).completer
        assert isinstance(completer._flat_matrix, np.memmap)
        for view in completer._attribute_embeddings:
            assert type(view) is np.ndarray
            assert np.shares_memory(view, completer._flat_matrix)
        fresh = NearestCompletion(GitTablesCorpus.load(store_dir), encoder=SentenceEncoder())
        rng = random.Random(5)
        schemas = [schema for _, schema in fresh._schemas]
        prefixes = [PREFIX] + [
            rng.choice(schemas)[: rng.randint(1, 3)] for _ in range(12)
        ]
        for prefix in prefixes:
            assert completer.complete(prefix, k=6) == fresh.complete(prefix, k=6)

    def test_kg_benchmark_roundtrip(self, store_dir):
        corpus = GitTablesCorpus.load(store_dir)
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        fresh = KGMatchingBenchmark.from_corpus(corpus, artifacts=artifacts)
        warm = KGMatchingBenchmark.from_corpus(corpus, artifacts=artifacts)
        assert warm.columns == fresh.columns
        assert warm.n_tables == fresh.n_tables

    def test_type_features_artifact_roundtrip(self, store_dir):
        corpus = GitTablesCorpus.load(store_dir)
        artifacts = IndexArtifactStore.for_corpus_dir(store_dir)
        experiment = TypeDetectionExperiment(columns_per_type=20, seed=3, artifacts=artifacts)
        fresh = experiment.sample_labelled_columns(corpus)
        warm = experiment.sample_labelled_columns(corpus)
        assert list(warm.labels) == list(fresh.labels)
        assert np.array_equal(np.asarray(warm.features), np.asarray(fresh.features))

    def test_read_only_corpus_dir_degrades_gracefully(self, store_dir, monkeypatch):
        """Publish failure must never crash a query — the freshly built
        in-RAM index serves instead (artifacts are an optimisation)."""
        IndexArtifactStore.for_corpus_dir(store_dir).invalidate()

        def denied(self, *args, **kwargs):
            raise PermissionError("read-only filesystem")

        monkeypatch.setattr(IndexArtifactStore, "publish", denied)
        session = GitTables.load(store_dir)
        results = session.search(QUERY, k=3)
        assert session.complete_schema(PREFIX, k=3)
        assert session.match_kg()
        monkeypatch.undo()
        assert results == GitTables.load(store_dir, use_artifacts=False).search(QUERY, k=3)
        GitTables.load(store_dir).warm()  # restore artifacts for later tests

    def test_save_skips_indexes_of_mutated_corpus(self, tmp_path):
        """Indexes built before an in-memory mutation must not be
        published under the saved (post-mutation) fingerprint."""
        from tests.test_storage import _annotated, _corpus

        corpus = _corpus(8)
        session = GitTables.from_corpus(corpus)
        stale_results = session.search(QUERY, k=3)
        assert len(session.search_engine) == 8
        corpus.add(_annotated("added-later", topic="organism"))
        target = tmp_path / "saved"
        session.save(target, shard_size=4)
        # The stale index was not persisted (only the stats projection,
        # which save() rebuilds fresh); a fresh load re-embeds and sees
        # all 9 tables.
        assert IndexArtifactStore.for_corpus_dir(target).names() == ["stats-projection"]
        reloaded = GitTables.load(target)
        assert len(reloaded.search_engine) == 9
        assert stale_results is not None

    def test_in_memory_corpus_skips_artifacts(self, tmp_path):
        """No durable identity -> nothing published, plain build path."""
        from tests.test_storage import _corpus

        corpus = _corpus(6)
        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        TableSearchEngine(corpus, artifacts=artifacts)
        NearestCompletion(corpus, artifacts=artifacts)
        KGMatchingBenchmark.from_corpus(corpus, artifacts=artifacts)
        assert artifacts.names() == []

    def test_ontology_index_artifacts(self, tmp_path):
        from repro.embeddings.fasttext import FastTextModel

        artifacts = IndexArtifactStore(tmp_path / "artifacts")
        config = AnnotationConfig()
        first = AnnotationPipeline(config, artifacts=artifacts)
        published = artifacts.names()
        assert any(name.startswith("ontology-") for name in published)

        calls: list[int] = []
        original = FastTextModel.embed_batch

        def spying(self, texts):
            calls.append(len(texts))
            return original(self, texts)

        FastTextModel.embed_batch = spying
        try:
            second = AnnotationPipeline(config, artifacts=artifacts)
        finally:
            FastTextModel.embed_batch = original
        assert calls == [], "ontology label embedding must come from artifacts"

        # Annotations over a loaded index are identical to a fresh one.
        from repro.dataframe.table import Table

        table = Table(
            ["order_id", "status", "customer_email"],
            [["1", "OPEN", "a@example.com"]],
            table_id="t",
        )
        assert [a for a in second.annotate(table).all()] == [
            a for a in first.annotate(table).all()
        ]
