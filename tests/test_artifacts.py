"""Tests for persistent mmap-backed index artifacts.

Covers the artifact store itself (publish/load/invalidate, fingerprint
guards, corruption handling), ``publish_index``/``load_index``
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
from repro.core.pipeline import CorpusBuilder
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
    CorpusBuilder(
        PipelineConfig(target_tables=24, seed=7),
        generator_config=GeneratorConfig(n_repositories=100, mean_rows=25, seed=7),
    ).build(store_dir=directory, shard_size=8)
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
    """publish_index/load_index bit-identity and integrity."""

    def test_mmap_queries_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 16))
        vectors[7] = 0.0  # zero vector row
        index = NearestNeighbourIndex([f"l{i}" for i in range(40)], vectors)
        store = IndexArtifactStore(tmp_path / "artifacts")
        publish_index(store, "index", {"v": 1}, index)
        mapped, _ = load_index(store, "index", {"v": 1})
        assert isinstance(mapped._unit_vectors, np.memmap)
        queries = rng.normal(size=(9, 16))
        queries[2] = 0.0
        for top_k in (1, 3, 40):
            assert index.query_batch(queries, top_k=top_k) == mapped.query_batch(
                queries, top_k=top_k
            )
        assert index.query(queries[0], top_k=5) == mapped.query(queries[0], top_k=5)

    def test_empty_index_round_trip(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        publish_index(store, "index", {"v": 1}, NearestNeighbourIndex([], np.zeros((0, 8))))
        mapped, _ = load_index(store, "index", {"v": 1})
        assert len(mapped) == 0
        assert mapped.query(np.zeros(8)) == []

    def test_tampered_vectors_rejected(self, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        publish_index(store, "index", {"v": 1}, NearestNeighbourIndex(["a"], np.ones((1, 4))))
        meta_path = store.path("index") / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["arrays"]["unit_vectors"]["shape"] = [2, 4]
        meta_path.write_text(json.dumps(meta))
        assert load_index(store, "index", {"v": 1}) is None

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
        session.kg_benchmark()
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
        CorpusBuilder(
            PipelineConfig(target_tables=10, seed=5),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=5),
        ).build(store_dir=corpus_dir, shard_size=4)
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
        CorpusBuilder(
            PipelineConfig(target_tables=10, seed=6),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=6),
        ).build(store_dir=corpus_dir, shard_size=4)
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
        CorpusBuilder(
            PipelineConfig(target_tables=10, seed=8),
            generator_config=GeneratorConfig(n_repositories=60, mean_rows=20, seed=8),
        ).build(store_dir=corpus_dir, shard_size=4)
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
        import tracemalloc

        GitTables.load(store_dir).warm()  # publish the completion artifact
        completer = GitTables.load(store_dir).completer
        matrix = completer._flat_matrix
        assert isinstance(matrix, np.memmap)
        # The kernel gathers from a plain ndarray over the mmap'd buffer.
        assert type(completer._attributes) is np.ndarray
        assert not completer._attributes.flags.owndata
        assert np.shares_memory(completer._attributes, matrix)
        # A one-name prefix gathers one row per candidate: a call never
        # allocates anything near a copy of the matrix.
        completer.complete(PREFIX[:1], k=6)  # warm the encoder cache
        tracemalloc.start()
        try:
            completer.complete(PREFIX[:1], k=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes / 2
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


# -- one lifecycle for every artifact kind -----------------------------------

#: The consumer modules that resolve artifacts, each through ``resolve``.
_RESOLVING_MODULES = (
    "repro.applications.data_search",
    "repro.applications.schema_completion",
    "repro.applications.kg_matching",
    "repro.applications.type_detection",
    "repro.storage.columnar",
    "repro.core.annotation",
)
LIFECYCLE_BASE = 24
LIFECYCLE_GROWN = 30
TYPE_OPTIONS = {"columns_per_type": 10, "seed": 3}


def _type_features(session, **options):
    experiment = TypeDetectionExperiment(artifacts=session.artifacts, **{**TYPE_OPTIONS, **options})
    return experiment.sample_labelled_columns(session.corpus)


def _projection(session):
    from repro.storage.columnar import ensure_projection

    return ensure_projection(session.corpus, session.artifacts)


def _ontologies(session, **config):
    return AnnotationPipeline(AnnotationConfig(**config), artifacts=session.artifacts)


#: kind -> (artifact-name prefix, resolve it in a session, resolve it with
#: one non-corpus fingerprint key changed, file to truncate).
LIFECYCLE_KINDS = {
    "search": (
        SEARCH_ARTIFACT,
        lambda s: TableSearchEngine(s.corpus, artifacts=s.artifacts),
        lambda s, mp: TableSearchEngine(
            s.corpus, encoder=SentenceEncoder(seed=2), artifacts=s.artifacts
        ),
        "unit_vectors.npy",
    ),
    "completion": (
        COMPLETION_ARTIFACT,
        lambda s: NearestCompletion(s.corpus, artifacts=s.artifacts),
        lambda s, mp: NearestCompletion(s.corpus, min_schema_length=3, artifacts=s.artifacts),
        "attributes.npy",
    ),
    "kg-benchmark": (
        "kg-benchmark-c3-r5",
        lambda s: KGMatchingBenchmark.from_corpus(s.corpus, artifacts=s.artifacts),
        # Every non-corpus key is also part of the artifact name.
        lambda s, mp: KGMatchingBenchmark.from_corpus(
            s.corpus, max_tables=10**6, artifacts=s.artifacts
        ),
        "tables.npy",
    ),
    "type-features": (
        "type-features-",
        _type_features,
        lambda s, mp: _type_features(s, seed=4),
        "features.npy",
    ),
    "projection": (
        "stats-projection",
        _projection,
        lambda s, mp: (
            mp.setattr("repro.storage.columnar.PROJECTION_VERSION", 2),
            _projection(s),
        ),
        "stats_n_rows.npy",
    ),
    "ontology": (
        "ontology-",
        _ontologies,
        lambda s, mp: _ontologies(s, embedding_dim=32),
        "unit_vectors.npy",
    ),
}


class _Ledger:
    """Every resolution with the texts embedded and tables decoded inside it."""

    def __init__(self, monkeypatch):
        import importlib

        from repro.core.corpus import AnnotatedTable
        from repro.embeddings.fasttext import FastTextModel
        from repro.storage import artifacts as artifacts_module

        self.texts = 0
        self.decodes = 0
        self.entries: list[tuple[str, str, int, int]] = []
        self._spy(monkeypatch, SentenceEncoder, "embed_many", "texts")
        self._spy(monkeypatch, FastTextModel, "embed_batch", "texts")
        decode = AnnotatedTable.from_dict.__func__

        def counting_decode(cls, payload):
            self.decodes += 1
            return decode(cls, payload)

        monkeypatch.setattr(AnnotatedTable, "from_dict", classmethod(counting_decode))

        def recording(artifacts, name, *args, **kwargs):
            texts, decodes = self.texts, self.decodes
            value, outcome = artifacts_module.resolve(artifacts, name, *args, **kwargs)
            if artifacts is not None:  # storeless resolutions only build
                self.entries.append((name, outcome, self.texts - texts, self.decodes - decodes))
            return value, outcome

        for module in _RESOLVING_MODULES:
            monkeypatch.setattr(importlib.import_module(module), "resolve", recording)

    def _spy(self, monkeypatch, cls, method, counter):
        original = getattr(cls, method)

        def spying(model, texts):
            setattr(self, counter, getattr(self, counter) + len(texts))
            return original(model, texts)

        monkeypatch.setattr(cls, method, spying)

    def of(self, prefix: str) -> list[tuple[str, int, int]]:
        return [entry[1:] for entry in self.entries if entry[0].startswith(prefix)]


@pytest.fixture(scope="module")
def lifecycle_store(tmp_path_factory):
    """A seeded, extendable store with every artifact kind published."""
    directory = tmp_path_factory.mktemp("lifecycle") / "store"
    GitTables.build(
        PipelineConfig(target_tables=LIFECYCLE_BASE, seed=11),
        generator_config=GeneratorConfig(n_repositories=100, mean_rows=25, seed=11),
        store_dir=directory,
        shard_size=8,
        processes=1,
    )
    session = GitTables.load(directory)
    for _, resolve_kind, _, _ in LIFECYCLE_KINDS.values():
        resolve_kind(session)
    return directory


@pytest.fixture
def lifecycle_copy(lifecycle_store, tmp_path):
    import shutil

    directory = tmp_path / "store"
    shutil.copytree(lifecycle_store, directory)
    return directory


@pytest.fixture(scope="module")
def extension_ledger(lifecycle_store, tmp_path_factory):
    """Resolutions during ``GitTables.extend`` and in a fresh session after it."""
    import shutil

    directory = tmp_path_factory.mktemp("lifecycle-extend") / "store"
    shutil.copytree(lifecycle_store, directory)
    with pytest.MonkeyPatch.context() as monkeypatch:
        ledger = _Ledger(monkeypatch)
        GitTables.load(directory).extend(target_tables=LIFECYCLE_GROWN)
        session = GitTables.load(directory)
        for _, resolve_kind, _, _ in LIFECYCLE_KINDS.values():
            resolve_kind(session)
    tail = [schema for _, schema in session.corpus.iter_schemas(start=LIFECYCLE_BASE)]
    assert len(tail) == LIFECYCLE_GROWN - LIFECYCLE_BASE
    return ledger, tail


@pytest.mark.parametrize("kind", sorted(LIFECYCLE_KINDS))
class TestArtifactLifecycle:
    """Each artifact kind follows the one resolver's lifecycle."""

    def test_first_resolution_publishes(self, kind, lifecycle_copy, monkeypatch):
        prefix, resolve_kind, _, _ = LIFECYCLE_KINDS[kind]
        session = GitTables.load(lifecycle_copy)
        session.artifacts.invalidate()
        ledger = _Ledger(monkeypatch)
        resolve_kind(session)
        assert ledger.of(prefix) and {outcome for outcome, _, _ in ledger.of(prefix)} == {"built"}
        assert any(name.startswith(prefix) for name in session.artifacts.names())

    def test_fresh_session_adopts_without_work(self, kind, lifecycle_store, monkeypatch):
        prefix, resolve_kind, _, _ = LIFECYCLE_KINDS[kind]
        ledger = _Ledger(monkeypatch)
        resolve_kind(GitTables.load(lifecycle_store))
        assert ledger.of(prefix)
        assert ledger.texts == 0 and ledger.decodes == 0
        assert {outcome for outcome, _, _ in ledger.of(prefix)} == {"adopted"}

    def test_extension_refreshes_tail_or_rebuilds(self, kind, extension_ledger):
        prefix = LIFECYCLE_KINDS[kind][0]
        ledger, tail = extension_ledger
        first_outcome, texts, decodes = ledger.of(prefix)[0]
        if kind == "search":
            assert first_outcome == "extended"
            assert texts == sum(len(schema) for schema in tail if schema)
        elif kind == "completion":
            assert first_outcome == "extended"
            assert texts == sum(len(schema) for schema in tail if len(schema) >= 4)
        elif kind == "projection":
            assert first_outcome == "extended"
            assert texts == 0 and decodes == len(tail)
        elif kind == "ontology":
            # Keyed on the model and the label list, not the corpus.
            assert {outcome for outcome, _, _ in ledger.of(prefix)} == {"adopted"}
        else:
            assert first_outcome == "built"

    def test_changed_fingerprint_key_rebuilds(self, kind, lifecycle_copy, monkeypatch):
        prefix, _, resolve_changed, _ = LIFECYCLE_KINDS[kind]
        ledger = _Ledger(monkeypatch)
        resolve_changed(GitTables.load(lifecycle_copy), monkeypatch)
        assert ledger.of(prefix)
        assert {outcome for outcome, _, _ in ledger.of(prefix)} == {"built"}

    def test_truncated_file_reads_as_miss(self, kind, lifecycle_copy, monkeypatch):
        prefix, resolve_kind, _, filename = LIFECYCLE_KINDS[kind]
        artifacts = IndexArtifactStore.for_corpus_dir(lifecycle_copy)
        for name in artifacts.names():
            if name.startswith(prefix):
                path = artifacts.path(name) / filename
                path.write_bytes(path.read_bytes()[:64])
        ledger = _Ledger(monkeypatch)
        resolve_kind(GitTables.load(lifecycle_copy))
        assert ledger.of(prefix)
        assert {outcome for outcome, _, _ in ledger.of(prefix)} == {"built"}


class TestCrossCorpusTypeDetection:
    def test_eval_corpus_features_keep_the_session_artifacts(self, tmp_path, monkeypatch):
        """Publishing the eval corpus' features must not prune the
        training store's own artifacts (they are keyed per corpus)."""
        stores = []
        for seed in (1, 2):
            directory = tmp_path / f"store-{seed}"
            CorpusBuilder(
                PipelineConfig(target_tables=40, seed=seed),
                generator_config=GeneratorConfig(n_repositories=100, mean_rows=25, seed=seed),
            ).build(store_dir=directory, shard_size=8)
            stores.append(directory)
        session = GitTables.load(stores[0]).warm()
        before = set(session.artifacts.names())
        session.detect_types(
            GitTables.load(stores[1]), columns_per_type=5, epochs=2, n_splits=2
        )
        after = set(session.artifacts.names())
        assert before <= after
        assert len([name for name in after if name.startswith("type-features-")]) == 2
        calls = _spy_embed_many(monkeypatch)
        GitTables.load(stores[0]).warm()
        assert sum(calls) == 0


class TestSingleLifecycle:
    """The adopt/extend/build/publish policy lives only in ``resolve``."""

    def test_lifecycle_primitives_are_used_only_by_the_resolver(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        allowed = {
            "sealed_prefix_boundary": {"storage/artifacts.py", "storage/sharded.py"},
            "try_publish": {"storage/artifacts.py"},
        }
        offenders: list[str] = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if name == "load_any" or relative not in allowed.get(name, {relative}):
                    offenders.append(f"{relative}:{getattr(node, 'lineno', '?')} {name}")
        assert offenders == []
        assert not hasattr(IndexArtifactStore, "load_any")
        sharded = (root / "storage" / "sharded.py").read_text(encoding="utf-8")
        references = [
            node
            for node in ast.walk(ast.parse(sharded))
            if isinstance(node, (ast.Name, ast.Attribute))
            and "sealed_prefix_boundary" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
        assert references == [], "sharded.py only defines sealed_prefix_boundary"
