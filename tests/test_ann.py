"""Tests for the partitioned ANN tier (``repro.embeddings.ann``).

The contract under test: k-means builds are deterministic byte-for-byte,
an effective ``nprobe >= n_partitions`` reproduces the flat index's
output exactly (argpartition boundary ties included), every hit the two
tiers share carries a bit-identical score at any nprobe, published and
mmap'd index artifacts answer identically, and the :func:`build_index` scale
gate keeps small corpora on the flat tier so existing results never
silently change.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import GitTables
from repro.config import IndexConfig, PipelineConfigError
from repro.embeddings import NearestNeighbourIndex, PartitionedIndex, build_index
from repro.embeddings.ann import _cluster, _validate_partition_tables
from repro.embeddings.persist import load_index, publish_index
from repro.storage.artifacts import IndexArtifactStore
from tests.mmap_check import assert_mmap_backed


def _corpus(n_rows: int, dim: int = 16, seed: int = 3, clusters: int = 8) -> np.ndarray:
    """Clustered rows (unit centres + noise) — the regime probing favours."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((clusters, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    picks = rng.integers(0, clusters, size=n_rows)
    return centres[picks] + rng.standard_normal((n_rows, dim)) * 0.1


@pytest.fixture(scope="module")
def vectors() -> np.ndarray:
    return _corpus(400)

@pytest.fixture(scope="module")
def labels(vectors) -> list[int]:
    return list(range(len(vectors)))


@pytest.fixture(scope="module")
def flat(labels, vectors) -> NearestNeighbourIndex:
    return NearestNeighbourIndex(labels, vectors)


@pytest.fixture(scope="module")
def ann(flat) -> PartitionedIndex:
    return PartitionedIndex.from_flat(flat, IndexConfig(min_rows=1, nprobe=3))


class TestIndexConfig:
    def test_defaults_validate(self):
        config = IndexConfig()
        assert config.min_rows == 10_000
        assert config.nprobe == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"min_rows": -1},
            {"n_partitions": 0},
            {"nprobe": 0},
            {"kmeans_iters": -1},
            {"holdout_queries": -1},
            {"recall_k": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(PipelineConfigError):
            IndexConfig(**overrides)

    def test_tier_gate(self):
        config = IndexConfig(min_rows=100)
        assert not config.tier_active(99)
        assert config.tier_active(100)

    def test_partition_heuristic_is_about_sqrt(self):
        config = IndexConfig()
        assert config.resolve_partitions(10_000) == 100
        assert config.resolve_partitions(1) == 1
        assert IndexConfig(n_partitions=7).resolve_partitions(3) == 3

    def test_nprobe_not_in_build_fingerprint(self):
        fingerprint = IndexConfig().build_fingerprint()
        assert "nprobe" not in fingerprint
        assert IndexConfig(nprobe=2).build_fingerprint() == fingerprint
        assert IndexConfig(min_rows=5).build_fingerprint() != fingerprint


class TestDeterministicClustering:
    def test_build_twice_is_byte_identical(self, labels, vectors):
        config = IndexConfig(min_rows=1)
        first = PartitionedIndex.build(labels, vectors, config)
        second = PartitionedIndex.build(labels, vectors, config)
        assert first._centroids.tobytes() == second._centroids.tobytes()
        assert first._row_ids.tobytes() == second._row_ids.tobytes()
        assert first._offsets.tobytes() == second._offsets.tobytes()

    def test_partitions_cover_every_row_once(self, ann):
        assert sorted(ann._row_ids.tolist()) == list(range(len(ann.labels)))
        assert ann._offsets[0] == 0
        assert ann._offsets[-1] == len(ann.labels)

    def test_row_ids_ascend_within_each_partition(self, ann):
        for p in range(ann.n_partitions):
            part = ann._row_ids[ann._offsets[p] : ann._offsets[p + 1]]
            assert np.all(np.diff(part) > 0)

    def test_duplicate_rows_collapse_seeds(self):
        # 4 distinct vectors but 8 partitions requested: the seeder only
        # finds 4 distinct seeds, so at most 4 partitions materialise.
        base = np.eye(4)
        vectors = np.vstack([base, base, base])
        centroids, row_ids, offsets = _cluster(vectors, 8, iters=4)
        assert len(centroids) <= 4
        assert sorted(row_ids.tolist()) == list(range(12))
        _validate_partition_tables(row_ids, offsets, len(centroids), 12)

    def test_constructor_is_blocked(self):
        with pytest.raises(TypeError):
            PartitionedIndex(["a"], np.ones((1, 4)))


class TestExactness:
    @pytest.mark.parametrize("top_k", [1, 3, 10, 400, 1000])
    def test_full_probe_equals_flat_exactly(self, flat, ann, top_k):
        queries = _corpus(32, seed=9)
        expected = flat.top_k_batch(queries, top_k=top_k)
        assert ann.top_k_batch(queries, top_k=top_k, nprobe=ann.n_partitions) == expected

    def test_default_nprobe_at_or_above_partitions_degrades_to_flat(self, flat, vectors):
        config = IndexConfig(min_rows=1, n_partitions=4, nprobe=100)
        ann = PartitionedIndex.from_flat(flat, config)
        queries = _corpus(16, seed=11)
        assert ann.top_k_batch(queries, top_k=5) == flat.top_k_batch(queries, top_k=5)
        assert ann.recall["recall_at_k"] == 1.0

    @pytest.mark.parametrize("nprobe", [1, 2, 3])
    def test_shared_hits_are_bit_identical(self, flat, ann, nprobe):
        queries = _corpus(24, seed=13)
        exact = flat.top_k_batch(queries, top_k=10)
        approx = ann.top_k_batch(queries, top_k=10, nprobe=nprobe)
        for exact_row, approx_row in zip(exact, approx):
            exact_scores = dict(exact_row)
            shared = [label for label, _ in approx_row if label in exact_scores]
            assert shared, "clustered queries should share hits with flat"
            for label, score in approx_row:
                if label in exact_scores:
                    assert score == exact_scores[label]

    def test_partial_probe_results_are_sorted_and_deduplicated(self, ann):
        queries = _corpus(8, seed=17)
        for row in ann.top_k_batch(queries, top_k=10, nprobe=2):
            labels = [label for label, _ in row]
            scores = [score for _, score in row]
            assert len(set(labels)) == len(labels)
            assert scores == sorted(scores, reverse=True)

    def test_query_and_best_inherit_probing(self, flat, ann):
        query = _corpus(1, seed=19)[0]
        assert ann.query(query, top_k=5)[0] == flat.query(query, top_k=5)[0]


class TestEdgeCases:
    def test_single_partition(self, flat, vectors):
        ann = PartitionedIndex.from_flat(flat, IndexConfig(min_rows=1, n_partitions=1))
        queries = _corpus(8, seed=23)
        assert ann.top_k_batch(queries, top_k=3) == flat.top_k_batch(queries, top_k=3)

    def test_singleton_partitions(self):
        vectors = np.eye(6)
        flat = NearestNeighbourIndex(list(range(6)), vectors)
        ann = PartitionedIndex.from_flat(
            flat, IndexConfig(min_rows=1, n_partitions=6, nprobe=1)
        )
        assert ann.n_partitions == 6
        for i in range(6):
            assert ann.top_k_batch(vectors[i : i + 1], top_k=1)[0][0][0] == i

    def test_zero_vector_query(self, ann, flat):
        queries = np.zeros((2, 16))
        approx = ann.top_k_batch(queries, top_k=3, nprobe=2)
        assert all(score == 0.0 for row in approx for _, score in row)
        full = ann.top_k_batch(queries, top_k=3, nprobe=ann.n_partitions)
        assert full == flat.top_k_batch(queries, top_k=3)

    def test_empty_index(self):
        ann = PartitionedIndex.build([], np.zeros((0, 8)), IndexConfig(min_rows=1))
        assert ann.n_partitions == 0
        assert ann.top_k_batch(np.ones((2, 8)), top_k=3) == [[], []]
        assert ann.probe_batch(np.ones((2, 8))) == [
            pytest.approx(np.zeros(0)),
            pytest.approx(np.zeros(0)),
        ]
        assert ann.recall is None

    def test_empty_query_batch(self, ann):
        assert ann.top_k_batch(np.zeros((0, 16)), top_k=3) == []

    def test_nprobe_knob_validation(self, ann):
        with pytest.raises(ValueError):
            ann.nprobe = 0


class TestProbeBatch:
    def test_candidates_are_ascending_row_ids(self, ann):
        queries = _corpus(6, seed=29)
        for candidates in ann.probe_batch(queries, nprobe=2):
            assert np.all(np.diff(candidates) > 0)
            assert candidates.dtype == np.int64

    def test_full_probe_returns_every_row(self, ann):
        queries = _corpus(2, seed=31)
        for candidates in ann.probe_batch(queries, nprobe=ann.n_partitions):
            assert candidates.tolist() == list(range(len(ann.labels)))

    def test_candidates_contain_probed_partitions_exactly(self, ann):
        queries = _corpus(4, seed=37)
        for candidates in ann.probe_batch(queries, nprobe=2):
            sizes = np.diff(ann._offsets)
            # Each candidate list is a union of whole partitions.
            assert len(candidates) in {
                int(sizes[i] + sizes[j])
                for i in range(ann.n_partitions)
                for j in range(ann.n_partitions)
                if i != j
            }


class TestStats:
    def test_counters_accumulate(self, flat):
        ann = PartitionedIndex.from_flat(flat, IndexConfig(min_rows=1, nprobe=2))
        queries = _corpus(5, seed=41)
        ann.top_k_batch(queries, top_k=3)
        ann.top_k_batch(queries, top_k=3, nprobe=ann.n_partitions)
        stats = ann.stats()
        assert stats["tier"] == "partitioned"
        assert stats["queries"] == 10
        assert stats["probed_partitions"]["2"] == 5
        assert stats["probed_partitions"][str(ann.n_partitions)] == 5
        assert 0.0 < stats["mean_candidate_fraction"] <= 1.0
        assert stats["recall"]["k"] == 10

    def test_flat_tier_stats(self, flat):
        assert flat.stats() == {"tier": "flat", "rows": len(flat.labels)}

    def test_recall_measurement_bounds(self, ann):
        recall = ann.recall
        assert 0.0 <= recall["recall_at_k"] <= 1.0
        assert recall["nprobe"] == 3
        assert recall["holdout_queries"] <= 64


def _publish(index, tmp_path) -> IndexArtifactStore:
    store = IndexArtifactStore(tmp_path / "artifacts")
    publish_index(store, "ivf", {"v": 1}, index)
    return store


def _rewrite_meta(store: IndexArtifactStore, edit) -> None:
    meta_path = store.path("ivf") / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))


class TestPersistence:
    """The partitioned tier round-trips through the index artifact format."""

    def test_save_mmap_round_trip_is_identical(self, ann, tmp_path):
        mapped, _ = load_index(_publish(ann, tmp_path), "ivf", {"v": 1})
        assert isinstance(mapped, PartitionedIndex)
        assert mapped.labels == ann.labels
        assert mapped.n_partitions == ann.n_partitions
        assert mapped.nprobe == ann.nprobe
        assert mapped.recall == ann.recall
        queries = _corpus(12, seed=43)
        for top_k in (1, 5):
            assert mapped.top_k_batch(queries, top_k=top_k) == ann.top_k_batch(
                queries, top_k=top_k
            )
        full = mapped.top_k_batch(queries, top_k=5, nprobe=mapped.n_partitions)
        assert full == ann.top_k_batch(queries, top_k=5, nprobe=ann.n_partitions)

    def test_mmap_vectors_stay_memory_mapped(self, ann, tmp_path):
        mapped, _ = load_index(_publish(ann, tmp_path), "ivf", {"v": 1})
        assert_mmap_backed(mapped._unit_vectors)

    def test_tampered_metadata_rejected(self, ann, tmp_path):
        store = _publish(ann, tmp_path)

        def grow_centroids(meta):
            meta["arrays"]["ann_centroids"]["shape"][0] += 1

        _rewrite_meta(store, grow_centroids)
        assert load_index(store, "ivf", {"v": 1}) is None

    def test_truncated_partition_table_rejected(self, ann, tmp_path):
        store = _publish(ann, tmp_path)
        truncated = ann._row_ids[:-3]
        np.save(store.path("ivf") / "ann_partition_row_ids.npy", truncated)

        def match_truncated(meta):
            meta["arrays"]["ann_partition_row_ids"]["shape"] = [len(truncated)]

        # The array spec agrees with the file, so only the partition
        # table check can catch the missing rows.
        _rewrite_meta(store, match_truncated)
        assert load_index(store, "ivf", {"v": 1}) is None

    def test_wrong_format_rejected(self, flat, tmp_path):
        store = _publish(flat, tmp_path)

        def foreign_format(meta):
            meta["format"] = "nn-index-ivf"

        _rewrite_meta(store, foreign_format)
        assert load_index(store, "ivf", {"v": 1}) is None

    def test_empty_index_round_trip(self, tmp_path):
        ann = PartitionedIndex.build([], np.zeros((0, 8)), IndexConfig(min_rows=1))
        mapped, _ = load_index(_publish(ann, tmp_path), "ivf", {"v": 1})
        assert mapped.labels == []
        assert mapped.top_k_batch(np.ones((1, 8))) == [[]]

    def test_artifact_publish_load_round_trip(self, ann, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        publish_index(store, "schemas", {"v": 1}, ann, payload={"extra": 5})
        resolved = load_index(store, "schemas", {"v": 1})
        assert resolved is not None
        loaded, payload = resolved
        assert isinstance(loaded, PartitionedIndex)
        assert payload["extra"] == 5
        assert payload["ann"]["n_partitions"] == ann.n_partitions
        queries = _corpus(8, seed=47)
        assert loaded.top_k_batch(queries, top_k=5) == ann.top_k_batch(queries, top_k=5)

    def test_flat_artifact_stays_flat(self, flat, tmp_path):
        store = IndexArtifactStore(tmp_path / "artifacts")
        publish_index(store, "schemas", {"v": 1}, flat)
        loaded, _ = load_index(store, "schemas", {"v": 1})
        assert type(loaded) is NearestNeighbourIndex


class TestBuildIndexGate:
    def test_small_corpus_stays_flat(self, labels, vectors):
        index = build_index(labels, vectors, IndexConfig(min_rows=1000))
        assert type(index) is NearestNeighbourIndex

    def test_large_corpus_goes_partitioned(self, labels, vectors):
        index = build_index(labels, vectors, IndexConfig(min_rows=100))
        assert isinstance(index, PartitionedIndex)

    def test_n_rows_override_controls_the_gate(self, labels, vectors):
        config = IndexConfig(min_rows=1000)
        assert isinstance(
            build_index(labels, vectors, config, n_rows=5000), PartitionedIndex
        )
        assert (
            type(build_index(labels, vectors, IndexConfig(min_rows=100), n_rows=5))
            is NearestNeighbourIndex
        )


class TestEngineIntegration:
    """The consumer-facing contract over a real (small) corpus."""

    def test_facade_results_identical_across_tiers(self, gittables_corpus):
        default = GitTables.from_corpus(gittables_corpus)
        forced = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1, nprobe=10**6)
        )
        query = "temperature sensor readings"
        assert forced.search(query, k=5) == default.search(query, k=5)
        prefix = ["id", "name"]
        assert forced.complete_schema(prefix, k=3) == default.complete_schema(prefix, k=3)

    def test_facade_index_stats_report_tier(self, gittables_corpus):
        session = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1, nprobe=2)
        )
        session.search("temperature", k=3)
        stats = session.index_stats()
        assert stats["search"]["tier"] == "partitioned"
        assert stats["search"]["queries"] >= 1
        flat_session = GitTables.from_corpus(gittables_corpus)
        flat_session.search("temperature", k=3)
        assert flat_session.index_stats()["search"]["tier"] == "flat"

    def test_small_corpus_fingerprint_has_no_ann_section(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        engine = session.search_engine
        assert "ann" not in engine._fingerprint()
        forced = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1)
        )
        assert "ann" in forced.search_engine._fingerprint()

    def test_store_round_trip_keeps_tier_and_results(self, gittables_corpus, tmp_path):
        directory = tmp_path / "corpus"
        config = IndexConfig(min_rows=1, nprobe=10**6)
        GitTables.from_corpus(gittables_corpus).save(directory)
        warm = GitTables.load(directory, index_config=config)
        warm.warm()
        baseline = GitTables.load(directory).search("temperature", k=5)
        cold = GitTables.load(directory, index_config=config)
        assert cold.search("temperature", k=5) == baseline
        assert cold.index_stats()["search"]["tier"] == "partitioned"

    def test_completion_coarse_tier_full_probe_matches_default(self, gittables_corpus):
        default = GitTables.from_corpus(gittables_corpus)
        forced = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1, nprobe=10**6)
        )
        prefix = ["date", "value"]
        assert forced.complete_schema(prefix, k=5) == default.complete_schema(prefix, k=5)
        stats = forced.index_stats()
        assert stats.get("completion", {}).get("tier") == "partitioned"
