"""Schema completion's coarse tier persists with its artifact.

A store whose completion index has the ANN tier active publishes the
tier (centroids, partition tables, recall) inside the
``completion-attributes`` artifact; a fresh session adopts it and runs
no k-means and no recall measurement, and answers exactly as a session
that built the tier itself. Default-config (flat-tier) stores publish
the artifact layout they always had.
"""

from __future__ import annotations

import io
import json
import shutil

import numpy as np
import pytest

from repro.api import GitTables
from repro.applications.schema_completion import COMPLETION_ARTIFACT
from repro.config import IndexConfig, PipelineConfig
from repro.embeddings import ann
from repro.embeddings.ann import PartitionedIndex
from repro.embeddings.sentence import SentenceEncoder
from repro.github.content import GeneratorConfig
from repro.storage._io import directory_file_bytes
from repro.storage.artifacts import ARTIFACT_FORMAT

SEED = 7
BASE_TABLES = 20
GROWN_TABLES = 24
SHARDS = 4
PARTIAL = IndexConfig(min_rows=1, nprobe=2)
FULL = IndexConfig(min_rows=1, nprobe=10**6)
PREFIXES = (("id",), ("name", "city"), ("date", "value", "status"), ("price", "quantity"))
TIER_ARRAYS = ("ann_centroids.npy", "ann_partition_offsets.npy", "ann_partition_row_ids.npy")


@pytest.fixture(scope="module")
def generator():
    return GeneratorConfig(n_repositories=200, mean_rows=25, seed=SEED)


def _build(directory, tables, generator, index_config=None):
    session = GitTables.build(
        PipelineConfig(target_tables=tables, seed=SEED),
        generator_config=generator,
        batch_size=4,
        store_dir=directory,
        shard_size=SHARDS,
        index_config=index_config,
    )
    return session.warm()


@pytest.fixture(scope="module")
def tier_store(tmp_path_factory, generator):
    """A store whose completion artifact carries a published ANN tier."""
    directory = tmp_path_factory.mktemp("completion-tier") / "store"
    _build(directory, BASE_TABLES, generator, PARTIAL)
    return directory


@pytest.fixture(scope="module", params=[PARTIAL, FULL], ids=["nprobe-2", "full-probe"])
def config_store(request, tmp_path_factory, generator):
    """A tier store published under each probe setting, with that setting."""
    directory = tmp_path_factory.mktemp("completion-tier") / "store"
    _build(directory, BASE_TABLES, generator, request.param)
    return directory, request.param


def _completion_dir(store):
    return store / "artifacts" / COMPLETION_ARTIFACT


def _answers(session):
    completions = [session.complete_schema(list(prefix), k=5) for prefix in PREFIXES]
    return completions, session.index_stats()["completion"]


def _forbid_tier_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the coarse tier was rebuilt")

    monkeypatch.setattr(ann, "_cluster", refuse)
    monkeypatch.setattr(PartitionedIndex, "_measure_recall", refuse)


def _count_clusterings(monkeypatch) -> list:
    calls: list = []
    original = ann._cluster

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ann, "_cluster", counting)
    return calls


class TestPublishedTier:
    def test_artifact_carries_the_tier(self, tier_store):
        files = sorted(path.name for path in _completion_dir(tier_store).iterdir())
        assert files == sorted(("attributes.npy", "meta.json", *TIER_ARRAYS))
        meta = json.loads((_completion_dir(tier_store) / "meta.json").read_text())
        assert meta["fingerprint"]["ann"] == PARTIAL.build_fingerprint()
        assert meta["payload"]["ann"]["recall"]["holdout_queries"] > 0

    def test_adopted_tier_equals_a_fresh_build(self, config_store, monkeypatch):
        store, config = config_store
        built = GitTables.load(store, use_artifacts=False, index_config=config)
        expected = _answers(built)
        _forbid_tier_builds(monkeypatch)
        adopted = _answers(GitTables.load(store, index_config=config))
        assert adopted == expected
        assert adopted[1]["tier"] == "partitioned"
        assert adopted[1]["nprobe"] == config.nprobe
        for ours, theirs in zip(adopted[0], expected[0]):
            assert [hit.prefix_distance for hit in ours] == [
                hit.prefix_distance for hit in theirs
            ]

    def test_fresh_session_runs_no_kmeans_or_recall(self, tier_store, monkeypatch):
        _forbid_tier_builds(monkeypatch)
        session = GitTables.load(tier_store, index_config=PARTIAL)
        assert session.complete_schema(["name", "city"], k=5)
        assert session.index_stats()["completion"]["tier"] == "partitioned"

    def test_probe_setting_is_the_session_s(self, tier_store):
        """``nprobe`` is a query-time knob: the session's wins, and the
        adopted recall reports the setting it was measured under."""
        stats = _answers(GitTables.load(tier_store, index_config=FULL))[1]
        assert stats["nprobe"] == FULL.nprobe
        assert stats["mean_candidate_fraction"] == 1.0
        assert stats["recall"]["nprobe"] == PARTIAL.nprobe

    def test_extend_republishes_the_one_shot_tier(self, tmp_path, tier_store, generator):
        extended = tmp_path / "extended"
        shutil.copytree(tier_store, extended)
        GitTables.load(extended, index_config=PARTIAL).extend(
            target_tables=GROWN_TABLES, shard_size=SHARDS
        )
        one_shot = tmp_path / "one-shot"
        _build(one_shot, GROWN_TABLES, generator, PARTIAL)
        extended_bytes = directory_file_bytes(_completion_dir(extended))
        assert set(TIER_ARRAYS) <= set(extended_bytes)
        assert extended_bytes == directory_file_bytes(_completion_dir(one_shot))

    def test_artifact_without_the_tier_is_rebuilt(self, tmp_path, tier_store, monkeypatch):
        """A tier-active artifact in the older layout (no ``ann`` section,
        no tier arrays) is not adopted: the tier is built and published."""
        store = tmp_path / "store"
        shutil.copytree(tier_store, store)
        meta_path = _completion_dir(store) / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["fingerprint"]["ann"]
        del meta["payload"]["ann"]
        for name in TIER_ARRAYS:
            del meta["arrays"][name[: -len(".npy")]]
            (_completion_dir(store) / name).unlink()
        meta_path.write_text(json.dumps(meta))
        expected = _answers(GitTables.load(tier_store, index_config=PARTIAL))

        with monkeypatch.context() as patch:
            clusterings = _count_clusterings(patch)
            rebuilt = GitTables.load(store, index_config=PARTIAL).warm()
            assert clusterings
        assert _answers(rebuilt)[0] == expected[0]
        assert directory_file_bytes(_completion_dir(store)) == directory_file_bytes(
            _completion_dir(tier_store)
        )
        _forbid_tier_builds(monkeypatch)
        assert _answers(GitTables.load(store, index_config=PARTIAL)) == expected


def test_default_config_artifact_layout_is_unchanged(tmp_path, generator):
    """The flat tier publishes exactly the matrix and the schema payload."""
    store = tmp_path / "store"
    session = _build(store, BASE_TABLES, generator)
    directory = _completion_dir(store)
    assert sorted(path.name for path in directory.iterdir()) == ["attributes.npy", "meta.json"]
    schemas = [
        (table_id, list(schema))
        for table_id, schema in session.corpus.iter_schemas()
        if len(schema) >= 4
    ]
    matrix = SentenceEncoder().embed_many([attr for _, schema in schemas for attr in schema])
    expected = io.BytesIO()
    np.save(expected, matrix)
    assert (directory / "attributes.npy").read_bytes() == expected.getvalue()
    meta = json.loads((directory / "meta.json").read_text())
    assert meta["format"] == ARTIFACT_FORMAT
    assert sorted(meta["fingerprint"]) == ["corpus", "encoder", "kind", "min_schema_length"]
    assert meta["arrays"] == {
        "attributes": {"file": "attributes.npy", "dtype": "float64", "shape": list(matrix.shape)}
    }
    assert meta["payload"] == {
        "table_ids": [table_id for table_id, _ in schemas],
        "schemas": [schema for _, schema in schemas],
    }
