"""Tests for the pluggable corpus storage subsystem (repro.storage).

Covers the CorpusStore backends (in-memory, sharded JSONL reader,
append-only writer), atomic saves, lazy single-shard reads, resumable
builds (kill mid-build → resume → byte-identical to a one-shot run), and
cross-session PipelineReport reconciliation.
"""

import json
import os

import pytest

from repro.config import PipelineConfig
from repro.core.annotation import AnnotationMethod, ColumnAnnotation, TableAnnotations
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.core.pipeline import CorpusBuilder
from repro.dataframe.table import Table
from repro.errors import CorpusError
from repro.github.content import GeneratorConfig
from repro.pipeline import PipelineReport, combine_counters
from repro.storage import (
    BuildCheckpoint,
    ShardedCorpusWriter,
    ShardedJsonlStore,
)
from repro.storage._io import directory_file_bytes

# A writer, reader or worker that leaks a file handle fails its test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def _annotated(table_id: str, topic: str = "id", repo: str = "octo/data") -> AnnotatedTable:
    table = Table(["id", "status"], [["1", "OPEN"], ["2", "CLOSED"]], table_id=table_id)
    annotations = TableAnnotations(table_id=table_id)
    annotations.add(ColumnAnnotation("status", "status", "dbpedia", AnnotationMethod.SYNTACTIC, 1.0))
    return AnnotatedTable(
        table=table,
        annotations=annotations,
        topic=topic,
        repository=repo,
        source_url=f"https://github.com/{repo}/blob/main/{table_id}.csv",
        license_key="mit",
    )


def _corpus(n: int, name: str = "mini") -> GitTablesCorpus:
    corpus = GitTablesCorpus(name=name)
    for index in range(n):
        corpus.add(_annotated(f"t{index:03d}", topic="id" if index % 2 else "organism"))
    return corpus


def _dir_bytes(directory) -> dict[str, bytes]:
    return directory_file_bytes(directory)


def _count_decodes(monkeypatch) -> list[str]:
    """Record the id of every table decoded through ``AnnotatedTable.from_dict``."""
    decoded: list[str] = []
    original = AnnotatedTable.from_dict.__func__

    def counting(cls, payload):
        decoded.append(payload["table_id"])
        return original(cls, payload)

    monkeypatch.setattr(AnnotatedTable, "from_dict", classmethod(counting))
    return decoded


class TestShardedRoundTrip:
    def test_save_load_tables_identical(self, tmp_path):
        corpus = _corpus(11)
        corpus.save(tmp_path / "corpus", shard_size=4)
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        assert isinstance(loaded.store, ShardedJsonlStore)
        assert loaded.name == "mini"
        assert len(loaded) == 11
        originals = [annotated.to_dict() for annotated in corpus]
        restored = [annotated.to_dict() for annotated in loaded]
        assert restored == originals

    def test_resave_is_byte_identical(self, tmp_path):
        corpus = _corpus(9)
        corpus.save(tmp_path / "one", shard_size=4)
        GitTablesCorpus.load(tmp_path / "one").save(tmp_path / "two", shard_size=4)
        assert _dir_bytes(tmp_path / "one") == _dir_bytes(tmp_path / "two")

    def test_empty_corpus_round_trip(self, tmp_path):
        GitTablesCorpus(name="empty").save(tmp_path / "corpus")
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        assert len(loaded) == 0
        assert list(loaded) == []
        assert loaded.topics() == []
        assert loaded.total_rows() == 0

    def test_single_shard_round_trip(self, tmp_path):
        corpus = _corpus(3)
        corpus.save(tmp_path / "corpus", shard_size=100)
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        assert loaded.store.shard_files() == ["shard_00000.jsonl"]
        assert [a.table_id for a in loaded] == [a.table_id for a in corpus]


class TestLazyReads:
    def test_get_reads_only_its_own_shard(self, tmp_path):
        """Deleting every other shard must not break a single-table get."""
        corpus = _corpus(10)
        corpus.save(tmp_path / "corpus", shard_size=2)
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        manifest = loaded.store.manifest
        target = "t005"
        keep = manifest["shards"][manifest["tables"][target]["shard"]]["file"]
        for entry in manifest["shards"]:
            if entry["file"] != keep:
                (tmp_path / "corpus" / entry["file"]).unlink()
        assert loaded.get(target).table_id == target

    def test_metadata_answers_come_from_manifest(self, tmp_path):
        """topics/totals/repositories must not read any shard."""
        corpus = _corpus(10)
        corpus.save(tmp_path / "corpus", shard_size=2)
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        for entry in loaded.store.manifest["shards"]:
            (tmp_path / "corpus" / entry["file"]).unlink()
        assert loaded.topics() == corpus.topics()
        assert loaded.total_rows() == corpus.total_rows()
        assert loaded.total_columns() == corpus.total_columns()
        assert loaded.repositories() == corpus.repositories()
        assert len(loaded) == 10
        assert "t003" in loaded
        assert list(loaded.table_ids()) == [a.table_id for a in corpus]

    def test_shard_cache_is_bounded(self, tmp_path):
        corpus = _corpus(12)
        corpus.save(tmp_path / "corpus", shard_size=2)
        store = ShardedJsonlStore(tmp_path / "corpus", cache_shards=2)
        assert len(list(store)) == 12
        assert len(store._cache) <= 2

    def test_reader_is_read_only(self, tmp_path):
        _corpus(2).save(tmp_path / "corpus")
        loaded = GitTablesCorpus.load(tmp_path / "corpus")
        with pytest.raises(CorpusError):
            loaded.add(_annotated("t999"))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            GitTablesCorpus.load(tmp_path / "does-not-exist")

    def test_non_sharded_directory_raises(self, tmp_path):
        """A directory without a shard manifest (e.g. the retired
        one-JSON-file-per-table layout) is not a corpus store."""
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "index.json").write_text('{"name": "old", "tables": []}')
        with pytest.raises(CorpusError):
            GitTablesCorpus.load(directory)


class TestPerTableDecode:
    """A read decodes only the tables it returns, each at most once per residency."""

    @pytest.fixture
    def store_dir(self, tmp_path):
        _corpus(20).save(tmp_path / "corpus", shard_size=8)
        return tmp_path / "corpus"

    def test_cold_get_decodes_one_table_and_a_repeat_none(self, store_dir, monkeypatch):
        store = ShardedJsonlStore(store_dir)
        decoded = _count_decodes(monkeypatch)
        first = store.get("t009")
        assert first.table_id == "t009"
        assert decoded == ["t009"]
        assert store.get("t009") is first
        assert decoded == ["t009"]

    def test_sibling_get_in_cached_shard_decodes_one(self, store_dir, monkeypatch):
        store = ShardedJsonlStore(store_dir)
        store.get("t009")
        decoded = _count_decodes(monkeypatch)
        assert store.get("t010").table_id == "t010"
        assert decoded == ["t010"]

    def test_full_scan_decodes_each_table_once(self, store_dir, monkeypatch):
        store = ShardedJsonlStore(store_dir)
        decoded = _count_decodes(monkeypatch)
        scanned = [annotated.table_id for annotated in store]
        assert decoded == scanned == [f"t{index:03d}" for index in range(len(store))]

    def test_iter_from_mid_shard_decodes_only_the_tail(self, store_dir, monkeypatch):
        store = ShardedJsonlStore(store_dir)
        decoded = _count_decodes(monkeypatch)
        tail = [annotated.table_id for annotated in store.iter_from(11)]
        assert tail == [f"t{index:03d}" for index in range(11, 20)]
        assert len(decoded) == len(store) - 11

    def test_writer_get_of_committed_table_decodes_one(self, tmp_path, monkeypatch):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=8)
        writer.extend(_corpus(12))
        writer.commit()
        decoded = _count_decodes(monkeypatch)
        assert writer.get("t002").table_id == "t002"
        assert decoded == ["t002"]

    def test_undecodable_line_raises_only_for_its_table(self, store_dir):
        store = ShardedJsonlStore(store_dir)
        path = store_dir / store.manifest["shards"][0]["file"]
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"#" + lines[3][1:]  # same byte length: the manifest still matches
        path.write_bytes(b"\n".join(lines))
        assert store.get("t002").table_id == "t002"
        with pytest.raises(ValueError):
            store.get("t003")
        assert store.get("t004").table_id == "t004"

    def test_line_count_mismatch_still_raises_at_shard_load(self, store_dir):
        store = ShardedJsonlStore(store_dir)
        path = store_dir / store.manifest["shards"][0]["file"]
        data = path.read_bytes()
        first_break = data.index(b"\n")
        path.write_bytes(data[:first_break] + b" " + data[first_break + 1:])
        with pytest.raises(CorpusError, match="manifest says 8"):
            store.get("t005")


class TestWriter:
    def test_commit_then_reopen_resumes(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2, name="w")
        writer.extend([_annotated("a"), _annotated("b"), _annotated("c")])
        assert writer.pending_count == 3
        writer.commit()
        assert writer.committed_count == 3

        resumed = ShardedCorpusWriter(tmp_path / "corpus")
        assert resumed.name == "w"
        assert resumed.shard_size == 2
        assert len(resumed) == 3
        resumed.add(_annotated("d"))
        resumed.commit()
        reader = resumed.as_reader()
        assert [a.table_id for a in reader] == ["a", "b", "c", "d"]

    def test_duplicate_ids_rejected_across_commits(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus")
        writer.add(_annotated("a"))
        writer.commit()
        with pytest.raises(CorpusError):
            writer.add(_annotated("a"))
        writer.add(_annotated("b"))
        with pytest.raises(CorpusError):
            writer.add(_annotated("b"))

    def test_uncommitted_tail_is_healed_on_reopen(self, tmp_path):
        """Bytes appended after the last manifest commit are truncated."""
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=10)
        writer.extend([_annotated("a"), _annotated("b")])
        writer.commit()
        shard = tmp_path / "corpus" / "shard_00000.jsonl"
        with open(shard, "ab") as handle:
            handle.write(b'{"half-written garbage')
        healed = ShardedCorpusWriter(tmp_path / "corpus")
        assert len(healed) == 2
        assert [a.table_id for a in healed.as_reader()] == ["a", "b"]

    def test_orphan_shard_from_crashed_rollover_is_removed(self, tmp_path):
        """A shard file created after a rollover but never reaching the
        manifest must be deleted on reopen (byte-identity of resumes)."""
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("a"), _annotated("b")])
        writer.commit()
        orphan = tmp_path / "corpus" / "shard_00001.jsonl"
        orphan.write_bytes(b'{"uncommitted rollover garbage"}\n')
        healed = ShardedCorpusWriter(tmp_path / "corpus")
        assert not orphan.exists()
        assert [a.table_id for a in healed] == ["a", "b"]

    def test_get_and_contains_cover_pending_and_committed(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus")
        writer.add(_annotated("a"))
        writer.commit()
        writer.add(_annotated("b"))
        assert "a" in writer and "b" in writer
        assert writer.get("a").table_id == "a"
        assert writer.get("b").table_id == "b"
        assert writer.get("zzz") is None


class TestAtomicSave:
    def test_failed_save_preserves_existing_corpus(self, tmp_path, monkeypatch):
        target = tmp_path / "corpus"
        _corpus(4, name="original").save(target)

        def explode(self):
            raise RuntimeError("disk full")

        monkeypatch.setattr(ShardedCorpusWriter, "commit", explode)
        with pytest.raises(RuntimeError):
            _corpus(6, name="replacement").save(target)
        monkeypatch.undo()

        survivor = GitTablesCorpus.load(target)
        assert survivor.name == "original"
        assert len(survivor) == 4
        # No staging litter left behind.
        assert [n for n in os.listdir(tmp_path) if n.startswith(".corpus")] == []

    def test_save_overwrites_existing_corpus(self, tmp_path):
        target = tmp_path / "corpus"
        _corpus(4, name="old").save(target)
        _corpus(7, name="new").save(target)
        loaded = GitTablesCorpus.load(target)
        assert loaded.name == "new"
        assert len(loaded) == 7


class TestProvenanceNames:
    def test_topic_subset_name(self):
        corpus = _corpus(4, name="gittables")
        subset = corpus.topic_subset("organism")
        assert subset.name == "gittables/topic=organism"
        assert all(annotated.topic == "organism" for annotated in subset)

    def test_filter_default_and_explicit_names(self):
        corpus = _corpus(4, name="gittables")
        assert corpus.filter(lambda a: True).name == "gittables/filtered"
        assert corpus.filter(lambda a: True, name="gittables/mit-only").name == "gittables/mit-only"

    def test_names_nest_across_derivations(self):
        corpus = _corpus(6, name="gittables")
        nested = corpus.topic_subset("organism").filter(lambda a: True)
        assert nested.name == "gittables/topic=organism/filtered"


class TestCounterReconciliation:
    def test_combine_counters_sums_stagewise(self):
        base = {
            "sessions": 1,
            "batches": 2,
            "items_collected": 8,
            "total_seconds": 1.0,
            "stages": {"parsing": {"items_in": 10, "items_out": 8, "cumulative_seconds": 0.5}},
        }
        current = {
            "sessions": 1,
            "batches": 3,
            "items_collected": 9,
            "total_seconds": 2.0,
            "stages": {
                "parsing": {"items_in": 5, "items_out": 5, "cumulative_seconds": 0.25},
                "curation": {"items_in": 5, "items_out": 5, "cumulative_seconds": 0.3},
            },
        }
        merged = combine_counters(base, current)
        assert merged["sessions"] == 2
        assert merged["batches"] == 5
        assert merged["items_collected"] == 17
        assert merged["stages"]["parsing"] == {
            "items_in": 15,
            "items_out": 13,
            "cumulative_seconds": 0.75,
        }
        assert merged["stages"]["curation"]["items_in"] == 5

    def test_report_merge_counters(self):
        report = PipelineReport()
        metrics = report.register_stage("parsing")
        metrics.items_in = 5
        metrics.items_out = 4
        report.merge_counters(
            {
                "sessions": 2,
                "batches": 4,
                "items_collected": 10,
                "stages": {"parsing": {"items_in": 7, "items_out": 6, "cumulative_seconds": 1.0}},
            }
        )
        assert report.sessions == 3
        assert report.stage("parsing").items_in == 12
        assert report.stage("parsing").items_out == 10
        assert report.items_collected == 10


#: Chosen so the corpus contains PII-scrubbed tables both *before* and
#: *after* the interrupt point of the resume test (positions 9/13/15 and
#: 19 of 24) — scrubbing is the path where fake-value RNG state could
#: diverge between a resumed and a one-shot build.
@pytest.fixture(scope="module")
def resume_config():
    return PipelineConfig(target_tables=24, seed=7)


@pytest.fixture(scope="module")
def resume_generator():
    return GeneratorConfig(n_repositories=100, mean_rows=25, seed=7)


class TestResumableBuild:
    def test_interrupted_build_resumes_byte_identical(
        self, tmp_path, monkeypatch, resume_config, resume_generator
    ):
        """Kill a sharded build mid-stream; the resumed directory must be
        byte-identical to an uninterrupted run and the merged report must
        account for every table exactly once."""
        one_shot = tmp_path / "one-shot"
        interrupted = tmp_path / "interrupted"
        one_shot_report = CorpusBuilder(
            resume_config, generator_config=resume_generator, batch_size=4
        ).build(store_dir=one_shot, shard_size=8).pipeline_report

        original_commit = ShardedCorpusWriter.commit
        calls = {"n": 0}

        def killed_commit(self):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt("simulated kill")
            return original_commit(self)

        monkeypatch.setattr(ShardedCorpusWriter, "commit", killed_commit)
        with pytest.raises(KeyboardInterrupt):
            CorpusBuilder(resume_config, generator_config=resume_generator, batch_size=4).build(
                store_dir=interrupted, shard_size=8
            )
        monkeypatch.undo()

        # The interrupted directory is a valid partial corpus with a
        # checkpoint describing the committed progress (the build's one
        # worker keeps the counters of the work it committed).
        assert BuildCheckpoint.load(interrupted) is not None
        checkpoint = BuildCheckpoint.load(interrupted, worker=0)
        partial = GitTablesCorpus.load(interrupted)
        assert 0 < len(partial) < resume_config.target_tables
        assert checkpoint.counters["items_collected"] == len(partial)

        # The scenario must exercise PII scrubbing on both sides of the
        # interrupt — the path where resumed fake-value RNG state could
        # diverge from a one-shot run. Guards against a fixture change
        # silently degrading this test.
        one_shot_corpus = list(GitTablesCorpus.load(one_shot))
        scrubbed = [
            position
            for position, annotated in enumerate(one_shot_corpus)
            if annotated.table.metadata.get("pii_scrubbed_columns")
        ]
        assert any(position < len(partial) for position in scrubbed)
        assert any(position >= len(partial) for position in scrubbed)

        result = CorpusBuilder(resume_config, generator_config=resume_generator, batch_size=4).build(
            store_dir=interrupted, shard_size=8
        )
        report = result.pipeline_report
        assert len(result.corpus) == resume_config.target_tables
        assert report.sessions == 2
        # Every table was annotated exactly once across the two sessions.
        assert report.stage("annotation").items_in == resume_config.target_tables
        assert report.stage("curation").items_out == resume_config.target_tables
        # ...and every source file was parsed exactly once: the resume
        # skipped what the first session committed.
        assert report.stage("parsing").items_in == one_shot_report.stage("parsing").items_in
        assert report.items_collected == resume_config.target_tables
        # Checkpoint is gone and the directory is byte-identical to the
        # one-shot build.
        assert BuildCheckpoint.load(interrupted) is None
        assert _dir_bytes(one_shot) == _dir_bytes(interrupted)

    def test_sharded_build_equals_in_memory_build(
        self, tmp_path, resume_config, resume_generator
    ):
        memory = CorpusBuilder(resume_config, generator_config=resume_generator).build()
        sharded = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=tmp_path / "store", shard_size=8
        )
        assert isinstance(sharded.corpus.store, ShardedJsonlStore)
        assert [a.to_dict() for a in sharded.corpus] == [a.to_dict() for a in memory.corpus]
        # Saving the in-memory corpus produces the same corpus bytes the
        # streaming sharded build wrote (build.json is build provenance,
        # not corpus data — save() has no build config to record).
        memory.corpus.save(tmp_path / "saved", shard_size=8)
        built = _dir_bytes(tmp_path / "store")
        built.pop("build.json")
        assert _dir_bytes(tmp_path / "saved") == built

    def test_build_on_completed_store_reuses_it(
        self, tmp_path, resume_config, resume_generator
    ):
        store = tmp_path / "store"
        first = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        manifest_mtime = (store / "manifest.json").stat().st_mtime_ns
        again = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        assert len(again.corpus) == len(first.corpus)
        # Nothing was rebuilt or rewritten.
        assert (store / "manifest.json").stat().st_mtime_ns == manifest_mtime
        # Curation statistics are rebuilt from table metadata, so Table-3
        # style reports do not silently degrade to zeros on reuse.
        assert again.curation_report.tables_processed == len(first.corpus)
        assert again.curation_report.columns_total == first.curation_report.columns_total
        assert again.curation_report.columns_scrubbed == first.curation_report.columns_scrubbed
        assert again.curation_report.scrubbed_by_type == first.curation_report.scrubbed_by_type

    def test_resume_with_different_config_rejected(
        self, tmp_path, monkeypatch, resume_config, resume_generator
    ):
        store = tmp_path / "store"
        original_commit = ShardedCorpusWriter.commit
        calls = {"n": 0}

        def killed_commit(self):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt("simulated kill")
            return original_commit(self)

        monkeypatch.setattr(ShardedCorpusWriter, "commit", killed_commit)
        with pytest.raises(KeyboardInterrupt):
            CorpusBuilder(resume_config, generator_config=resume_generator, batch_size=4).build(
                store_dir=store, shard_size=8
            )
        monkeypatch.undo()

        different = PipelineConfig(target_tables=30, seed=14)
        with pytest.raises(CorpusError):
            CorpusBuilder(different, generator_config=resume_generator).build(store_dir=store)

    def test_completed_store_with_different_config_rejected(
        self, tmp_path, resume_config, resume_generator
    ):
        """build.json outlives the checkpoint: even a *finished* store is
        validated, never silently returned for a different config."""
        store = tmp_path / "store"
        CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        with pytest.raises(CorpusError):
            CorpusBuilder(resume_config.replace(seed=99), generator_config=resume_generator).build(
                store_dir=store
            )

    def test_store_without_build_metadata_rejected(self, tmp_path, resume_config):
        """A plain save()'d directory has no provenance to verify against."""
        _corpus(5).save(tmp_path / "store")
        with pytest.raises(CorpusError):
            CorpusBuilder(resume_config).build(store_dir=tmp_path / "store")

    def test_prebuilt_instance_store_never_reused(
        self, tmp_path, resume_config, resume_generator
    ):
        """Pre-built instances cannot be fingerprinted, so their stores
        must never be resumed or silently reused (two different sources
        would compare equal)."""
        from repro.github.instance import build_instance

        instance = build_instance(resume_generator)
        store = tmp_path / "store"
        CorpusBuilder(resume_config, instance=instance).build(store_dir=store, shard_size=8)
        with pytest.raises(CorpusError):
            CorpusBuilder(resume_config, instance=instance).build(store_dir=store)

    def test_self_save_preserves_build_provenance(
        self, tmp_path, resume_config, resume_generator
    ):
        """Re-saving a store's own corpus onto its directory must not
        brick the store for later build(store_dir=...) reuse."""
        store = tmp_path / "store"
        CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        corpus = GitTablesCorpus.load(store)
        corpus.save(store, shard_size=8)
        assert (store / "build.json").exists()
        reused = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        assert len(reused.corpus) == resume_config.target_tables

    def test_leftover_checkpoint_completion_rebuilds_curation_report(
        self, tmp_path, resume_config, resume_generator
    ):
        """Killed between the final commit and checkpoint clear: the next
        build does no work but must still report real curation stats."""
        store = tmp_path / "store"
        first = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        # Reinstate a checkpoint as if the clear never happened.
        BuildCheckpoint(
            fingerprint=json.loads((store / "build.json").read_text())["fingerprint"],
            sessions=1,
            counters=first.pipeline_report.counters(),
        ).save(store)
        completed = CorpusBuilder(resume_config, generator_config=resume_generator).build(
            store_dir=store, shard_size=8
        )
        assert completed.curation_report.tables_processed == len(first.corpus)
        assert completed.curation_report.scrubbed_by_type == (
            first.curation_report.scrubbed_by_type
        )
        assert BuildCheckpoint.load(store) is None

    def test_builder_facade_store_dir(self, tmp_path, resume_config, resume_generator):
        from repro.api import GitTables

        gt = GitTables.build(
            resume_config,
            generator_config=resume_generator,
            store_dir=tmp_path / "store",
            shard_size=8,
        )
        assert len(gt) == resume_config.target_tables
        loaded = GitTables.load(tmp_path / "store")
        assert isinstance(loaded.corpus.store, ShardedJsonlStore)
        assert len(loaded) == len(gt)
        assert loaded.topics() == gt.topics()


class TestManifestDeltaLog:
    """Commit-per-batch builds are O(batch): commits append one delta
    record to manifest.log; compaction folds the log into manifest.json
    every K commits and on finalize."""

    def test_commits_append_deltas_not_manifest_rewrites(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.commit()  # first commit establishes the base manifest
        manifest_path = tmp_path / "corpus" / "manifest.json"
        base_bytes = manifest_path.read_bytes()
        for index in range(3, 6):
            writer.add(_annotated(f"t{index}"))
            writer.commit()
        # The base manifest was not rewritten; the log carries the tail.
        assert manifest_path.read_bytes() == base_bytes
        log_lines = (tmp_path / "corpus" / "manifest.log").read_bytes().splitlines()
        assert len(log_lines) == 3
        # Each record is O(batch): exactly one table here.
        assert all(len(json.loads(line)["tables"]) == 1 for line in log_lines)

    def test_reader_replays_uncompacted_tail(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.commit()
        writer.extend([_annotated("t3"), _annotated("t4"), _annotated("t5")])
        writer.commit()
        store = ShardedJsonlStore(tmp_path / "corpus")
        assert [a.table_id for a in store] == ["t1", "t2", "t3", "t4", "t5"]
        assert store.get("t4").table_id == "t4"
        assert store.stats_hint()["total_rows"] == 10  # 2 rows per table
        assert store.stats_hint()["topics"] == {"id": 5}

    def test_writer_resumes_from_log_tail(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.commit()
        writer.add(_annotated("t3"))
        writer.commit()
        resumed = ShardedCorpusWriter(tmp_path / "corpus")
        assert len(resumed) == 3
        resumed.add(_annotated("t4"))
        resumed.commit()
        assert [a.table_id for a in resumed.as_reader()] == ["t1", "t2", "t3", "t4"]

    def test_torn_log_tail_ignored_and_truncated(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.commit()
        writer.add(_annotated("t3"))
        writer.commit()
        log_path = tmp_path / "corpus" / "manifest.log"
        intact = log_path.read_bytes()
        with open(log_path, "ab") as handle:
            handle.write(b'{"torn half record')
        # Readers ignore the torn tail.
        assert len(ShardedJsonlStore(tmp_path / "corpus")) == 3
        # Writers truncate it away and keep appending cleanly.
        healed = ShardedCorpusWriter(tmp_path / "corpus")
        assert log_path.read_bytes() == intact
        assert len(healed) == 3

    def test_compaction_every_k_commits(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=4, compact_every=3)
        log_path = tmp_path / "corpus" / "manifest.log"
        for index in range(6):
            writer.add(_annotated(f"t{index}"))
            writer.commit()
        # Commits: #1 base manifest, #2-#3 deltas, #4 compaction (2+1
        # reaches compact_every), #5-#6 deltas.
        assert log_path.exists()
        assert len(log_path.read_bytes().splitlines()) == 2
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        assert manifest["table_count"] == 4

    def test_finalize_compacts_and_result_is_cadence_independent(self, tmp_path):
        """The finished directory is byte-identical no matter how many
        commits produced it."""
        one = ShardedCorpusWriter(tmp_path / "one", shard_size=2)
        for index in range(5):
            one.add(_annotated(f"t{index}"))
            one.commit()
        one.finalize()
        two = ShardedCorpusWriter(tmp_path / "two", shard_size=2)
        two.extend([_annotated(f"t{index}") for index in range(5)])
        two.finalize()
        assert not (tmp_path / "one" / "manifest.log").exists()
        assert _dir_bytes(tmp_path / "one") == _dir_bytes(tmp_path / "two")

    def test_stale_log_after_crashed_compaction_not_double_applied(self, tmp_path):
        """A compaction that wrote manifest.json but crashed before
        deleting the log must not double-count on the next open."""
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.commit()
        writer.add(_annotated("t3"))
        writer.commit()
        stale_log = (tmp_path / "corpus" / "manifest.log").read_bytes()
        writer.finalize()
        # Resurrect the log as if the unlink never happened.
        (tmp_path / "corpus" / "manifest.log").write_bytes(stale_log)
        store = ShardedJsonlStore(tmp_path / "corpus")
        assert len(store) == 3
        assert store.stats_hint()["total_rows"] == 6
        reopened = ShardedCorpusWriter(tmp_path / "corpus")
        assert len(reopened) == 3
        assert reopened.stats_hint()["total_rows"] == 6

    def test_content_fingerprint_tracks_commits(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path / "corpus", shard_size=2)
        writer.extend([_annotated("t1"), _annotated("t2")])
        writer.finalize()
        first = ShardedJsonlStore(tmp_path / "corpus").content_fingerprint()
        assert first == ShardedJsonlStore(tmp_path / "corpus").content_fingerprint()
        again = ShardedCorpusWriter(tmp_path / "corpus")
        again.add(_annotated("t3"))
        again.finalize()
        assert ShardedJsonlStore(tmp_path / "corpus").content_fingerprint() != first


class TestCheckpointUnit:
    def test_round_trip_and_clear(self, tmp_path):
        checkpoint = BuildCheckpoint(
            fingerprint={"config": {"seed": 1}}, sessions=2, counters={"batches": 3}
        )
        checkpoint.save(tmp_path)
        loaded = BuildCheckpoint.load(tmp_path)
        assert loaded.fingerprint == {"config": {"seed": 1}}
        assert loaded.sessions == 2
        assert loaded.counters == {"batches": 3}
        BuildCheckpoint.clear(tmp_path)
        assert BuildCheckpoint.load(tmp_path) is None

    def test_fingerprint_ignores_workers(self):
        """The thread-count knob is gone: it cannot be set, so it cannot
        reach the fingerprint, while real config drift still changes it."""
        from repro.storage import config_fingerprint

        base = PipelineConfig(target_tables=10, seed=5)
        with pytest.raises(TypeError):
            base.replace(workers=4)
        assert "workers" not in config_fingerprint(base)["config"]
        assert config_fingerprint(base) != config_fingerprint(base.replace(seed=6))

    def test_fingerprint_ignores_processes(self, tmp_path):
        """Regression: the ``processes=`` build argument is content-neutral —
        a store built under one process count records the fingerprint of
        its config alone, so it resumes under another, while real config
        drift still raises."""
        from repro.storage import config_fingerprint, load_build_meta

        config = PipelineConfig(target_tables=6, seed=5)
        generator = GeneratorConfig(n_repositories=40, mean_rows=20, seed=5)
        store = tmp_path / "store"
        CorpusBuilder(config, generator_config=generator).build(store_dir=store, processes=2)
        recorded = load_build_meta(store)
        assert recorded == config_fingerprint(config, generator)
        assert "processes" not in recorded["config"]
        again = CorpusBuilder(config, generator_config=generator).build(
            store_dir=store, processes=1
        )
        assert len(again.corpus) == config.target_tables
        with pytest.raises(CorpusError):
            CorpusBuilder(config.replace(seed=6), generator_config=generator).build(
                store_dir=store, processes=2
            )

    def test_fingerprint_config_is_exactly_the_pipeline_config(self):
        """Guard: every ``PipelineConfig`` field enters the fingerprint.

        The fingerprint's ``config`` section is ``dataclasses.asdict`` of
        the config, so an execution-only field added later fails here
        instead of silently breaking resume, reuse and extension.
        """
        import dataclasses

        from repro.storage import config_fingerprint

        config = PipelineConfig.small()
        payload = config_fingerprint(config)["config"]
        assert set(payload) == {"extraction", "curation", "annotation", "seed", "target_tables"}
        assert payload == json.loads(json.dumps(dataclasses.asdict(config)))
