"""Online compaction / live re-sharding of a sealed serving store.

The contract under test (see :func:`repro.storage.compaction.compact_store`
and ``GitTables.compact``): rewriting a sealed store to a new shard size
publishes a new manifest **generation** with byte-for-byte identical
corpus content — same tables, same order, same ``content_fingerprint``
(pinned through ``compacted_from``), so every derived index artifact
stays valid with zero re-embedding. The swap is crash-safe at every
stage (a SIGKILL converges, on re-run, to exactly the old or the new
layout, never a mixture), an open reader can never observe a half-swapped
directory, and a serving worker pool follows the generation bump by
hot-reloading while answering bit-identically throughout.
"""

from __future__ import annotations

import json
import shutil
import signal
import time

import pytest

from repro.api import GitTables
from repro.applications.data_search import TableSearchEngine
from repro.applications.schema_completion import NearestCompletion
from repro.config import PipelineConfig
from repro.core.annotation import (
    AnnotationMethod,
    ColumnAnnotation,
    TableAnnotations,
)
from repro.core.corpus import AnnotatedTable
from repro.dataframe.table import Table
from repro.errors import CorpusError
from repro.github.content import GeneratorConfig
from repro.serving.metrics import ServiceMetrics
from repro.storage._io import directory_file_bytes
from repro.storage.compaction import compact_store
from repro.storage.sharded import (
    ShardedCorpusWriter,
    ShardedJsonlStore,
    read_store_version,
)
from tests.legacy_layout import single_writer_store

TABLES = 24
GROWN_TABLES = 30
SHARDS = 8
NEW_SIZE = 5
BATCH = 4
SEED = 7

CRASH_POINTS = ["before-shard-publish", "before-manifest-publish", "before-sweep"]

QUERIES = ("status and total price per order", "population by city")
PREFIXES = (("id",), ("name", "city"))


@pytest.fixture(scope="module")
def gen_config():
    return GeneratorConfig(n_repositories=200, mean_rows=25, seed=SEED)


@pytest.fixture(scope="module")
def sealed_store(tmp_path_factory, gen_config):
    """A sealed store with warmed (published) index artifacts."""
    directory = tmp_path_factory.mktemp("compaction") / "base"
    session = GitTables.build(
        PipelineConfig(target_tables=TABLES, seed=SEED),
        generator_config=gen_config,
        batch_size=BATCH,
        store_dir=directory,
        shard_size=SHARDS,
    )
    _ = session.search_engine
    _ = session.completer
    return directory


@pytest.fixture(scope="module")
def compacted_reference(tmp_path_factory, sealed_store):
    """The sealed store compacted (uncrashed) to ``NEW_SIZE``."""
    directory = tmp_path_factory.mktemp("compaction") / "reference"
    shutil.copytree(sealed_store, directory)
    compact_store(directory, shard_size=NEW_SIZE)
    return directory


def _answers(session: GitTables) -> tuple:
    searches = tuple(tuple(session.search(query, k=5)) for query in QUERIES)
    completions = tuple(
        tuple(session.complete_schema(prefix, k=5)) for prefix in PREFIXES
    )
    return searches, completions, session.stats()


def _annotated(table_id: str) -> AnnotatedTable:
    table = Table(["id", "status"], [["1", "OPEN"]], table_id=table_id)
    annotations = TableAnnotations(table_id=table_id)
    annotations.add(
        ColumnAnnotation("status", "status", "dbpedia", AnnotationMethod.SYNTACTIC, 1.0)
    )
    return AnnotatedTable(
        table=table,
        annotations=annotations,
        topic="id",
        repository="octo/data",
        source_url=f"https://github.com/octo/data/blob/main/{table_id}.csv",
        license_key="mit",
    )


class TestCompactionRewrite:
    def test_layout_changes_content_does_not(self, tmp_path, sealed_store):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        before = ShardedJsonlStore(directory)
        fingerprint = before.content_fingerprint()
        table_ids = list(before.table_ids())
        manifest_before = dict(before.manifest)

        report = compact_store(directory, shard_size=NEW_SIZE)

        assert report.rewritten
        assert report.generation == 2
        assert report.shard_size == NEW_SIZE
        assert report.table_count == TABLES
        assert report.fingerprint == fingerprint
        after = ShardedJsonlStore(directory)
        assert after.generation == 2
        assert after.content_fingerprint() == fingerprint
        assert list(after.table_ids()) == table_ids
        assert [t.table_id for t in after] == table_ids
        # Epoch history and cached stats ride along untouched.
        assert after.epoch == manifest_before["epoch"]
        assert after.sealed_epochs == manifest_before["epochs"]
        assert after.manifest["stats"] == manifest_before["stats"]
        # The new layout is generation-scoped and optimally packed; no
        # old-generation file survives the sweep.
        files = after.shard_files()
        assert files and all(name.startswith("shard_g00002_") for name in files)
        assert sorted(path.name for path in directory.glob("shard_*.jsonl")) == sorted(files)
        counts = [entry["count"] for entry in after.manifest["shards"]]
        assert all(count == NEW_SIZE for count in counts[:-1])
        assert 0 < counts[-1] <= NEW_SIZE
        assert read_store_version(directory) == (manifest_before["epoch"], True, 2)

    def test_session_answers_identical_across_compaction(
        self, sealed_store, compacted_reference
    ):
        assert _answers(GitTables.load(sealed_store)) == _answers(
            GitTables.load(compacted_reference)
        )

    def test_repeated_compaction_pins_original_fingerprint(
        self, tmp_path, sealed_store, compacted_reference
    ):
        original = ShardedJsonlStore(sealed_store).content_fingerprint()
        directory = tmp_path / "store"
        shutil.copytree(compacted_reference, directory)
        report = compact_store(directory, shard_size=10)
        assert report.generation == 3
        assert report.fingerprint == original
        store = ShardedJsonlStore(directory)
        assert store.generation == 3
        assert store.content_fingerprint() == original
        assert store.compacted_from["fingerprint"] == original

    def test_same_size_compaction_is_a_byte_stable_noop(
        self, tmp_path, compacted_reference
    ):
        directory = tmp_path / "store"
        shutil.copytree(compacted_reference, directory)
        before = directory_file_bytes(directory)
        report = compact_store(directory)
        assert not report.rewritten
        assert report.generation == 2
        assert report.swept_files == 0
        assert directory_file_bytes(directory) == before

    def test_facade_compact_serves_identically_with_zero_reembedding(
        self, tmp_path, sealed_store, monkeypatch
    ):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        session = GitTables.load(directory)
        expected = _answers(session)

        def forbid(*args, **kwargs):  # pragma: no cover - assertion guard
            raise AssertionError("compaction must not trigger corpus re-embedding")

        # The load path (mmap of fingerprint-guarded artifacts) must be
        # the only way the engines come back after the re-shard.
        monkeypatch.setattr(TableSearchEngine, "_build", forbid)
        monkeypatch.setattr(TableSearchEngine, "_extend", forbid)
        monkeypatch.setattr(NearestCompletion, "_build", forbid)
        monkeypatch.setattr(NearestCompletion, "_extend", forbid)

        report = session.compact(shard_size=NEW_SIZE)
        assert report["rewritten"]
        assert report["generation"] == 2
        assert _answers(session) == expected


class TestCompactionRefusals:
    def test_refuses_unsealed_and_unfinalized_stores(self, tmp_path):
        directory = tmp_path / "store"
        first = [_annotated(f"t{i:03d}") for i in range(6)]
        later = [_annotated(f"t{i:03d}") for i in range(6, 10)]
        # An old single writer's first commit: the epoch is open and unsealed.
        single_writer_store(directory, [first], shard_size=4)
        with pytest.raises(CorpusError, match="not sealed"):
            compact_store(directory)
        # Its later commits lived in the manifest delta log until finalize.
        shutil.rmtree(directory)
        single_writer_store(directory, [first, later], shard_size=4)
        with pytest.raises(CorpusError, match="manifest log"):
            compact_store(directory)
        shutil.rmtree(directory)
        with ShardedCorpusWriter(directory, shard_size=4) as writer:
            writer.extend(first + later)
            writer.finalize()
        compact_store(directory)  # sealed: fine
        # Epoch 2 is open but unsealed (an extension opened it).
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["epoch"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorpusError, match="not sealed"):
            compact_store(directory)

    def test_refuses_in_flight_parallel_builds(self, tmp_path, sealed_store):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        # An extension's worker committed a table and was killed.
        with ShardedCorpusWriter(directory, shard_size=4, worker=1) as writer:
            writer.extend([_annotated("in-flight")])
            writer.commit(done=[0])
        with pytest.raises(CorpusError, match="parallel"):
            compact_store(directory, shard_size=NEW_SIZE)


class TestReaderMidSwap:
    def test_open_reader_never_mixes_layouts(self, tmp_path, sealed_store):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        store = ShardedJsonlStore(directory, cache_shards=1)
        by_shard: dict[int, str] = {}
        for table_id, (shard, _line) in store._locations.items():
            by_shard.setdefault(shard, table_id)
        cached = store.get(by_shard[0])
        assert cached is not None  # shard 0 now sits in the reader's cache

        compact_store(directory, shard_size=NEW_SIZE)

        # The cached shard still serves (no file read involved) ...
        assert store.get(by_shard[0]).table_id == by_shard[0]
        # ... but touching any not-yet-read shard is diagnosed as a
        # layout swap and demands a reopen — never a mixed view.
        with pytest.raises(CorpusError, match="reopen the store"):
            store.get(by_shard[1])
        reopened = ShardedJsonlStore(directory)
        assert reopened.generation == 2
        assert reopened.get(by_shard[1]).table_id == by_shard[1]

    def test_cached_shard_serves_undecoded_lines_after_sweep(self, tmp_path, sealed_store):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        store = ShardedJsonlStore(directory, cache_shards=1)
        first, second = [
            table_id for table_id, (shard, _line) in store._locations.items() if shard == 0
        ][:2]
        assert store.get(first) is not None  # reads shard 0, decodes one line

        compact_store(directory, shard_size=NEW_SIZE)

        # The sibling line was never decoded, but its bytes are resident.
        sibling = store.get(second)
        assert sibling.to_dict() == ShardedJsonlStore(directory).get(second).to_dict()


class TestCompactionCrashMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_sigkilled_compaction_converges_byte_exact(
        self, tmp_path, sealed_store, fault_injector, compaction_subprocess, point
    ):
        reference = tmp_path / "reference"
        shutil.copytree(sealed_store, reference)
        compact_store(reference, shard_size=NEW_SIZE)

        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        process = compaction_subprocess(
            directory,
            shard_size=NEW_SIZE,
            fault=fault_injector(commit_n=1, worker=None, point=point),
        )
        assert process.exitcode == -signal.SIGKILL

        # The manifest publish is the commit point: strictly before it
        # the old layout is authoritative, at or after it the new one.
        epoch, sealed, generation = read_store_version(directory)
        assert (epoch, sealed) == (1, True)
        assert generation == (2 if point == "before-sweep" else 1)
        # Whatever the wreckage, the authoritative layout reads cleanly
        # with the original content.
        store = ShardedJsonlStore(directory)
        assert store.content_fingerprint() == ShardedJsonlStore(
            sealed_store
        ).content_fingerprint()
        assert len(store) == TABLES

        report = compact_store(directory, shard_size=NEW_SIZE)
        assert report.generation == 2
        assert report.rewritten == (point != "before-sweep")
        assert directory_file_bytes(directory) == directory_file_bytes(reference)

    @pytest.mark.parametrize("point", ["before-shard-publish", "before-manifest-publish"])
    def test_pre_publish_crash_cleanup_restores_old_layout(
        self, tmp_path, sealed_store, fault_injector, compaction_subprocess, point
    ):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        process = compaction_subprocess(
            directory,
            shard_size=NEW_SIZE,
            fault=fault_injector(commit_n=1, worker=None, point=point),
        )
        assert process.exitcode == -signal.SIGKILL
        # A crashed attempt left staged/renamed leftovers behind.
        assert directory_file_bytes(directory) != directory_file_bytes(sealed_store)
        # Compacting at the current size degenerates to cleanup: the
        # directory is byte-exactly the never-compacted layout again.
        report = compact_store(directory)
        assert not report.rewritten
        assert report.generation == 1
        assert report.swept_files > 0
        assert directory_file_bytes(directory) == directory_file_bytes(sealed_store)


class TestExtensionAfterCompaction:
    def test_extension_appends_within_the_compacted_layout(
        self, tmp_path, sealed_store, compacted_reference
    ):
        original = ShardedJsonlStore(sealed_store).content_fingerprint()
        directory = tmp_path / "store"
        shutil.copytree(compacted_reference, directory)
        GitTables.load(directory).extend(target_tables=GROWN_TABLES)
        store = ShardedJsonlStore(directory)
        assert len(store) == GROWN_TABLES
        assert read_store_version(directory) == (2, True, 2)
        # New shards roll under the compacted generation's names.
        assert all(name.startswith("shard_g00002_") for name in store.shard_files())
        # The append moved past the pin: the fingerprint is structural
        # again, but artifacts keyed by the pre-compaction fingerprint
        # still identify their sealed prefix through ``compacted_from``.
        assert store.content_fingerprint() != original
        assert store.sealed_prefix_boundary(original) == TABLES


class TestServeDuringCompaction:
    def test_pool_answers_identically_and_follows_the_generation_bump(
        self, tmp_path, sealed_store
    ):
        directory = tmp_path / "store"
        shutil.copytree(sealed_store, directory)
        session = GitTables.load(directory)
        expected = {query: session.search(query, k=5) for query in QUERIES}
        with session.serve(workers=2, max_wait_ms=5.0) as service:
            for query in QUERIES:
                assert service.search(query, k=5) == expected[query]

            report = compact_store(directory, shard_size=NEW_SIZE)
            assert report.rewritten

            # Keep querying while the bump propagates: every answer must
            # stay bit-identical, before and after each worker reloads.
            deadline = time.monotonic() + 60.0
            while True:
                for query in QUERIES:
                    assert service.search(query, k=5) == expected[query]
                workers = service.metrics()["workers"]
                generations = workers["generations"]
                if generations and all(g == 2 for g in generations.values()):
                    break
                if time.monotonic() >= deadline:  # pragma: no cover
                    pytest.fail(f"workers never reloaded generation 2: {workers}")
                time.sleep(0.1)

            workers = service.metrics()["workers"]
            assert workers["store_generation"] == 2
            assert all(g == 2 for g in workers["generations"].values())
            assert all(r >= 1 for r in workers["artifact_reloads"].values())
            for query in QUERIES:
                assert service.search(query, k=5) == expected[query]


class TestMetricsGenerationSurface:
    def test_snapshot_reports_store_and_worker_generations(self):
        metrics = ServiceMetrics()
        metrics.record_worker_store("worker-00", {"epoch": 1, "generation": 2, "reloads": 1})
        metrics.record_worker_store("worker-01", {"epoch": 1, "reloads": 0})
        workers = metrics.snapshot(
            workers={"configured": 2}, store_epoch=1, store_generation=2
        )["workers"]
        assert workers["store_generation"] == 2
        # A worker that predates generations reports the default layout.
        assert workers["generations"] == {"worker-00": 2, "worker-01": 1}
        assert workers["artifact_reloads"] == {"worker-00": 1, "worker-01": 0}


class TestSingleLayoutPublish:
    """Finalize and compaction share one publish routine and one fault hook."""

    def test_layout_rewrite_lives_in_one_routine(self):
        import ast
        from pathlib import Path

        import repro.storage
        import repro.storage.parallel

        root = Path(repro.storage.__file__).parent
        replaces: list[tuple[str, str]] = []
        names: set[str] = set()
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr == "replace"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"
                    ):
                        replaces.append((path.name, function.name))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
        assert sorted(set(replaces)) == [
            ("_io.py", "atomic_replace"),
            ("sharded.py", "publish_layout"),
        ]
        gone = {
            "_ShardLineCache",
            "_committed_lines",
            "_sweep_stale_files",
            "_fire",
            "_cleanup_worker_files",
            "_fault_point",
            "read_store_epoch",
        }
        assert names & gone == set()
        assert not hasattr(repro.storage, "read_store_epoch")
        # One FaultSpec, defined next to the one hook and re-exported.
        assert repro.storage.FaultSpec is repro.storage.parallel.FaultSpec
        assert repro.storage.FaultSpec.__module__ == "repro.storage._io"
