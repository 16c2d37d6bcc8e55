"""Incremental epoch growth: delta builds, artifact refresh, crash safety.

The contract under test (see ``GitTables.extend``): growing a sealed
corpus directory appends a new **epoch** whose tables are produced by
resuming the deterministic construction stream exactly where the sealed
store left off — O(new tables) of pipeline work — and the resulting
directory is byte-identical to a from-scratch build of the larger
configuration, modulo the manifest's epoch trailer. Crashes at any
commit point of an extension (in-process or in worker processes, worker
or coordinator) must leave a resumable directory that converges to those
same bytes. Superseded index artifacts must survive until every engine
has delta-refreshed from them (the prune-ordering window).
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import sys
from itertools import islice
from pathlib import Path

import pytest

from repro.api import GitTables
from repro.applications.data_search import SEARCH_ARTIFACT
from repro.applications.schema_completion import COMPLETION_ARTIFACT
from repro.config import PipelineConfig
from repro.core.annotation import ColumnAnnotation, TableAnnotations
from repro.core.corpus import AnnotatedTable
from repro.core.annotation import AnnotationMethod
from repro.dataframe.table import Table
from repro.errors import CorpusError
from repro.github.content import GeneratorConfig
from repro.serving.metrics import ServiceMetrics
from repro.storage._io import directory_file_bytes
from repro.storage.artifacts import IndexArtifactStore
from repro.storage import columnar, parallel
from repro.storage.columnar import PROJECTION_ARTIFACT
from repro.storage.parallel import ParallelCorpusBuilder, has_parallel_state
from repro.core.pipeline import CorpusBuilder
from repro.storage.sharded import (
    ShardedCorpusWriter,
    ShardedJsonlStore,
    read_store_version,
    worker_log_filename,
)
from repro.wordnet.topics import select_topics
from tests import stats_oracle as oracle
from tests.legacy_layout import append_out_of_band, write_mid_build_view

BASE_TABLES = 24
GROWN_TABLES = 30
SHARDS = 8
BATCH = 4
SEED = 7

# A writer, reader or worker that leaks a file handle fails its test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


@pytest.fixture(scope="module")
def grow_generator():
    return GeneratorConfig(n_repositories=200, mean_rows=25, seed=SEED)


@pytest.fixture(scope="module")
def base_config():
    return PipelineConfig(target_tables=BASE_TABLES, seed=SEED)


@pytest.fixture(scope="module")
def grown_config(base_config):
    return base_config.replace(target_tables=GROWN_TABLES)


@pytest.fixture(scope="module")
def base_store(tmp_path_factory, base_config, grow_generator):
    """A sealed base-epoch directory with warmed (published) artifacts."""
    directory = tmp_path_factory.mktemp("incremental") / "base"
    session = GitTables.build(
        base_config,
        generator_config=grow_generator,
        batch_size=BATCH,
        store_dir=directory,
        shard_size=SHARDS,
    )
    _ = session.search_engine
    _ = session.completer
    return directory


@pytest.fixture(scope="module")
def grown_reference(tmp_path_factory, grown_config, grow_generator):
    """A one-shot build of the grown configuration, engines warmed and
    stats projection resolved."""
    directory = tmp_path_factory.mktemp("incremental") / "one-shot"
    session = GitTables.build(
        grown_config,
        generator_config=grow_generator,
        batch_size=BATCH,
        store_dir=directory,
        shard_size=SHARDS,
    )
    _ = session.search_engine
    _ = session.completer
    session.columnar()
    return directory


@pytest.fixture(scope="module")
def extended_reference(tmp_path_factory, base_store, grow_generator):
    """The base directory, its stats projection resolved, grown in place
    through the public facade."""
    directory = tmp_path_factory.mktemp("incremental") / "extended"
    shutil.copytree(base_store, directory)
    GitTables.load(directory).columnar()
    GitTables.load(directory).extend(target_tables=GROWN_TABLES, shard_size=SHARDS)
    return directory


def _answers(session: GitTables) -> tuple:
    searches = tuple(
        tuple(session.search(query, k=5))
        for query in ("status and total price per order", "population by city")
    )
    completions = tuple(
        tuple(session.complete_schema(prefix, k=5)) for prefix in (("id",), ("name", "city"))
    )
    return searches, completions, session.stats(), session.annotation_stats()


def _manifest_sans_epochs(directory: Path) -> dict:
    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    manifest.pop("epoch", None)
    manifest.pop("epochs", None)
    return manifest


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


class TestEpochGrowthEquality:
    def test_extend_matches_one_shot_build(self, extended_reference, grown_reference):
        assert read_store_version(extended_reference)[:2] == (2, True)
        assert read_store_version(grown_reference)[:2] == (1, True)
        assert (
            ShardedJsonlStore(extended_reference).content_fingerprint()
            == ShardedJsonlStore(grown_reference).content_fingerprint()
        )
        # Byte-identical modulo the manifest's epoch trailer.
        extended_bytes = directory_file_bytes(extended_reference)
        one_shot_bytes = directory_file_bytes(grown_reference)
        extended_bytes.pop("manifest.json")
        one_shot_bytes.pop("manifest.json")
        assert extended_bytes == one_shot_bytes
        assert _manifest_sans_epochs(extended_reference) == _manifest_sans_epochs(grown_reference)

    def test_extended_session_serves_identical_answers(
        self, extended_reference, grown_reference
    ):
        assert _answers(GitTables.load(extended_reference)) == _answers(
            GitTables.load(grown_reference)
        )

    def test_delta_refreshed_artifacts_converge(self, extended_reference, grown_reference):
        """Appending embeddings to prior-epoch artifacts reproduces the
        from-scratch artifacts bit for bit."""
        for name in (SEARCH_ARTIFACT, COMPLETION_ARTIFACT, PROJECTION_ARTIFACT):
            assert directory_file_bytes(
                Path(extended_reference) / "artifacts" / name
            ) == directory_file_bytes(Path(grown_reference) / "artifacts" / name), name

    def test_extension_parse_work_is_one_pass_over_the_tail(
        self, tmp_path, base_store, base_config, grown_config, grow_generator
    ):
        """The extension fast-forwards past the sealed epoch's stream
        prefix: topics the base build finished are never re-searched and
        the pre-marker stream is never re-parsed, so parse work is one
        pass over the post-marker tail. The only admissible excess over
        the one-shot delta is files the base *rejected* under an earlier
        (now skipped) topic resurfacing under a later one — bounded by
        the one-shot run's duplicate-URL count."""
        base_run = CorpusBuilder(
            base_config, generator_config=grow_generator, batch_size=BATCH
        ).build()
        grown_run = CorpusBuilder(
            grown_config, generator_config=grow_generator, batch_size=BATCH
        ).build()
        base_parses = base_run.parsing_report.attempted
        grown_parses = grown_run.parsing_report.attempted
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        extension = CorpusBuilder(
            grown_config, generator_config=grow_generator, batch_size=BATCH
        ).build(store_dir=directory, shard_size=SHARDS, extend=True)
        delta = grown_parses - base_parses
        report = extension.pipeline_report
        assert delta <= report.stage("parsing").items_in
        assert (
            report.stage("parsing").items_in
            <= delta + grown_run.extraction_report.duplicate_urls
        )
        # The sealed build's finished topics are skipped outright: the
        # extension's topic list is a suffix of the one-shot run's.
        grown_topics = grown_run.extraction_report.topics
        ext_topics = extension.extraction_report.topics
        assert ext_topics == grown_topics[len(grown_topics) - len(ext_topics) :]
        # The pre-marker stream is resolved without being downloaded.
        enumerated = extension.extraction_report.total_urls - extension.extraction_report.duplicate_urls
        assert report.stage("extraction").items_in < enumerated

    def test_degenerate_extension_reuses_sealed_store(self, tmp_path, base_store):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        before = directory_file_bytes(directory)
        session = GitTables.load(directory).extend(target_tables=BASE_TABLES)
        assert read_store_version(directory)[:2] == (1, True)
        assert directory_file_bytes(directory) == before
        assert len(session.corpus) == BASE_TABLES

    def test_extend_requires_store_backing(self, grow_generator):
        session = GitTables.build(
            PipelineConfig(target_tables=6, seed=SEED), generator_config=grow_generator
        )
        with pytest.raises(CorpusError, match="store"):
            session.extend(target_tables=8)

    def test_shrinking_extension_rejected(self, tmp_path, base_store):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        with pytest.raises(CorpusError):
            GitTables.load(directory).extend(target_tables=BASE_TABLES - 8)

    def test_extension_without_build_meta_rejected(self, tmp_path, base_store):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        (directory / "build.json").unlink()
        with pytest.raises(CorpusError):
            GitTables.load(directory).extend(target_tables=GROWN_TABLES)


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    """Relative path -> content of every file under ``directory``."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(Path(directory).rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("processes", [1, 2])
class TestExtensionWithoutArtifacts:
    """``use_artifacts=False`` holds through ``extend``: nothing under
    ``artifacts/`` is read, written or pruned."""

    def test_extend_leaves_artifacts_untouched(
        self, tmp_path, grow_generator, processes, monkeypatch
    ):
        from repro.storage import artifacts as artifacts_module

        directory = tmp_path / "store"
        GitTables.build(
            PipelineConfig(target_tables=20, seed=SEED),
            generator_config=grow_generator,
            batch_size=BATCH,
            store_dir=directory,
            shard_size=4,
        ).warm()
        before = _tree_bytes(directory / "artifacts")
        assert any(name.startswith(COMPLETION_ARTIFACT) for name in before)

        def refuse(*args, **kwargs):
            raise AssertionError("an artifact was read or published")

        monkeypatch.setattr(artifacts_module.IndexArtifactStore, "load", refuse)
        monkeypatch.setattr(artifacts_module.IndexArtifactStore, "publish", refuse)
        session = GitTables.load(directory, use_artifacts=False).extend(
            target_tables=24, shard_size=4, processes=processes
        )
        assert session.corpus.artifacts is None
        assert len(session.corpus) == 24
        assert _tree_bytes(directory / "artifacts") == before


def _interrupt_build(monkeypatch, directory, config, generator, extend: bool, after: int = 1):
    """Run a one-process build into ``directory`` and kill it after ``after`` commits."""
    original_commit = ShardedCorpusWriter.commit
    calls = {"n": 0}

    def killed_commit(writer, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > after:
            raise KeyboardInterrupt("simulated kill")
        return original_commit(writer, *args, **kwargs)

    monkeypatch.setattr(ShardedCorpusWriter, "commit", killed_commit)
    with pytest.raises(KeyboardInterrupt):
        CorpusBuilder(config, generator_config=generator, batch_size=BATCH).build(
            store_dir=directory, shard_size=SHARDS, extend=extend
        )
    monkeypatch.undo()


class TestSerialExtensionCrash:
    def test_interrupted_extension_resumes_byte_identical(
        self, tmp_path, monkeypatch, base_store, grown_config, grow_generator, extended_reference
    ):
        """Kill a one-process extension between commits; resuming with
        ``extend=True`` converges to the uninterrupted extension bytes."""
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        _interrupt_build(monkeypatch, directory, grown_config, grow_generator, extend=True)

        # The wreckage: readers still see the sealed base epoch; the
        # committed batch of new tables lives in the worker's log.
        assert read_store_version(directory)[:2] == (1, True)
        assert len(ShardedJsonlStore(directory)) == BASE_TABLES
        assert (directory / worker_log_filename(0)).stat().st_size > 0
        assert has_parallel_state(directory)

        CorpusBuilder(grown_config, generator_config=grow_generator, batch_size=BATCH).build(
            store_dir=directory, shard_size=SHARDS, extend=True
        )
        assert read_store_version(directory)[:2] == (2, True)
        assert directory_file_bytes(directory) == directory_file_bytes(extended_reference)


class TestManifestPublishes:
    """Only a publish writes ``manifest.json``: once per build and once
    per extension, whatever the process count."""

    @pytest.mark.parametrize("processes", [1, 2])
    def test_manifest_is_replaced_once_per_build_and_extend(
        self, tmp_path, monkeypatch, base_config, grown_config, grow_generator, processes
    ):
        replaced: list[str] = []
        real_replace = os.replace

        def recording_replace(source, target, *args, **kwargs):
            if Path(target).name == "manifest.json":
                replaced.append(str(target))
            return real_replace(source, target, *args, **kwargs)

        monkeypatch.setattr(os, "replace", recording_replace)
        directory = tmp_path / "store"
        for config, extend in ((base_config, False), (grown_config, True)):
            CorpusBuilder(config, generator_config=grow_generator, batch_size=BATCH).build(
                store_dir=directory, shard_size=SHARDS, processes=processes, extend=extend
            )
        assert len(replaced) == 2
        assert read_store_version(directory)[:2] == (2, True)


class TestLegacyMidBuildView:
    """A directory an older coordinator left mid-build — worker logs plus
    a merged ``manifest.json`` marked ``"parallel"`` — still resumes to
    the reference bytes."""

    def test_fresh_build_resumes(self, tmp_path, monkeypatch, base_config, grow_generator):
        reference = tmp_path / "reference"
        CorpusBuilder(base_config, generator_config=grow_generator, batch_size=BATCH).build(
            store_dir=reference, shard_size=SHARDS
        )
        directory = tmp_path / "store"
        _interrupt_build(monkeypatch, directory, base_config, grow_generator, extend=False, after=2)
        view = write_mid_build_view(directory, SHARDS, processes=1)
        assert view["parallel"]["first_topic"] == 0
        assert 0 < len(view["tables"]) < BASE_TABLES
        assert has_parallel_state(directory)
        result = CorpusBuilder(base_config, generator_config=grow_generator, batch_size=BATCH).build(
            store_dir=directory, shard_size=SHARDS, processes=2
        )
        assert result.table_count == BASE_TABLES
        assert directory_file_bytes(directory) == directory_file_bytes(reference)

    def test_extension_resumes(
        self,
        tmp_path,
        monkeypatch,
        base_store,
        base_config,
        grown_config,
        grow_generator,
        extended_reference,
    ):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        _interrupt_build(monkeypatch, directory, grown_config, grow_generator, extend=True)
        # The view pins the topic the extension's enumeration started at:
        # the last sealed table's.
        store = ShardedJsonlStore(directory)
        last_topic = store.get(list(store.table_ids())[-1]).topic
        topics = select_topics(base_config.extraction.topic_count, seed=base_config.seed).topics
        view = write_mid_build_view(
            directory, SHARDS, processes=2, first_topic=topics.index(last_topic)
        )
        assert view["epoch"] == 2 and view["epochs"] == [BASE_TABLES]
        assert len(view["tables"]) > BASE_TABLES
        CorpusBuilder(grown_config, generator_config=grow_generator, batch_size=BATCH).build(
            store_dir=directory, shard_size=SHARDS, extend=True
        )
        assert read_store_version(directory)[:2] == (2, True)
        assert directory_file_bytes(directory) == directory_file_bytes(extended_reference)


class TestStaleSession:
    """A session opened before another one grew the store cannot damage
    the grown store's artifacts."""

    def test_stale_session_leaves_the_grown_store_artifacts_alone(
        self, tmp_path, monkeypatch, base_store
    ):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        stale = GitTables.load(directory)
        grower = GitTables.load(directory).warm()
        grower.extend(target_tables=GROWN_TABLES, shard_size=SHARDS)
        artifacts = IndexArtifactStore.for_corpus_dir(directory)
        grown = _tree_bytes(artifacts.directory)
        assert {SEARCH_ARTIFACT, COMPLETION_ARTIFACT} <= set(artifacts.names())

        for touch in (
            stale.stats,
            stale.columnar,
            lambda: stale.search("status and total price per order"),
        ):
            touch()
            assert _tree_bytes(artifacts.directory) == grown

        # A fresh session adopts both engines: it publishes nothing.
        published: list[str] = []
        real_publish = IndexArtifactStore.publish

        def recording_publish(store, name, *args, **kwargs):
            published.append(name)
            return real_publish(store, name, *args, **kwargs)

        monkeypatch.setattr(IndexArtifactStore, "publish", recording_publish)
        fresh = GitTables.load(directory).warm()
        assert published == []
        assert len(fresh.corpus) == GROWN_TABLES


def _crash_parallel_extension(
    directory, base_store, config, generator, fault, attempts=8
):
    """Run a worker-faulted extension until the fault actually fires.

    Fast-forwarded extensions dispatch only the post-marker tail, so the
    fault's victim worker occasionally draws no wave at all (assignment
    is load-driven) and survives; rebuild the directory and retry — the
    property under test is the *resume* after the crash, not the odds of
    crashing.
    """
    for _ in range(attempts):
        if directory.exists():
            shutil.rmtree(directory)
        shutil.copytree(base_store, directory)
        builder = CorpusBuilder(config=config, generator_config=generator, batch_size=BATCH)
        try:
            ParallelCorpusBuilder(builder, processes=2, fault=fault).build(
                directory, shard_size=SHARDS, extend=True
            )
        except CorpusError as error:
            assert "worker 0 died" in str(error)
            return
    pytest.fail(f"fault {fault.point!r} never fired in {attempts} attempts")


class TestParallelExtensionCrash:
    def _extend_parallel(self, directory, config, generator, processes=2, fault=None):
        builder = CorpusBuilder(
            config=config, generator_config=generator, batch_size=BATCH
        )
        return ParallelCorpusBuilder(builder, processes=processes, fault=fault).build(
            directory, shard_size=SHARDS, extend=True
        )

    def test_parallel_extension_matches_serial_bytes(
        self, tmp_path, base_store, grown_config, grow_generator, extended_reference
    ):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        result = self._extend_parallel(directory, grown_config, grow_generator)
        assert result.table_count == GROWN_TABLES
        assert read_store_version(directory)[:2] == (2, True)
        assert directory_file_bytes(directory) == directory_file_bytes(extended_reference)

    @pytest.mark.parametrize(
        "point",
        ["before-shard-append", "before-log-append", "torn-log-append", "after-log-append"],
    )
    def test_worker_killed_mid_extension_then_resume(
        self,
        tmp_path,
        base_store,
        grown_config,
        grow_generator,
        fault_injector,
        extended_reference,
        point,
    ):
        directory = tmp_path / "store"
        fault = fault_injector(commit_n=1, worker=0, point=point)
        _crash_parallel_extension(directory, base_store, grown_config, grow_generator, fault)
        # Resume the crashed extension; same final bytes as the serial
        # uninterrupted extension.
        result = self._extend_parallel(directory, grown_config, grow_generator)
        assert result.table_count == GROWN_TABLES
        assert read_store_version(directory)[:2] == (2, True)
        assert directory_file_bytes(directory) == directory_file_bytes(extended_reference)

    def test_coordinator_killed_before_manifest_publish_then_resume(
        self,
        tmp_path,
        base_store,
        grown_config,
        grow_generator,
        fault_injector,
        parallel_build_subprocess,
        extended_reference,
    ):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        fault = fault_injector(commit_n=1, worker=None, point="before-manifest-publish")
        crashed = parallel_build_subprocess(
            directory,
            grown_config,
            grow_generator,
            processes=2,
            fault=fault,
            batch_size=BATCH,
            shard_size=SHARDS,
            extend=True,
        )
        assert crashed.exitcode != 0
        resumed = parallel_build_subprocess(
            directory,
            grown_config,
            grow_generator,
            processes=2,
            batch_size=BATCH,
            shard_size=SHARDS,
            extend=True,
        )
        assert resumed.exitcode == 0
        assert read_store_version(directory)[:2] == (2, True)
        assert directory_file_bytes(directory) == directory_file_bytes(extended_reference)


class TestParallelFastForward:
    """The canonical prefix's high-water mark: stream enumeration
    fast-forwards to the sealed build's last committed URL, resolving
    the prefix's rejected URLs *without dispatching them to workers* —
    so extension parse work is one pass over the post-marker tail, not
    a re-parse of the whole stream."""

    def _extend_parallel(self, directory, config, generator, fault=None):
        builder = CorpusBuilder(
            config=config, generator_config=generator, batch_size=BATCH
        )
        return ParallelCorpusBuilder(builder, processes=2, fault=fault).build(
            directory, shard_size=SHARDS, extend=True
        )

    @pytest.fixture()
    def parse_budget(self, base_config, grown_config, grow_generator):
        """(tail delta, duplicate-URL slack) of the one-shot serial runs."""
        base_run = CorpusBuilder(
            base_config, generator_config=grow_generator, batch_size=BATCH
        ).build()
        grown_run = CorpusBuilder(
            grown_config, generator_config=grow_generator, batch_size=BATCH
        ).build()
        delta = grown_run.parsing_report.attempted - base_run.parsing_report.attempted
        return delta, grown_run.extraction_report.duplicate_urls

    def test_parallel_extension_parse_work_is_one_pass_over_the_tail(
        self, tmp_path, base_store, grown_config, grow_generator, parse_budget
    ):
        delta, duplicates = parse_budget
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        extension = self._extend_parallel(directory, grown_config, grow_generator)
        assert len(extension.corpus) == GROWN_TABLES
        # Parallel parse work lives in the merged cross-worker stage
        # counters (the sealed base build's checkpoints were cleared at
        # its finalize, so this is exactly the extension's own work).
        # The only admissible excess over the one-shot delta is prefix
        # URLs the base *rejected* resurfacing under post-marker topics
        # — bounded by the one-shot run's duplicate-URL count.
        attempted = extension.pipeline_report.stage("parsing").items_in
        assert 0 < attempted <= delta + duplicates

    def test_resumed_crashed_extension_parse_work_is_o_tail(
        self, tmp_path, base_store, grown_config, grow_generator, fault_injector, parse_budget
    ):
        delta, duplicates = parse_budget
        directory = tmp_path / "store"
        fault = fault_injector(commit_n=1, worker=0, point="before-log-append")
        _crash_parallel_extension(directory, base_store, grown_config, grow_generator, fault)
        # The resume fast-forwards too: with the canonical portion still
        # exactly the sealed base epoch, the crashed attempt plus the
        # resume together parse at most two passes over the tail — never
        # the O(corpus) re-parse of the pre-marker stream.
        resumed = self._extend_parallel(directory, grown_config, grow_generator)
        assert len(resumed.corpus) == GROWN_TABLES
        attempted = resumed.pipeline_report.stage("parsing").items_in
        assert 0 < attempted <= 2 * (delta + duplicates)


class TestPruneOrderingWindow:
    def test_prior_epoch_artifacts_survive_until_engines_republish(
        self, tmp_path, base_store, grown_config, grow_generator
    ):
        """An extension's finalize publishes the grown projection of a
        store that has one but must NOT prune the superseded
        search/completion artifacts: the engines delta-refresh *from*
        them. Only after every engine has republished is the prior
        epoch's state garbage."""
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        GitTables.load(directory).columnar()
        old_fingerprint = ShardedJsonlStore(directory).content_fingerprint()

        CorpusBuilder(grown_config, generator_config=grow_generator, batch_size=BATCH).build(
            store_dir=directory, shard_size=SHARDS, extend=True
        )
        new_fingerprint = ShardedJsonlStore(directory).content_fingerprint()
        assert new_fingerprint != old_fingerprint

        artifacts = IndexArtifactStore.for_corpus_dir(directory)
        # The crash window: the store already describes the new epoch,
        # yet the superseded engine artifacts are still on disk — a
        # session starting here can still delta-refresh.
        for name in (SEARCH_ARTIFACT, COMPLETION_ARTIFACT):
            stale = artifacts.load(name)
            assert stale is not None, name
            assert stale.fingerprint["corpus"] == old_fingerprint, name
        projection = artifacts.load(PROJECTION_ARTIFACT)
        assert projection is not None
        assert projection.fingerprint["corpus"] == new_fingerprint

        session = GitTables.load(directory)
        _ = session.search_engine
        _ = session.completer
        for name in (SEARCH_ARTIFACT, COMPLETION_ARTIFACT):
            refreshed = artifacts.load(name)
            assert refreshed.fingerprint["corpus"] == new_fingerprint, name
        # Everything now keys to the grown corpus: nothing left to prune.
        assert artifacts.prune(new_fingerprint) == []


class TestLazyProjection:
    """A build never resolves the stats projection; an extension refreshes
    one the store already has, over the tail tables only."""

    def test_extension_extends_an_existing_projection(
        self, tmp_path, base_store, monkeypatch
    ):
        directory = tmp_path / "store"
        shutil.copytree(base_store, directory)
        GitTables.load(directory).columnar()
        # Every projection scan, (first table ordinal, table ids): a
        # from-scratch build scans from 0, an extension from its boundary.
        scans: list[tuple[int, list[str]]] = []
        real_scan = columnar._scan_tables

        def recording_scan(tables, start, vocabs):
            tables = list(tables)
            scans.append((start, [annotated.table_id for annotated in tables]))
            return real_scan(tables, start, vocabs)

        monkeypatch.setattr(columnar, "_scan_tables", recording_scan)
        session = GitTables.load(directory).extend(target_tables=GROWN_TABLES, shard_size=SHARDS)
        tail = list(session.corpus.store.table_ids())[BASE_TABLES:]
        assert scans == [(BASE_TABLES, tail)]
        # Republished under the grown fingerprint, and kept by the
        # facade's post-extend prune.
        published = IndexArtifactStore.for_corpus_dir(directory).load(PROJECTION_ARTIFACT)
        assert published.fingerprint["corpus"] == session.corpus.store.content_fingerprint()
        assert session.stats() == oracle.corpus_statistics(session.corpus)
        assert len(scans) == 1

    @pytest.mark.parametrize("prior_projection", [False, True])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_statistics_equal_the_oracle_after_build_and_extend(
        self, tmp_path, base_config, grow_generator, processes, prior_projection
    ):
        def assert_equal_oracle(session: GitTables) -> None:
            corpus = session.result.corpus
            assert session.result.curation_report == oracle.curation_report(corpus)
            assert session.stats() == oracle.corpus_statistics(corpus)
            assert session.annotation_stats() == oracle.annotation_statistics(corpus)

        directory = tmp_path / "store"
        session = GitTables.build(
            base_config,
            generator_config=grow_generator,
            batch_size=BATCH,
            store_dir=directory,
            shard_size=SHARDS,
            processes=processes,
        )
        pristine = tmp_path / "pristine"
        shutil.copytree(directory, pristine)
        assert_equal_oracle(session)
        grown = session if prior_projection else GitTables.load(pristine)
        grown.extend(target_tables=GROWN_TABLES, shard_size=SHARDS, processes=processes)
        names = IndexArtifactStore.for_corpus_dir(grown.corpus.store.directory).names()
        assert (PROJECTION_ARTIFACT in names) is prior_projection
        assert_equal_oracle(grown)

    def test_result_kept_from_before_an_extension(self, tmp_path, base_config, grow_generator):
        """A result first read after its store grew reports its own build,
        and its late resolve prunes none of the grown store's artifacts."""
        directory = tmp_path / "store"
        session = GitTables.build(
            base_config,
            generator_config=grow_generator,
            batch_size=BATCH,
            store_dir=directory,
            shard_size=SHARDS,
        )
        kept = session.result
        session.extend(target_tables=GROWN_TABLES, shard_size=SHARDS)
        assert kept.curation_report == oracle.curation_report(kept.corpus)
        assert kept.curation_report.tables_processed == BASE_TABLES
        grown_fingerprint = ShardedJsonlStore(directory).content_fingerprint()
        artifacts = IndexArtifactStore.for_corpus_dir(directory)
        for name in (SEARCH_ARTIFACT, COMPLETION_ARTIFACT):
            assert artifacts.load(name).fingerprint["corpus"] == grown_fingerprint, name


def _enumeration(directory, config, payloads: dict) -> "parallel._CoordinatorRun":
    """A coordinator over ``directory`` that enumerated ``payloads``.

    ``payloads`` maps each topic of ``config`` to the URLs its search
    returns; the coordinator folds them into its stream as it does
    with real search answers.
    """
    builder = CorpusBuilder(config, generator_config=GeneratorConfig(seed=SEED))
    state = parallel._read_store_state(directory)
    run = parallel._CoordinatorRun(
        ParallelCorpusBuilder(builder, processes=1),
        directory,
        tuple(payloads),
        {},
        state,
    )
    for topic, urls in payloads.items():
        run.searched[topic] = [
            {"url": url, "repository": "octo/data", "path": url, "size_bytes": 1} for url in urls
        ]
    run._emit_ready_topics()
    return run


def _prefix_store(directory, table_ids) -> None:
    """A sealed store holding ``table_ids`` (source URLs ``<id>.csv``)."""
    with ShardedCorpusWriter(directory, shard_size=SHARDS) as writer:
        writer.extend([_annotated(table_id) for table_id in table_ids])
        writer.finalize()


def _url(table_id: str) -> str:
    return f"https://github.com/octo/data/blob/main/{table_id}.csv"


class TestFastForwardSkip:
    """Stream enumeration over a canonical prefix: every URL up to the
    prefix's last table is resolved without being dispatched, and a
    prefix table resurfacing later is resolved too."""

    def test_marker_drops_unprocessed_rejects_in_prefix(self, tmp_path):
        _prefix_store(tmp_path, ["a", "b"])
        urls = [_url(name) for name in ("a", "x", "b", "c", "d")]
        run = _enumeration(tmp_path, PipelineConfig(seed=SEED), {"id": urls})
        assert [unit.url for unit in run._next_wave()] == urls[3:]
        assert run.resolved == {0, 1, 2}
        assert run.frontier() == (3, 2)

    def test_membership_still_applies_after_marker(self, tmp_path):
        _prefix_store(tmp_path, ["a", "c", "b"])
        urls = [_url(name) for name in ("a", "b", "c", "d")]
        run = _enumeration(tmp_path, PipelineConfig(seed=SEED), {"id": urls})
        assert [unit.url for unit in run._next_wave()] == [_url("d")]
        assert list(islice(run.final_sequence(), 3)) == run.prefix

    def test_marker_is_the_last_canonical_table(self, tmp_path):
        _prefix_store(tmp_path, ["t000", "t001"])
        run = _enumeration(
            tmp_path, PipelineConfig(seed=SEED), {"organism": [], "id": [], "order": []}
        )
        assert run.marker == _url("t001")
        # Enumeration starts at the marker table's topic: the topics
        # before it were finished by the sealed build.
        assert run.first_topic == 1
        assert run.extraction_report().topics == ["id", "order"]


class TestSealedPrefixBoundary:
    """The store recognizes prior sealed epochs by manifest fingerprint."""

    def test_boundary_recovers_the_sealed_epoch(self, tmp_path, base_store, extended_reference):
        base_key = ShardedJsonlStore(base_store).content_fingerprint()
        extended = ShardedJsonlStore(extended_reference)
        assert extended.sealed_prefix_boundary(base_key) == BASE_TABLES
        # The current state is not a *prior* epoch, and junk matches nothing.
        assert extended.sealed_prefix_boundary(extended.content_fingerprint()) is None
        assert extended.sealed_prefix_boundary("not-a-fingerprint") is None
        assert extended.sealed_prefix_boundary(None) is None

    def test_boundary_inside_a_partially_filled_shard(self, tmp_path):
        """Extensions fill the sealed epoch's partial final shard before
        rolling new ones, so the seal boundary usually falls *inside* a
        shard; the reconstruction must truncate that shard's entry to
        the lines the earlier epoch had committed."""
        directory = tmp_path / "store"
        with ShardedCorpusWriter(directory, shard_size=7) as writer:
            writer.extend([_annotated(f"t{i:03d}") for i in range(10)])
            writer.commit()
            writer.finalize()
        base_key = ShardedJsonlStore(directory).content_fingerprint()
        # Epoch 2 appends three tables, the first two into the partial shard.
        append_out_of_band(directory, [_annotated(f"t{i:03d}") for i in range(10, 13)], epoch=2)
        store = ShardedJsonlStore(directory)
        assert [e["count"] for e in store._manifest["shards"]] == [7, 6]
        assert store.sealed_prefix_boundary(base_key) == 10

    def test_iter_from_matches_full_iteration_tail(self, extended_reference):
        store = ShardedJsonlStore(extended_reference)
        everything = [annotated.table_id for annotated in store]
        tail = [annotated.table_id for annotated in store.iter_from(BASE_TABLES)]
        assert tail == everything[BASE_TABLES:]
        assert list(store.iter_from(len(store))) == []

    def test_iter_schemas_start_skips_prefix_shards(self, extended_reference):
        from repro.core.corpus import GitTablesCorpus

        corpus = GitTablesCorpus(store=ShardedJsonlStore(extended_reference))
        full = list(corpus.iter_schemas())
        assert list(corpus.iter_schemas(start=BASE_TABLES)) == full[BASE_TABLES:]


class TestMetricsEpochSurface:
    def test_snapshot_reports_store_epoch_and_reloads(self):
        metrics = ServiceMetrics()
        metrics.record_worker_store("worker-00", {"epoch": 2, "reloads": 1})
        metrics.record_worker_store("worker-01", {"epoch": 1, "reloads": 0})
        workers = metrics.snapshot(workers={"configured": 2}, store_epoch=2)["workers"]
        assert workers["store_epoch"] == 2
        assert workers["epochs"] == {"worker-00": 2, "worker-01": 1}
        assert workers["artifact_reloads"] == {"worker-00": 1, "worker-01": 0}


class TestBenchRegressionGate:
    @pytest.fixture()
    def bench_module(self):
        root = Path(__file__).resolve().parent.parent
        sys.path.insert(0, str(root))
        try:
            spec = importlib.util.spec_from_file_location(
                "bench_script", root / "scripts" / "bench.py"
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            yield module
        finally:
            sys.path.remove(str(root))

    def test_compare_flags_only_throughput_regressions(self, bench_module, tmp_path):
        baseline = tmp_path / "BENCH_x.json"
        baseline.write_text(
            json.dumps(
                {
                    "tables_per_second": 100.0,
                    "search_qps": 50.0,
                    "build_seconds": 10.0,
                    "results_equal": True,
                }
            )
        )
        fresh = {
            "tables_per_second": 75.0,  # -25% — beyond the 20% tolerance
            "search_qps": 45.0,  # -10% — within tolerance
            "build_seconds": 99.0,  # absolute seconds are never gated
            "results_equal": False,  # booleans are never gated
        }
        regressions = bench_module.compare_against_baseline(baseline, fresh)
        assert len(regressions) == 1
        assert regressions[0].startswith("tables_per_second")

    def test_compare_passes_within_tolerance(self, bench_module, tmp_path):
        baseline = tmp_path / "BENCH_x.json"
        baseline.write_text(json.dumps({"tables_per_second": 100.0}))
        assert bench_module.compare_against_baseline(baseline, {"tables_per_second": 90.0}) == []
