"""Crash/concurrency harness for store builds under any process count.

The contract under test (see :mod:`repro.storage.parallel`): a
``processes=N`` build finalizes a directory **byte-identical** to a
one-process build of the same configuration (and to the in-memory
build saved), and stays resumable to that same byte-identical directory
after SIGKILLing any worker at any commit point, killing the
coordinator during finalize/compaction, or switching the process count
between sessions.

The fault injector (``fault_injector`` fixture, built on
:class:`repro.storage.parallel.FaultSpec`) and the subprocess build
runner live in ``tests/conftest.py``.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro._procs import build_mp_context
from repro.api import GitTables
from repro.config import ExtractionConfig, PipelineConfig
from repro.core.corpus import AnnotatedTable, GitTablesCorpus
from repro.core.pipeline import CorpusBuilder
from repro.dataframe.table import Table
from repro.errors import CorpusError
from repro.github.content import GeneratorConfig
from repro.storage import BuildCheckpoint, ShardedCorpusWriter, ShardedJsonlStore
from repro.storage._io import directory_file_bytes as _dir_bytes
from repro.storage.checkpoint import worker_checkpoint_ids
from repro.storage import parallel
from repro.storage._io import FaultSpec
from repro.storage.parallel import ParallelCorpusBuilder, has_parallel_state
from repro.storage.sharded import worker_log_filename, worker_shard_filename
from tests.legacy_layout import single_writer_store

BATCH = 8
SHARDS = 8

# A writer, reader or worker that leaks a file handle fails its test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


@pytest.fixture(scope="module")
def par_config():
    return PipelineConfig(
        extraction=ExtractionConfig(topic_count=8), target_tables=40, seed=7
    )


@pytest.fixture(scope="module")
def par_generator():
    return GeneratorConfig(n_repositories=100, mean_rows=25, seed=7)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory, par_config, par_generator):
    """A one-shot one-process build: the byte-level ground truth, checked
    against the in-memory build saved to a directory."""
    store = tmp_path_factory.mktemp("serial-ref") / "store"
    result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
        store_dir=store, shard_size=SHARDS
    )
    saved = tmp_path_factory.mktemp("serial-ref") / "saved"
    CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build().corpus.save(
        saved, shard_size=SHARDS
    )
    built = _dir_bytes(store)
    built.pop("build.json")
    assert built == _dir_bytes(saved)
    return store, result




def _parallel_build(store_dir, config, generator, processes, fault=None):
    builder = CorpusBuilder(config=config, generator_config=generator, batch_size=BATCH)
    return ParallelCorpusBuilder(builder, processes=processes, fault=fault).build(
        store_dir, shard_size=SHARDS
    )


class TestByteIdentity:
    def test_four_process_build_matches_serial_bytes(
        self, tmp_path, par_config, par_generator, serial_reference
    ):
        """The headline acceptance: 4 processes, same bytes as serial."""
        reference_dir, reference = serial_reference
        store = tmp_path / "store"
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=4
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)
        # No worker-scoped residue, no checkpoints.
        assert BuildCheckpoint.load(store) is None
        assert worker_checkpoint_ids(store) == []
        assert not has_parallel_state(store)
        # The corpora read back equal, table for table.
        assert [a.to_dict() for a in result.corpus] == [
            a.to_dict() for a in reference.corpus
        ]

    def test_parallel_report_accounts_for_all_work(
        self, tmp_path, par_config, par_generator
    ):
        store = tmp_path / "store"
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=3
        )
        report = result.pipeline_report
        assert report.sessions == 1
        assert report.items_collected == par_config.target_tables
        # Workers annotate only filter survivors, and at least every
        # table that made the corpus.
        assert report.stage("annotation").items_in >= par_config.target_tables
        assert report.stage("parsing").items_in >= report.stage("annotation").items_in
        assert report.stage("extraction").items_out == report.stage("parsing").items_in
        # Legacy curation stats are rebuilt from corpus metadata.
        assert result.curation_report.tables_processed == par_config.target_tables
        assert result.extraction_report.api_requests > 0

    def test_processes_config_field_is_honoured(
        self, tmp_path, par_generator, par_config, serial_reference
    ):
        """The process count is the build argument of the facade too (it is
        not a config field), and a facade build at 2 processes finalizes the
        serial bytes."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        GitTables.build(
            par_config,
            generator_config=par_generator,
            batch_size=BATCH,
            store_dir=store,
            shard_size=SHARDS,
            processes=2,
        )
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_invalid_process_counts_rejected(self, tmp_path):
        builder = CorpusBuilder(config=PipelineConfig(target_tables=5))
        # Rejected for every build, in-memory ones included.
        for store_dir in (None, tmp_path / "store"):
            with pytest.raises(CorpusError, match="processes must be >= 1"):
                builder.build(store_dir=store_dir, processes=0)
        with pytest.raises(CorpusError, match="processes must be >= 1"):
            GitTables.build(PipelineConfig(target_tables=5), processes=0)
        with pytest.raises(CorpusError):
            ParallelCorpusBuilder(builder, processes=0)
        with pytest.raises(CorpusError):
            ParallelCorpusBuilder(builder, processes=100)


class TestWorkerCrashInjection:
    """SIGKILL a worker mid-commit; resume must reach the serial bytes."""

    @pytest.mark.parametrize(
        "point",
        ["before-shard-append", "before-log-append", "torn-log-append", "after-log-append"],
    )
    def test_kill_worker_mid_commit_then_resume(
        self, tmp_path, par_config, par_generator, serial_reference, fault_injector, point
    ):
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        fault = fault_injector(commit_n=2, worker=1, point=point)
        with pytest.raises(CorpusError, match="worker 1 died"):
            _parallel_build(store, par_config, par_generator, processes=3, fault=fault)
        # The wreckage is a resumable parallel directory.
        assert has_parallel_state(store)
        assert BuildCheckpoint.load(store) is not None
        # Resume under a *different* process count; same final bytes.
        result = _parallel_build(store, par_config, par_generator, processes=2)
        assert result.table_count == par_config.target_tables
        assert result.pipeline_report.sessions == 2
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_torn_log_tail_is_truncated_on_worker_resume(
        self, tmp_path, par_config, par_generator, fault_injector
    ):
        store = tmp_path / "store"
        fault = fault_injector(commit_n=2, worker=0, point="torn-log-append")
        with pytest.raises(CorpusError):
            _parallel_build(store, par_config, par_generator, processes=2, fault=fault)
        log_path = store / worker_log_filename(0)
        torn_size = log_path.stat().st_size
        data = log_path.read_bytes()
        assert not data.endswith(b"\n")  # the tear is really on disk
        writer = ShardedCorpusWriter(store, shard_size=SHARDS, worker=0)
        assert log_path.stat().st_size < torn_size
        assert log_path.read_bytes().endswith(b"\n")
        # Only complete records survived the replay.
        assert writer.committed_count == len(writer._tables)
        writer.close()

    def test_mid_build_directory_refuses_to_load(
        self,
        tmp_path,
        par_config,
        par_generator,
        serial_reference,
        fault_injector,
        parallel_build_subprocess,
    ):
        """A fresh build killed before its publish has no corpus to read:
        loading names the resume, and the resume reaches the reference."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        process = parallel_build_subprocess(
            store,
            par_config,
            par_generator,
            processes=3,
            fault=fault_injector(commit_n=1, worker=None, point="before-manifest-publish"),
        )
        assert process.exitcode == -signal.SIGKILL
        assert not (store / "manifest.json").exists()
        assert has_parallel_state(store)
        with pytest.raises(CorpusError, match="re-run the build to resume"):
            GitTablesCorpus.load(store)
        result = _parallel_build(store, par_config, par_generator, processes=2)
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)


class TestCoordinatorCrashInjection:
    """Kill the build during finalize (compaction) and mid-dispatch."""

    @pytest.mark.parametrize(
        "point", ["before-shard-publish", "before-manifest-publish", "before-sweep"]
    )
    def test_kill_during_finalize_then_resume(
        self,
        tmp_path,
        par_config,
        par_generator,
        serial_reference,
        fault_injector,
        parallel_build_subprocess,
        point,
    ):
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        process = parallel_build_subprocess(
            store,
            par_config,
            par_generator,
            processes=3,
            fault=fault_injector(commit_n=1, worker=None, point=point),
        )
        assert process.exitcode == -signal.SIGKILL
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=2
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_kill_coordinator_mid_build_then_resume(
        self, tmp_path, par_config, par_generator, serial_reference, parallel_build_entry
    ):
        """SIGKILL the whole coordinator while workers are running."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        ctx = build_mp_context()
        process = ctx.Process(
            target=parallel_build_entry,
            args=(str(store), par_config, par_generator, 3, None, BATCH, SHARDS),
        )
        process.start()
        deadline = time.monotonic() + 60.0
        # Wait for evidence of committed parallel work, then kill.
        while time.monotonic() < deadline:
            if any(store.glob("manifest-*.log")):
                break
            if process.exitcode is not None:  # pragma: no cover - too fast
                break
            time.sleep(0.01)
        if process.exitcode is None:
            os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        # Orphaned workers notice the dead coordinator and exit on
        # their own (and until they do, their scope locks keep a
        # resumed session from touching their files); give them a
        # moment so the resume below does not have to wait on locks.
        time.sleep(3.0)
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=3
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)


@dataclass(frozen=True)
class _StampedKill(FaultSpec):
    """A worker fault that records its instant (``time.monotonic()``,
    system-wide on Linux) in the file ``stamp`` before the SIGKILL."""

    stamp: str = ""

    def fire(self) -> None:
        Path(self.stamp).write_text(repr(time.monotonic()))
        super().fire()


@pytest.mark.skipif(
    build_mp_context().get_start_method() != "fork",
    reason="the stamped fault reaches the worker through fork",
)
class TestWorkerDeathLatency:
    """A dead build worker fails the build as soon as it dies."""

    def test_worker_death_is_detected_within_100ms(
        self, tmp_path, monkeypatch, par_config, par_generator, serial_reference
    ):
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        stamp = tmp_path / "killed-at"
        # The figure ends where the coordinator turns to shutting its
        # workers down, so the survivor's bounded wave drain stays out.
        entered = []
        shutdown_workers = parallel._CoordinatorRun.shutdown_workers

        def timed_shutdown(run):
            entered.append(time.monotonic())
            shutdown_workers(run)

        monkeypatch.setattr(parallel._CoordinatorRun, "shutdown_workers", timed_shutdown)
        fault = _StampedKill(worker=1, commit_n=2, point="before-log-append", stamp=str(stamp))
        with pytest.raises(CorpusError, match="worker 1 died"):
            _parallel_build(store, par_config, par_generator, processes=2, fault=fault)
        latency = entered[0] - float(stamp.read_text())
        assert 0.0 <= latency < 0.1, f"the death was noticed {latency * 1000:.0f} ms late"
        monkeypatch.undo()
        # Resume at another process count: the serial bytes.
        result = _parallel_build(store, par_config, par_generator, processes=3)
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)


class TestCrossModeResume:
    """Process counts (including 1) are interchangeable across sessions."""

    def test_parallel_partial_resumed_serially(
        self, tmp_path, par_config, par_generator, serial_reference, fault_injector
    ):
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        with pytest.raises(CorpusError):
            _parallel_build(
                store,
                par_config,
                par_generator,
                processes=3,
                fault=fault_injector(commit_n=1, worker=0, point="after-log-append"),
            )
        # processes=1 on a parallel-state directory routes through the
        # coordinator and still finalizes the canonical layout.
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=1
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_serial_partial_resumed_in_parallel(
        self, tmp_path, par_config, par_generator, serial_reference
    ):
        """A single-writer session's partial store (canonical shards, a
        manifest and its delta log) resumes to the reference bytes."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        _single_writer_partial(store, reference_dir, par_config, par_generator, tables=24)
        partial = GitTablesCorpus.load(store)
        assert 0 < len(partial) < par_config.target_tables

        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=3
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_serial_partial_resumed_in_one_process(
        self, tmp_path, par_config, par_generator, serial_reference
    ):
        """The same old partial store resumes to the reference bytes when
        the coordinator runs its one worker in the calling process."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        _single_writer_partial(store, reference_dir, par_config, par_generator, tables=24)
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=1
        )
        assert result.table_count == par_config.target_tables
        assert not (store / "manifest.log").exists()
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_unfinalized_serial_store_is_finalized_not_reused(
        self, tmp_path, par_config, par_generator, serial_reference
    ):
        """A single-writer session killed between its last commit and its
        finalize holds every table but is unsealed and keeps its
        ``manifest.log``: a build call must finalize it, not reuse and
        sweep it."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        _single_writer_partial(
            store, reference_dir, par_config, par_generator, tables=par_config.target_tables
        )
        assert (store / "manifest.log").exists()
        assert len(GitTablesCorpus.load(store)) == par_config.target_tables

        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=2
        )
        assert result.table_count == par_config.target_tables
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_completed_store_reused_under_any_process_count(
        self, tmp_path, par_config, par_generator
    ):
        store = tmp_path / "store"
        CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=2
        )
        manifest_mtime = (store / "manifest.json").stat().st_mtime_ns
        again = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=4
        )
        assert again.table_count == par_config.target_tables
        assert (store / "manifest.json").stat().st_mtime_ns == manifest_mtime
        assert again.curation_report.tables_processed == par_config.target_tables

    def test_resume_with_real_config_drift_rejected(
        self, tmp_path, par_config, par_generator, fault_injector
    ):
        store = tmp_path / "store"
        with pytest.raises(CorpusError):
            _parallel_build(
                store,
                par_config,
                par_generator,
                processes=2,
                fault=fault_injector(commit_n=1, worker=0, point="after-log-append"),
            )
        drifted = par_config.replace(seed=par_config.seed + 1)
        with pytest.raises(CorpusError, match="different pipeline"):
            CorpusBuilder(drifted, generator_config=par_generator, batch_size=BATCH).build(
                store_dir=store, shard_size=SHARDS, processes=2
            )


def _single_writer_partial(store, reference_dir, config, generator, tables: int) -> None:
    """The directory an old single-writer build session left when killed
    after committing the first ``tables`` tables in batches of ``BATCH``:
    build metadata, a checkpoint, canonical shards, a manifest and its
    uncompacted delta log."""
    from repro.storage.checkpoint import config_fingerprint, save_build_meta

    reference = list(GitTablesCorpus.load(reference_dir))[:tables]
    single_writer_store(
        store,
        [reference[start : start + BATCH] for start in range(0, tables, BATCH)],
        shard_size=SHARDS,
    )
    fingerprint = config_fingerprint(config, generator)
    save_build_meta(store, fingerprint)
    BuildCheckpoint(fingerprint=fingerprint, sessions=1).save(store)


class TestOneProcessBuilds:
    """``processes=1`` runs the coordinator's worker in the calling
    process, with the exactness of a streaming build."""

    def test_build_extend_compact_in_one_process(self, tmp_path, par_config, par_generator):
        """Grow's shape: build, three extensions and a compaction in one
        process. Each call annotates exactly the tables it adds, each
        extension enumerates a suffix of the one-shot run's topics,
        nothing worker-scoped is left behind, and every step holds the
        bytes of the same target built by two worker processes."""
        from repro.storage.compaction import compact_store

        targets = [16, 22, 29, 36]
        store = tmp_path / "store"
        session = None
        for step, target in enumerate(targets):
            config = par_config.replace(target_tables=target)
            if session is None:
                session = GitTables.build(
                    config,
                    generator_config=par_generator,
                    batch_size=BATCH,
                    store_dir=store,
                    shard_size=SHARDS,
                    processes=1,
                )
                added = target
            else:
                session.extend(target_tables=target, batch_size=BATCH, shard_size=SHARDS)
                added = target - targets[step - 1]
            report = session.pipeline_report
            assert len(session) == target
            assert report.stage("annotation").items_in == added
            one_shot = CorpusBuilder(config, generator_config=par_generator, batch_size=BATCH).build()
            topics = session.result.extraction_report.topics
            assert topics == one_shot.extraction_report.topics[-len(topics) :]
            assert not has_parallel_state(store)
            assert worker_checkpoint_ids(store) == []
            assert BuildCheckpoint.load(store) is None
            assert not list(store.glob("shard-*")) and not list(store.glob("manifest*.log"))

            parallel_store = tmp_path / f"parallel-{target}"
            CorpusBuilder(config, generator_config=par_generator, batch_size=BATCH).build(
                store_dir=parallel_store, shard_size=SHARDS, processes=2
            )
            grown, one_shot_bytes = _dir_bytes(store), _dir_bytes(parallel_store)
            assert _manifest_sans_epochs(grown.pop("manifest.json")) == _manifest_sans_epochs(
                one_shot_bytes.pop("manifest.json")
            )
            assert grown == one_shot_bytes
        session.compact(shard_size=5)
        compact_store(parallel_store, shard_size=5)
        grown, one_shot_bytes = _dir_bytes(store), _dir_bytes(parallel_store)
        assert _manifest_sans_epochs(grown.pop("manifest.json")) == _manifest_sans_epochs(
            one_shot_bytes.pop("manifest.json")
        )
        assert grown == one_shot_bytes

    def test_sigkilled_one_process_build_resumes(
        self, tmp_path, par_config, par_generator, serial_reference, fault_injector,
        parallel_build_subprocess,
    ):
        """A worker-0 fault fires in the building process itself: kill
        the build at a commit point, resume it here, reach the reference
        bytes."""
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        process = parallel_build_subprocess(
            store,
            par_config,
            par_generator,
            processes=1,
            fault=fault_injector(commit_n=2, worker=0, point="after-log-append"),
        )
        assert process.exitcode == -signal.SIGKILL
        assert has_parallel_state(store)
        result = CorpusBuilder(par_config, generator_config=par_generator, batch_size=BATCH).build(
            store_dir=store, shard_size=SHARDS, processes=1
        )
        assert result.table_count == par_config.target_tables
        assert result.pipeline_report.sessions == 2
        # Committed tables are never annotated twice. The kill pre-empted
        # the second commit's checkpoint, so its batch goes uncounted.
        annotated = result.pipeline_report.stage("annotation").items_in
        assert annotated == par_config.target_tables - BATCH
        assert _dir_bytes(store) == _dir_bytes(reference_dir)

    def test_store_build_annotates_in_commit_aligned_chunks(
        self, tmp_path, monkeypatch, par_config, par_generator, serial_reference
    ):
        """A build and an extension annotate through ``annotate_batch`` in
        chunks that never run past the target or a commit: every table
        annotated is stored, and every commit ends on a chunk boundary."""
        from repro.core.annotation import AnnotationPipeline

        chunks: list[int] = []
        commits: list[int] = []
        waves: list[int] = []
        annotate_batch = AnnotationPipeline.annotate_batch
        commit = ShardedCorpusWriter.commit
        process = parallel._WorkerTasks._process

        def spy_annotate(annotator, tables):
            chunks.append(len(tables))
            return annotate_batch(annotator, tables)

        def spy_commit(writer, *args, **kwargs):
            commits.append(writer.pending_count)
            return commit(writer, *args, **kwargs)

        def spy_process(tasks, *args, **kwargs):
            waves.append(1)
            return process(tasks, *args, **kwargs)

        monkeypatch.setattr(AnnotationPipeline, "annotate_batch", spy_annotate)
        monkeypatch.setattr(ShardedCorpusWriter, "commit", spy_commit)
        monkeypatch.setattr(parallel._WorkerTasks, "_process", spy_process)

        def check_chunks(report, added: int) -> None:
            assert report.stage("annotation").items_in == added
            assert sum(chunks) == sum(commits) == added
            assert max(chunks) > 1
            boundaries = {sum(chunks[:end]) for end in range(len(chunks) + 1)}
            assert {sum(commits[:end]) for end in range(1, len(commits) + 1)} <= boundaries
            assert len(chunks) <= len(waves) + len(commits)
            for spied in (chunks, commits, waves):
                spied.clear()

        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        first = 25
        session = GitTables.build(
            par_config.replace(target_tables=first),
            generator_config=par_generator,
            batch_size=BATCH,
            store_dir=store,
            shard_size=SHARDS,
            processes=1,
        )
        check_chunks(session.pipeline_report, first)
        session.extend(target_tables=par_config.target_tables, batch_size=BATCH, shard_size=SHARDS)
        check_chunks(session.pipeline_report, par_config.target_tables - first)
        grown, reference = _dir_bytes(store), _dir_bytes(reference_dir)
        assert _manifest_sans_epochs(grown.pop("manifest.json")) == _manifest_sans_epochs(
            reference.pop("manifest.json")
        )
        assert grown == reference


def _manifest_sans_epochs(payload: bytes) -> dict:
    manifest = json.loads(payload)
    manifest.pop("epoch")
    manifest.pop("epochs")
    return manifest


class TestArtifactsAfterParallelBuilds:
    """A crashed-then-resumed corpus serves identical artifact-backed results."""

    def test_resumed_corpus_serves_identical_results_through_artifacts(
        self, tmp_path, par_config, par_generator, serial_reference, fault_injector
    ):
        reference_dir, _ = serial_reference
        store = tmp_path / "store"
        with pytest.raises(CorpusError):
            _parallel_build(
                store,
                par_config,
                par_generator,
                processes=3,
                fault=fault_injector(commit_n=2, worker=1, point="before-log-append"),
            )
        _parallel_build(store, par_config, par_generator, processes=2)

        query = "status and total price per order"
        prefix = ["order_id", "order_date"]

        # First artifact-backed session builds and publishes the indexes
        # under the finalized manifest's content fingerprint.
        warm = GitTables.load(store, use_artifacts=True)
        warm_search = warm.search(query, k=5)
        warm_completion = warm.complete_schema(prefix, k=5)
        assert (store / "artifacts").exists()
        fingerprint = ShardedJsonlStore(store).content_fingerprint()
        assert fingerprint == ShardedJsonlStore(reference_dir).content_fingerprint()

        # A fresh session mmaps the published artifacts; results must be
        # bit-identical to both the artifact-free path and a session
        # over the serial reference corpus.
        cold = GitTables.load(store, use_artifacts=True)
        plain = GitTables.load(store, use_artifacts=False)
        serial = GitTables.load(reference_dir, use_artifacts=False)
        for session in (cold, plain, serial):
            assert session.search(query, k=5) == warm_search
            assert session.complete_schema(prefix, k=5) == warm_completion


def _mini_table(index: int) -> AnnotatedTable:
    from repro.core.annotation import TableAnnotations

    table = Table(
        ["id", "status"],
        [["1", "OPEN"], ["2", "CLOSED"]],
        table_id=f"w{index:03d}",
    )
    return AnnotatedTable(
        table=table,
        annotations=TableAnnotations(table_id=table.table_id),
        topic="order" if index % 2 else "organism",
        repository="octo/data",
        source_url=f"https://github.com/octo/data/blob/main/t{index}.csv",
        license_key="mit",
    )


class TestWorkerScopeWriter:
    """Unit-level durability checks for a build worker's writer."""

    def test_commit_touches_only_worker_scoped_files(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path, shard_size=2, worker=3)
        tables = [_mini_table(i) for i in range(3)]
        writer.extend(tables)
        writer.commit(
            done=[0, 1, 2, 3],
            indices={table.source_url: i for i, table in enumerate(tables)},
        )
        writer.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            worker_log_filename(3),
            worker_shard_filename(3, 0),
            worker_shard_filename(3, 1),
        ]
        assert not (tmp_path / "manifest.json").exists()

    def test_resume_replays_log_and_done_indices(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path, shard_size=2, worker=0)
        writer.extend([_mini_table(0), _mini_table(1)])
        writer.commit(done=[0, 1], indices={_mini_table(0).source_url: 0})
        writer.commit(done=[5, 9])  # dropped-only batch: log record, no tables
        writer.close()
        resumed = ShardedCorpusWriter(tmp_path, shard_size=2, worker=0)
        assert resumed.committed_count == 2
        assert resumed.done_indices == {0, 1, 5, 9}
        assert "w000" in resumed
        resumed.close()

    def test_resume_heals_own_tail_and_orphans_only(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path, shard_size=4, worker=0)
        writer.extend([_mini_table(0)])
        writer.commit(done=[0])
        shard = tmp_path / worker_shard_filename(0, 0)
        committed = shard.stat().st_size
        with open(shard, "ab") as handle:
            handle.write(b'{"torn": tr')  # uncommitted tail
        (tmp_path / worker_shard_filename(0, 7)).write_bytes(b"{}\n")  # own orphan
        other = tmp_path / worker_shard_filename(1, 0)
        other.write_bytes(b"{}\n")  # another worker's file: untouchable
        writer.close()
        ShardedCorpusWriter(tmp_path, shard_size=4, worker=0).close()
        assert shard.stat().st_size == committed
        assert not (tmp_path / worker_shard_filename(0, 7)).exists()
        assert other.exists()

    def test_worker_writer_never_finalizes(self, tmp_path):
        """A build worker's directory holds the coordinator's manifest
        (or other workers' logs): its writer refuses to publish there."""
        (tmp_path / "manifest.json").write_text("{}")
        writer = ShardedCorpusWriter(tmp_path, shard_size=4, worker=0)
        with pytest.raises(CorpusError, match="fresh directory"):
            writer.finalize()
        writer.close()

    def test_scope_lock_excludes_concurrent_writers(self, tmp_path, monkeypatch):
        """Two live writers can never share a worker scope (flock)."""
        monkeypatch.setattr(ShardedCorpusWriter, "LOCK_TIMEOUT_SECONDS", 0.2)
        writer = ShardedCorpusWriter(tmp_path, shard_size=4, worker=0)
        with pytest.raises(CorpusError, match="locked"):
            ShardedCorpusWriter(tmp_path, shard_size=4, worker=0)
        ShardedCorpusWriter(tmp_path, shard_size=4, worker=1).close()  # other scopes free
        writer.close()
        ShardedCorpusWriter(tmp_path, shard_size=4, worker=0).close()  # released

    def test_opened_writer_leaves_no_build_state(self, tmp_path, serial_reference):
        """A writer opened and closed on a published store without
        committing creates an empty log; that is no in-flight build, so
        the store still compacts. A live writer still counts."""
        import shutil

        from repro.storage.compaction import compact_store

        store = tmp_path / "store"
        shutil.copytree(serial_reference[0], store)
        fingerprint = ShardedJsonlStore(store).content_fingerprint()
        writer = ShardedCorpusWriter(store, shard_size=SHARDS, worker=0)
        assert (store / worker_log_filename(0)).stat().st_size == 0
        assert has_parallel_state(store)  # held by a live writer
        writer.close()
        assert not has_parallel_state(store)
        report = compact_store(store, shard_size=5)
        assert report.fingerprint == fingerprint
        assert ShardedJsonlStore(store).content_fingerprint() == fingerprint
        assert not list(store.glob("manifest-*.log"))

    def test_uncommitted_worker_shard_is_build_state(self, tmp_path):
        """An empty log beside a shard of its scope is a build killed
        between its first shard append and its first log record."""
        ShardedCorpusWriter(tmp_path, shard_size=4, worker=1).close()
        assert not has_parallel_state(tmp_path)
        (tmp_path / worker_shard_filename(1, 0)).write_bytes(b"{}\n")
        assert has_parallel_state(tmp_path)

    def test_table_entries_carry_stream_indices(self, tmp_path):
        writer = ShardedCorpusWriter(tmp_path, shard_size=4, worker=2)
        tables = [_mini_table(0), _mini_table(1)]
        writer.extend(tables)
        writer.commit(
            done=[10, 11, 12],
            indices={tables[0].source_url: 10, tables[1].source_url: 12},
        )
        writer.close()
        record = json.loads(
            (tmp_path / worker_log_filename(2)).read_text().splitlines()[0]
        )
        assert record["done"] == [10, 11, 12]
        assert record["tables"]["w000"]["index"] == 10
        assert record["tables"]["w001"]["index"] == 12
