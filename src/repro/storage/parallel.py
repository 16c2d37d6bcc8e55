"""Corpus builds into a store: shard-per-worker, publish at finalize.

Every store-targeted build runs through one coordinator,
:class:`ParallelCorpusBuilder`. The GitTables construction flow —
search, download, parse, filter, annotate, curate — is embarrassingly
parallel per source file, so the coordinator hands disjoint slices of
the source-URL stream to ``processes`` workers: worker processes at
``processes >= 2``, and worker 0 run in the calling process (no spawn,
no pipe) at ``processes=1``. Both run the same task handler,
:class:`_WorkerTasks`, and keep every durability invariant:

* **Disjoint shard ranges.** Worker ``k`` appends only to its own
  ``shard-<k>-<seq>.jsonl`` files and records commits in its own
  ``manifest-<k>.log`` (one O(batch) delta record per commit, fsynced —
  the worker's durable commit point). Workers never share a file, so no
  cross-process locking exists anywhere on the write path.
* **Harvest on commit boundaries.** The coordinator folds completed
  worker commit records, in each worker's commit-seq order, into its
  in-memory view of the build. It writes no manifest until finalize:
  the worker logs are the build's only record, so a fresh build's
  in-flight directory has no ``manifest.json`` (opening it as a store
  raises a :class:`~repro.errors.CorpusError` that names the resume),
  and an extension's readers keep the sealed prior epoch until the
  next one is published.
* **Byte-identical finalize.** When the in-order curated prefix of the
  source-URL stream covers ``target_tables``, the coordinator lays the
  tables out in canonical stream order as ``shard_00000.jsonl``… files,
  publishes the canonical manifest atomically, and sweeps all
  worker-scoped files — the stage → rename → publish → sweep routine
  compaction also runs (:func:`~repro.storage.sharded.publish_layout`).
  The finished directory is **byte-identical** to the in-memory build
  saved to a directory — regardless of process count, commit cadence,
  or how many times the build was killed and resumed.
* **Crash resume.** Killing any subset of workers (or the coordinator)
  at any point loses at most the uncommitted tables: each worker's
  :class:`~repro.storage.sharded.ShardedCorpusWriter` truncates its
  log's torn tail and heals its shard tails on reopen; the
  coordinator re-derives completed work from the logs, re-dispatches
  the rest, and the process count may differ between sessions (it is
  excluded from the config fingerprint).

Work distribution
-----------------

The coordinator enumerates the deterministic source-URL stream — topics
in selection order, per-topic search results in API order, URLs
de-duplicated first-topic-wins, exactly the in-memory
:class:`~repro.pipeline.stages.ExtractStage` order — assigning each URL
a global **stream index**. Topic searches and URL processing are both
dispatched to workers; each worker runs its own
:class:`~repro.github.client.GitHubClient` (its own rate budget, as a
production deployment would use one API token per worker) and a private
:class:`~repro.pipeline.stages.PipelineComponents` set built from the
pickled config after the fork/spawn (the in-process worker uses the
builder's own). Worker commit records carry the stream indices they
resolved (``"done"``), including URLs dropped by parsing or filtering,
so a resumed coordinator knows precisely which prefix of the stream is
complete.

A wave of URLs carries the number of tables still missing when it is
dispatched, and its worker stops pulling URLs once it holds that many;
workers commit every ``batch_size`` stored tables and flush when a wave
meets its count. At ``processes=1`` this is the streaming build exactly:
every table annotated is a table stored. With several workers, waves in
flight at once may curate a bounded surplus, dropped at finalize (which
keeps the final bytes identical).

A store that already holds canonical tables — a sealed epoch being
extended, or an old directory's partial single-writer build — is a
prefix of the stream in stream order, so its last table's URL is a
high-water mark: enumeration starts at that table's topic and resolves
every URL up to the mark without dispatching it, making an extension
O(new tables).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .._procs import PIPE_ERRORS, Child, build_mp_context, shutdown, wait
from ..errors import CorpusError
from ._io import FaultSpec
from .artifacts import IndexArtifactStore
from .checkpoint import (
    BuildCheckpoint,
    config_fingerprint,
    numbered_sidecar_ids,
    worker_checkpoint_ids,
)
from .sharded import (
    WORKER_LOG_GLOB,
    ShardedCorpusWriter,
    _accumulate_stats,
    _acquire_log_lock,
    _apply_delta,
    _empty_stats,
    _iter_log_records,
    _link_shard,
    _read_manifest,
    _replay_manifest_log,
    _replay_worker_log,
    _shard_lines,
    heal_shard_files,
    is_sharded_dir,
    manifest_header,
    manifest_is_sealed,
    publish_layout,
    seal_epochs,
    sweep_layout,
    worker_log_filename,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import CorpusBuilder, PipelineResult

__all__ = [
    "FaultSpec",
    "ParallelCorpusBuilder",
    "has_parallel_state",
]


def _worker_log_ids(directory: Path) -> list[int]:
    return numbered_sidecar_ids(directory, WORKER_LOG_GLOB)


def _is_idle_log(directory: Path, worker: int) -> bool:
    try:
        if (directory / worker_log_filename(worker)).stat().st_size:
            return False
    except FileNotFoundError:
        return True  # swept since it was listed
    if any(directory.glob(f"shard-{worker:02d}-*.jsonl")):
        return False
    try:
        _acquire_log_lock(directory, worker, timeout=0).close()
    except CorpusError:
        return False  # a live writer holds it
    return True


def has_parallel_state(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` holds an in-flight build's worker state.

    True when a worker checkpoint or a non-idle worker log exists: a
    build is under way (or was killed) and must be resumed — under any
    process count — before the store can be compacted or, for a fresh
    build, opened. An idle log (empty, no shard in its scope, no live
    writer) is what a writer opened and closed uncommitted leaves.
    """
    directory = Path(directory)
    logs = _worker_log_ids(directory)
    return bool(worker_checkpoint_ids(directory)) or not all(
        _is_idle_log(directory, k) for k in logs
    )


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


@dataclass
class _WorkUnit:
    """One source URL to download and process, pinned to a stream index."""

    index: int
    url: str
    repository: str
    path: str
    topic: str
    size_bytes: int


@dataclass
class _WorkerSpec:
    """Everything a worker needs, shippable through fork or pickle."""

    directory: str
    worker: int
    config: object
    generator_config: object | None
    instance: object | None
    batch_size: int
    shard_size: int
    real_time_factor: float
    fingerprint: dict
    parent_pid: int
    fault: FaultSpec | None
    use_artifacts: bool


class _DownloadStage:
    """Work units → downloaded files: the worker's half of extraction.

    Named like the in-memory graph's extraction stage, so the merged
    build report counts downloads under the same stage.
    """

    name = "extraction"

    def __init__(self, client) -> None:
        self.client = client

    def process(self, units, ctx):
        from ..core.extraction import ExtractedFile

        for unit in units:
            repository = self.client.instance.repository(unit.repository)
            yield ExtractedFile(
                url=unit.url,
                repository=unit.repository,
                path=unit.path,
                topic=unit.topic,
                content=self.client.raw_content(unit.url),
                license=repository.license if repository else None,
                size_bytes=unit.size_bytes,
            )


class _WorkerTasks:
    """The one task handler of build worker ``k``.

    A worker process runs it from :func:`_worker_main`; at
    ``processes=1`` the coordinator runs worker 0's handler in its own
    process, with the builder's components and client. Tasks are
    ``("search", topic)`` and ``("process", wave_id, units, missing)``;
    :meth:`run` answers each with the message the coordinator reads (a
    wave's answer says how many units it consumed and how many tables
    the worker holds uncommitted).

    A wave streams its units through download → parse → filter →
    annotate (in chunks within the missing count and commit room) → curate:
    it stops pulling units once the tables it holds reach ``missing``
    (the build's missing count when the wave was dispatched), so no
    table is annotated past the target. Stored tables are committed
    every ``batch_size`` tables — across wave boundaries — and when a
    wave meets its missing count (an empty wave with ``missing=0`` is
    a flush). Each commit records the stream index of every unit
    consumed since the previous commit, dropped units included; units
    a wave did not consume stay unresolved. The worker's
    :class:`~repro.storage.checkpoint.BuildCheckpoint` is refreshed
    after each commit, so a kill loses at most the uncommitted tables
    and, for a kill between a commit and its checkpoint, that commit's
    counters (resume never redoes committed work, so the counters stay
    a lower bound).
    """

    def __init__(self, spec: _WorkerSpec, components, client) -> None:
        from ..core.extraction import CSVExtractor

        checkpoint = BuildCheckpoint.load(spec.directory, worker=spec.worker)
        self.base_counters = dict(checkpoint.counters) if checkpoint is not None else {}
        self.session_counters: dict = {"sessions": 1}
        self.spec = spec
        self.components = components
        self.client = client
        self.extractor = CSVExtractor(client, spec.config.extraction)
        #: Units consumed since the last commit, in consumption order.
        self.unrecorded: list[_WorkUnit] = []
        # Last: the writer holds the worker scope's lock until close().
        self.writer = ShardedCorpusWriter(
            spec.directory, shard_size=spec.shard_size, worker=spec.worker, fault=spec.fault
        )

    @classmethod
    def start(cls, spec: _WorkerSpec, builder: "CorpusBuilder | None" = None) -> "_WorkerTasks":
        """The handler for ``spec``: over ``builder``'s components in-process."""
        if builder is not None:
            return cls(spec, builder.components, builder.client)
        from ..github.client import GitHubClient
        from ..github.instance import build_instance
        from ..pipeline.stages import PipelineComponents

        artifacts = IndexArtifactStore.for_corpus_dir(spec.directory) if spec.use_artifacts else None
        instance = spec.instance if spec.instance is not None else build_instance(spec.generator_config)
        return cls(
            spec,
            PipelineComponents.from_config(spec.config, artifacts=artifacts),
            GitHubClient(instance, real_time_factor=spec.real_time_factor),
        )

    def close(self) -> None:
        """Release the worker scope; uncommitted tables are dropped."""
        self.writer.close()

    def run(self, task: tuple, should_stop=lambda: False) -> tuple:
        """Handle one task; ``should_stop`` ends a wave early (orphaned worker)."""
        if task[0] == "search":
            return self._search(task[1])
        _, wave_id, units, missing = task
        consumed = self._process(units, missing, should_stop)
        return ("done", self.spec.worker, wave_id, consumed, self.writer.pending_count)

    def _search(self, topic: str) -> tuple:
        """One topic's URL metadata (the searchable half of extraction)."""
        from ..core.extraction import ExtractionReport

        client = self.client
        requests_before = client.request_count
        wait_before = client.total_wait_seconds
        report = ExtractionReport()
        items = self.extractor.collect_urls(topic, report=report)
        payload = [
            {
                "url": item.url,
                "repository": item.repository,
                "path": item.path,
                "size_bytes": item.size_bytes,
            }
            for item in items.values()
        ]
        meta = {
            "api_requests": client.request_count - requests_before,
            "wait_seconds": client.total_wait_seconds - wait_before,
            "initial_count": report.initial_counts.get(topic, 0),
            "segmented_queries": report.segmented_queries.get(topic, 0),
        }
        return ("searched", self.spec.worker, topic, payload, meta)

    def _process(self, units: list, missing: int, should_stop) -> int:
        """Run one wave; returns how many of ``units`` it consumed."""
        from ..pipeline.runner import Pipeline
        from ..pipeline.stage import StageContext
        from ..pipeline.stages import processing_stages

        writer = self.writer
        consumed = 0
        # Annotation chunks fit the room before the next commit (re-capped in hold).
        ctx = StageContext(config=self.spec.config, remaining=self.spec.batch_size - writer.pending_count)

        def source():
            nonlocal consumed
            for unit in units:
                if should_stop():
                    return
                consumed += 1
                self.unrecorded.append(unit)
                yield unit

        def hold(tables: list) -> None:
            # A commit falls on a chunk boundary, so every unit consumed
            # so far was dropped or yielded a held table.
            writer.extend(tables)
            if writer.pending_count >= self.spec.batch_size:
                self._commit(ctx.report)
            ctx.remaining = min(ctx.remaining, self.spec.batch_size - writer.pending_count)

        outcome = Pipeline(
            [_DownloadStage(self.client), *processing_stages(self.components)],
            batch_size=1,
            name="gittables-build-worker",
        ).run(
            source(),
            config=self.spec.config,
            ctx=ctx,
            limit=max(missing - writer.pending_count, 0),
            sink=hold,
        )
        if outcome.report.stopped_early:
            self._commit(ctx.report)  # the missing count is met: flush
        self.session_counters = self._session_with(ctx.report)
        return consumed

    def _commit(self, report) -> None:
        """Commit the held tables with every unit consumed since the last commit."""
        if not self.unrecorded:
            return
        units, self.unrecorded = self.unrecorded, []
        self.writer.commit(
            done=[unit.index for unit in units],
            indices={unit.url: unit.index for unit in units},
        )
        self._save_checkpoint(report)

    def _session_with(self, report) -> dict:
        """This session's counters with one (running) wave's folded in."""
        from ..pipeline.report import combine_counters

        wave = report.counters()
        wave["sessions"] = 0  # a wave is part of its session, not one itself
        return combine_counters(self.session_counters, wave)

    def _save_checkpoint(self, report) -> None:
        from ..pipeline.report import combine_counters

        merged = combine_counters(self.base_counters, self._session_with(report))
        BuildCheckpoint(
            fingerprint=self.spec.fingerprint, sessions=merged["sessions"], counters=merged
        ).save(self.spec.directory, worker=self.spec.worker)


def _worker_main(conn, spec: _WorkerSpec) -> None:
    """Worker process entry point: run :class:`_WorkerTasks` until told to stop.

    Tasks arrive on ``conn``; ``None`` is the stop message. Each task is
    answered on the same pipe; a failure is answered with ``("error",
    worker, traceback)`` and ends the worker. If the coordinator
    disappears (parent pid changes), the worker exits on its own at its
    next idle tick or unit boundary rather than leak. The writer is
    closed on every exit path.
    """
    import traceback

    def orphaned() -> bool:
        return os.getppid() != spec.parent_pid

    def reply(message) -> bool:
        try:
            conn.send(message)
        except PIPE_ERRORS:
            return False  # the coordinator is gone
        return True

    try:
        tasks = _WorkerTasks.start(spec)
    except Exception:  # pragma: no cover - init failures surface as errors
        reply(("error", spec.worker, traceback.format_exc()))
        return
    try:
        while True:
            try:
                if not conn.poll(0.5):
                    if orphaned():
                        return
                    continue
                task = conn.recv()
            except PIPE_ERRORS:
                return  # the coordinator closed its end
            if task is None or orphaned():
                return  # stopped, or the coordinator died between dispatch and pickup
            try:
                message = tasks.run(task, should_stop=orphaned)
            except Exception:
                reply(("error", spec.worker, traceback.format_exc()))
                return
            if not reply(message):
                return
    finally:
        tasks.close()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _StoreState:
    """Committed state re-derived from a build directory on open.

    Only a publish writes ``manifest.json``, so the canonical portion
    cannot change while a build is in flight: every session of one build
    re-derives the same canonical prefix, and with it the same topic to
    start enumerating at.
    """

    #: Canonical portion: table id -> {shard, line, source_url}.
    canonical_tables: dict = field(default_factory=dict)
    #: Canonical shard entries (manifest order).
    canonical_shards: list = field(default_factory=list)
    #: Statistics of the canonical portion alone (not worker tables).
    canonical_stats: dict = field(default_factory=_empty_stats)
    #: worker id -> replayed worker manifest state.
    worker_states: dict = field(default_factory=dict)
    #: worker id -> resolved stream indices.
    worker_done: dict = field(default_factory=dict)
    #: worker id -> byte offset of the log's valid committed prefix.
    worker_log_offsets: dict = field(default_factory=dict)
    #: The manifest's :func:`~repro.storage.sharded.manifest_header`
    #: (``shard_size`` is ``None`` when there is no manifest yet).
    header: dict = field(default_factory=lambda: manifest_header({}))

    @property
    def committed_count(self) -> int:
        return len(self.canonical_tables) + sum(
            len(state["tables"]) for state in self.worker_states.values()
        )


def _read_store_state(directory: Path) -> _StoreState:
    """Re-derive all committed state: canonical manifest + worker logs.

    Worker logs are the only record of worker-scoped state; the
    canonical portion of a manifest — entries referencing canonical
    ``shard_*.jsonl`` files — is authoritative for the tables a finalize
    (a sealed epoch) or an old directory's single-writer session (its
    ``manifest.log`` replayed) committed. A directory an older version
    left mid-build may hold a merged view of both, marked
    ``"parallel"``: only its canonical slice is read, with the canonical
    statistics the marker carries.

    Each worker log is snapshotted under its scope lock: if a previous
    coordinator was SIGKILLed, its orphaned workers may still be
    draining one last batch, and reading before they exit would miss
    their final commits (leading the new session to re-dispatch — and
    double-store — those URLs). Waiting on the lock serializes the
    snapshot behind the orphans' exit.
    """
    state = _StoreState()
    if is_sharded_dir(directory):
        manifest = _read_manifest(directory)
        _replay_manifest_log(directory, manifest)
        state.header = manifest_header(manifest)
        # An old merged view's stats span worker tables too; its
        # canonical slice rides in the marker.
        marker = manifest.get("parallel")
        state.canonical_stats = (
            manifest.get("stats", _empty_stats())
            if marker is None
            else marker.get("canonical_stats", _empty_stats())
        )
        shards = manifest.get("shards", [])
        canonical_indices = {
            index
            for index, entry in enumerate(shards)
            if entry["file"].startswith("shard_")
        }
        remap = {old: new for new, old in enumerate(sorted(canonical_indices))}
        state.canonical_shards = [shards[index] for index in sorted(canonical_indices)]
        for table_id, entry in manifest.get("tables", {}).items():
            if entry["shard"] in canonical_indices:
                moved = dict(entry)
                moved["shard"] = remap[entry["shard"]]
                state.canonical_tables[table_id] = moved
    for worker in _worker_log_ids(directory):
        with _acquire_log_lock(directory, worker, ShardedCorpusWriter.LOCK_TIMEOUT_SECONDS):
            (
                state.worker_states[worker],
                state.worker_done[worker],
                state.worker_log_offsets[worker],
            ) = _replay_worker_log(directory / worker_log_filename(worker))
    return state


def _fold_stats(into: dict, source: dict) -> None:
    """Sum one stats dict into another (totals plus counter families)."""
    for family in ("total_rows", "total_columns"):
        into[family] += source.get(family, 0)
    for family in ("topics", "repositories"):
        counts = into[family]
        for key, value in source.get(family, {}).items():
            counts[key] = counts.get(key, 0) + value


class ParallelCorpusBuilder:
    """Coordinates every corpus build into a store directory.

    Wraps a configured :class:`~repro.core.pipeline.CorpusBuilder` and
    executes its store build with ``processes`` workers (see the module
    docstring for the architecture): worker processes at ``processes >=
    2``, and worker 0 run in the calling process at ``processes=1``.
    Not constructed directly in normal use — every
    ``CorpusBuilder.build(store_dir=...)`` and ``GitTables.build`` /
    ``.extend`` call with a store routes here.

    ``fault`` injects a deterministic crash for the test harness.
    """

    #: How many stream URLs one dispatched wave hands a worker.
    WAVE_UNITS = 64

    def __init__(
        self,
        builder: "CorpusBuilder",
        processes: int,
        fault: FaultSpec | None = None,
        use_artifacts: bool = True,
    ) -> None:
        if processes < 1:
            raise CorpusError("processes must be >= 1")
        if processes > 99:
            raise CorpusError("processes must be <= 99 (worker ids are two digits)")
        self.builder = builder
        self.processes = processes
        self.fault = fault
        self.use_artifacts = use_artifacts

    # -- the build ----------------------------------------------------------

    def build(
        self, store_dir: str | os.PathLike[str], shard_size: int, extend: bool = False
    ) -> "PipelineResult":
        from ..wordnet.topics import select_topics

        builder = self.builder
        config = builder.config
        directory = Path(store_dir)
        directory.mkdir(parents=True, exist_ok=True)
        topic_selection = select_topics(config.extraction.topic_count, seed=config.seed)
        fingerprint = config_fingerprint(config, builder.generator_config)

        state = _read_store_state(directory)
        builder.ensure_build_meta(
            store_dir, fingerprint, state.committed_count, extend=extend
        )
        checkpoint = BuildCheckpoint.load(directory)
        if checkpoint is not None:
            checkpoint.require_compatible(fingerprint, store_dir)

        finished = manifest_is_sealed(state.header)
        if finished and len(state.canonical_tables) >= config.target_tables:
            # A completed build (possibly killed between publishing the
            # canonical manifest and its sweep): reuse it. The same sweep
            # makes the directory byte-identical to one whose finalize
            # ran uninterrupted.
            sweep_layout(directory, _read_manifest(directory))
            BuildCheckpoint.clear_workers(directory)
            BuildCheckpoint.clear(directory)
            return builder.reuse_result(store_dir, topic_selection.topics, use_artifacts=self.use_artifacts)

        header = state.header
        if finished:
            # Growing a finalized store opens the next epoch. The manifest
            # stays the sealed one until finalize publishes, so a crashed
            # extension finds the store sealed again and opens the same
            # epoch (its worker logs carry the new tables).
            header["epoch"] = len(header["epochs"]) + 1
        if checkpoint is None:
            checkpoint = BuildCheckpoint(fingerprint=fingerprint)
        # Resumes keep the shard size the directory was started with:
        # the manifest's, else the one the first session pinned here.
        header["shard_size"] = header["shard_size"] or checkpoint.shard_size or shard_size
        checkpoint.shard_size = header["shard_size"]
        base_counters = dict(checkpoint.counters)
        checkpoint.sessions += 1
        checkpoint.save(directory)
        # Truncate torn canonical shard tails an old directory's crashed
        # single-writer session left (worker shards are healed by their
        # own writers).
        heal_shard_files(directory, state.canonical_shards, directory.glob("shard_*.jsonl"))
        # Publish the coordinator's (eagerly built) ontology label
        # indexes before any worker spawns: every worker then resolves
        # them with one mmap instead of re-embedding per process.
        if self.use_artifacts:
            builder.annotator.publish_artifacts(IndexArtifactStore.for_corpus_dir(directory))

        run = _CoordinatorRun(self, directory, topic_selection.topics, fingerprint, state)
        try:
            run.execute()
        finally:
            run.shutdown_workers()
        worker_counters = [
            BuildCheckpoint.load(directory, worker=worker).counters
            for worker in worker_checkpoint_ids(directory)
        ]
        table_count = run.finalize()
        BuildCheckpoint.clear_workers(directory)
        BuildCheckpoint.clear(directory)
        return self._assemble_result(
            store_dir,
            topic_selection.topics,
            base_counters,
            checkpoint.sessions,
            run,
            worker_counters,
            table_count,
            extend=extend,
        )

    def _assemble_result(
        self,
        store_dir,
        topics: tuple[str, ...],
        base_counters: dict,
        sessions: int,
        run: "_CoordinatorRun",
        worker_counters: list[dict],
        table_count: int,
        extend: bool = False,
    ) -> "PipelineResult":
        """Merge worker counters into one cross-process PipelineReport.

        Stage counters sum the work of every worker across every
        session (each worker's checkpoint already reconciles its own
        sessions); ``sessions`` counts coordinator build invocations —
        including any sessions of an old directory's single writer,
        whose counters arrive through ``base_counters``.
        """
        from ..pipeline.report import PipelineReport, combine_counters

        merged = dict(base_counters)
        merged["sessions"] = 0
        for counters in worker_counters:
            local = dict(counters)
            local["sessions"] = 0
            merged = combine_counters(merged, local)
        report = PipelineReport(pipeline_name="gittables-build")
        report.merge_counters(merged)
        report.sessions = sessions
        report.items_collected = table_count
        report.stopped_early = table_count >= self.builder.config.target_tables
        report.stage_reports["extraction"] = run.extraction_report()
        return self.builder.store_result(
            store_dir, report, topics, extend=extend, use_artifacts=self.use_artifacts
        )


class _CoordinatorRun:
    """One coordinator session: dispatch, harvest commits, finalize."""

    def __init__(
        self,
        parent: ParallelCorpusBuilder,
        directory: Path,
        topics: tuple[str, ...],
        fingerprint: dict,
        state: _StoreState,
    ) -> None:
        self.parent = parent
        self.builder = parent.builder
        self.config = self.builder.config
        self.directory = directory
        self.shard_size = state.header["shard_size"]
        self.topics = list(topics)
        self.fingerprint = fingerprint
        self.state = state

        # --- the canonical prefix ------------------------------------------
        #: Locations of the canonical tables in (shard, line) order. A
        #: finalize, a compaction and an old single-writer build all
        #: write tables in stream order, so these are the first tables of the final
        #: sequence, and the last one's source URL is the stream's
        #: high-water mark: every URL up to it was already processed —
        #: stored, or rejected by parsing or filtering.
        canonical = sorted(
            state.canonical_tables.values(),
            key=lambda entry: (entry["shard"], entry["line"]),
        )
        self.prefix = [("canonical", entry["shard"], entry["line"]) for entry in canonical]
        self.prefix_urls = {entry["source_url"] for entry in canonical}
        self.marker = canonical[-1]["source_url"] if canonical else None
        #: Enumeration resolves every URL up to the marker instead of
        #: dispatching it, so growing or resuming a prefix is O(tail).
        self._fast_forwarding = self.marker is not None
        #: The first topic enumerated: the marker's own topic, since the
        #: topics before it were finished (never searched again). The
        #: canonical prefix is fixed until finalize, so every session of
        #: a build starts here and its worker logs' indices agree.
        self.first_topic = self._marker_topic(canonical)

        # --- source-URL stream enumeration --------------------------------
        #: Emitted stream units, index-aligned (stream[i].index == i).
        self.stream: list[_WorkUnit] = []
        self.seen_urls: set[str] = set()
        #: topic -> search payload, for topics searched out of order.
        self.searched: dict[str, list] = {}
        self.search_meta: dict[str, dict] = {}
        self.next_topic = self.first_topic  # next topic to hand out for searching
        self.next_emit = self.first_topic  # next topic (in order) awaiting emission
        self.duplicate_urls = 0

        # --- resolution state ----------------------------------------------
        #: stream index -> (worker id, shard index, line index)
        self.stored: dict[int, tuple] = {}
        self.resolved: set[int] = set()
        for done in state.worker_done.values():
            self.resolved.update(done)
        for worker, worker_state in state.worker_states.items():
            for entry in worker_state["tables"].values():
                self.stored[entry["index"]] = (worker, entry["shard"], entry["line"])
        #: Indices resolved by worker commits (what the yield rate is
        #: measured over).
        self._worker_resolved = len(self.resolved)

        # --- dispatch bookkeeping ------------------------------------------
        #: Indices handed to a worker and not yet resolved or released:
        #: in flight, or consumed by a worker that has not committed
        #: them yet (``assigned`` splits them by worker).
        self.dispatched: set[int] = set()
        self.assigned: dict[int, set[int]] = {}
        #: worker -> tables it holds uncommitted, as of its last answer.
        self.holding: dict[int, int] = {}
        #: wave id -> the indices it carried, until its worker answers.
        self.waves: dict[int, list[int]] = {}
        self._wave_cursor = 0
        self._frontier_index = 0
        self._frontier_curated = len(self.prefix)
        #: Worker 0's handler when it runs in this process (processes=1).
        self.local: _WorkerTasks | None = None
        self.children: list[Child] = []
        self.idle: list[int] = []
        self.outstanding: dict[int, tuple] = {}
        self.next_wave_id = 0
        self._log_offsets: dict[int, int] = dict(state.worker_log_offsets)
        self.api_requests = 0
        self.wait_seconds = 0.0

    def _marker_topic(self, canonical: list) -> int:
        """Index of the marker table's topic (0 without a prefix)."""
        if not canonical:
            return 0
        last = canonical[-1]
        line = _shard_lines(self.directory, self.state.canonical_shards[last["shard"]])[last["line"]]
        topic = json.loads(line)["topic"]
        return self.topics.index(topic) if topic in self.topics else 0

    # -- worker lifecycle ---------------------------------------------------

    def start_workers(self) -> None:
        """Start the workers: in this process at ``processes=1``."""
        parent = self.parent
        in_process = parent.processes == 1
        use_fork = build_mp_context().get_start_method() == "fork"
        for worker in range(parent.processes):
            spec = _WorkerSpec(
                directory=str(self.directory),
                worker=worker,
                config=self.config,
                generator_config=self.builder.generator_config,
                instance=(
                    self.builder.instance
                    if use_fork or self.builder.generator_config is None
                    else None
                ),
                batch_size=self.builder.batch_size,
                shard_size=self.shard_size,
                real_time_factor=self.builder.real_time_factor,
                fingerprint=self.fingerprint,
                parent_pid=os.getpid(),
                fault=parent.fault if parent.fault and parent.fault.worker == worker else None,
                use_artifacts=parent.use_artifacts,
            )
            if in_process:
                self.local = _WorkerTasks.start(spec, builder=self.builder)
            else:
                child = Child()
                child.start(_worker_main, (spec,), name=f"gittables-build-w{worker:02d}")
                self.children.append(child)
            self.idle.append(worker)

    def shutdown_workers(self) -> None:
        """Stop workers: stop message, one bounded wait, then terminate.

        A worker reads the stop message between tasks, so one still on
        a surplus wave (dispatched just before the target was met)
        finishes it first: its commits and checkpoint must land before
        the coordinator reads worker counters. Surplus acks are drained
        and discarded. SIGTERM after the generous 60 s bound is a last
        resort for hung workers, and crash-safe (at most the final
        batch's counters go unreported). An in-process worker's writer
        is closed.
        """
        if self.local is not None:
            self.local.close()
        shutdown(self.children, timeout=60.0)
        for child in self.children:
            child.conn.close()

    # -- stream enumeration -------------------------------------------------

    def _emit_ready_topics(self) -> None:
        """Fold completed topic searches into the stream, in topic order."""
        while self.next_emit < len(self.topics):
            topic = self.topics[self.next_emit]
            payload = self.searched.get(topic)
            if payload is None:
                return
            for item in payload:
                url = item["url"]
                if url in self.seen_urls:
                    self.duplicate_urls += 1
                    continue
                self.seen_urls.add(url)
                index = len(self.stream)
                self.stream.append(
                    _WorkUnit(
                        index=index,
                        url=url,
                        repository=item["repository"],
                        path=item["path"],
                        topic=topic,
                        size_bytes=item["size_bytes"],
                    )
                )
                if self._fast_forwarding or url in self.prefix_urls:
                    # Up to the marker every URL was processed before;
                    # past it, a prefix table resurfacing under a later
                    # topic is already stored.
                    self.resolved.add(index)
                if url == self.marker:
                    self._fast_forwarding = False
            self.next_emit += 1

    # -- progress accounting ------------------------------------------------

    def frontier(self) -> tuple[int, int]:
        """``(first unresolved index, curated tables before it)``.

        The curated count starts at the canonical prefix. Advanced
        incrementally from the last call: an index, once resolved, never
        unresolves, and a resolved index's stored location is recorded
        in the same harvest step, so the walk never needs to restart
        from zero (keeps the dispatch loop linear in stream length
        overall).
        """
        index, curated = self._frontier_index, self._frontier_curated
        while curated < self.config.target_tables and index in self.resolved:
            if index in self.stored:
                curated += 1
            index += 1
        self._frontier_index, self._frontier_curated = index, curated
        return index, curated

    def target_met(self) -> bool:
        _, curated = self.frontier()
        return curated >= self.config.target_tables

    def exhausted(self) -> bool:
        """No more URLs anywhere: topics done, everything resolved."""
        return (
            self.next_emit >= len(self.topics)
            and not self.outstanding
            and self.frontier()[0] >= len(self.stream)
        )

    # -- harvesting commits -------------------------------------------------

    def harvest_worker_log(self, worker: int) -> None:
        """Fold a worker's new commit records into coordinator state.

        Reads forward from the byte offset of the last record already
        folded in (``_read_store_state`` primes the offsets at session
        start), so every commit record is applied exactly once, in the
        worker's commit-seq order.
        """
        path = self.directory / worker_log_filename(worker)
        worker_state = self.state.worker_states.setdefault(
            worker, {"shards": [], "tables": {}, "stats": _empty_stats()}
        )
        offset = self._log_offsets.get(worker, 0)
        for record, raw_length in _iter_log_records(path, offset=offset):
            _apply_delta(worker_state, record)
            # Stored locations must land before the indices count as
            # resolved, or a frontier walk in between would misread a
            # stored index as dropped.
            for entry in record.get("tables", {}).values():
                self.stored[entry["index"]] = (worker, entry["shard"], entry["line"])
            done = record.get("done", ())
            self.resolved.update(done)
            self.dispatched.difference_update(done)
            self.assigned.get(worker, set()).difference_update(done)
            self._worker_resolved += len(done)
            offset += raw_length
        self._log_offsets[worker] = offset

    # -- dispatch loop ------------------------------------------------------

    def execute(self) -> None:
        if self.target_met():
            return  # resumed after the last wave; nothing to dispatch
        self.start_workers()
        self._loop()

    def _loop(self) -> None:
        while True:
            self._emit_ready_topics()
            if self.target_met() or self.exhausted():
                return
            if self._fast_forwarding and self.next_emit >= len(self.topics):
                raise CorpusError(
                    f"corpus at {self.directory} holds tables whose source URLs "
                    "do not appear in this configuration's extraction stream; "
                    "the directory does not match the configuration"
                )
            self._dispatch()
            self._collect()

    def _dispatch(self) -> None:
        """Hand each idle worker its next task, if it has one."""
        for worker in list(self.idle):
            task = self._task_for(worker)
            if task is None:
                continue
            self.idle.remove(worker)
            if task[0] == "search":
                self.next_topic += 1
                self.outstanding[worker] = task
                self._send(worker, task)
            else:
                self._send_wave(worker, *task[1:])

    def _task_for(self, worker: int) -> tuple | None:
        """A wave, a search, or a flush (an empty wave) for ``worker``.

        Processing beats searching when URLs are buffered (waves
        resolve the frontier the target check needs). Once the tables
        obtained and held cover the target, holders are flushed instead
        of more tables being curated; a worker holding uncommitted
        units is otherwise flushed only when nothing else is left.
        """
        missing = self._missing_for(worker)
        if missing <= 0 and any(self.holding.values()):
            return ("wave", [], 0) if self.holding.get(worker) else None
        wave = self._next_wave()
        if wave:
            return ("wave", wave, max(missing, 1))
        if self.next_topic < len(self.topics):
            return ("search", self.topics[self.next_topic])
        if self.assigned.get(worker):
            return ("wave", [], 0)
        return None

    def _missing_for(self, worker: int) -> int:
        """The target less every table obtained so far but ``worker``'s own.

        Obtained: the canonical prefix, every committed table, and the
        tables other workers hold uncommitted (the worker subtracts its
        own).
        """
        held = sum(count for other, count in self.holding.items() if other != worker)
        return self.config.target_tables - len(self.prefix) - len(self.stored) - held

    def _send_wave(self, worker: int, wave: list, missing: int) -> None:
        wave_id = self.next_wave_id
        self.next_wave_id += 1
        self.outstanding[worker] = ("process", wave_id)
        self.waves[wave_id] = [unit.index for unit in wave]
        self.dispatched.update(self.waves[wave_id])
        self.assigned.setdefault(worker, set()).update(self.waves[wave_id])
        self._send(worker, ("process", wave_id, wave, missing))

    def _next_wave(self) -> list:
        """The next slice of unresolved, undispatched stream URLs.

        A wave dispatched while none is in flight carries a full
        ``WAVE_UNITS`` (it stops itself at the missing table count);
        further in-flight waves are bounded by the remaining estimate.
        """
        limit = ParallelCorpusBuilder.WAVE_UNITS
        if any(task[0] == "process" for task in self.outstanding.values()):
            limit = min(limit, self._remaining_estimate() - len(self.dispatched))
        if limit <= 0 or self.target_met():
            return []
        while self._wave_cursor in self.resolved:
            self._wave_cursor += 1
        wave: list = []
        for position in range(self._wave_cursor, len(self.stream)):
            if len(wave) >= limit:
                break
            unit = self.stream[position]
            if unit.index in self.resolved or unit.index in self.dispatched:
                continue
            wave.append(unit)
        return wave

    def _remaining_estimate(self) -> int:
        """How many URLs past the frontier are worth processing.

        The curated-per-URL rate the workers observed so far
        (conservative default before enough evidence) sizes how far past
        the frontier the build reaches for the missing tables; the 1.2
        slack keeps a second round of dispatching rare while bounding
        overshoot.
        """
        _, curated = self.frontier()
        missing = self.config.target_tables - curated
        if missing <= 0:
            return 0
        resolved = self._worker_resolved
        rate = (len(self.stored) / resolved) if resolved >= 64 else 0.25
        rate = max(rate, 0.05)
        return max(self.builder.batch_size, int(missing / rate * 1.2))

    def _send(self, worker: int, task: tuple) -> None:
        if self.local is not None:
            self._on_message(self.local.run(task))
            return
        try:
            self.children[worker].conn.send(task)
        except PIPE_ERRORS:
            raise self._died(worker) from None

    def _died(self, worker: int) -> CorpusError:
        task = self.outstanding.get(worker)
        doing = f"running {task[0]!r}" if task else "idle"
        return CorpusError(
            f"build worker {worker} died while {doing}; "
            "resume the build to heal and continue"
        )

    def _collect(self) -> None:
        """Wait for worker messages, or a worker's death; harvest as commits land.

        One :func:`~repro._procs.wait` over every pipe and process
        sentinel: a worker that dies fails the build the moment its
        sentinel fires, after whatever it wrote before dying was read.
        """
        if not self.outstanding:
            return  # nothing in flight; go dispatch more
        for child, exited in wait(self.children):
            try:
                while child.conn.poll():
                    self._on_message(child.conn.recv())
            except PIPE_ERRORS:
                exited = True  # EOF: the worker is gone
            if exited:
                raise self._died(self.children.index(child))

    def _on_message(self, message) -> None:
        kind = message[0]
        if kind == "error":
            _, worker, trace = message
            self.outstanding.pop(worker, None)
            raise CorpusError(f"build worker {worker} failed:\n{trace}")
        if kind == "searched":
            _, worker, topic, payload, meta = message
            self.searched[topic] = payload
            self.search_meta[topic] = meta
            self.api_requests += meta["api_requests"]
            self.wait_seconds += meta["wait_seconds"]
            self.outstanding.pop(worker, None)
            self.idle.append(worker)
            return
        if kind == "done":
            _, worker, wave_id, consumed, self.holding[worker] = message
            self.outstanding.pop(worker, None)
            self.idle.append(worker)
            # Fold this worker's commit records (in log order — i.e.
            # commit-seq order) into coordinator state.
            self.harvest_worker_log(worker)
            # Units the wave left unconsumed go back to the pool.
            released = self.waves.pop(wave_id)[consumed:]
            self.dispatched.difference_update(released)
            self.assigned[worker].difference_update(released)

    # -- finalize -----------------------------------------------------------

    def final_sequence(self) -> Iterator[tuple]:
        """Stored table locations of the final corpus, in stream order."""
        target = self.config.target_tables
        yield from self.prefix[:target]
        curated = len(self.prefix)
        index = 0
        while curated < target and (index < len(self.stream) or index in self.resolved):
            if index not in self.resolved:
                raise CorpusError(
                    f"stream index {index} is unresolved; the build did not "
                    "cover a full prefix of the source stream"
                )
            location = self.stored.get(index)
            if location is not None:
                curated += 1
                yield location
            index += 1

    def _adopted_canonical_prefix(self) -> tuple[int, int]:
        """``(full shards, tables)`` of the canonical prefix adopted as-is.

        The final sequence begins with every canonical (prior-epoch,
        or an old single-writer build's) table in its on-disk order, so the full
        canonical shards already hold exactly the bytes finalize would
        rewrite into them. Adopting them untouched makes finalize O(new
        tables + one partial shard) instead of O(corpus): only the
        trailing partial shard (so new tables can pack into it) and
        everything after is re-emitted.
        """
        adopt_shards = 0
        adopt_tables = 0
        for entry in self.state.canonical_shards:
            if entry["count"] != self.shard_size:
                break
            adopt_shards += 1
            adopt_tables += entry["count"]
        return adopt_shards, adopt_tables

    def finalize(self) -> int:
        """Lay the final table sequence out as the canonical store.

        The final table sequence is published through
        :func:`~repro.storage.sharded.publish_layout`: canonical shards
        are staged as ``.tmp`` siblings (the worker shards — the data
        source — are never touched), renamed into place, the canonical
        manifest is published atomically (the commit point), and
        worker-scoped files, stale canonical shards and an old
        directory's ``manifest.log`` are swept. A crash before the publish leaves the
        worker logs authoritative; a crash after it leaves only the
        sweep, which a resumed build reuses. Every byte written is a
        deterministic function of the final table sequence, so
        re-running finalize after a crash (possibly with a different
        process count) produces the same files. The full canonical
        shards are kept without rewriting them (see
        :meth:`_adopted_canonical_prefix`), and a worker shard that is
        exactly the next canonical shard is hard-linked to its canonical
        name before the publish (a crash leaves the link unlisted, and
        the next session's heal deletes it). Returns the table count.
        """
        state = self.state
        sources: dict = {"canonical": state.canonical_shards}
        for worker, worker_state in state.worker_states.items():
            sources[worker] = worker_state["shards"]
        sequence = list(self.final_sequence())
        adopt_shards, adopt_tables = self._adopted_canonical_prefix()
        #: location -> (table id, manifest or worker-log entry)
        located = {
            ("canonical", entry["shard"], entry["line"]): (table_id, entry)
            for table_id, entry in state.canonical_tables.items()
        }
        for worker, worker_state in state.worker_states.items():
            for table_id, entry in worker_state["tables"].items():
                located[(worker, entry["shard"], entry["line"])] = (table_id, entry)
        shard_lines = lru_cache(maxsize=4)(
            lambda source, shard: _shard_lines(self.directory, sources[source][shard])
        )
        # The canonical tables lead the sequence in their stored order,
        # so their stats seed the final ones; worker log entries carry
        # the fields a table's stats fold in (older logs: decode it).
        stats = _empty_stats()
        _fold_stats(stats, state.canonical_stats)
        tables: dict = {}
        for position, (source, shard_index, line_index) in enumerate(sequence):
            table_id, entry = located[(source, shard_index, line_index)]
            tables[table_id] = {
                "shard": position // self.shard_size,
                "line": position % self.shard_size,
                "source_url": entry["source_url"],
            }
            if source != "canonical":
                if "rows" not in entry:
                    payload = json.loads(shard_lines(source, shard_index)[line_index])
                    entry = {
                        "rows": len(payload["rows"]),
                        "columns": len(payload["header"]),
                        "topic": payload["topic"],
                        "repository": payload["repository"],
                    }
                _accumulate_stats(
                    stats, entry["rows"], entry["columns"], entry["topic"], entry["repository"]
                )
        header = state.header
        kept = state.canonical_shards[:adopt_shards]
        linked = adopt_tables
        # A worker shard holding exactly the lines of the next canonical
        # shard (every shard of a one-worker build) is hard-linked into
        # place: its bytes were fsynced when it was committed.
        while linked < len(sequence):
            source, shard_index, _ = sequence[linked]
            entry = sources[source][shard_index]
            path = self.directory / entry["file"]
            if source == "canonical" or sequence[linked : linked + self.shard_size] != [
                (source, shard_index, line) for line in range(entry["count"])
            ] or path.stat().st_size != entry["bytes"]:
                break
            kept.append(_link_shard(self.directory, entry, len(kept), header["generation"]))
            linked += entry["count"]
        lines = (
            shard_lines(source, shard_index)[line_index]
            for source, shard_index, line_index in sequence[linked:]
        )
        fault = self.parent.fault
        publish_layout(
            self.directory,
            lines,
            {**header, "epochs": seal_epochs(header["epochs"], header["epoch"], len(sequence))},
            tables,
            stats,
            shards=kept,
            fault=fault if fault is not None and fault.worker is None else None,
        )
        return len(sequence)

    # -- reporting ----------------------------------------------------------

    def extraction_report(self):
        """A legacy-style extraction report for the coordinator session.

        Parallel extraction is distributed, so this aggregates what the
        coordinator observed: searched topics, per-worker API requests
        and simulated waits, stream size and dedup counts. Downloads
        performed by workers are visible in the merged pipeline counters
        under the ``extraction`` stage.
        """
        from ..core.extraction import ExtractionReport

        report = ExtractionReport()
        for topic in self.topics[self.first_topic : self.next_emit]:
            report.topics.append(topic)
            meta = self.search_meta.get(topic)
            if meta is not None:
                report.initial_counts[topic] = meta["initial_count"]
                report.segmented_queries[topic] = meta["segmented_queries"]
        report.total_urls = len(self.stream) + self.duplicate_urls
        report.duplicate_urls = self.duplicate_urls
        report.files_downloaded = len(self.resolved)
        report.api_requests = self.api_requests
        report.simulated_wait_seconds = self.wait_seconds
        return report
