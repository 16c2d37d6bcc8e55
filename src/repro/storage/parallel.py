"""Process-parallel corpus builds: shard-per-worker, merge-on-commit.

The GitTables construction flow is embarrassingly parallel per source
file — search, download, parse, filter, annotate, curate — but the
single-process :class:`~repro.storage.sharded.ShardedCorpusWriter`
serializes the commit path. This module lifts a store-targeted build to
``N`` worker *processes* while keeping every single-writer durability
invariant:

* **Disjoint shard ranges.** Worker ``k`` appends only to its own
  ``shard-<k>-<seq>.jsonl`` files and records commits in its own
  ``manifest-<k>.log`` (one O(batch) delta record per commit, fsynced —
  the worker's durable commit point). Workers never share a file, so no
  cross-process locking exists anywhere on the write path.
* **Merge on commit boundaries.** The coordinator folds completed
  worker commit records — in deterministic (worker id, commit seq)
  order — into the canonical ``manifest.json`` so a mid-build directory
  is readable by :class:`~repro.storage.sharded.ShardedJsonlStore` at
  any time. The mid-build manifest carries a ``"parallel"`` marker; the
  worker logs stay authoritative for resume.
* **Byte-identical finalize.** When the in-order curated prefix of the
  source-URL stream covers ``target_tables``, the coordinator rewrites
  the worker shards into canonical serial-order ``shard_00000.jsonl``…
  files, publishes the canonical manifest atomically, and sweeps all
  worker-scoped files — the stage → rename → publish → sweep routine
  compaction also runs (:func:`~repro.storage.sharded.publish_layout`).
  The finished directory is **byte-identical** to a serial build of the
  same configuration — regardless of process count, commit cadence, or
  how many times the build was killed and resumed.
* **Crash resume.** Killing any subset of workers (or the coordinator)
  at any point loses at most the uncommitted buffers: each worker log's
  torn tail is truncated on reopen and its shard tails healed exactly
  like the single-writer path; the coordinator re-derives completed
  work from the logs, re-dispatches the rest, and the process count may
  differ between sessions (it is excluded from the config fingerprint).

Work distribution
-----------------

The coordinator enumerates the deterministic source-URL stream — topics
in selection order, per-topic search results in API order, URLs
de-duplicated first-topic-wins, exactly the serial
:class:`~repro.pipeline.stages.ExtractStage` order — assigning each URL
a global **stream index**. Topic searches and URL processing are both
dispatched to workers; each worker runs its own
:class:`~repro.github.client.GitHubClient` (its own rate budget, as a
production deployment would use one API token per worker) and a private
:class:`~repro.pipeline.stages.PipelineComponents` set built from the
pickled config after the fork/spawn. Worker commit records carry the
stream indices they resolved (``"done"``), including URLs dropped by
parsing or filtering, so a resumed coordinator knows precisely which
prefix of the stream is complete. The build stops as soon as the
resolved in-order prefix contains ``target_tables`` curated tables —
the same early-stop semantics as the serial streaming runner, modulo a
bounded overshoot of at most the in-flight waves (surplus tables are
dropped at finalize, which keeps the final bytes identical).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .._procs import PIPE_ERRORS, Child, build_mp_context, shutdown, wait
from ..errors import CorpusError
from ._io import FaultSpec, fault_point, fsync_dir
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
    _apply_delta,
    _empty_stats,
    _iter_log_records,
    _read_manifest,
    _replay_manifest_log,
    _shard_lines,
    _write_manifest,
    build_manifest,
    heal_shard_files,
    is_sharded_dir,
    manifest_header,
    manifest_is_sealed,
    publish_layout,
    seal_epochs,
    sweep_layout,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import CorpusBuilder, PipelineResult

__all__ = [
    "FaultSpec",
    "WorkerShardWriter",
    "ParallelCorpusBuilder",
    "has_parallel_state",
    "merge_worker_manifests",
    "worker_log_filename",
    "worker_shard_filename",
]


def worker_shard_filename(worker: int, seq: int) -> str:
    """Worker ``worker``'s ``seq``-th shard file (``shard-<worker>-<seq>.jsonl``)."""
    return f"shard-{worker:02d}-{seq:05d}.jsonl"


def worker_log_filename(worker: int) -> str:
    """Worker ``worker``'s manifest delta log (``manifest-<worker>.log``)."""
    return f"manifest-{worker:02d}.log"


def _worker_log_ids(directory: Path) -> list[int]:
    return numbered_sidecar_ids(directory, WORKER_LOG_GLOB)


def _acquire_log_lock(directory: Path, worker: int, timeout: float):
    """Exclusively ``flock`` one worker's log; returns the holding handle.

    Blocks (polling) until the current holder — typically an orphaned
    worker of a killed coordinator draining its last batch — exits and
    the kernel releases the lock, or ``timeout`` elapses (another build
    session is genuinely alive: refuse to run concurrently). Returns
    ``None`` on platforms without ``fcntl`` (locking is best-effort
    there).
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    import errno

    handle = open(directory / worker_log_filename(worker), "ab")
    deadline = time.monotonic() + timeout
    while True:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            return handle
        except OSError as error:
            if error.errno not in (errno.EAGAIN, errno.EWOULDBLOCK, errno.EACCES):
                # flock unsupported here (e.g. some network filesystems):
                # degrade to the same best-effort mode as no-fcntl
                # platforms instead of misreporting a live session.
                handle.close()  # pragma: no cover - filesystem-dependent
                return None  # pragma: no cover - filesystem-dependent
            if time.monotonic() >= deadline:
                handle.close()
                raise CorpusError(
                    f"worker {worker}'s manifest log in {directory} is locked "
                    "by another live process; a previous build session is "
                    "still running against this directory"
                )
            time.sleep(0.05)


def has_parallel_state(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` holds in-flight process-parallel build state.

    True when any worker log/checkpoint exists or the manifest carries
    the mid-build ``"parallel"`` marker. Such a directory must be
    resumed through :class:`ParallelCorpusBuilder` (with *any* process
    count, including 1) — the single-writer path does not know how to
    append to worker-scoped shards.
    """
    directory = Path(directory)
    if _worker_log_ids(directory) or worker_checkpoint_ids(directory):
        return True
    if is_sharded_dir(directory):
        try:
            return "parallel" in _read_manifest(directory)
        except CorpusError:
            return False
    return False


class WorkerShardWriter(ShardedCorpusWriter):
    """One build worker's append-only writer over its private shard range.

    Durability state is the worker's ``manifest-<k>.log`` alone — the
    worker never touches ``manifest.json`` (the coordinator owns it).
    Opening replays the log's valid prefix, truncates a torn tail, and
    heals this worker's shard files exactly like the single-writer path
    (tails truncated to committed byte counts, orphan rollover shards of
    *this worker only* deleted). ``commit(done=...)`` additionally
    records the global stream indices the commit resolves — including
    URLs whose tables were dropped by parsing or filtering — which is
    what makes a multi-process resume able to reconstruct precisely
    which slice of the source stream is finished.
    """

    #: How long to wait for a previous holder of a worker scope (an
    #: orphaned worker of a killed coordinator, finishing its last
    #: batch) to release the log lock before giving up.
    LOCK_TIMEOUT_SECONDS = 10.0

    def __init__(
        self,
        directory: str | os.PathLike[str],
        worker: int,
        shard_size: int,
        name: str = "gittables",
        fault: FaultSpec | None = None,
    ) -> None:
        if worker < 0:
            raise ValueError("worker must be >= 0")
        self.worker = worker
        #: Global stream indices resolved by committed records.
        self.done_indices: set[int] = set()
        self._pending_done: list[int] = []
        self._pending_url_indices: dict[str, int] = {}
        self._lock_handle = None
        self._acquire_scope_lock(Path(directory))
        super().__init__(
            directory,
            shard_size=shard_size,
            name=name,
            fault=fault if fault is not None and fault.worker == worker else None,
        )

    def _acquire_scope_lock(self, directory: Path) -> None:
        """Exclusively lock this worker's log for the writer's lifetime.

        Guards the one multi-writer race the architecture permits: a
        coordinator SIGKILLed mid-build leaves workers that only notice
        the dead parent at their next idle tick or batch boundary, so a
        promptly resumed session could otherwise open the same worker
        scope while the orphan finishes its current batch. ``flock`` is
        advisory, per-inode, and released by the kernel the instant the
        holder dies — exactly the crash semantics the rest of the design
        assumes. Best-effort on platforms without ``fcntl``.
        """
        directory.mkdir(parents=True, exist_ok=True)
        self._lock_handle = _acquire_log_lock(
            directory, self.worker, self.LOCK_TIMEOUT_SECONDS
        )
        # The lock acquisition may have created the log file; make its
        # dirent durable before any record can reference this worker.
        fsync_dir(directory)

    def close(self) -> None:
        """Release the worker-scope lock (process exit does this too)."""
        if self._lock_handle is not None:
            self._lock_handle.close()
            self._lock_handle = None

    # -- durability scope ---------------------------------------------------

    def shard_filename(self, index: int) -> str:
        return worker_shard_filename(self.worker, index)

    def _log_path(self) -> Path:
        return self.directory / worker_log_filename(self.worker)

    def _owned_shard_paths(self):
        return self.directory.glob(f"shard-{self.worker:02d}-*.jsonl")

    def _has_existing_state(self) -> bool:
        return self._log_path().exists()

    def _load_existing_state(self) -> None:
        """Rebuild committed state by replaying this worker's log."""
        state = {"shards": [], "tables": {}, "stats": _empty_stats()}
        valid_bytes = 0
        for record, raw_length in _iter_log_records(self._log_path()):
            _apply_delta(state, record)
            self.done_indices.update(record.get("done", ()))
            valid_bytes += raw_length
        self._truncate_log(valid_bytes)
        self._shards = state["shards"]
        self._tables = state["tables"]
        self._stats = state["stats"]

    # -- commit path --------------------------------------------------------

    def commit(self, done=None, indices: dict[str, int] | None = None) -> int:  # type: ignore[override]
        """Flush pending tables and durably record the resolved indices.

        ``done`` lists every global stream index this commit resolves;
        ``indices`` maps source URLs to their stream index so each
        stored table's log entry can pin the table to its position in
        the serial stream (what the coordinator orders the canonical
        rewrite by).
        """
        self._pending_done = sorted(done) if done else []
        self._pending_url_indices = dict(indices) if indices else {}
        try:
            committed = super().commit()
        finally:
            pending = self._pending_done
            self._pending_done = []
            self._pending_url_indices = {}
        self.done_indices.update(pending)
        return committed

    def _record_empty_commit(self) -> None:
        # A batch whose tables were all dropped still advances the
        # resume frontier: record the resolved indices, nothing else.
        if self._pending_done:
            fault_point(self.fault, "before-log-append", self._commit_index)
            self._append_delta({}, {}, _empty_stats())
            fault_point(self.fault, "after-log-append", self._commit_index)

    def _record_commit(self, touched: dict, new_tables: dict, stats_delta: dict) -> None:
        # Workers only ever append; manifest.json belongs to the
        # coordinator, so there is no compaction on this side.
        self._append_delta(touched, new_tables, stats_delta)

    def _delta_record(self, touched: dict, new_tables: dict, stats_delta: dict) -> dict:
        # Pin each stored table to its stream index (mutating the shared
        # location dicts keeps the in-memory state and any replay of
        # this record consistent).
        for entry in new_tables.values():
            index = self._pending_url_indices.get(entry.get("source_url"))
            if index is not None:
                entry["index"] = index
        record = super()._delta_record(touched, new_tables, stats_delta)
        record["done"] = self._pending_done
        return record

    def finalize(self) -> int:
        raise CorpusError(
            "worker writers never finalize; the build coordinator merges "
            "worker logs into the canonical manifest"
        )


# ---------------------------------------------------------------------------
# Worker process
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
    """Everything a worker process needs, shippable through fork or pickle."""

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


def _search_topic(extractor, topic: str):
    """Collect one topic's URL metadata (the searchable half of extraction)."""
    from ..core.extraction import ExtractionReport

    report = ExtractionReport()
    items = extractor.collect_urls(topic, report=report)
    payload = [
        {
            "url": item.url,
            "repository": item.repository,
            "path": item.path,
            "size_bytes": item.size_bytes,
        }
        for item in items.values()
    ]
    return payload, report


def _download_unit(client, unit: _WorkUnit):
    """Download one unit's content (mirrors ``CSVExtractor.extract_topic``)."""
    from ..core.extraction import ExtractedFile

    repository = client.instance.repository(unit.repository)
    content = client.raw_content(unit.url)
    return ExtractedFile(
        url=unit.url,
        repository=unit.repository,
        path=unit.path,
        topic=unit.topic,
        content=content,
        license=repository.license if repository else None,
        size_bytes=unit.size_bytes,
    )


def _worker_main(conn, spec: _WorkerSpec) -> None:
    """Worker process entry point: search and process tasks until told to stop.

    Tasks arrive on ``conn`` as ``("search", topic)`` or ``("process",
    wave_id, [work units])``; ``None`` is the stop message. Each task is
    answered on the same pipe, ``("searched", ...)`` or ``("done",
    ...)``; a failure is answered with ``("error", worker, traceback)``
    and ends the worker. Every processed batch is committed (shard
    append + fsync, delta record + fsync) before the next is touched,
    and the per-worker :class:`~repro.storage.checkpoint.BuildCheckpoint`
    is refreshed after each commit, so SIGKILL at any instant loses at
    most one uncommitted batch of *corpus data*. Report counters share
    the serial build's slightly weaker window: a kill between the commit
    and the checkpoint save loses that one batch's counters (the corpus
    bytes are unaffected — resume never re-does committed work, so the
    counters stay a lower bound). If the coordinator disappears (parent
    pid changes), the worker exits on its own at its next idle tick or
    batch boundary rather than leak.
    """
    import traceback

    from ..core.extraction import CSVExtractor
    from ..github.client import GitHubClient
    from ..github.instance import build_instance
    from ..pipeline.report import combine_counters
    from ..pipeline.runner import Pipeline
    from ..pipeline.stage import iter_chunks
    from ..pipeline.stages import PipelineComponents, processing_stages

    def orphaned() -> bool:
        return os.getppid() != spec.parent_pid

    def reply(message) -> bool:
        try:
            conn.send(message)
        except PIPE_ERRORS:
            return False  # the coordinator is gone
        return True

    try:
        artifacts = IndexArtifactStore.for_corpus_dir(spec.directory) if spec.use_artifacts else None
        components = PipelineComponents.from_config(spec.config, artifacts=artifacts)
        instance = spec.instance
        if instance is None:
            instance = build_instance(spec.generator_config)
        client = GitHubClient(instance, real_time_factor=spec.real_time_factor)
        extractor = CSVExtractor(client, spec.config.extraction)
        writer = WorkerShardWriter(
            spec.directory, spec.worker, shard_size=spec.shard_size, fault=spec.fault
        )
        checkpoint = BuildCheckpoint.load(spec.directory, worker=spec.worker)
        base_counters = dict(checkpoint.counters) if checkpoint is not None else {}
        session_counters: dict = {"sessions": 1}
    except Exception:  # pragma: no cover - init failures surface as errors
        reply(("error", spec.worker, traceback.format_exc()))
        return

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
            if task[0] == "search":
                topic = task[1]
                requests_before = client.request_count
                wait_before = client.total_wait_seconds
                payload, report = _search_topic(extractor, topic)
                if not reply(
                    (
                        "searched",
                        spec.worker,
                        topic,
                        payload,
                        {
                            "api_requests": client.request_count - requests_before,
                            "wait_seconds": client.total_wait_seconds - wait_before,
                            "initial_count": report.initial_counts.get(topic, 0),
                            "segmented_queries": report.segmented_queries.get(topic, 0),
                        },
                    )
                ):
                    return
                continue
            wave_id, units = task[1], task[2]
            for batch in iter_chunks(units, spec.batch_size):
                if orphaned():
                    # Orphaned mid-wave: stop at the batch boundary so
                    # the scope lock frees for a resumed session fast
                    # (everything committed so far is durable).
                    return
                download_started = time.perf_counter()
                files = [_download_unit(client, unit) for unit in batch]
                download_seconds = time.perf_counter() - download_started
                outcome = Pipeline(
                    processing_stages(components),
                    batch_size=spec.batch_size,
                    name="gittables-build-worker",
                ).run(files, config=spec.config)
                writer.extend(outcome.items)
                writer.commit(
                    done=[unit.index for unit in batch],
                    indices={unit.url: unit.index for unit in batch},
                )
                batch_counters = outcome.report.counters()
                batch_counters["sessions"] = 0
                # Downloads are extraction work done worker-side; count
                # them under the stage name the serial graph uses.
                batch_counters["stages"] = {
                    "extraction": {
                        "items_in": len(batch),
                        "items_out": len(files),
                        "cumulative_seconds": download_seconds,
                    },
                    **batch_counters["stages"],
                }
                session_counters = combine_counters(session_counters, batch_counters)
                merged = combine_counters(base_counters, session_counters)
                BuildCheckpoint(
                    fingerprint=spec.fingerprint,
                    sessions=merged["sessions"],
                    counters=merged,
                ).save(spec.directory, worker=spec.worker)
            if not reply(("done", spec.worker, wave_id, len(units))):
                return
        except Exception:
            reply(("error", spec.worker, traceback.format_exc()))
            return


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _StoreState:
    """Committed state re-derived from a build directory on open."""

    #: Serial-era canonical portion: table id -> {shard, line, source_url}.
    canonical_tables: dict = field(default_factory=dict)
    #: Serial-era canonical shard entries (manifest order).
    canonical_shards: list = field(default_factory=list)
    #: Statistics of the canonical portion alone (not worker tables).
    canonical_stats: dict = field(default_factory=_empty_stats)
    #: worker id -> replayed worker manifest state.
    worker_states: dict = field(default_factory=dict)
    #: worker id -> resolved stream indices.
    worker_done: dict = field(default_factory=dict)
    #: worker id -> byte offset of the log's valid committed prefix.
    worker_log_offsets: dict = field(default_factory=dict)
    #: Whether manifest.json exists without the mid-build marker.
    manifest_is_canonical: bool = False
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

    Worker logs are authoritative for worker-scoped state (the merged
    mid-build manifest is a convenience view); the canonical portion of
    a manifest — entries referencing serial-named ``shard_*.jsonl``
    files — is authoritative for work a *serial* session committed
    before the build went parallel.

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
        state.manifest_is_canonical = "parallel" not in manifest
        state.header = manifest_header(manifest)
        if state.manifest_is_canonical:
            # A serial-era manifest's stats describe exactly the
            # canonical tables being adopted.
            state.canonical_stats = manifest.get("stats", _empty_stats())
        else:
            # A mid-build merged manifest's stats span worker tables
            # too; the canonical slice rides in the parallel marker.
            state.canonical_stats = manifest["parallel"].get(
                "canonical_stats", _empty_stats()
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
        lock = _acquire_log_lock(
            directory, worker, WorkerShardWriter.LOCK_TIMEOUT_SECONDS
        )
        try:
            worker_state = {"shards": [], "tables": {}, "stats": _empty_stats()}
            done: set[int] = set()
            offset = 0
            for record, raw_length in _iter_log_records(
                directory / worker_log_filename(worker)
            ):
                _apply_delta(worker_state, record)
                done.update(record.get("done", ()))
                offset += raw_length
        finally:
            if lock is not None:
                lock.close()
        state.worker_states[worker] = worker_state
        state.worker_done[worker] = done
        state.worker_log_offsets[worker] = offset
    return state


def _fold_stats(into: dict, source: dict) -> None:
    """Sum one stats dict into another (totals plus counter families)."""
    for family in ("total_rows", "total_columns"):
        into[family] += source.get(family, 0)
    for family in ("topics", "repositories"):
        counts = into[family]
        for key, value in source.get(family, {}).items():
            counts[key] = counts.get(key, 0) + value


def merge_worker_manifests(
    state: _StoreState, shard_size: int = 0, processes: int | None = None
) -> dict:
    """The merged mid-build manifest of a store's committed state.

    A pure function of the replayed state: canonical (serial-era) shards
    come first, then each worker's shards in deterministic (worker id,
    shard seq) order, with table locations remapped into the merged
    shard list and statistics summed in the same order — so *any*
    interleaving of worker commits that leaves the same records in the
    logs merges to the identical manifest. The ``"parallel"`` marker
    tells readers this is a mid-build view and resuming coordinators
    that the worker logs — not this manifest — are authoritative.
    """
    shards: list = list(state.canonical_shards)
    tables: dict = {}
    stats = _empty_stats()
    for table_id, entry in state.canonical_tables.items():
        tables[table_id] = entry
    _fold_stats(stats, state.canonical_stats)
    for worker in sorted(state.worker_states):
        worker_state = state.worker_states[worker]
        base = len(shards)
        shards.extend(worker_state["shards"])
        for table_id, entry in worker_state["tables"].items():
            moved = dict(entry)
            moved["shard"] = base + entry["shard"]
            tables[table_id] = moved
        _fold_stats(stats, worker_state["stats"])
    header = {**state.header, "shard_size": shard_size}
    manifest = build_manifest(shards=shards, tables=tables, stats=stats, **header)
    manifest["parallel"] = {
        "processes": processes,
        "canonical_stats": state.canonical_stats,
    }
    return manifest


class ParallelCorpusBuilder:
    """Coordinates a multi-process corpus build over one store directory.

    Wraps a configured :class:`~repro.core.pipeline.CorpusBuilder` and
    executes its store build across ``processes`` worker processes (see
    the module docstring for the architecture). Not constructed directly
    in normal use — ``CorpusBuilder.build(store_dir=..., processes=N)``
    and ``GitTables.build(..., processes=N)`` route here, including for
    ``processes=1`` resumes of a directory that holds parallel state.

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

        finished = state.manifest_is_canonical and manifest_is_sealed(state.header)
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
        if extend and finished:
            # Growing a finalized store: open the next epoch. The seed
            # merge below publishes the bumped manifest (as a mid-build
            # view) before any work is dispatched, so a crashed
            # extension resumes — now unsealed — without bumping again.
            header["epoch"] = len(header["epochs"]) + 1

        # Resumes keep the shard size the directory was started with
        # (same behaviour as the single-writer resume path).
        header["shard_size"] = header["shard_size"] or shard_size
        if checkpoint is None:
            checkpoint = BuildCheckpoint(fingerprint=fingerprint)
        base_counters = dict(checkpoint.counters)
        checkpoint.sessions += 1
        checkpoint.save(directory)
        # Truncate torn canonical shard tails a crashed serial session
        # left, with the single-writer resume's own routine (worker
        # shards are healed by their own writers).
        heal_shard_files(directory, state.canonical_shards, directory.glob("shard_*.jsonl"))
        # Publish the coordinator's (eagerly built) ontology label
        # indexes before any worker spawns: every worker then resolves
        # them with one mmap instead of re-embedding per process.
        if self.use_artifacts:
            builder.annotator.publish_artifacts(IndexArtifactStore.for_corpus_dir(directory))

        run = _CoordinatorRun(self, directory, topic_selection.topics, fingerprint, state)
        # Seed the merged manifest before any work is dispatched: like
        # the serial writer's first-commit manifest, it pins the
        # directory's shard_size (and marks it parallel) so a build
        # killed before the first throttled merge still resumes with
        # the layout it was started with.
        run.merge_manifest(force=True)
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
        including any serial sessions the directory saw before going
        parallel, whose counters arrive through ``base_counters``.
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
    """One coordinator session: dispatch, merge-on-commit, finalize."""

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

        # --- source-URL stream enumeration --------------------------------
        #: Emitted stream units, index-aligned (stream[i].index == i).
        self.stream: list[_WorkUnit] = []
        self.seen_urls: set[str] = set()
        #: topic -> search payload, for topics searched out of order.
        self.searched: dict[str, list] = {}
        self.search_meta: dict[str, dict] = {}
        self.next_topic = 0  # next topic to hand out for searching
        self.next_emit = 0  # next topic (in order) awaiting emission
        self.duplicate_urls = 0

        # --- resolution state ----------------------------------------------
        #: stream index -> ("canonical"|worker id, shard index, line index)
        self.stored: dict[int, tuple] = {}
        self.resolved: set[int] = set()
        for worker, done in state.worker_done.items():
            self.resolved.update(done)
        #: source_url -> stored location awaiting a stream index. Tables
        #: a *serial* session committed carry no index (the serial
        #: writer does not know it); they are mapped as enumeration
        #: reaches their URL. Worker-committed tables carry their index
        #: in the log and are mapped immediately.
        self.pending_url_locations: dict[str, tuple] = {}
        for table_id, entry in state.canonical_tables.items():
            self.pending_url_locations[entry["source_url"]] = (
                "canonical",
                entry["shard"],
                entry["line"],
            )
        for worker, worker_state in state.worker_states.items():
            for table_id, entry in worker_state["tables"].items():
                location = (worker, entry["shard"], entry["line"])
                if "index" in entry:
                    self.stored[entry["index"]] = location
                else:  # pragma: no cover - defensive for foreign logs
                    self.pending_url_locations[entry["source_url"]] = location

        # --- sealed-prefix fast-forward ------------------------------------
        #: Source URL of the last table of the sealed canonical prefix —
        #: the extraction stream's high-water mark. When the canonical
        #: tables are exactly a sealed epoch's prefix (a fresh extension,
        #: or a crashed extension being resumed), every stream URL up to
        #: and including this one was already processed by the sealed
        #: build: committed (and mapped via ``pending_url_locations``) or
        #: rejected by parsing/filtering. Enumeration resolves those
        #: units directly instead of re-dispatching the rejected ones to
        #: workers — the parallel twin of the serial path's
        #: ``ResumeSkipStage(fast_forward_past=...)`` — so extension
        #: parse work stays O(tail). Mid-build canonical state (no seal,
        #: or serial commits past the seal) gets no marker: rejected
        #: URLs are then tracked by worker ``done`` records instead.
        self.fast_forward_past: str | None = None
        epochs = state.header["epochs"]
        if epochs and len(state.canonical_tables) == epochs[-1]:
            last_entry = max(
                state.canonical_tables.values(),
                key=lambda entry: (entry["shard"], entry["line"]),
            )
            self.fast_forward_past = last_entry.get("source_url")
        self._fast_forwarding = self.fast_forward_past is not None

        # --- dispatch bookkeeping ------------------------------------------
        #: Indices handed to a worker this session and not yet resolved
        #: (resolution removes them, so ``len(dispatched)`` is the
        #: in-flight count).
        self.dispatched: set[int] = set()
        self._wave_cursor = 0
        self._frontier_index = 0
        self._frontier_curated = 0
        self.children: list[Child] = []
        self.idle: list[int] = []
        self.outstanding: dict[int, tuple] = {}
        self.next_wave_id = 0
        self._log_offsets: dict[int, int] = dict(state.worker_log_offsets)
        self._harvests_since_merge = 0
        self.api_requests = 0
        self.wait_seconds = 0.0

    @property
    def urls_unmapped(self) -> int:
        """Stored tables whose stream index is not yet known."""
        return len(self.pending_url_locations)

    # -- worker lifecycle ---------------------------------------------------

    def spawn_workers(self) -> None:
        parent = self.parent
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
        batch's counters go unreported).
        """
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
                if item["url"] in self.seen_urls:
                    self.duplicate_urls += 1
                    continue
                self.seen_urls.add(item["url"])
                index = len(self.stream)
                self.stream.append(
                    _WorkUnit(
                        index=index,
                        url=item["url"],
                        repository=item["repository"],
                        path=item["path"],
                        topic=topic,
                        size_bytes=item["size_bytes"],
                    )
                )
                location = self.pending_url_locations.pop(item["url"], None)
                if location is not None:
                    self.stored[index] = location
                    self.resolved.add(index)
                    self.dispatched.discard(index)
                elif self._fast_forwarding:
                    # Inside the sealed prefix but not stored: a sealed
                    # epoch already processed and *rejected* this URL.
                    # Resolve it here so it is never dispatched again.
                    self.resolved.add(index)
                if self._fast_forwarding and item["url"] == self.fast_forward_past:
                    self._fast_forwarding = False
            self.next_emit += 1

    # -- progress accounting ------------------------------------------------

    def frontier(self) -> tuple[int, int]:
        """``(first unresolved index, curated tables before it)``.

        Advanced incrementally from the last call: an index, once
        resolved, never unresolves, and a resolved index's stored
        location is recorded in the same harvest step, so the walk
        never needs to restart from zero (keeps the dispatch loop
        linear in stream length overall).
        """
        index, curated = self._frontier_index, self._frontier_curated
        total = len(self.stream)
        while curated < self.config.target_tables and (
            index < total or index in self.resolved
        ):
            if index not in self.resolved:
                break
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

    # -- merge-on-commit ----------------------------------------------------

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
            for table_id, entry in record.get("tables", {}).items():
                if "index" in entry:
                    self.stored[entry["index"]] = (worker, entry["shard"], entry["line"])
            for index in record.get("done", ()):
                self.resolved.add(index)
                self.dispatched.discard(index)
            offset += raw_length
        self._log_offsets[worker] = offset

    #: Completed-wave harvests folded in between merged-manifest
    #: publications. The merged view is a reader convenience (worker
    #: logs stay authoritative for resume), so publishing it — an
    #: O(total tables) rewrite — is throttled the same way the serial
    #: writer throttles full-manifest compaction behind its delta log.
    MERGE_EVERY = 8

    def merge_manifest(self, force: bool = False) -> None:
        """Publish the mid-build merged view as the canonical manifest."""
        if not force and self._harvests_since_merge < self.MERGE_EVERY:
            return
        self._harvests_since_merge = 0
        manifest = merge_worker_manifests(
            self.state, shard_size=self.shard_size, processes=self.parent.processes
        )
        _write_manifest(self.directory, manifest)

    # -- dispatch loop ------------------------------------------------------

    def execute(self) -> None:
        if self.target_met() and self.urls_unmapped == 0:
            return  # resumed after the last wave; nothing to dispatch
        self.spawn_workers()
        while True:
            self._emit_ready_topics()
            if self.urls_unmapped == 0 and (self.target_met() or self.exhausted()):
                # Leave a current merged view behind for readers (and
                # for the finalize fault-injection window).
                self.merge_manifest(force=True)
                return
            if self.urls_unmapped > 0 and self.next_emit >= len(self.topics):
                raise CorpusError(
                    f"corpus at {self.directory} holds tables whose source URLs "
                    "do not appear in this configuration's extraction stream; "
                    "the directory does not match the configuration"
                )
            self._dispatch()
            self._collect()

    def _dispatch(self) -> None:
        """Hand search and process tasks to idle workers."""
        while self.idle:
            # Processing beats searching when enough URLs are buffered:
            # waves resolve the frontier the target check needs.
            wave = self._next_wave()
            if wave:
                worker = self.idle.pop(0)
                wave_id = self.next_wave_id
                self.next_wave_id += 1
                self.outstanding[worker] = ("process", wave_id)
                self.dispatched.update(unit.index for unit in wave)
                self._send(worker, ("process", wave_id, wave))
                continue
            if self.next_topic < len(self.topics):
                worker = self.idle.pop(0)
                topic = self.topics[self.next_topic]
                self.next_topic += 1
                self.outstanding[worker] = ("search", topic)
                self._send(worker, ("search", topic))
                continue
            return

    def _next_wave(self) -> list:
        """The next slice of unresolved, undispatched stream URLs."""
        remaining = self._remaining_estimate()
        limit = min(remaining - len(self.dispatched), ParallelCorpusBuilder.WAVE_UNITS)
        if limit <= 0:
            return []
        while self._wave_cursor < len(self.stream) and (
            self.stream[self._wave_cursor].index in self.resolved
            or self.stream[self._wave_cursor].index in self.dispatched
        ):
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

        The curated-per-URL rate observed so far (conservative default
        before enough evidence) sizes how far past the frontier the
        build reaches for the missing tables; the 1.2 slack keeps a
        second round of dispatching rare while bounding overshoot.
        """
        _, curated = self.frontier()
        missing = self.config.target_tables - curated
        if missing <= 0:
            return 0
        resolved_count = len(self.resolved)
        stored_count = len(self.stored) + len(self.pending_url_locations)
        rate = (stored_count / resolved_count) if resolved_count >= 64 else 0.25
        rate = max(rate, 0.05)
        return max(self.builder.batch_size, int(missing / rate * 1.2))

    def _send(self, worker: int, task: tuple) -> None:
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
        """Wait for worker messages, or a worker's death; merge as commits land.

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
            _, worker, _wave_id, _unit_count = message
            self.outstanding.pop(worker, None)
            self.idle.append(worker)
            # Fold this worker's commit records (in log order — i.e.
            # commit-seq order) into coordinator state; the merged
            # manifest is published every MERGE_EVERY harvests.
            self.harvest_worker_log(worker)
            self._harvests_since_merge += 1
            self.merge_manifest()

    # -- finalize -----------------------------------------------------------

    def final_sequence(self) -> Iterator[tuple]:
        """Stored table locations of the final corpus, in stream order."""
        curated = 0
        index = 0
        total = len(self.stream)
        while curated < self.config.target_tables and (
            index < total or index in self.resolved
        ):
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

    def _adopted_canonical_prefix(self, sequence: list) -> tuple[int, int]:
        """``(full shards, tables)`` of the canonical prefix adopted as-is.

        When the final sequence begins with *every* canonical (serial- or
        prior-epoch) table in its existing on-disk order — the resume and
        epoch-extension cases — the full canonical shards already hold
        exactly the bytes finalize would rewrite into them. Adopting them
        untouched makes finalize O(new tables + one partial shard)
        instead of O(corpus): only the trailing partial shard (so new
        tables can pack into it) and everything after is re-emitted.
        Returns ``(0, 0)`` whenever the alignment does not hold, which
        falls back to the full rewrite.
        """
        canonical = sorted(
            self.state.canonical_tables.values(),
            key=lambda entry: (entry["shard"], entry["line"]),
        )
        if not canonical or len(sequence) < len(canonical):
            return 0, 0
        aligned = all(
            location == ("canonical", entry["shard"], entry["line"])
            for location, entry in zip(sequence, canonical)
        )
        if not aligned:
            return 0, 0
        adopt_shards = 0
        adopt_tables = 0
        for entry in self.state.canonical_shards:
            if entry["count"] != self.shard_size:
                break
            adopt_shards += 1
            adopt_tables += entry["count"]
        return adopt_shards, adopt_tables

    def finalize(self) -> int:
        """Rewrite worker shards into the canonical serial-order layout.

        The final table sequence is published through
        :func:`~repro.storage.sharded.publish_layout`: canonical shards
        are staged as ``.tmp`` siblings (the worker shards — the data
        source — are never touched), renamed into place, the canonical
        manifest is published atomically (the commit point), and
        worker-scoped files, stale canonical shards and any serial-era
        ``manifest.log`` are swept. A crash before the publish leaves the
        worker logs authoritative; a crash after it leaves only the
        sweep, which a resumed build reuses. Every byte written is a
        deterministic function of the final table sequence, so
        re-running finalize after a crash (possibly with a different
        process count) produces the same files. A final sequence that
        extends the existing canonical layout — the epoch-extension case
        — keeps the full canonical shards without rewriting them (see
        :meth:`_adopted_canonical_prefix`). Returns the table count.
        """
        state = self.state
        sources: dict = {"canonical": state.canonical_shards}
        for worker, worker_state in state.worker_states.items():
            sources[worker] = worker_state["shards"]
        sequence = list(self.final_sequence())
        adopt_shards, adopt_tables = self._adopted_canonical_prefix(sequence)
        tables: dict = {}
        stats = _empty_stats()
        #: Sequence positions whose stats are already in ``stats``.
        counted = 0
        if adopt_shards:
            # The canonical stats cover *all* canonical tables —
            # including the re-emitted partial-shard ones — so seed them
            # wholesale and skip re-accumulating those positions below.
            counted = len(state.canonical_tables)
            _fold_stats(stats, state.canonical_stats)
            # Insert in (shard, line) order — the sequence order — so the
            # manifest's table map is byte-identical to a full rewrite's.
            for table_id, entry in sorted(
                state.canonical_tables.items(),
                key=lambda item: (item[1]["shard"], item[1]["line"]),
            ):
                if entry["shard"] < adopt_shards:
                    tables[table_id] = {
                        "shard": entry["shard"],
                        "line": entry["line"],
                        "source_url": entry["source_url"],
                    }
        shard_lines = lru_cache(maxsize=4)(
            lambda source, shard: _shard_lines(self.directory, sources[source][shard])
        )

        def lines():
            # Adopted shards are full, so position // shard_size is the
            # shard every later table lands in.
            for position in range(adopt_tables, len(sequence)):
                source, shard_index, line_index = sequence[position]
                line = shard_lines(source, shard_index)[line_index]
                payload = json.loads(line)
                tables[payload["table_id"]] = {
                    "shard": position // self.shard_size,
                    "line": position % self.shard_size,
                    "source_url": payload["source_url"],
                }
                if position >= counted:
                    _accumulate_stats(
                        stats,
                        len(payload["rows"]),
                        len(payload["header"]),
                        payload["topic"],
                        payload["repository"],
                    )
                yield line

        fault = self.parent.fault
        header = state.header
        publish_layout(
            self.directory,
            lines(),
            {**header, "epochs": seal_epochs(header["epochs"], header["epoch"], len(sequence))},
            tables,
            stats,
            shards=state.canonical_shards[:adopt_shards],
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
        for topic in self.topics[: self.next_emit]:
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
