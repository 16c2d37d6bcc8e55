"""Hand-built store directories that the writer no longer produces.

Directories written before the writer became per-worker may hold a
single-writer ``manifest.log`` of uncompacted delta records beside
``manifest.json``, and a published store may have tables appended
behind its back. Readers, resuming builds and compaction must still
handle both, so the tests build them here with
:func:`~repro.storage.sharded.build_manifest` and the single writer's
delta-record format (``shards`` / ``tables`` / ``stats``).

Build coordinators also used to publish a merged mid-build
``manifest.json`` beside their worker logs, marked ``"parallel"``;
:func:`write_mid_build_view` adds one to an in-flight build directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.storage._io import atomic_write_json
from repro.storage.parallel import _fold_stats, _read_store_state
from repro.storage.sharded import (
    MANIFEST_FILENAME,
    MANIFEST_LOG_FILENAME,
    _accumulate_stats,
    _empty_stats,
    _encode_table,
    _shard_filename,
    build_manifest,
    manifest_header,
    manifest_is_sealed,
    seal_epochs,
)


def _append(directory: Path, shards: list, tables: dict, stats: dict, batch, shard_size: int,
            generation: int = 1) -> dict:
    """Append ``batch`` after ``shards``; the single writer's delta record."""
    touched: dict[int, dict] = {}
    new_tables: dict = {}
    delta = _empty_stats()
    for annotated in batch:
        if not shards or shards[-1]["count"] >= shard_size:
            shards.append({"file": _shard_filename(len(shards), generation), "count": 0, "bytes": 0})
        entry = shards[-1]
        line = _encode_table(annotated)
        with open(directory / entry["file"], "ab") as handle:
            handle.write(line)
        location = {"shard": len(shards) - 1, "line": entry["count"], "source_url": annotated.source_url}
        tables[annotated.table_id] = new_tables[annotated.table_id] = location
        entry["count"] += 1
        entry["bytes"] += len(line)
        touched[len(shards) - 1] = entry
        table = annotated.table
        for into in (stats, delta):
            _accumulate_stats(into, table.num_rows, table.num_columns, annotated.topic, annotated.repository)
    return {
        "shards": [
            {"index": index, **{key: entry[key] for key in ("file", "count", "bytes")}}
            for index, entry in sorted(touched.items())
        ],
        "tables": new_tables,
        "stats": delta,
    }


def single_writer_store(directory, commits, shard_size: int, name: str = "gittables",
                        epochs: list[int] | None = None) -> None:
    """The directory an old single writer left after ``commits`` (lists of tables).

    The first commit is in ``manifest.json`` (epoch 1, sealed at
    ``epochs`` when given), every later one a delta record in
    ``manifest.log``: the state before the log's compaction, which
    came every 16 commits and at finalize.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards: list = []
    tables: dict = {}
    stats = _empty_stats()
    first, *rest = commits
    _append(directory, shards, tables, stats, first, shard_size)
    manifest = build_manifest(name, shard_size, shards, tables, stats, epochs=epochs)
    (directory / MANIFEST_FILENAME).write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )
    for batch in rest:
        record = _append(directory, shards, tables, stats, batch, shard_size)
        with open(directory / MANIFEST_LOG_FILENAME, "ab") as log:
            log.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n")


def append_out_of_band(directory, batch, epoch: int | None = None) -> None:
    """Append ``batch`` to a published store behind its back and reseal it.

    What reopening a canonical store with the old single writer did: the
    tables pack into the last shard before rolling new ones, and the
    manifest is rewritten with epoch ``epoch`` (default: the current
    one) sealed at the new table count.
    """
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_FILENAME).read_text(encoding="utf-8"))
    header = manifest_header(manifest)
    shards, tables, stats = manifest["shards"], manifest["tables"], manifest["stats"]
    _append(directory, shards, tables, stats, batch, header["shard_size"], header["generation"])
    header["epoch"] = epoch or header["epoch"]
    header["epochs"] = seal_epochs(header["epochs"], header["epoch"], len(tables))
    manifest = build_manifest(shards=shards, tables=tables, stats=stats, **header)
    (directory / MANIFEST_FILENAME).write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )


def merge_worker_manifests(
    state, shard_size: int = 0, processes: int | None = None, first_topic: int = 0
) -> dict:
    """The merged mid-build manifest of a store's committed state.

    A pure function of the replayed state: canonical shards
    come first, then each worker's shards in deterministic (worker id,
    shard seq) order, with table locations remapped into the merged
    shard list and statistics summed in the same order — so *any*
    interleaving of worker commits that leaves the same records in the
    logs merges to the identical manifest. The ``"parallel"`` marker
    tells readers this is a mid-build view and resuming coordinators
    that the worker logs — not this manifest — are authoritative, and
    ``first_topic`` the topic their stream indices count from.
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
        "first_topic": first_topic,
    }
    return manifest


def write_mid_build_view(directory, shard_size: int, processes: int, first_topic: int = 0) -> dict:
    """Publish the merged view a coordinator kept while a build was in flight.

    ``directory`` holds an interrupted build's worker logs. Over a sealed
    store (an extension in flight) the view opened the next epoch, as
    the coordinator did before its first merge; ``first_topic`` is the
    topic its stream enumeration started at. Returns the view.
    """
    state = _read_store_state(Path(directory))
    if manifest_is_sealed(state.header):
        state.header["epoch"] = len(state.header["epochs"]) + 1
    manifest = merge_worker_manifests(state, shard_size, processes, first_topic)
    atomic_write_json(Path(directory) / MANIFEST_FILENAME, manifest)
    return manifest
