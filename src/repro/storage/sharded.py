"""Sharded JSONL corpus storage: manifest, lazy reader, append-only writer.

On-disk layout of a sharded corpus directory::

    corpus/
      manifest.json        # shard index, table-id map, cached stats
      shard_00000.jsonl    # one JSON document per line, one table each
      shard_00001.jsonl
      ...

The manifest is the single source of truth. Every shard entry records
the number of *committed* lines and the exact committed byte length of
its file, so a crash that appends lines without reaching the manifest
rewrite is recoverable: on the next open the shard file is truncated
back to the committed byte count and the interrupted tables are simply
re-produced. The manifest itself is always replaced atomically
(temp file + ``os.replace``), so it is never observed half-written.

**Manifest delta log.** Rewriting the full manifest on every commit is
O(tables committed so far) — O(N^2) total for commit-per-batch builds.
Instead, each commit appends one canonical JSON line to ``manifest.log``
describing exactly what the commit changed (touched shard states, new
table locations, statistics increments), making a commit O(batch). The
log is **compacted** into ``manifest.json`` every
``compact_every`` commits and on :meth:`ShardedCorpusWriter.finalize`
(which deletes the log), so a completed directory contains only the
compacted manifest — byte-identical regardless of commit cadence or
interruptions. Readers and resuming writers replay any uncompacted log
tail on open; a torn final line (crash mid-append) is ignored by
readers and truncated away by writers. Replay is idempotent: a record
whose tables are already in the manifest (a compaction that crashed
before deleting the log) is skipped wholesale.

Two stores share the layout:

* :class:`ShardedJsonlStore` — the lazy reader. ``get`` reads only the
  shard holding the requested table and decodes only that table;
  iteration streams shard by shard through a small LRU of read shards,
  each table decoded once, on first access; corpus statistics are
  answered straight from the manifest.
* :class:`ShardedCorpusWriter` — the append-only writer behind
  ``GitTablesCorpus.save`` and, through its per-worker subclass, every
  store build. ``add`` buffers tables, ``commit`` appends them to shard
  files and durably records the commit, which is what makes
  interrupted writes resumable.

Both own the directory's index artifacts: ``store.artifacts`` (``None``
for a reader opened with ``use_artifacts=False``) is what every
corpus-keyed consumer resolves through.

Shard files are written with a canonical JSON encoding (compact
separators, ``ensure_ascii=False``), so two builds that produce the same
tables in the same order produce byte-identical shard files and
manifests regardless of which backend or session wrote them.

**Epochs.** The manifest carries an ``epoch`` counter plus an
``epochs`` list recording the table count at which each epoch was
sealed (``finalize`` seals the current epoch). Growing a sealed store
(:meth:`repro.core.pipeline.CorpusBuilder.build` with ``extend=True``)
opens the next epoch — a crashed extension resumes under the same epoch
instead of bumping again — and derived-artifact consumers detect growth
with one O(1) probe (:func:`read_store_version`) instead of re-hashing
the manifest. Epochs
are bookkeeping *about* the corpus, not part of its content: the
content fingerprint covers shards and tables only, so an extended store
and a from-scratch build of the same table set share a fingerprint (and
therefore artifacts).

**Generations.** Online compaction (:mod:`repro.storage.compaction`)
rewrites a sealed store to a new shard size without changing a single
table. Each rewrite publishes the manifest under a bumped
``generation`` counter with generation-scoped shard filenames
(``shard_g00002_00000.jsonl``), so the files of two layouts never
overlap: a reader that loaded the previous manifest can never mix shard
files from both layouts — at worst it finds an old file deleted and
raises a clear "re-laid out" error telling the caller to reopen. The
manifest's ``compacted_from`` marker pins the pre-compaction content
fingerprint (the tables are unchanged, only their packing moved), so
every derived artifact remains valid across generations with zero
recomputation. Like the epoch, the generation leads the manifest
payload so :func:`read_store_version` can probe it from a bounded
prefix read.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from collections import OrderedDict, deque
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..errors import CorpusError
from ._io import atomic_write_json, fault_point, fsync_dir
from .artifacts import ARTIFACTS_DIRNAME, IndexArtifactStore
from .checkpoint import BUILD_META_FILENAME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.corpus import AnnotatedTable

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_LOG_FILENAME",
    "SHARDED_FORMAT",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_COMPACT_EVERY",
    "build_manifest",
    "carry_derived_files",
    "heal_shard_files",
    "is_sharded_dir",
    "manifest_epoch",
    "manifest_generation",
    "manifest_header",
    "manifest_is_sealed",
    "publish_layout",
    "read_store_version",
    "seal_epochs",
    "sweep_layout",
    "ShardedJsonlStore",
    "ShardedCorpusWriter",
]

MANIFEST_FILENAME = "manifest.json"
MANIFEST_LOG_FILENAME = "manifest.log"
SHARDED_FORMAT = "gittables-sharded-jsonl"
#: Tables per shard file unless overridden.
DEFAULT_SHARD_SIZE = 256
#: Uncompacted delta records tolerated before the writer folds the log
#: back into manifest.json (bounds both log size and reader replay cost).
DEFAULT_COMPACT_EVERY = 16
#: Any parallel build worker's shard files and manifest delta logs.
WORKER_SHARD_GLOB = "shard-??-*.jsonl"
WORKER_LOG_GLOB = "manifest-??.log"


def is_sharded_dir(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` holds a sharded corpus (has a manifest)."""
    return os.path.exists(os.path.join(directory, MANIFEST_FILENAME))


def carry_derived_files(directory: Path, staging: Path) -> None:
    """Carry a re-saved store's build metadata and artifacts (same content) into ``staging``."""
    for name in (BUILD_META_FILENAME, ARTIFACTS_DIRNAME):
        source = directory / name
        if source.is_dir():
            shutil.copytree(source, staging / name)
        elif source.exists():
            shutil.copy2(source, staging / name)


def _shard_filename(index: int, generation: int = 1) -> str:
    """Shard file name for one layout generation.

    Generation 1 keeps the historical names. Later generations scope the
    name under the generation counter so two layouts never share a file:
    an old manifest can only ever reference old-generation files, which
    is what makes an online re-shard safe to observe mid-swap.
    """
    if generation <= 1:
        return f"shard_{index:05d}.jsonl"
    return f"shard_g{generation:05d}_{index:05d}.jsonl"


def _encode_table(annotated: "AnnotatedTable") -> bytes:
    """Canonical one-line JSON encoding of a table (byte-deterministic)."""
    payload = json.dumps(annotated.to_dict(), ensure_ascii=False, separators=(",", ":"))
    return payload.encode("utf-8") + b"\n"


def _read_shard_lines(path: Path, byte_count: int) -> list:
    """The committed prefix of one shard file, split into undecoded lines.

    Reading exactly ``byte_count`` bytes is the single place the
    committed-bytes truncation rule is applied on the read side; the
    lazy reader, the writer's read-back paths and every layout rewrite
    (through :func:`_shard_lines`) all go through here.
    """
    with open(path, "rb") as handle:
        data = handle.read(byte_count)
    return [line for line in data.splitlines() if line]


def _shard_lines(directory: Path, entry: dict) -> list:
    """The committed lines of one shard entry, checked against its count.

    A missing file or a line count other than the entry's raises
    :class:`~repro.errors.CorpusError`: the corpus is corrupt.
    """
    path = directory / entry["file"]
    try:
        lines = _read_shard_lines(path, entry["bytes"])
    except FileNotFoundError:
        raise CorpusError(f"missing shard file {path}") from None
    if len(lines) != entry["count"]:
        raise CorpusError(
            f"shard {entry['file']} holds {len(lines)} tables, manifest says {entry['count']}"
        )
    return lines


def _decode_line(line: bytes) -> "AnnotatedTable":
    """Decode one shard line into its table."""
    from ..core.corpus import AnnotatedTable

    return AnnotatedTable.from_dict(json.loads(line.decode("utf-8")))


def _decode_slot(slots: list, index: int) -> "AnnotatedTable":
    """The table in ``slots[index]``, decoded and memoised on first access.

    A slot holds either a line's raw bytes or its decoded table; the
    decoded table replaces the bytes, so a slot never holds both. No
    lock: a racing first access can only decode the same bytes twice.
    """
    slot = slots[index]
    if isinstance(slot, bytes):
        slot = slots[index] = _decode_line(slot)
    return slot


def _read_shard_tables(path: Path, byte_count: int) -> list:
    """Decode every committed table of one shard file."""
    return [_decode_line(line) for line in _read_shard_lines(path, byte_count)]


def _write_manifest(directory: Path, manifest: dict) -> None:
    """Atomically replace the manifest (temp file + rename)."""
    atomic_write_json(directory / MANIFEST_FILENAME, manifest)


def build_manifest(
    name: str,
    shard_size: int,
    shards: list,
    tables: dict,
    stats: dict,
    epoch: int = 1,
    epochs: list[int] | None = None,
    generation: int = 1,
    compacted_from: dict | None = None,
) -> dict:
    """The canonical manifest payload (single source of the key layout).

    Both the single-process writer and the parallel finalize rewrite
    build their ``manifest.json`` through here, so the two paths cannot
    drift apart byte-wise. ``epoch`` is the build epoch the manifest
    describes; ``epochs`` lists the table count at which each earlier
    epoch was sealed (``epochs[i]`` is epoch ``i + 1``'s count — the
    current epoch is *sealed* exactly when ``len(epochs) >= epoch``).
    ``generation`` is the shard-layout generation (bumped by online
    compaction); ``compacted_from`` pins the pre-compaction content
    fingerprint as ``{"fingerprint", "table_count"}`` and is emitted
    only when set, so never-compacted manifests keep their exact bytes.
    The epoch and generation keys sit at the front of the payload so
    :func:`read_store_version` can parse them from a bounded prefix
    read.
    """
    manifest = {
        "format": SHARDED_FORMAT,
        "version": 1,
        "epoch": epoch,
        "epochs": list(epochs or []),
        "generation": generation,
    }
    if compacted_from is not None:
        manifest["compacted_from"] = dict(compacted_from)
    manifest.update(
        {
            "name": name,
            "shard_size": shard_size,
            "table_count": len(tables),
            "shards": shards,
            "tables": tables,
            "stats": stats,
        }
    )
    return manifest


def manifest_epoch(manifest: dict) -> int:
    """The build epoch a manifest describes (pre-epoch manifests are 1)."""
    return int(manifest.get("epoch", 1))


def manifest_is_sealed(manifest: dict) -> bool:
    """Whether the current epoch of a manifest (or a header) is finalized."""
    return len(manifest.get("epochs", [])) >= manifest_epoch(manifest)


def manifest_generation(manifest: dict) -> int:
    """The shard-layout generation (pre-generation manifests are 1)."""
    return int(manifest.get("generation", 1))


def manifest_header(manifest: dict) -> dict:
    """The fields every manifest rewrite carries over from ``manifest``.

    ``name``, ``shard_size``, ``epoch``, ``epochs``, ``generation`` and
    ``compacted_from``: the keyword arguments of :func:`build_manifest`
    besides the layout itself (``shard_size`` is ``None`` when absent).
    """
    compacted = manifest.get("compacted_from")
    return {
        "name": manifest.get("name", "gittables"),
        "shard_size": manifest.get("shard_size"),
        "epoch": manifest_epoch(manifest),
        "epochs": [int(count) for count in manifest.get("epochs", [])],
        "generation": manifest_generation(manifest),
        "compacted_from": None if compacted is None else dict(compacted),
    }


def seal_epochs(epochs: list[int], epoch: int, count: int) -> list[int]:
    """``epochs`` with epoch ``epoch`` sealed at ``count`` tables.

    Re-finalizing an epoch that grew after its first seal (legal, if
    unusual) moves the seal to the final count.
    """
    sealed = list(epochs)
    if len(sealed) < epoch:
        sealed.append(count)
    else:
        sealed[-1] = count
    return sealed


#: Bytes of manifest prefix read by :func:`read_store_version`. The
#: epoch and generation keys are the first ones in the payload, so this
#: covers them even with a long sealed-epoch history.
_EPOCH_PROBE_BYTES = 4096
_EPOCH_RE = re.compile(r'"epoch":\s*(\d+)\s*,')
_EPOCHS_RE = re.compile(r'"epochs":\s*\[([\s\d,]*)\]', re.S)
_GENERATION_RE = re.compile(r'"generation":\s*(\d+)')


def read_store_version(directory: str | os.PathLike[str]) -> tuple[int, bool, int]:
    """``(epoch, sealed, generation)`` of a store, via one bounded read.

    The staleness probe long-lived readers (serving workers) run between
    batches: O(1) regardless of corpus size, because the epoch and
    generation keys lead the manifest payload and the manifest is only
    ever replaced atomically. A bumped epoch means the corpus grew; a
    bumped generation means the same tables were re-laid out (online
    compaction) — either way the reader must reopen. Falls back to a
    full manifest parse if the prefix does not contain the epoch keys (a
    pre-epoch manifest reports ``(1, False, 1)``).
    """
    path = Path(directory) / MANIFEST_FILENAME
    try:
        with open(path, "rb") as handle:
            head = handle.read(_EPOCH_PROBE_BYTES).decode("utf-8", errors="replace")
    except OSError:
        raise CorpusError(f"no corpus manifest found at {path}") from None
    epoch_match = _EPOCH_RE.search(head)
    epochs_match = _EPOCHS_RE.search(head)
    generation_match = _GENERATION_RE.search(head)
    if epoch_match and epochs_match:
        epoch = int(epoch_match.group(1))
        sealed_count = len([tok for tok in epochs_match.group(1).split(",") if tok.strip()])
        generation = int(generation_match.group(1)) if generation_match else 1
        return epoch, sealed_count >= epoch, generation
    manifest = _read_manifest(Path(directory))
    return (
        manifest_epoch(manifest),
        manifest_is_sealed(manifest),
        manifest_generation(manifest),
    )


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise CorpusError(f"no corpus manifest found at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != SHARDED_FORMAT:
        raise CorpusError(
            f"unexpected corpus format {manifest.get('format')!r} at {manifest_path}"
        )
    return manifest


def _empty_stats() -> dict:
    return {"total_rows": 0, "total_columns": 0, "topics": {}, "repositories": {}}


def _accumulate_stats(stats: dict, rows: int, columns: int, topic: str, repository: str) -> None:
    """Fold one table into a manifest stats dict (single source of truth).

    Every code path that derives manifest statistics — the serial
    writer, per-worker delta records, and the parallel finalize rewrite
    — goes through here, so dict key insertion order (and therefore the
    manifest's bytes) depends only on the order tables are folded in.
    """
    stats["total_rows"] += rows
    stats["total_columns"] += columns
    stats["topics"][topic] = stats["topics"].get(topic, 0) + 1
    stats["repositories"][repository] = stats["repositories"].get(repository, 0) + 1


def _iter_log_records(path: Path, offset: int = 0):
    """Yield ``(record, raw_line_length)`` for the valid prefix of a log.

    A torn final line — no trailing newline, undecodable bytes, or
    invalid JSON from a crash mid-append — ends the valid prefix.
    ``offset`` skips bytes already consumed (it must sit on a record
    boundary), which is how the parallel coordinator tails worker logs
    incrementally without re-reading them. Shared by the canonical
    ``manifest.log`` replay and the per-worker ``manifest-<worker>.log``
    replay of parallel builds, so the torn-tail rules live in one place.
    """
    if not path.exists():
        return
    with open(path, "rb") as handle:
        if offset:
            handle.seek(offset)
        data = handle.read()
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            return
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return
        yield record, len(raw)


def _apply_delta(manifest: dict, record: dict) -> None:
    """Fold one commit's delta record into a manifest state, in place."""
    shards = manifest.setdefault("shards", [])
    for entry in record.get("shards", []):
        index = entry["index"]
        state = {"file": entry["file"], "count": entry["count"], "bytes": entry["bytes"]}
        if index == len(shards):
            shards.append(state)
        elif index < len(shards):
            shards[index] = state
        else:
            raise CorpusError(
                f"manifest log references shard {index} but only "
                f"{len(shards)} shards exist; the log is corrupt"
            )
    manifest.setdefault("tables", {}).update(record.get("tables", {}))
    stats = manifest.setdefault("stats", _empty_stats())
    delta = record.get("stats", {})
    stats["total_rows"] += delta.get("total_rows", 0)
    stats["total_columns"] += delta.get("total_columns", 0)
    for family in ("topics", "repositories"):
        counts = stats.setdefault(family, {})
        for key, increment in delta.get(family, {}).items():
            counts[key] = counts.get(key, 0) + increment
    manifest["table_count"] = len(manifest["tables"])


def _replay_manifest_log(directory: Path, manifest: dict) -> tuple[int, int]:
    """Apply the valid prefix of ``manifest.log`` to ``manifest`` in place.

    Returns ``(valid_records, valid_byte_length)``. A torn final line
    (crash mid-append) ends the valid prefix. Records whose tables are
    already present in the manifest are counted but not re-applied: they
    were folded in by a compaction that crashed before deleting the log,
    and commits are all-or-nothing, so one already-known table id means
    the whole record is stale (re-applying it would double-count the
    statistics).
    """
    path = directory / MANIFEST_LOG_FILENAME
    records = 0
    valid_bytes = 0
    for record, raw_length in _iter_log_records(path):
        tables = record.get("tables", {})
        already_compacted = any(
            table_id in manifest.get("tables", {}) for table_id in tables
        )
        if not already_compacted:
            _apply_delta(manifest, record)
        records += 1
        valid_bytes += raw_length
    return records, valid_bytes


class ShardedJsonlStore:
    """Read-only lazy view over a sharded corpus directory.

    Only the manifest is loaded up front. ``get`` reads the one shard
    that holds the requested table and decodes only that table; an LRU
    keeps up to ``cache_shards`` read shards resident, and each of their
    tables is decoded on first access and memoised, so a repeated
    lookup returns the same object without decoding. Iteration streams
    in shard order through the same cache, so at most ``cache_shards``
    shards are ever resident and every table is decoded once.

    Loading a shard checks its line count against the manifest, so a
    short or over-long shard raises :class:`~repro.errors.CorpusError`
    as soon as any of its tables is read. A line whose bytes do not
    decode raises only when *that* table is decoded; the other tables
    of its shard stay readable. With ``use_artifacts=False`` the store
    owns no artifacts: nothing over it reads or publishes one.
    """

    def __init__(
        self, directory: str | os.PathLike[str], cache_shards: int = 2, use_artifacts: bool = True
    ) -> None:
        if cache_shards < 1:
            raise ValueError("cache_shards must be >= 1")
        self.directory = Path(directory)
        self.artifacts = IndexArtifactStore.for_corpus_dir(directory) if use_artifacts else None
        self._manifest = _read_manifest(self.directory)
        # A mid-build store keeps recent commits in the delta log rather
        # than the compacted manifest; fold them in (read-only replay).
        _replay_manifest_log(self.directory, self._manifest)
        self.name: str = self._manifest.get("name", "gittables")
        self.cache_shards = cache_shards
        #: table id -> (shard index, line index); insertion-ordered.
        self._locations: dict[str, tuple[int, int]] = {
            table_id: (entry["shard"], entry["line"])
            for table_id, entry in self._manifest.get("tables", {}).items()
        }
        self._cache: OrderedDict[int, list] = OrderedDict()
        self._content_fingerprint: str | None = None

    # -- manifest-backed metadata -----------------------------------------

    @property
    def manifest(self) -> dict:
        """The parsed manifest (treat as read-only)."""
        return self._manifest

    @property
    def epoch(self) -> int:
        """The build epoch this store's manifest describes."""
        return manifest_epoch(self._manifest)

    @property
    def sealed_epochs(self) -> list[int]:
        """Table counts at which each finalized epoch was sealed."""
        return [int(count) for count in self._manifest.get("epochs", [])]

    @property
    def generation(self) -> int:
        """The shard-layout generation this store's manifest describes."""
        return manifest_generation(self._manifest)

    @property
    def compacted_from(self) -> dict | None:
        """Fingerprint pin left by online compaction (None if never compacted)."""
        return self._manifest.get("compacted_from")

    def shard_files(self) -> list[str]:
        """Shard file names in shard order."""
        return [entry["file"] for entry in self._manifest.get("shards", [])]

    def stats_hint(self) -> dict | None:
        """Corpus statistics cached in the manifest (no shard reads)."""
        return self._manifest.get("stats")

    def content_fingerprint(self) -> str:
        """Content hash of the committed corpus (manifest-derived).

        Shard files are byte-deterministic functions of their tables, so
        hashing the manifest's structural view (name, shard byte ranges,
        table locations and provenance) identifies the corpus content
        without reading any shard. Derived index artifacts use this as
        their staleness guard: any commit changes the manifest, which
        changes the fingerprint, which invalidates the artifacts.

        Online compaction moves tables between shard files without
        changing the corpus content, so a compacted manifest pins the
        pre-compaction fingerprint in ``compacted_from`` and this method
        keeps reporting it while the table count still matches the pin —
        artifacts, projections, and ANN tiers stay valid across
        re-shards with zero recomputation. The first append after a
        compaction breaks the pin (the count moves past it) and the
        fingerprint reverts to the structural hash of the new layout.
        """
        if self._content_fingerprint is None:
            compacted = self._manifest.get("compacted_from")
            if compacted is not None and int(compacted.get("table_count", -1)) == len(self):
                self._content_fingerprint = str(compacted["fingerprint"])
            else:
                self._content_fingerprint = self._structural_fingerprint(
                    self._manifest.get("shards", []),
                    self._manifest.get("tables", {}),
                    self._manifest.get("table_count"),
                )
        return self._content_fingerprint

    def _structural_fingerprint(self, shards: list, tables: dict, table_count) -> str:
        payload = json.dumps(
            {
                "format": self._manifest.get("format"),
                "name": self._manifest.get("name"),
                "shard_size": self._manifest.get("shard_size"),
                "table_count": table_count,
                "shards": shards,
                "tables": tables,
            },
            sort_keys=True,
            ensure_ascii=False,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def sealed_prefix_boundary(self, corpus_key: object) -> int | None:
        """Table count of the sealed epoch whose fingerprint is ``corpus_key``.

        Shards are append-only, so the manifest of a previously sealed
        epoch is recoverable from the current one: its shard list is the
        prefix of shards covering that epoch's seal count — with the
        boundary shard's entry truncated to the lines the earlier epoch
        had committed (extensions fill a partial final shard before
        rolling new ones) — and its table entries are the entries
        located under that boundary. Hashing the reconstruction with the
        same structural scheme as :meth:`content_fingerprint` reproduces
        the fingerprint the earlier epoch reported, so a superseded
        index artifact carrying ``corpus_key`` is identified as
        describing *precisely* a sealed prefix of this store at the cost
        of at most one boundary-shard read. Returns the prefix's table
        count, or ``None`` when ``corpus_key`` matches no strictly
        smaller sealed epoch.

        A store that was compacted and then extended cannot reconstruct
        the pre-compaction layout from its current shards (compaction
        repacked them), but the ``compacted_from`` pin records exactly
        which fingerprint the old layout reported and at what table
        count — so an artifact keyed by the pre-compaction fingerprint
        still delta-refreshes over the tail instead of rebuilding.
        """
        if not isinstance(corpus_key, str):
            return None
        compacted = self._manifest.get("compacted_from")
        if compacted is not None and compacted.get("fingerprint") == corpus_key:
            pinned_count = int(compacted.get("table_count", -1))
            if 0 < pinned_count < len(self) and pinned_count in self.sealed_epochs:
                return pinned_count
        shards = self._manifest.get("shards", [])
        for seal_count in reversed(self.sealed_epochs):
            if seal_count >= len(self):
                continue
            prefix_shards: list[dict] = []
            total = 0
            for entry in shards:
                if total >= seal_count:
                    break
                count = int(entry["count"])
                if total + count <= seal_count:
                    prefix_shards.append(entry)
                    total += count
                    continue
                head = seal_count - total  # boundary falls inside this shard
                offset = self._line_offset(entry, head)
                if offset is None:
                    break
                prefix_shards.append({"file": entry["file"], "count": head, "bytes": offset})
                total = seal_count
            if total != seal_count or not prefix_shards:
                continue
            last = len(prefix_shards) - 1
            boundary_lines = int(prefix_shards[-1]["count"])
            tables = {}
            for table_id, entry in self._manifest.get("tables", {}).items():
                shard = int(entry.get("shard", last + 1))
                if shard < last or (
                    shard == last and int(entry.get("line", boundary_lines)) < boundary_lines
                ):
                    tables[table_id] = entry
            if self._structural_fingerprint(prefix_shards, tables, seal_count) == corpus_key:
                return seal_count
        return None

    def _line_offset(self, entry: dict, lines: int) -> int | None:
        """Byte length of the first ``lines`` records of one shard file."""
        with open(self.directory / entry["file"], "rb") as handle:
            data = handle.read(int(entry["bytes"]))
        offset = 0
        for _ in range(lines):
            end = data.find(b"\n", offset)
            if end < 0:
                return None
            offset = end + 1
        return offset

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._locations

    def table_ids(self) -> Iterator[str]:
        return iter(self._locations)

    def _load_shard(self, index: int) -> list:
        """One shard's slots, raw lines decoded on first access (LRU-cached)."""
        if index in self._cache:
            self._cache.move_to_end(index)
            return self._cache[index]
        entry = self._manifest["shards"][index]
        try:
            slots = _shard_lines(self.directory, entry)
        except CorpusError:
            self._raise_if_relaid(entry)
            raise
        self._cache[index] = slots
        while len(self._cache) > self.cache_shards:
            self._cache.popitem(last=False)
        return slots

    def _raise_if_relaid(self, entry: dict) -> None:
        """Diagnose a missing/short shard caused by an online re-shard.

        Generation-scoped filenames guarantee a reader can never *mix*
        two layouts (its manifest only names files of one generation);
        the one mid-swap state it can observe is an old-generation file
        deleted by the post-publish sweep. Probing the live manifest
        distinguishes that from genuine corruption and tells the caller
        exactly what to do: reopen the store.
        """
        try:
            _, _, current = read_store_version(self.directory)
        except CorpusError:
            return
        if current != self.generation:
            raise CorpusError(
                f"shard {entry['file']} belongs to layout generation "
                f"{self.generation}, but the store was re-laid out to "
                f"generation {current} while this reader was open; "
                f"reopen the store to pick up the new layout"
            )

    def get(self, table_id: str) -> "AnnotatedTable | None":
        location = self._locations.get(table_id)
        if location is None:
            return None
        shard_index, line_index = location
        return _decode_slot(self._load_shard(shard_index), line_index)

    def __iter__(self) -> Iterator["AnnotatedTable"]:
        yield from self._stream(0)

    def iter_from(self, start: int) -> Iterator["AnnotatedTable"]:
        """Iterate tables from global index ``start`` in corpus order.

        Shards wholly before ``start`` are skipped via their manifest
        counts without being read, and lines before ``start`` in the
        boundary shard are never decoded, so streaming the tail of an
        extended store costs O(tail), not O(corpus) — the delta-refresh
        scan path for incremental artifact builds.
        """
        yield from self._stream(start)

    def _stream(self, start: int) -> Iterator["AnnotatedTable"]:
        passed = 0
        for shard_index, entry in enumerate(self._manifest.get("shards", [])):
            count = entry["count"]
            if passed + count <= start:
                passed += count
                continue
            slots = self._load_shard(shard_index)
            for line_index in range(max(0, start - passed), len(slots)):
                yield _decode_slot(slots, line_index)
            passed += count

    def add(self, annotated: "AnnotatedTable") -> None:
        raise CorpusError(
            "ShardedJsonlStore is read-only; build through ShardedCorpusWriter "
            "or copy into an in-memory corpus"
        )


def heal_shard_files(directory: Path, entries: list[dict], owned_paths) -> None:
    """Restore shard files to exactly the committed state ``entries`` record.

    The one shard-healing routine every resume path shares — the
    single-writer :class:`ShardedCorpusWriter`, the per-worker writers
    of a build, and the coordinator adopting a canonical portion.
    ``entries`` are manifest/log shard records
    (``{"file", "bytes", ...}``); ``owned_paths`` is the iterable of
    on-disk shard paths within the caller's naming scope, which bounds
    what may be deleted (healing one worker's scope never touches
    another's files). Listed shards are truncated back to their
    committed byte counts (dropping a torn uncommitted tail); owned
    shards that are not listed — a crashed rollover — are deleted; a
    listed shard that is missing or shorter than its committed bytes is
    genuine corruption and raises :class:`~repro.errors.CorpusError`.
    """
    listed = {entry["file"] for entry in entries}
    for path in owned_paths:
        if path.name not in listed:
            path.unlink()
    for entry in entries:
        path = directory / entry["file"]
        if not path.exists():
            raise CorpusError(f"missing shard file {path}")
        size = path.stat().st_size
        if size < entry["bytes"]:
            raise CorpusError(
                f"shard file {path} is shorter ({size}B) than the manifest "
                f"records ({entry['bytes']}B); the corpus is corrupt"
            )
        if size > entry["bytes"]:
            with open(path, "r+b") as handle:
                handle.truncate(entry["bytes"])


def publish_layout(
    directory: Path,
    lines,
    header: dict,
    tables: dict,
    stats: dict,
    shards: list | tuple = (),
    fault=None,
) -> tuple[dict, int]:
    """Rewrite a store's shard layout: the one stage → rename → publish → sweep.

    The parallel build's finalize and
    :func:`~repro.storage.compaction.compact_store` both lay a store out
    anew through here, in four steps:

    1. **Stage** — ``lines`` (committed table lines without their
       newlines, in corpus order) are packed ``header["shard_size"]`` to
       a file, numbered after the kept ``shards`` and named under
       ``header["generation"]``, and written as fsynced ``*.jsonl.tmp``
       siblings. The live manifest still describes the old layout;
       readers are untouched.
    2. **Rename** — the staged files move to their shard names. A
       compaction bumps the generation, so the two layouts never share a
       filename and the old manifest still resolves only old files.
    3. **Publish** — the :func:`build_manifest` payload of ``header``,
       the shard list, ``tables`` and ``stats`` atomically replaces
       ``manifest.json``. This is the commit point: a crash strictly
       before it leaves the old layout authoritative; at or after it, the
       new one. ``lines`` is consumed before ``tables`` and ``stats`` are
       read, so a generator may fill them as it yields.
    4. **Sweep** — :func:`sweep_layout` deletes every file the new
       manifest does not list. A reader that opened the old manifest
       just before the publish may then find one of its files missing;
       :class:`ShardedJsonlStore` diagnoses that as a generation bump and
       asks to be reopened rather than ever mixing two layouts.

    ``fault`` fires ``"before-shard-publish"``,
    ``"before-manifest-publish"`` and ``"before-sweep"`` ahead of steps
    2–4. Every byte is a deterministic function of the arguments, so a
    crashed rewrite is redone by re-running it after the same sweep.
    Returns the published manifest and the number of files swept.
    """
    shards = list(shards)
    staged: list[str] = []
    lines = iter(lines)
    while group := list(islice(lines, header["shard_size"])):
        filename = _shard_filename(len(shards), header["generation"])
        payload = b"\n".join(group) + b"\n"
        with open(directory / (filename + ".tmp"), "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        staged.append(filename)
        shards.append({"file": filename, "count": len(group), "bytes": len(payload)})
    fault_point(fault, "before-shard-publish")
    for filename in staged:
        os.replace(directory / (filename + ".tmp"), directory / filename)
    fsync_dir(directory)
    fault_point(fault, "before-manifest-publish")
    manifest = build_manifest(shards=shards, tables=tables, stats=stats, **header)
    _write_manifest(directory, manifest)
    fault_point(fault, "before-sweep")
    return manifest, sweep_layout(directory, manifest)


def sweep_layout(directory: Path, manifest: dict) -> int:
    """Delete every layout file ``manifest`` does not list; the count.

    The files are shard files of other layouts, staged ``*.jsonl.tmp``
    shards, parallel-build worker shards and logs, and ``manifest.log``.
    ``manifest`` must be a finished canonical one. The sweep is
    idempotent: it ends :func:`publish_layout`, and a rewrite killed
    before or during it is completed by running it again (the entry of
    compaction and the reuse of a finished parallel build do).
    """
    listed = {entry["file"] for entry in manifest.get("shards", [])}
    swept = 0
    for pattern in (
        "shard_*.jsonl",
        "*.jsonl.tmp",
        WORKER_SHARD_GLOB,
        WORKER_LOG_GLOB,
        MANIFEST_LOG_FILENAME,
    ):
        for path in list(directory.glob(pattern)):
            if path.name not in listed:
                path.unlink()
                swept += 1
    if swept:
        fsync_dir(directory)
    return swept


class ShardedCorpusWriter:
    """Append-only sharded store: ``save()``'s writer, and each build worker's.

    ``add`` buffers tables in memory; :meth:`commit` appends the buffer
    to shard files (rolling over every ``shard_size`` tables) and then
    durably records the commit — one O(batch) delta line appended to
    ``manifest.log``, compacted into a full ``manifest.json`` rewrite
    every ``compact_every`` commits and on :meth:`finalize`. The
    manifest+log only ever describe fully committed data, so a crash at
    any point loses at most the uncommitted buffer plus any
    half-appended lines — both are healed on the next open (the shard
    file is truncated back to the committed byte count, the log back to
    its last complete record).

    Opening a directory that already holds a manifest *resumes* it:
    committed tables (including any uncompacted log tail), shard layout,
    and cached statistics are picked up, and new tables append after
    them. :meth:`finalize` must end every build: it folds the log away
    (and seals the current epoch) so the finished directory is
    byte-identical regardless of commit cadence or interruptions.

    ``fault`` arms deterministic crash injection for the test harness
    (see :class:`~repro.storage.FaultSpec`); production builds never
    pass one.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        shard_size: int = DEFAULT_SHARD_SIZE,
        name: str = "gittables",
        compact_every: int = DEFAULT_COMPACT_EVERY,
        fault=None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.artifacts = IndexArtifactStore.for_corpus_dir(directory)
        self.compact_every = compact_every
        self.fault = fault
        self._commit_index = 0
        self._shards: list[dict] = []
        self._tables: dict[str, dict] = {}
        self._stats = _empty_stats()
        self._log_records = 0
        #: Files created since the directory was last fsynced.
        self._dir_dirty = False
        self.name = name
        self.shard_size = shard_size
        self.epoch = 1
        self.epochs: list[int] = []
        self.generation = 1
        self.compacted_from: dict | None = None
        if self._has_existing_state():
            self._load_existing_state()
            self._heal_shards()
        self._pending: deque = deque()
        self._pending_ids: set[str] = set()

    # -- durability-scope hooks (overridden by per-worker writers) ---------

    def shard_filename(self, index: int) -> str:
        """Name of this writer's ``index``-th shard file.

        Scoped to the store's current layout generation, so shards
        appended after an online compaction join the compacted layout's
        namespace instead of reviving swept generation-1 names.
        """
        return _shard_filename(index, self.generation)

    def _log_path(self) -> Path:
        """This writer's manifest delta log."""
        return self.directory / MANIFEST_LOG_FILENAME

    def _owned_shard_paths(self):
        """Every on-disk shard file within this writer's naming scope.

        The scope is what :meth:`_heal_shards` may delete orphans from;
        a per-worker writer narrows it to its own ``shard-<worker>-*``
        files so healing one worker never touches another's shards.
        """
        return self.directory.glob("shard_*.jsonl")

    def _has_existing_state(self) -> bool:
        return is_sharded_dir(self.directory)

    def _load_existing_state(self) -> None:
        """Resume committed state (manifest plus uncompacted log tail)."""
        manifest = _read_manifest(self.directory)
        self._log_records, valid_bytes = _replay_manifest_log(self.directory, manifest)
        self._truncate_log(valid_bytes)
        # The writer's header attributes (name, shard_size, epoch, epochs,
        # generation, compacted_from) are the manifest header's fields.
        vars(self).update(manifest_header(manifest))
        self._shards = [dict(entry) for entry in manifest.get("shards", [])]
        self._tables = {
            table_id: dict(entry) for table_id, entry in manifest.get("tables", {}).items()
        }
        self._stats = manifest.get("stats", _empty_stats())

    # -- epochs -------------------------------------------------------------

    def _seal_epoch(self) -> bool:
        """Record the current epoch's final table count; True if changed."""
        sealed = seal_epochs(self.epochs, self.epoch, len(self._tables))
        if sealed == self.epochs:
            return False
        self.epochs = sealed
        return True

    def _truncate_log(self, valid_bytes: int) -> None:
        """Drop a torn tail record left in the log by a crashed append."""
        path = self._log_path()
        if path.exists() and path.stat().st_size > valid_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)

    def _heal_shards(self) -> None:
        """Restore the on-disk state the manifest describes.

        Shard files listed in the manifest are truncated back to their
        committed byte counts, and shard files *not* in the manifest —
        left behind when a crash hit after a shard rollover but before
        the manifest rewrite — are deleted, so a resumed build's
        directory stays byte-identical to a one-shot build's.
        """
        heal_shard_files(self.directory, self._shards, self._owned_shard_paths())

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._tables) + len(self._pending)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._tables or table_id in self._pending_ids

    def table_ids(self) -> Iterator[str]:
        yield from self._tables
        for annotated in self._pending:
            yield annotated.table_id

    def add(self, annotated: "AnnotatedTable") -> None:
        table_id = annotated.table_id
        if table_id in self:
            raise CorpusError(f"duplicate table id {table_id!r}")
        self._pending.append(annotated)
        self._pending_ids.add(table_id)

    def extend(self, tables) -> None:
        for annotated in tables:
            self.add(annotated)

    def get(self, table_id: str) -> "AnnotatedTable | None":
        for annotated in self._pending:
            if annotated.table_id == table_id:
                return annotated
        entry = self._tables.get(table_id)
        if entry is None:
            return None
        return self._read_committed(entry["shard"], entry["line"])

    def _read_committed(self, shard_index: int, line_index: int) -> "AnnotatedTable":
        entry = self._shards[shard_index]
        lines = _read_shard_lines(self.directory / entry["file"], entry["bytes"])
        return _decode_line(lines[line_index])

    def __iter__(self) -> Iterator["AnnotatedTable"]:
        for entry in self._shards:
            yield from _read_shard_tables(self.directory / entry["file"], entry["bytes"])
        yield from iter(self._pending)

    # -- write path --------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Tables added but not yet committed to disk."""
        return len(self._pending)

    @property
    def committed_count(self) -> int:
        """Tables durably recorded in the manifest."""
        return len(self._tables)

    def stats_hint(self) -> dict | None:
        """Committed statistics (pending tables are not yet included)."""
        if self._pending:
            return None
        return self._stats

    def commit(self) -> int:
        """Flush the pending buffer to shard files, then record the commit.

        Returns the number of tables committed. The durable commit point
        is one **delta record** appended (and fsynced) to
        ``manifest.log`` after the shard bytes are flushed and fsynced —
        O(batch), not O(tables committed so far), so commit-per-batch
        builds stay O(N) total. Every ``compact_every`` commits (and
        whenever ``manifest.json`` does not exist yet) the full manifest
        is rewritten atomically instead and the log is cleared. Pending
        tables are grouped per destination shard, so a commit costs one
        append + fsync per shard file touched, not per table.

        A commit with nothing pending writes nothing (it only creates
        the base manifest if the directory has none yet).
        """
        self._commit_index += 1
        fault_point(self.fault, "before-shard-append", self._commit_index)
        if not self._pending:
            self._record_empty_commit()
            return 0
        committed = len(self._pending)
        touched: dict[int, dict] = {}
        new_tables: dict[str, dict] = {}
        stats_delta = _empty_stats()
        while self._pending:
            if not self._shards or self._shards[-1]["count"] >= self.shard_size:
                filename = self.shard_filename(len(self._shards))
                # A fresh shard truncates any stale file left by a crash
                # that rolled over without reaching the commit record.
                with open(self.directory / filename, "wb"):
                    pass
                self._dir_dirty = True
                self._shards.append({"file": filename, "count": 0, "bytes": 0})
            entry = self._shards[-1]
            room = self.shard_size - entry["count"]
            group = [self._pending.popleft() for _ in range(min(room, len(self._pending)))]
            self._append_group(entry, group, new_tables, stats_delta)
            touched[len(self._shards) - 1] = entry
        self._pending_ids.clear()
        # Persist new files' directory entries before the manifest/log
        # can reference them (a record naming a file whose dirent was
        # lost to a power cut is unrecoverable): one fsync per commit.
        self._sync_dir()
        fault_point(self.fault, "before-log-append", self._commit_index)
        self._record_commit(touched, new_tables, stats_delta)
        fault_point(self.fault, "after-log-append", self._commit_index)
        return committed

    def _record_empty_commit(self) -> None:
        """A commit with nothing pending only seeds the base manifest."""
        if not (self.directory / MANIFEST_FILENAME).exists():
            self._compact()

    def _record_commit(self, touched: dict, new_tables: dict, stats_delta: dict) -> None:
        """Durably record one flushed commit (the writer's commit point).

        The base policy appends one delta record, compacting into a full
        manifest rewrite every ``compact_every`` commits (and when no
        manifest exists yet). Per-worker writers override this: they
        *only* append to their own log — the coordinator owns
        ``manifest.json``.
        """
        if (
            not (self.directory / MANIFEST_FILENAME).exists()
            or self._log_records + 1 >= self.compact_every
        ):
            self._compact()
        else:
            self._append_delta(touched, new_tables, stats_delta)

    def _append_group(
        self, entry: dict, group: list, new_tables: dict, stats_delta: dict
    ) -> None:
        """Append a group of tables to one shard with a single fsync."""
        shard_index = len(self._shards) - 1
        encoded = [_encode_table(annotated) for annotated in group]
        with open(self.directory / entry["file"], "ab") as handle:
            handle.write(b"".join(encoded))
            handle.flush()
            os.fsync(handle.fileno())
        for annotated, payload in zip(group, encoded):
            table = annotated.table
            location = self._table_entry(annotated, shard_index, entry["count"])
            self._tables[annotated.table_id] = location
            new_tables[annotated.table_id] = location
            entry["count"] += 1
            entry["bytes"] += len(payload)
            for stats in (self._stats, stats_delta):
                _accumulate_stats(
                    stats, table.num_rows, table.num_columns, annotated.topic, annotated.repository
                )

    def _table_entry(self, annotated: "AnnotatedTable", shard: int, line: int) -> dict:
        """The manifest entry locating one appended table."""
        return {"shard": shard, "line": line, "source_url": annotated.source_url}

    def _delta_record(self, touched: dict, new_tables: dict, stats_delta: dict) -> dict:
        """The canonical delta record describing one commit."""
        return {
            "shards": [
                {"index": index, **{key: entry[key] for key in ("file", "count", "bytes")}}
                for index, entry in sorted(touched.items())
            ],
            "tables": new_tables,
            "stats": stats_delta,
        }

    def _append_delta(self, touched: dict, new_tables: dict, stats_delta: dict) -> None:
        """Durably append one commit's delta record to the manifest log."""
        record = self._delta_record(touched, new_tables, stats_delta)
        payload = json.dumps(record, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n"
        path = self._log_path()
        if not path.exists():
            self._dir_dirty = True
        with open(path, "ab") as handle:
            fault_point(self.fault, "torn-log-append", self._commit_index, torn=(handle, payload))
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        self._sync_dir()
        self._log_records += 1

    def _sync_dir(self) -> None:
        """fsync the directory if this writer created a file since the last one."""
        if self._dir_dirty:
            fsync_dir(self.directory)
            self._dir_dirty = False

    def _compact(self) -> None:
        """Fold all committed state into manifest.json and drop the log.

        The full rewrite happens first (atomic replace), then the log is
        deleted; a crash in between leaves stale log records behind,
        which replay recognises and skips (their tables are already in
        the manifest).
        """
        self._write_manifest()
        log_path = self._log_path()
        if log_path.exists():
            log_path.unlink()
            fsync_dir(self.directory)
        self._log_records = 0

    def finalize(self) -> int:
        """Commit anything pending, seal the epoch, compact the log away.

        Every build path ends with this call: the finished directory
        holds only shard files and the compacted ``manifest.json`` —
        with the current epoch sealed at its final table count — so its
        bytes do not depend on how many commits (or interruptions)
        produced it. Returns the number of tables the final commit
        flushed.
        """
        committed = self.commit()
        sealed = self._seal_epoch()
        if sealed or self._log_records or not (self.directory / MANIFEST_FILENAME).exists():
            self._compact()
        return committed

    def _write_manifest(self) -> None:
        header = {key: getattr(self, key) for key in manifest_header({})}
        _write_manifest(
            self.directory,
            build_manifest(shards=self._shards, tables=self._tables, stats=self._stats, **header),
        )

    def as_reader(self, cache_shards: int = 2) -> ShardedJsonlStore:
        """Finalize (commit + compact) and reopen as a lazy reader."""
        self.finalize()
        return ShardedJsonlStore(self.directory, cache_shards=cache_shards)
