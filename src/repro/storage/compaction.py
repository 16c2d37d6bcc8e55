"""Online compaction / re-sharding of a sealed sharded store.

:func:`compact_store` rewrites a sealed corpus directory to a new shard
size without changing a single table: every committed line is streamed
in corpus order into freshly packed shard files and the result is
published as a new manifest **generation**. It is safe to run while a
:class:`~repro.serving.service.QueryService` keeps serving the same
directory: the rewrite is :func:`~repro.storage.sharded.publish_layout`,
the stage → rename → publish → sweep routine the parallel build's
finalize also runs, and its docstring states the protocol.

Because the tables (and their order) are unchanged, the compacted
manifest pins the old content fingerprint: search/completion artifacts,
the columnar projection, and ANN tiers all remain valid with zero
re-embedding, and serving workers hot-reload on the generation bump the
same way they follow epoch bumps.

Crash recovery is idempotent through re-invocation: a fresh
:func:`compact_store` first sweeps any staged/renamed leftovers of a
crashed attempt (:func:`~repro.storage.sharded.sweep_layout`, restoring
the authoritative layout byte-exactly) and then redoes the rewrite,
which is deterministic — so every resume converges to either the old or
the new layout, never a mixture.

``fault`` arms deterministic crash injection for the test harness (a
:class:`~repro.storage.FaultSpec` with a layout-publish point;
``worker`` and ``commit_n`` are ignored — compaction is a single
logical commit).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import CorpusError
from .parallel import has_parallel_state
from .sharded import (
    MANIFEST_LOG_FILENAME,
    ShardedJsonlStore,
    _read_manifest,
    _shard_lines,
    manifest_generation,
    manifest_header,
    manifest_is_sealed,
    publish_layout,
    sweep_layout,
)

__all__ = ["CompactionReport", "compact_store"]


@dataclass(frozen=True)
class CompactionReport:
    """What one :func:`compact_store` invocation did."""

    directory: str
    #: Layout generation the store is at after the call.
    generation: int
    shard_size: int
    table_count: int
    shards_before: int
    shards_after: int
    #: Content fingerprint — identical before and after by construction.
    fingerprint: str
    #: False when the store was already packed at the requested size and
    #: only leftover files from a crashed attempt were cleaned up.
    rewritten: bool
    #: Stale files removed (crashed-attempt leftovers + swept old layout).
    swept_files: int

    def to_dict(self) -> dict:
        return asdict(self)


def _is_packed(shards: list[dict], shard_size: int) -> bool:
    """Whether a shard list is already optimally packed at ``shard_size``."""
    for position, entry in enumerate(shards):
        count = int(entry["count"])
        if position < len(shards) - 1:
            if count != shard_size:
                return False
        elif not 0 < count <= shard_size:
            return False
    return True


def compact_store(
    directory: str | os.PathLike[str],
    shard_size: int | None = None,
    fault=None,
) -> CompactionReport:
    """Rewrite a sealed store to ``shard_size`` under a new generation.

    ``shard_size=None`` keeps the current size — which on a sealed store
    is always already packed, so the call degenerates to cleaning up any
    leftovers of a previously crashed compaction (this is also what
    makes re-running after a crash idempotent). Refuses unsealed
    directories, old directories an unfinalized single writer left
    (``manifest.log`` present), and directories with in-flight build
    state: compaction
    only ever rewrites *fully committed* layouts.
    """
    directory = Path(directory)
    if has_parallel_state(directory):
        raise CorpusError(
            f"cannot compact {directory}: an in-flight parallel build owns it; "
            f"resume and finalize the build first"
        )
    manifest = _read_manifest(directory)
    if (directory / MANIFEST_LOG_FILENAME).exists():
        raise CorpusError(
            f"cannot compact {directory}: uncompacted manifest log present "
            f"(unfinalized build); finalize the writer first"
        )
    if not manifest_is_sealed(manifest):
        raise CorpusError(
            f"cannot compact {directory}: the current epoch is not sealed; "
            f"finalize the build first"
        )
    header = manifest_header(manifest)
    old_shards = manifest.get("shards", [])
    old_size = header["shard_size"]
    new_size = old_size if shard_size is None else int(shard_size)
    if new_size < 1:
        raise ValueError("shard_size must be >= 1")

    # Restore the directory to byte-exactly the authoritative layout
    # before touching anything (heals crashed-attempt leftovers).
    swept = sweep_layout(directory, manifest)
    # The pin must be computed from the *pre-rewrite* view so repeated
    # compactions keep reporting the original content fingerprint.
    fingerprint = ShardedJsonlStore(directory).content_fingerprint()
    rewritten = new_size != old_size or not _is_packed(old_shards, old_size)
    if rewritten:
        # Remap table locations by global position; the manifest lists
        # tables in corpus order, and order is preserved exactly.
        prefix = [0]
        for entry in old_shards:
            prefix.append(prefix[-1] + int(entry["count"]))
        tables: dict[str, dict] = {}
        for table_id, entry in manifest.get("tables", {}).items():
            position = prefix[int(entry["shard"])] + int(entry["line"])
            tables[table_id] = {**entry, "shard": position // new_size, "line": position % new_size}
        header.update(
            shard_size=new_size,
            generation=header["generation"] + 1,
            compacted_from={"fingerprint": fingerprint, "table_count": len(tables)},
        )
        manifest, swept_after = publish_layout(
            directory,
            (line for entry in old_shards for line in _shard_lines(directory, entry)),
            header,
            tables,
            manifest.get("stats", {}),
            fault=fault,
        )
        swept += swept_after
    return CompactionReport(
        directory=str(directory),
        generation=manifest_generation(manifest),
        shard_size=int(manifest["shard_size"]),
        table_count=len(manifest.get("tables", {})),
        shards_before=len(old_shards),
        shards_after=len(manifest.get("shards", [])),
        fingerprint=fingerprint,
        rewritten=rewritten,
        swept_files=swept,
    )
