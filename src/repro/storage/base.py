"""The :class:`CorpusStore` protocol behind :class:`~repro.core.corpus.GitTablesCorpus`.

A store owns the physical representation of a corpus — the mapping from
table ids to :class:`~repro.core.corpus.AnnotatedTable` records — and the
corpus container delegates every container operation to it. Two
backends implement the protocol:

* :class:`~repro.storage.memory.InMemoryStore` — a plain dict; the
  historical behaviour, and what subsets/filters materialize into.
* :class:`~repro.storage.sharded.ShardedJsonlStore` — a lazy reader over
  a directory of JSONL shards plus a manifest. Iteration streams one
  shard at a time, ``get`` reads only the shard that holds the requested
  table, and corpus-level statistics (topics, row/column totals,
  repository counts) are answered from the manifest without touching any
  shard.

Sharded directories are written by one writer,
:class:`~repro.storage.sharded.ShardedCorpusWriter`, which is not a
store: it appends tables to its own shards and delta log (what makes
interrupted builds resumable), and a directory becomes readable once a
build coordinator or the writer's ``finalize`` publishes its manifest.

The protocol is deliberately small: everything a corpus can compute by
streaming (``topics``, ``filter``, statistics) lives in
:class:`~repro.core.corpus.GitTablesCorpus` itself, with
:meth:`CorpusStore.stats_hint` as the optional manifest-backed fast
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.corpus import AnnotatedTable
    from .artifacts import IndexArtifactStore

__all__ = ["CorpusStore", "StoreStats"]


#: The manifest-cached statistics a store may answer without scanning:
#: ``{"total_rows": int, "total_columns": int, "topics": {topic: count},
#: "repositories": {repo: count}}``.
StoreStats = dict


@runtime_checkable
class CorpusStore(Protocol):
    """Storage backend protocol for a corpus of annotated tables.

    Implementations must keep **insertion order**: iteration (and
    ``table_ids``) yields tables in the order they were added, which is
    what makes corpora built through different backends comparable
    record-for-record.
    """

    #: Corpus name carried by the backend (persisted backends store it in
    #: their manifest).
    name: str
    #: The derived index artifacts this store owns: the artifact store
    #: under a sharded directory, ``None`` in memory or when the store
    #: was opened with ``use_artifacts=False``.
    artifacts: "IndexArtifactStore | None"

    def __len__(self) -> int:
        """Number of tables in the store."""
        ...

    def __iter__(self) -> Iterator["AnnotatedTable"]:
        """Stream every table in insertion order.

        Disk-backed stores must not materialize the full corpus to
        iterate — at most one shard (plus a small cache) may be resident.
        """
        ...

    def __contains__(self, table_id: str) -> bool:
        """Whether a table id is present (no table content is read)."""
        ...

    def get(self, table_id: str) -> "AnnotatedTable | None":
        """The table for ``table_id``, or ``None``.

        Disk-backed stores read only the shard containing the table.
        """
        ...

    def add(self, annotated: "AnnotatedTable") -> None:
        """Append a table; duplicate ids raise
        :class:`~repro.errors.CorpusError`. Read-only backends raise
        :class:`~repro.errors.CorpusError` unconditionally."""
        ...

    def table_ids(self) -> Iterator[str]:
        """Stream the table ids in insertion order (metadata only)."""
        ...

    def stats_hint(self) -> StoreStats | None:
        """Cached corpus statistics, or ``None`` when the store has no
        cheaper answer than a scan (the in-memory backend).

        When a dict is returned it is authoritative: the corpus layer
        answers ``topics()``/``total_rows()``/``total_columns()``/
        ``repositories()`` straight from it without reading any table.
        """
        ...
