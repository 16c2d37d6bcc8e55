"""The GitTables corpus container.

An :class:`AnnotatedTable` bundles a curated table with its column
annotations and provenance; :class:`GitTablesCorpus` is the queryable
collection the analysis and application layers operate on.

Physical storage is pluggable: the corpus delegates every container
operation to a :class:`~repro.storage.base.CorpusStore` backend — the
in-memory dict by default, or a lazy sharded-JSONL store for corpora
that should not (or cannot) be fully resident. Iteration, ``get`` and
the derived views are backend-aware and streaming, so code written as
``for annotated in corpus`` works identically over both.

Persistence: :meth:`GitTablesCorpus.save` writes the sharded JSONL
layout (atomically — the target directory appears only once fully
written) and :meth:`GitTablesCorpus.load` returns a *lazy* disk-backed
corpus over it, whose store owns the directory's derived index
artifacts (:attr:`GitTablesCorpus.artifacts`).

Sub-corpus name provenance: derived corpora record how they were carved
out of their parent in the corpus name — ``topic_subset("cars")`` of a
corpus named ``gittables`` is named ``gittables/topic=cars``, and
``filter(...)`` appends ``/filtered`` (or the caller-supplied name).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

from ..dataframe.table import Table
from ..errors import CorpusError
from ..storage._io import is_dead_pid_suffix
from ..storage.base import CorpusStore
from ..storage.columnar import ColumnarProjection, TablePredicate, ensure_projection
from ..storage.memory import InMemoryStore
from ..storage.parallel import has_parallel_state
from ..storage.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardedCorpusWriter,
    ShardedJsonlStore,
    carry_derived_files,
    is_sharded_dir,
)
from .annotation import AnnotationMethod, ColumnAnnotation, TableAnnotations

__all__ = ["AnnotatedTable", "GitTablesCorpus"]


@dataclass
class AnnotatedTable:
    """A curated table plus its annotations and provenance."""

    table: Table
    annotations: TableAnnotations
    topic: str
    repository: str
    source_url: str
    license_key: str | None = None

    @property
    def table_id(self) -> str:
        return self.table.table_id or self.source_url

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "table_id": self.table_id,
            "topic": self.topic,
            "repository": self.repository,
            "source_url": self.source_url,
            "license_key": self.license_key,
            "header": list(self.table.header),
            "rows": [list(row) for row in self.table.rows],
            "metadata": dict(self.table.metadata),
            "annotations": [
                {
                    "column": annotation.column,
                    "type_label": annotation.type_label,
                    "ontology": annotation.ontology,
                    "method": annotation.method.value,
                    "confidence": annotation.confidence,
                }
                for annotation in self.annotations.all()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnnotatedTable":
        """Inverse of :meth:`to_dict`."""
        table = Table(
            payload["header"],
            payload["rows"],
            table_id=payload["table_id"],
            metadata=payload.get("metadata", {}),
        )
        annotations = TableAnnotations(table_id=payload["table_id"])
        for entry in payload.get("annotations", []):
            annotations.add(
                ColumnAnnotation(
                    column=entry["column"],
                    type_label=entry["type_label"],
                    ontology=entry["ontology"],
                    method=AnnotationMethod(entry["method"]),
                    confidence=float(entry["confidence"]),
                )
            )
        return cls(
            table=table,
            annotations=annotations,
            topic=payload.get("topic", ""),
            repository=payload.get("repository", ""),
            source_url=payload.get("source_url", payload["table_id"]),
            license_key=payload.get("license_key"),
        )


class GitTablesCorpus:
    """A collection of annotated tables over a pluggable storage backend.

    ``store`` defaults to a fresh :class:`~repro.storage.memory.InMemoryStore`;
    pass a :class:`~repro.storage.sharded.ShardedJsonlStore` (or use
    :meth:`load` on a sharded directory) for a lazily-loaded disk-backed
    corpus. The container API is identical across backends.
    """

    def __init__(self, name: str | None = None, store: CorpusStore | None = None) -> None:
        if store is None:
            store = InMemoryStore(name=name or "gittables")
        elif name is not None:
            store.name = name
        self._store = store
        self._projection: ColumnarProjection | None = None

    @property
    def store(self) -> CorpusStore:
        """The storage backend this corpus delegates to."""
        return self._store

    @property
    def artifacts(self):
        """The index artifact store this corpus's storage owns.

        Every corpus-keyed derived index resolves through it; ``None``
        (in memory, or opened with ``use_artifacts=False``) only builds.
        """
        return self._store.artifacts

    # -- columnar projection ----------------------------------------------

    def attach_projection(self, projection: ColumnarProjection) -> None:
        """Attach a materialized columnar metadata projection.

        Once attached (see :func:`~repro.storage.columnar.
        ensure_projection`), corpus statistics and
        :class:`~repro.storage.columnar.TablePredicate` filters are
        evaluated engine-side on the projection's arrays instead of
        iterating parsed tables.
        """
        self._projection = projection

    @property
    def projection(self) -> ColumnarProjection | None:
        """The attached projection, or ``None`` when absent or stale.

        Corpora are append-only (duplicate ids rejected, no removal),
        so a table-count mismatch is exactly "tables were added since
        the projection was built" — the stale projection is ignored, and
        statistics and :class:`~repro.storage.columnar.TablePredicate`
        filters rebuild it through :func:`~repro.storage.columnar.
        ensure_projection`.
        """
        projection = self._projection
        if projection is not None and projection.table_count == len(self._store):
            return projection
        return None

    @property
    def name(self) -> str:
        return self._store.name

    @name.setter
    def name(self, value: str) -> None:
        self._store.name = value

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[AnnotatedTable]:
        return iter(self._store)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._store

    def get(self, table_id: str) -> AnnotatedTable | None:
        """The table for ``table_id`` (sharded backends read one shard)."""
        return self._store.get(table_id)

    def add(self, annotated: AnnotatedTable) -> None:
        """Add a table; duplicate table ids are rejected."""
        self._store.add(annotated)

    def table_ids(self) -> Iterator[str]:
        """Stream table ids without loading table content."""
        return self._store.table_ids()

    # -- queries -----------------------------------------------------------

    def tables(self) -> list[AnnotatedTable]:
        """All tables as a list (materializes; prefer iterating the corpus)."""
        return list(self._store)

    def topics(self) -> list[str]:
        """Sorted list of distinct topics present in the corpus."""
        hint = self._store.stats_hint()
        if hint is not None:
            return sorted(hint.get("topics", {}))
        return sorted({annotated.topic for annotated in self._store})

    def topic_subset(self, topic: str) -> "GitTablesCorpus":
        """The sub-corpus of tables extracted for one topic.

        The result is in-memory and named ``<parent>/topic=<topic>`` so
        downstream reports can trace where a subset came from.
        """
        subset = GitTablesCorpus(name=f"{self.name}/topic={topic}")
        for annotated in self._store:
            if annotated.topic == topic:
                subset.add(annotated)
        return subset

    def filter(
        self,
        predicate: Callable[[AnnotatedTable], bool] | TablePredicate,
        name: str | None = None,
    ) -> "GitTablesCorpus":
        """A sub-corpus of the tables satisfying ``predicate``.

        ``predicate`` is either a plain callable (evaluated by streaming
        iteration) or a declarative
        :class:`~repro.storage.columnar.TablePredicate`, which is pushed
        down to the columnar projection (resolved by
        :func:`~repro.storage.columnar.ensure_projection`, so a loaded
        store adopts its persisted projection instead of scanning):
        matching table ids are computed engine-side and only those
        tables are read. The result is in-memory and named
        ``<parent>/filtered`` unless an explicit ``name`` records more
        specific provenance.
        """
        subset = GitTablesCorpus(name=name or f"{self.name}/filtered")
        if isinstance(predicate, TablePredicate):
            for table_id in ensure_projection(self).select_ids(predicate):
                subset.add(self._store.get(table_id))
            return subset
        for annotated in self._store:
            if predicate(annotated):
                subset.add(annotated)
        return subset

    def repositories(self) -> dict[str, int]:
        """repository full name -> number of tables contributed."""
        hint = self._store.stats_hint()
        if hint is not None:
            return dict(hint.get("repositories", {}))
        counts: dict[str, int] = {}
        for annotated in self._store:
            counts[annotated.repository] = counts.get(annotated.repository, 0) + 1
        return counts

    def iter_schemas(self, start: int = 0) -> Iterator[tuple[str, tuple[str, ...]]]:
        """Stream (table id, schema) pairs without materializing a list.

        ``start`` skips the first ``start`` tables in corpus order;
        sharded stores skip whole shards via their manifest counts
        without parsing them, so streaming an extension's tail costs
        O(tail), not O(corpus).
        """
        source: Iterator = iter(self._store)
        if start:
            iter_from = getattr(self._store, "iter_from", None)
            source = iter_from(start) if iter_from is not None else islice(source, start, None)
        for annotated in source:
            yield annotated.table_id, annotated.table.schema

    def schemas(self) -> list[tuple[str, tuple[str, ...]]]:
        """(table id, schema) pairs, used by schema completion and search."""
        return list(self.iter_schemas())

    def total_rows(self) -> int:
        hint = self._store.stats_hint()
        if hint is not None:
            return int(hint.get("total_rows", 0))
        return sum(annotated.table.num_rows for annotated in self._store)

    def total_columns(self) -> int:
        hint = self._store.stats_hint()
        if hint is not None:
            return int(hint.get("total_columns", 0))
        return sum(annotated.table.num_columns for annotated in self._store)

    # -- persistence -------------------------------------------------------

    def save(
        self,
        directory: str | os.PathLike[str],
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        """Persist the corpus to ``directory`` atomically (sharded JSONL).

        The corpus is first written to a temporary sibling directory and
        only renamed into place once complete, so a half-written corpus
        is never observable at ``directory``. Overwriting an existing
        corpus moves the old one aside, renames the new one in, then
        removes the old — if the swap-in fails the old corpus is
        restored, and a process kill inside the (two-rename) swap window
        leaves the old corpus intact under the sibling recovery name
        ``.<name>.replaced-<pid>`` rather than corrupting anything.

        The target directory is replaced *wholesale*: anything else
        living in it is discarded with the old corpus. One exception —
        when the corpus being saved is backed by this very directory,
        its ``build.json`` provenance (which keeps the store reusable by
        ``build(store_dir=...)``) is carried over.
        """
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        self._clean_stale_save_dirs(directory)
        staging = directory.parent / f".{directory.name}.saving-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        try:
            with ShardedCorpusWriter(staging, shard_size=shard_size, name=self.name) as writer:
                # Commit shard-sized chunks so saving a lazy disk-backed
                # corpus never materializes it (commit boundaries do not
                # change the output bytes; finalize links the writer's
                # shards to their canonical names).
                for annotated in self._store:
                    writer.add(annotated)
                    if writer.pending_count >= shard_size:
                        writer.commit()
                writer.finalize()
            # Re-saving a store's own corpus onto its directory keeps the
            # build provenance valid — carry it (and the derived index
            # artifacts, still valid since the content is unchanged)
            # into the replacement.
            store_directory = getattr(self._store, "directory", None)
            if (
                store_directory is not None
                and Path(store_directory).resolve() == directory.resolve()
            ):
                carry_derived_files(directory, staging)
            if directory.exists():
                replaced = directory.parent / f".{directory.name}.replaced-{os.getpid()}"
                os.rename(directory, replaced)
                try:
                    os.rename(staging, directory)
                except BaseException:
                    # Put the old corpus back before propagating; the new
                    # one stays in staging until the finally-cleanup.
                    os.rename(replaced, directory)
                    raise
                shutil.rmtree(replaced)
            else:
                os.rename(staging, directory)
        finally:
            if staging.exists():
                shutil.rmtree(staging)

    @staticmethod
    def _clean_stale_save_dirs(directory: Path) -> None:
        """Recover from saves interrupted by *dead* processes.

        An interrupted save can leave two kinds of pid-suffixed siblings:
        ``.<name>.replaced-<pid>`` — the previous corpus, moved aside
        during the swap window; if the target directory is gone (the
        process died between the two renames) this is the only complete
        copy, so it is **restored**, and only deleted when the target
        exists (the swap completed, the copy is superseded). And
        ``.<name>.saving-<pid>`` — a half-written staging tree, always
        garbage. Live pids are left alone — their save is in flight.
        """
        for path in directory.parent.glob(f".{directory.name}.replaced-*"):
            if not is_dead_pid_suffix(path.name):
                continue
            if directory.exists():
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.rename(path, directory)
        for path in directory.parent.glob(f".{directory.name}.saving-*"):
            if is_dead_pid_suffix(path.name):
                shutil.rmtree(path, ignore_errors=True)

    @classmethod
    def load(
        cls, directory: str | os.PathLike[str], cache_shards: int = 2, use_artifacts: bool = True
    ) -> "GitTablesCorpus":
        """Load a corpus previously written by :meth:`save`.

        The corpus comes back *lazily*: only the manifest is read here,
        and shards are loaded on demand (``cache_shards`` bounds how
        many shards stay resident; their tables are decoded on first
        access). Its store owns the directory's index artifacts
        (:attr:`artifacts`) unless ``use_artifacts=False``. A directory
        that is not a sharded store raises
        :class:`~repro.errors.CorpusError`; so does a fresh build's
        in-flight directory, which holds no corpus until its build is
        resumed and published.
        """
        if not is_sharded_dir(directory):
            if has_parallel_state(directory):
                raise CorpusError(
                    f"{directory} holds an unfinished build and no published corpus; "
                    "re-run the build to resume it"
                )
            raise CorpusError(f"no sharded corpus store found at {directory}")
        store = ShardedJsonlStore(directory, cache_shards=cache_shards, use_artifacts=use_artifacts)
        return cls(store=store)
