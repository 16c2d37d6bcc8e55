"""The dict-backed in-memory corpus store (the historical behaviour)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import CorpusError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.corpus import AnnotatedTable

__all__ = ["InMemoryStore"]


class InMemoryStore:
    """Insertion-ordered dict of table id -> annotated table.

    The default backend of :class:`~repro.core.corpus.GitTablesCorpus`,
    and the backend every ``topic_subset``/``filter`` result materializes
    into (subsets are expected to be small relative to their source).
    """

    #: An in-memory corpus has no durable identity to key artifacts on.
    artifacts = None

    def __init__(self, name: str = "gittables") -> None:
        self.name = name
        self._tables: dict[str, "AnnotatedTable"] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator["AnnotatedTable"]:
        return iter(self._tables.values())

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._tables

    def get(self, table_id: str) -> "AnnotatedTable | None":
        return self._tables.get(table_id)

    def add(self, annotated: "AnnotatedTable") -> None:
        table_id = annotated.table_id
        if table_id in self._tables:
            raise CorpusError(f"duplicate table id {table_id!r}")
        self._tables[table_id] = annotated

    def table_ids(self) -> Iterator[str]:
        return iter(self._tables)

    def stats_hint(self) -> dict | None:
        """No cached statistics: scanning memory is already cheap."""
        return None
