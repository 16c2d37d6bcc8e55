"""Natural-language data search over table schemas (paper §5.3, Figure 6b).

A search procedure similar to Algorithm 1, but embedding *entire table
schemas* and comparing them with an embedded natural-language query. The
paper's example query "status and sales amount per product" retrieves a
typical order table with status / total_price / product_id columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_INDEX_CONFIG, IndexConfig
from ..core.corpus import GitTablesCorpus
from ..embeddings.ann import build_index
from ..embeddings.persist import (
    INDEX_LABELS_KEY,
    INDEX_VECTORS_KEY,
    embedder_fingerprint,
    encode_index,
    extend_unit_vectors,
    index_from_artifact,
    index_from_unit_rows,
)
from ..embeddings.sentence import SentenceEncoder
from ..storage.artifacts import corpus_artifacts, resolve

__all__ = ["SearchResult", "TableSearchEngine", "SEARCH_ARTIFACT"]

#: Artifact name under which the schema-embedding index is persisted.
SEARCH_ARTIFACT = "search-schemas"


@dataclass(frozen=True)
class SearchResult:
    """One ranked table for a search query."""

    table_id: str
    schema: tuple[str, ...]
    score: float
    rank: int


class TableSearchEngine:
    """Cosine-similarity search of embedded schemas against text queries.

    The schema embeddings live in a
    :class:`~repro.embeddings.similarity.NearestNeighbourIndex`;
    :meth:`search_batch` answers many queries with a single batched index
    query, and :meth:`search` is its single-query wrapper.

    Over a corpus whose store owns artifacts, the index is resolved
    through :func:`~repro.storage.artifacts.resolve` (fingerprint:
    encoder config + corpus content hash, plus the ANN build section
    when the tier is active); query results are bit-identical to a
    freshly embedded index.
    """

    def __init__(
        self,
        corpus: GitTablesCorpus,
        encoder: SentenceEncoder | None = None,
        index_config: IndexConfig | None = None,
    ) -> None:
        self.encoder = encoder or SentenceEncoder()
        self.index_config = index_config if index_config is not None else DEFAULT_INDEX_CONFIG
        self._corpus_size = len(corpus)
        artifacts, fingerprint = corpus_artifacts(corpus)
        resolve(
            artifacts,
            SEARCH_ARTIFACT,
            self._fingerprint(fingerprint),
            corpus,
            decode=self._decode,
            build=lambda: self._build(corpus),
            encode=TableSearchEngine._encode,
            extend=lambda stale, boundary: self._extend(corpus, stale, boundary),
        )

    # -- artifact hooks ----------------------------------------------------

    def _fingerprint(self, corpus_fingerprint: str | None = None) -> dict:
        """The artifact guard: everything that shapes the index matrix.

        The ANN section joins the guard only when the tier activates for
        this corpus size — small corpora keep their pre-existing flat
        fingerprints (and artifacts) untouched.
        """
        fingerprint = {
            "kind": "table-search",
            "encoder": embedder_fingerprint(self.encoder),
            "corpus": corpus_fingerprint,
        }
        if self.index_config.tier_active(self._corpus_size):
            fingerprint["ann"] = self.index_config.build_fingerprint()
        return fingerprint

    def _use(self, index, schemas: list[tuple[str, ...]]) -> "TableSearchEngine":
        self._index = index
        self._table_ids = list(index.labels)
        self._schemas = schemas
        return self

    def _decode(self, loaded) -> "TableSearchEngine | None":
        # nprobe is a query-time knob: the current config wins over
        # whatever value the artifact was published with.
        index = index_from_artifact(loaded, self.index_config.nprobe)
        schemas = loaded.payload.get("schemas")
        if index is None or schemas is None or len(schemas) != len(index.labels):
            return None
        return self._use(index, [tuple(schema) for schema in schemas])

    def _extend(self, corpus: GitTablesCorpus, stale, boundary: int) -> "TableSearchEngine | None":
        """Append the tail's schemas to a superseded artifact's unit rows.

        Only the tables past the sealed ``boundary`` are streamed and
        embedded (:func:`extend_unit_vectors` keeps the arithmetic
        bit-identical to a from-scratch embed) and the index tier is
        rebuilt over the combined rows — O(new tables), not O(corpus).
        """
        old_labels = stale.payload.get(INDEX_LABELS_KEY)
        old_schemas = stale.payload.get("schemas")
        units = stale.arrays.get(INDEX_VECTORS_KEY)
        if old_labels is None or old_schemas is None or units is None:
            return None
        if not (len(old_labels) == len(old_schemas) == len(units)):
            return None
        tail_ids, tail = self._schemas_of(corpus, start=boundary)
        rows = units
        if tail:
            rows = extend_unit_vectors(units, self.encoder.embed_schemas(tail))
        index = index_from_unit_rows(
            list(old_labels) + tail_ids, rows, self.index_config, n_rows=self._corpus_size
        )
        return self._use(index, [tuple(schema) for schema in old_schemas] + tail)

    def _build(self, corpus: GitTablesCorpus) -> "TableSearchEngine":
        """Embed every schema with one batched pass and build the index."""
        table_ids, schemas = self._schemas_of(corpus)
        # One batched pass over the whole corpus; each row is
        # bit-identical to embed_schema of that schema alone. The gate
        # between the flat and partitioned tiers uses the *corpus* size —
        # the same count the artifact fingerprint encodes.
        matrix = self.encoder.embed_schemas(schemas)
        index = build_index(table_ids, matrix, self.index_config, n_rows=self._corpus_size)
        return self._use(index, schemas)

    @staticmethod
    def _schemas_of(
        corpus: GitTablesCorpus, start: int = 0
    ) -> tuple[list[str], list[tuple[str, ...]]]:
        """Ids and schemas of the non-empty tables from ``start`` on.

        Streamed, so disk-backed corpora never materialize their table
        list; only the (small) schema metadata is retained.
        """
        table_ids: list[str] = []
        schemas: list[tuple[str, ...]] = []
        for table_id, schema in corpus.iter_schemas(start=start):
            if schema:
                table_ids.append(table_id)
                schemas.append(tuple(schema))
        return table_ids, schemas

    def _encode(self) -> dict:
        return encode_index(
            self._index, payload={"schemas": [list(schema) for schema in self._schemas]}
        )

    def __len__(self) -> int:
        return len(self._table_ids)

    def index_stats(self) -> dict:
        """The underlying index's instrumentation snapshot."""
        return self._index.stats()

    def search_batch(self, queries: list[str], k: int = 10) -> list[list[SearchResult]]:
        """Ranked results for many text queries with one batched query."""
        for query in queries:
            if not query or not query.strip():
                raise ValueError("query must not be empty")
        if not queries or len(self._table_ids) == 0:
            return [[] for _ in queries]
        matrix = self.encoder.embed_many(queries)
        hits = self._index.top_k_batch(matrix, top_k=min(k, len(self._table_ids)))
        return [
            [
                SearchResult(
                    table_id=self._table_ids[i],
                    schema=self._schemas[i],
                    score=score,
                    rank=rank + 1,
                )
                for rank, (i, score) in enumerate(row)
            ]
            for row in hits
        ]

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Return the ``k`` highest-scoring tables for a text query."""
        return self.search_batch([query], k=k)[0]

    def best(self, query: str) -> SearchResult | None:
        """The single best table for a query (None for an empty corpus)."""
        results = self.search(query, k=1)
        return results[0] if results else None
