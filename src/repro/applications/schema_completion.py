"""Schema completion with NearestCompletion (paper §5.2, Algorithm 1).

Given a schema prefix of length N, the algorithm embeds its attributes
with a Universal-Sentence-Encoder-style model, computes the average
cosine distance to the first N attributes of every schema in GitTables,
and returns the k schemas with the smallest distance as completion
suggestions. Relevance is evaluated as the cosine similarity between the
embedding of the full original schema and the full schema of the best
suggestion (paper Table 8 reports values around 0.5).

The prefix distance contracts each candidate's own (prefix length, dim)
attribute block with the prefix embeddings (``snd,nd->sn``): one dot
product per (candidate, position) pair, not a matrix product of query
rows against index rows, so it stays an einsum rather than going through
:func:`~repro.embeddings.similarity.score`. Its per-pair loop makes each
distance independent of which other candidates are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_INDEX_CONFIG, IndexConfig
from ..core.corpus import GitTablesCorpus
from ..embeddings.ann import PartitionedIndex
from ..embeddings.persist import embedder_fingerprint, encode_tier, tier_from_artifact
from ..embeddings.sentence import SentenceEncoder
from ..embeddings.similarity import cosine_similarity
from ..storage.artifacts import corpus_artifacts, resolve

__all__ = ["SchemaCompletion", "NearestCompletion", "CompletionEvaluation", "COMPLETION_ARTIFACT"]

#: Artifact name under which the attribute matrix (and ANN tier) is persisted.
COMPLETION_ARTIFACT = "completion-attributes"


@dataclass(frozen=True)
class SchemaCompletion:
    """One suggested completion for a schema prefix."""

    table_id: str
    schema: tuple[str, ...]
    #: Average cosine distance between the prefix attributes and the first
    #: N attributes of this schema (lower is better).
    prefix_distance: float


@dataclass(frozen=True)
class CompletionEvaluation:
    """Relevance of suggested completions for one target schema."""

    prefix: tuple[str, ...]
    best_completion: SchemaCompletion
    #: Cosine similarity between the full original schema and the most
    #: similar suggested full schema (the paper's Table 8 number).
    best_schema_similarity: float


class NearestCompletion:
    """Algorithm 1: k-nearest schema completions by prefix embedding distance.

    Over a corpus whose store owns artifacts, the per-attribute
    embedding matrix and the coarse tier are resolved through
    :func:`~repro.storage.artifacts.resolve` (fingerprint: encoder
    config + ``min_schema_length`` + corpus content hash + the ANN
    section when the tier is active); completions are bit-identical to
    a freshly embedded index.
    """

    def __init__(
        self,
        corpus: GitTablesCorpus,
        encoder: SentenceEncoder | None = None,
        min_schema_length: int = 4,
        index_config: IndexConfig | None = None,
    ) -> None:
        self.encoder = encoder or SentenceEncoder()
        self.min_schema_length = min_schema_length
        self.index_config = index_config if index_config is not None else DEFAULT_INDEX_CONFIG
        self._corpus_size = len(corpus)
        artifacts, fingerprint = corpus_artifacts(corpus)
        resolve(
            artifacts,
            COMPLETION_ARTIFACT,
            self._fingerprint(fingerprint),
            corpus,
            decode=self._decode,
            build=lambda: self._build(corpus),
            encode=NearestCompletion._encode,
            extend=lambda stale, boundary: self._extend(corpus, stale, boundary),
        )

    # -- artifact hooks ----------------------------------------------------

    def _fingerprint(self, corpus_fingerprint: str | None = None) -> dict:
        fingerprint = {
            "kind": "schema-completion",
            "encoder": embedder_fingerprint(self.encoder),
            "min_schema_length": int(self.min_schema_length),
            "corpus": corpus_fingerprint,
        }
        if self.index_config.tier_active(self._corpus_size):
            fingerprint["ann"] = self.index_config.build_fingerprint()
        return fingerprint

    @staticmethod
    def _stored_schemas(loaded) -> list[tuple[str, tuple[str, ...]]] | None:
        """An artifact's (table id, schema) rows, if they cover its matrix."""
        table_ids = loaded.payload.get("table_ids")
        schemas = loaded.payload.get("schemas")
        matrix = loaded.arrays.get("attributes")
        if table_ids is None or schemas is None or matrix is None:
            return None
        if len(table_ids) != len(schemas) or matrix.shape[0] != sum(map(len, schemas)):
            return None
        return [(table_id, tuple(schema)) for table_id, schema in zip(table_ids, schemas)]

    def _use(self, schemas: list[tuple[str, tuple[str, ...]]], matrix) -> "NearestCompletion":
        self._schemas = schemas
        self._attributes = matrix
        self._coarse: PartitionedIndex | None = None
        self._coarse_built = False
        self._lengths = np.array([len(schema) for _, schema in schemas], dtype=np.int64)
        self._starts = np.cumsum(self._lengths) - self._lengths
        self._id_rank = None
        return self

    def _decode(self, loaded) -> "NearestCompletion | None":
        """Adopt the matrix and the published coarse tier: no k-means."""
        schemas = self._stored_schemas(loaded)
        if schemas is None:
            return None
        self._use(schemas, loaded.arrays["attributes"])
        ids = [table_id for table_id, _ in schemas]
        try:
            self._coarse = tier_from_artifact(loaded, ids, None, self.index_config.nprobe)
        except (KeyError, ValueError):
            return None
        self._coarse_built = True
        return self if (self._coarse is not None) == self._tier_active() else None

    def _extend(self, corpus: GitTablesCorpus, stale, boundary: int) -> "NearestCompletion | None":
        """Append the tail's attribute rows to a superseded artifact's matrix.

        Only the qualifying schemas past the sealed ``boundary`` are
        streamed and embedded; the raw ``embed_many`` matrices
        concatenate bit-identically to a from-scratch embed because each
        row depends only on its own attribute string — O(new tables),
        not O(corpus).
        """
        schemas = self._stored_schemas(stale)
        if schemas is None:
            return None
        tail = self._qualifying(corpus, start=boundary)
        matrix = stale.arrays["attributes"]
        if tail:
            tail_attributes = [attr for _, schema in tail for attr in schema]
            matrix = np.concatenate([matrix, self.encoder.embed_many(tail_attributes)])
        return self._use(schemas + tail, matrix)

    def _build(self, corpus: GitTablesCorpus) -> "NearestCompletion":
        # Pre-embed every attribute of every schema in one batched pass
        # (the encoder deduplicates repeated attribute names across the
        # whole corpus), then split the matrix back per schema.
        schemas = self._qualifying(corpus)
        flat_attributes = [attr for _, schema in schemas for attr in schema]
        return self._use(schemas, self.encoder.embed_many(flat_attributes))

    def _qualifying(
        self, corpus: GitTablesCorpus, start: int = 0
    ) -> list[tuple[str, tuple[str, ...]]]:
        """Streamed (table id, schema) pairs long enough to complete from."""
        return [
            (table_id, tuple(schema))
            for table_id, schema in corpus.iter_schemas(start=start)
            if len(schema) >= self.min_schema_length
        ]

    def _encode(self) -> dict:
        return encode_tier(
            self._coarse_index(),
            {"attributes": self._attributes},
            {
                "table_ids": [table_id for table_id, _ in self._schemas],
                "schemas": [list(schema) for _, schema in self._schemas],
            },
        )

    def __len__(self) -> int:
        return len(self._schemas)

    def _coarse_index(self) -> PartitionedIndex | None:
        """The coarse candidate tier over per-schema head embeddings.

        Each qualifying schema is summarised by the mean of its first
        ``min_schema_length`` attribute embeddings; a partitioned index
        over those summaries lets :meth:`complete` probe for candidate
        schemas instead of scoring the whole corpus. Only past the
        ``IndexConfig.min_rows`` gate, so small corpora keep the exact
        full scan. Built on first use, or at publish time and persisted;
        an adopted tier is probe-only and costs no k-means or recall run.
        """
        if self._coarse_built:
            return self._coarse
        self._coarse_built = True
        if not self._tier_active():
            return None
        head = self.min_schema_length
        summaries = self._attributes[self._starts[:, None] + np.arange(head)].mean(axis=1)
        self._coarse = PartitionedIndex.build(
            [table_id for table_id, _ in self._schemas], summaries, self.index_config
        )
        return self._coarse

    def _tier_active(self) -> bool:
        return self.min_schema_length >= 1 and self.index_config.tier_active(len(self._schemas))

    def index_stats(self) -> dict:
        """Instrumentation snapshot of the coarse candidate tier."""
        if self._coarse is not None:
            return self._coarse.stats()
        return {"tier": "flat", "rows": len(self._schemas)}

    def _ranks(self) -> np.ndarray:
        """Each schema's position in table-id string order (built on first use)."""
        if self._id_rank is None:
            order = sorted(range(len(self._schemas)), key=lambda i: self._schemas[i][0])
            self._id_rank = np.empty(len(order), dtype=np.int64)
            self._id_rank[order] = np.arange(len(order))
        return self._id_rank

    def complete(self, prefix: list[str] | tuple[str, ...], k: int = 10) -> list[SchemaCompletion]:
        """Return the ``k`` nearest completions for ``prefix`` (Algorithm 1).

        The average cosine distance between position-aligned attributes
        (line 6 of Algorithm 1) is computed for every candidate schema at
        once: one fancy index gathers the (candidates, prefix_len, dim)
        tensor from the flat matrix, contracted against the prefix
        embeddings. Ranking is by (distance, table id); only the ``k``
        returned completions become objects.
        """
        if not prefix:
            raise ValueError("prefix must contain at least one attribute")
        if k < 1:
            raise ValueError("k must be >= 1")
        prefix = tuple(prefix)
        n = len(prefix)
        prefix_embeddings = self.encoder.embed_many(list(prefix))

        candidates = None
        coarse = self._coarse_index()
        if coarse is not None:
            # Probe with the prefix's own head summary. A full probe
            # (nprobe >= n_partitions) returns every schema in ascending
            # order, reproducing the exact path below; per-candidate
            # distances are batch-independent, so any shared candidate
            # scores bit-identically either way.
            query = prefix_embeddings[: self.min_schema_length].mean(axis=0)
            probed = coarse.probe_batch(query[None, :])[0]
            subset = probed[self._lengths[probed] >= n]
            if subset.size:
                candidates = subset
        if candidates is None:
            candidates = np.flatnonzero(self._lengths >= n)
        if not candidates.size:
            return []
        stacked = self._attributes[self._starts[candidates][:, None] + np.arange(n)]
        similarities = np.einsum("snd,nd->sn", stacked, prefix_embeddings)
        # Attribute embeddings are unit-or-zero vectors; normalising by
        # the norm products keeps the zero-vector convention (cosine 0).
        attribute_norms = np.linalg.norm(stacked, axis=2)
        prefix_norms = np.linalg.norm(prefix_embeddings, axis=1)
        denominators = attribute_norms * prefix_norms[None, :]
        safe = np.where(denominators > 0.0, denominators, 1.0)
        similarities = np.where(denominators > 0.0, similarities / safe, 0.0)
        distances = (1.0 - similarities).mean(axis=1)

        best = np.lexsort((self._ranks()[candidates], distances))[:k]
        return [
            SchemaCompletion(
                table_id=self._schemas[i][0],
                schema=self._schemas[i][1],
                prefix_distance=float(distances[j]),
            )
            for j, i in zip(best.tolist(), candidates[best].tolist())
        ]

    def evaluate(
        self,
        full_schema: list[str] | tuple[str, ...],
        prefix_length: int = 3,
        k: int = 10,
    ) -> CompletionEvaluation:
        """Evaluate completions for a prefix of a known full schema.

        The relevance score is the highest cosine similarity between the
        embedding of the original full schema and the embeddings of the
        full schemas of the k suggestions (paper §5.2).
        """
        full_schema = tuple(full_schema)
        if prefix_length < 1 or prefix_length > len(full_schema):
            raise ValueError("prefix_length must be within [1, len(full_schema)]")
        prefix = full_schema[:prefix_length]
        suggestions = self.complete(prefix, k=k)
        if not suggestions:
            raise ValueError("no completions available (corpus too small)")

        target_embedding = self.encoder.embed_schema(list(full_schema))
        similarities = [
            cosine_similarity(
                target_embedding, self.encoder.embed_schema(list(suggestion.schema))
            )
            for suggestion in suggestions
        ]
        best_index = int(np.argmax(similarities))
        best_similarity = similarities[best_index]
        best_completion = suggestions[best_index]
        return CompletionEvaluation(
            prefix=prefix,
            best_completion=best_completion,
            best_schema_similarity=float(best_similarity),
        )
