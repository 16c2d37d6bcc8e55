"""Embedding persistence glue for the index artifact store.

The artifact store (:mod:`repro.storage.artifacts`) deals in anonymous
named arrays; this module supplies the embedding-side conventions on top
of it:

* :func:`embedder_fingerprint` — the JSON identity of a hashed embedding
  model (class, dim, seed, n-gram sizes, weights). Two models with equal
  fingerprints embed every string bit-identically, so the fingerprint
  stands in for "same encoder" in artifact guards.
* :func:`encode_index` / :func:`index_from_artifact` — the format hooks
  that persist a
  :class:`~repro.embeddings.similarity.NearestNeighbourIndex` as one
  artifact (its unit-vector matrix as an mmap-able array, its labels in
  the payload) and resolve it back, bypassing re-normalisation so a
  loaded index answers queries bit-identically to the published one;
  :func:`publish_index` / :func:`load_index` wrap them around one
  artifact store call.

Consumers (search, annotation) pass these hooks to
:func:`repro.storage.artifacts.resolve` with fingerprints assembled from
:func:`embedder_fingerprint`, the corpus content hash
(:func:`repro.storage.artifacts.corpus_content_fingerprint`) and any of
their own parameters that shape the matrix.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_INDEX_CONFIG, IndexConfig
from ..storage.artifacts import IndexArtifactStore, LoadedArtifact
from .ann import PartitionedIndex, _validate_partition_tables
from .similarity import NearestNeighbourIndex

__all__ = [
    "embedder_fingerprint",
    "encode_index",
    "extend_unit_vectors",
    "publish_index",
    "load_index",
    "index_from_artifact",
    "index_from_unit_rows",
]

#: Array key under which an index's unit-vector matrix is published.
INDEX_VECTORS_KEY = "unit_vectors"
#: Payload key under which an index's labels are published.
INDEX_LABELS_KEY = "labels"
#: Extra arrays/payload published for a partitioned (ANN-tier) index.
ANN_CENTROIDS_KEY = "ann_centroids"
ANN_ROW_IDS_KEY = "ann_partition_row_ids"
ANN_OFFSETS_KEY = "ann_partition_offsets"
ANN_PAYLOAD_KEY = "ann"


def embedder_fingerprint(model) -> dict:
    """The JSON identity of a hashed embedding model.

    Covers everything that shapes the produced vectors: the concrete
    class, dimensionality, hash seed, and the optional n-gram/weight
    knobs a subclass defines. Models compare equal exactly when they
    embed every string identically.
    """
    fingerprint: dict = {
        "class": type(model).__name__,
        "dim": int(model.dim),
        "seed": int(model.seed),
    }
    ngram_sizes = getattr(model, "ngram_sizes", None)
    if ngram_sizes is not None:
        fingerprint["ngram_sizes"] = list(ngram_sizes)
    word_weight = getattr(model, "word_weight", None)
    if word_weight is not None:
        fingerprint["word_weight"] = float(word_weight)
    return fingerprint


def extend_unit_vectors(unit_vectors: np.ndarray, tail_matrix: np.ndarray) -> np.ndarray:
    """Append freshly embedded rows to an existing unit-row matrix.

    ``tail_matrix`` is row-normalised with *exactly* the arithmetic
    :class:`NearestNeighbourIndex.__init__` applies (zero rows kept
    zero), so the concatenated matrix is bit-identical to normalising
    the full stacked matrix from scratch — row normalisation is row-pure
    — while touching only the tail. The committed prefix rows (often an
    mmap of the superseded artifact) are copied verbatim, never
    re-divided.
    """
    tail = np.asarray(tail_matrix)
    norms = np.linalg.norm(tail, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return np.concatenate([np.asarray(unit_vectors), tail / norms])


def index_from_unit_rows(
    labels: list[str],
    unit_vectors: np.ndarray,
    config: IndexConfig | None = None,
    n_rows: int | None = None,
) -> NearestNeighbourIndex:
    """The right index tier over *already-normalised* unit rows.

    The incremental counterpart of :func:`~repro.embeddings.ann.
    build_index`: the rows (e.g. from :func:`extend_unit_vectors`) skip
    ``__init__``'s normalising division entirely, so the flat tier is
    bit-identical to a from-scratch build over the same schemas, and the
    partitioned tier re-runs only the deterministic k-means over them —
    the one genuinely corpus-global piece of an index build.
    """
    config = config if config is not None else DEFAULT_INDEX_CONFIG
    flat = NearestNeighbourIndex._from_unit_vectors(labels, unit_vectors)
    count = len(labels) if n_rows is None else n_rows
    if not config.tier_active(count):
        return flat
    return PartitionedIndex.from_flat(flat, config)


def encode_index(index: NearestNeighbourIndex, payload: dict | None = None) -> dict:
    """The artifact arrays and payload of an index (plus extra payload).

    A partitioned index additionally carries its centroid matrix and
    partition tables (under the ``ann_*`` array keys) plus an ``ann``
    payload section, so :func:`index_from_artifact` can reopen it as the
    same tier without re-running k-means. Returns the ``arrays`` /
    ``payload`` keyword arguments of
    :meth:`~repro.storage.artifacts.IndexArtifactStore.publish`.
    """
    full_payload = dict(payload or {})
    full_payload[INDEX_LABELS_KEY] = list(index.labels)
    arrays = {INDEX_VECTORS_KEY: index._unit_vectors}
    if isinstance(index, PartitionedIndex):
        arrays[ANN_CENTROIDS_KEY] = index._centroids
        arrays[ANN_ROW_IDS_KEY] = index._row_ids
        arrays[ANN_OFFSETS_KEY] = index._offsets
        full_payload[ANN_PAYLOAD_KEY] = {
            "n_partitions": index.n_partitions,
            "nprobe": index.nprobe,
            "recall": index.recall,
        }
    return {"arrays": arrays, "payload": full_payload}


def publish_index(
    artifacts: IndexArtifactStore,
    name: str,
    fingerprint: dict,
    index: NearestNeighbourIndex,
    payload: dict | None = None,
    prune: bool = True,
) -> None:
    """Publish an index (plus optional extra payload) as one artifact."""
    artifacts.publish(name, fingerprint, prune=prune, **encode_index(index, payload))


def index_from_artifact(loaded: LoadedArtifact) -> NearestNeighbourIndex | None:
    """Rebuild the index held by a loaded artifact (mmap-backed).

    Artifacts carrying the ``ann_*`` arrays come back as a
    :class:`PartitionedIndex` (same tier they were published as);
    everything else comes back flat. Either way the unit-vector matrix
    stays mmap'd and queries are bit-identical to the published index.
    Returns ``None`` when the labels, vectors or partition tables are
    missing or inconsistent.
    """
    try:
        labels = loaded.payload[INDEX_LABELS_KEY]
        vectors = loaded.arrays[INDEX_VECTORS_KEY]
        ann_meta = loaded.payload.get(ANN_PAYLOAD_KEY)
        if ann_meta is None or ANN_CENTROIDS_KEY not in loaded.arrays:
            return NearestNeighbourIndex._from_unit_vectors(labels, vectors)
        centroids = loaded.arrays[ANN_CENTROIDS_KEY]
        row_ids = loaded.arrays[ANN_ROW_IDS_KEY]
        offsets = loaded.arrays[ANN_OFFSETS_KEY]
        _validate_partition_tables(row_ids, offsets, len(centroids), len(labels))
        return PartitionedIndex._from_parts(
            labels,
            vectors,
            centroids,
            row_ids,
            offsets,
            ann_meta.get("nprobe", 1),
            recall=ann_meta.get("recall"),
        )
    except (KeyError, ValueError):
        return None


def load_index(
    artifacts: IndexArtifactStore, name: str, fingerprint: dict
) -> tuple[NearestNeighbourIndex, dict] | None:
    """Resolve a published index, or ``None`` on any artifact miss.

    Returns ``(index, payload)``; the index's vector matrix stays
    mmap'd, so this is O(open) regardless of corpus size.
    """
    loaded = artifacts.load(name, fingerprint)
    index = index_from_artifact(loaded) if loaded is not None else None
    if index is None:
        return None
    return index, loaded.payload
