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
* :func:`encode_tier` / :func:`tier_from_artifact` — their ANN-tier
  half, shared with schema completion's coarse tier.

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

    Its unit-vector matrix, its labels and, when partitioned, its ANN
    tier (:func:`encode_tier`).
    """
    payload = {**(payload or {}), INDEX_LABELS_KEY: list(index.labels)}
    return encode_tier(index, {INDEX_VECTORS_KEY: index._unit_vectors}, payload)


def encode_tier(index: NearestNeighbourIndex | None, arrays: dict, payload: dict) -> dict:
    """The ``publish`` keyword arguments ``arrays`` / ``payload``, plus a
    partitioned ``index``'s centroids and partition tables (``ann_*``
    arrays) and ``ann`` payload section: its tier, reopened without k-means."""
    if isinstance(index, PartitionedIndex):
        arrays = {**arrays, ANN_CENTROIDS_KEY: index._centroids}
        arrays.update({ANN_ROW_IDS_KEY: index._row_ids, ANN_OFFSETS_KEY: index._offsets})
        tier = {"n_partitions": index.n_partitions, "nprobe": index.nprobe, "recall": index.recall}
        payload = {**payload, ANN_PAYLOAD_KEY: tier}
    return {"arrays": arrays, "payload": payload}


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


def tier_from_artifact(
    loaded: LoadedArtifact, labels: list[str], unit_vectors: np.ndarray | None, nprobe: int | None = None
) -> PartitionedIndex | None:
    """The ANN tier ``loaded`` carries over ``labels``' rows (``None`` if none).

    ``nprobe=None`` keeps the published probe count; ``unit_vectors=None``
    opens a probe-only tier. Missing or inconsistent partition tables
    raise ``KeyError`` / ``ValueError``.
    """
    tier = loaded.payload.get(ANN_PAYLOAD_KEY)
    if tier is None or ANN_CENTROIDS_KEY not in loaded.arrays:
        return None
    centroids = loaded.arrays[ANN_CENTROIDS_KEY]
    row_ids, offsets = loaded.arrays[ANN_ROW_IDS_KEY], loaded.arrays[ANN_OFFSETS_KEY]
    _validate_partition_tables(row_ids, offsets, len(centroids), len(labels))
    nprobe = tier.get("nprobe", 1) if nprobe is None else nprobe
    return PartitionedIndex._from_parts(
        labels, unit_vectors, centroids, row_ids, offsets, nprobe, tier.get("recall")
    )


def index_from_artifact(loaded: LoadedArtifact, nprobe: int | None = None) -> NearestNeighbourIndex | None:
    """Rebuild the index held by a loaded artifact (mmap-backed).

    Artifacts carrying the ``ann_*`` arrays come back as a
    :class:`PartitionedIndex` (probing ``nprobe`` partitions, if given);
    everything else comes back flat. Either way the unit-vector matrix
    stays mmap'd and queries are bit-identical to the published index.
    Returns ``None`` when the labels, vectors or partition tables are
    missing or inconsistent.
    """
    try:
        labels, vectors = loaded.payload[INDEX_LABELS_KEY], loaded.arrays[INDEX_VECTORS_KEY]
        tier = tier_from_artifact(loaded, labels, vectors, nprobe)
    except (KeyError, ValueError):
        return None
    return tier if tier is not None else NearestNeighbourIndex._from_unit_vectors(labels, vectors)


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
