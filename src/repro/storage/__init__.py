"""Pluggable corpus storage backends.

:class:`~repro.storage.base.CorpusStore` is the protocol behind
:class:`~repro.core.corpus.GitTablesCorpus`; the backends are the
in-memory dict (:class:`InMemoryStore`) and the lazy sharded-JSONL
reader (:class:`ShardedJsonlStore`). One append-only, resumable writer,
:class:`ShardedCorpusWriter`, writes every sharded directory: each
writer owns one worker scope (its shards and delta log), and either a
:class:`ParallelCorpusBuilder` coordinator merges its workers' logs on
commit boundaries into the canonical layout (every store build, under
any process count) or the writer publishes its own tables
(``GitTablesCorpus.save``). :class:`BuildCheckpoint` carries
cross-session build state for resumable corpus construction.
:mod:`repro.storage.compaction` re-shards a sealed directory online
(:func:`compact_store`): the same tables are repacked under a bumped
manifest generation with the content fingerprint pinned, so derived
artifacts survive and serving readers hot-reload instead of rebuilding.
:mod:`repro.storage.columnar` adds the analytics tier: a
:class:`ColumnarProjection` materializes per-table and per-column
metadata into typed NumPy arrays (persisted via the artifact store)
so corpus statistics and :class:`TablePredicate` filters run as
vectorized engine-side scans instead of per-table JSON parsing.
"""

from .artifacts import (
    ARTIFACTS_DIRNAME,
    IndexArtifactStore,
    LoadedArtifact,
    corpus_content_fingerprint,
    fingerprint_digest,
)
from .base import CorpusStore, StoreStats
from .columnar import (
    PROJECTION_ARTIFACT,
    ColumnarProjection,
    TablePredicate,
    count_by,
    ensure_projection,
    first_seen_counts,
    histogram,
    load_projection,
    masked,
    publish_projection,
    quantiles,
    sum_by,
)
from .checkpoint import (
    BUILD_META_FILENAME,
    CHECKPOINT_FILENAME,
    BuildCheckpoint,
    checkpoint_filename,
    config_fingerprint,
    load_build_meta,
    save_build_meta,
    worker_checkpoint_ids,
)
from ._io import FaultSpec
from .compaction import CompactionReport, compact_store
from .memory import InMemoryStore
from .parallel import ParallelCorpusBuilder, has_parallel_state
from .sharded import (
    DEFAULT_SHARD_SIZE,
    MANIFEST_FILENAME,
    MANIFEST_LOG_FILENAME,
    SHARDED_FORMAT,
    ShardedCorpusWriter,
    ShardedJsonlStore,
    build_manifest,
    is_sharded_dir,
    manifest_generation,
    read_store_version,
    worker_log_filename,
    worker_shard_filename,
)

__all__ = [
    "CompactionReport",
    "FaultSpec",
    "ParallelCorpusBuilder",
    "compact_store",
    "manifest_generation",
    "read_store_version",
    "build_manifest",
    "checkpoint_filename",
    "has_parallel_state",
    "worker_checkpoint_ids",
    "worker_log_filename",
    "worker_shard_filename",
    "CorpusStore",
    "StoreStats",
    "ColumnarProjection",
    "TablePredicate",
    "PROJECTION_ARTIFACT",
    "count_by",
    "sum_by",
    "histogram",
    "quantiles",
    "masked",
    "first_seen_counts",
    "ensure_projection",
    "load_projection",
    "publish_projection",
    "InMemoryStore",
    "ShardedJsonlStore",
    "ShardedCorpusWriter",
    "BuildCheckpoint",
    "IndexArtifactStore",
    "LoadedArtifact",
    "corpus_content_fingerprint",
    "fingerprint_digest",
    "config_fingerprint",
    "is_sharded_dir",
    "ARTIFACTS_DIRNAME",
    "DEFAULT_SHARD_SIZE",
    "MANIFEST_FILENAME",
    "MANIFEST_LOG_FILENAME",
    "SHARDED_FORMAT",
    "BUILD_META_FILENAME",
    "CHECKPOINT_FILENAME",
    "load_build_meta",
    "save_build_meta",
]
