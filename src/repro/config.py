"""Configuration dataclasses for the GitTables construction pipeline.

The paper's pipeline has three stages (extraction, parsing/curation,
annotation); each stage gets its own configuration object so that
experiments can override exactly the knobs they need. ``PipelineConfig``
bundles the three plus global determinism settings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import PipelineConfigError

#: File size cap imposed by the GitHub Search API (bytes); files larger
#: than this are not retrievable (paper §3.2).
GITHUB_MAX_FILE_SIZE = 438 * 1024

#: Maximum number of results the GitHub Search API returns per query.
GITHUB_RESULT_WINDOW = 1000

#: Results per page of the (simulated) Search API.
GITHUB_PAGE_SIZE = 100


@dataclass(frozen=True)
class ExtractionConfig:
    """Settings for the CSV extraction stage (paper §3.2)."""

    #: Number of WordNet topics used to build topic queries.
    topic_count: int = 40
    #: Maximum file size retrievable through the search API (bytes).
    max_file_size: int = GITHUB_MAX_FILE_SIZE
    #: Result window per query before size-segmentation is required.
    result_window: int = GITHUB_RESULT_WINDOW
    #: Page size used while paginating search responses.
    page_size: int = GITHUB_PAGE_SIZE
    #: Width (bytes) of the size ranges used to segment large topic queries.
    size_segment_bytes: int = 50 * 1024
    #: Whether to exclude files from forked repositories.
    exclude_forks: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.topic_count < 1:
            raise PipelineConfigError("topic_count must be >= 1")
        if self.page_size < 1 or self.page_size > self.result_window:
            raise PipelineConfigError("page_size must be in [1, result_window]")
        if self.size_segment_bytes < 1:
            raise PipelineConfigError("size_segment_bytes must be positive")


@dataclass(frozen=True)
class CurationConfig:
    """Settings for parsing, filtering and content curation (paper §3.3)."""

    #: Minimum number of rows for a table to be retained.
    min_rows: int = 2
    #: Minimum number of columns for a table to be retained.
    min_columns: int = 2
    #: Maximum fraction of unnamed columns tolerated per table.
    max_unnamed_fraction: float = 0.5
    #: Column-name substrings that cause a table to be dropped
    #: (social-media content filter).
    blocked_column_terms: tuple[str, ...] = ("twitter", "tweet", "reddit", "facebook")
    #: Only keep tables from repositories with a permissive license.
    require_permissive_license: bool = True
    #: Whether to anonymize columns annotated with PII semantic types.
    anonymize_pii: bool = True
    #: Minimum confidence for a PII annotation to trigger anonymisation.
    pii_confidence_threshold: float = 0.7

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.min_rows < 0 or self.min_columns < 0:
            raise PipelineConfigError("minimum dimensions must be non-negative")
        if not 0.0 <= self.max_unnamed_fraction <= 1.0:
            raise PipelineConfigError("max_unnamed_fraction must be within [0, 1]")
        if not 0.0 <= self.pii_confidence_threshold <= 1.0:
            raise PipelineConfigError("pii_confidence_threshold must be within [0, 1]")


@dataclass(frozen=True)
class AnnotationConfig:
    """Settings for the column annotation stage (paper §3.4)."""

    #: Ontologies to annotate against.
    ontologies: tuple[str, ...] = ("dbpedia", "schema_org")
    #: Minimum cosine similarity retained by the semantic method.
    semantic_similarity_threshold: float = 0.5
    #: Whether to skip column names containing digits (paper §3.4).
    skip_numeric_column_names: bool = True
    #: Embedding dimensionality of the FastText-style model.
    embedding_dim: int = 64
    #: Character n-gram sizes for the FastText-style model.
    ngram_sizes: tuple[int, ...] = (3, 4, 5)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.ontologies:
            raise PipelineConfigError("at least one ontology is required")
        unknown = set(self.ontologies) - {"dbpedia", "schema_org"}
        if unknown:
            raise PipelineConfigError(f"unknown ontologies: {sorted(unknown)}")
        if not 0.0 <= self.semantic_similarity_threshold <= 1.0:
            raise PipelineConfigError("semantic_similarity_threshold must be within [0, 1]")
        if self.embedding_dim < 4:
            raise PipelineConfigError("embedding_dim must be >= 4")
        if not self.ngram_sizes or any(n < 1 for n in self.ngram_sizes):
            raise PipelineConfigError("ngram_sizes must be positive")


@dataclass(frozen=True)
class IndexConfig:
    """Settings for the approximate nearest-neighbour index tier.

    Nearest-neighbour indexes over small corpora answer queries with one
    exact matrix product. Past ``min_rows`` rows that product is the
    latency bottleneck, so index consumers switch to a partitioned
    (IVF-style) tier: rows are clustered into ``n_partitions`` buckets
    with a deterministic k-means, a query is scored against the (few)
    partition centroids, and only the rows of the ``nprobe`` nearest
    partitions are exact-reranked with the flat kernel. Returned
    similarities are bit-identical to the flat index's values for every
    hit; ``nprobe >= n_partitions`` reproduces the flat results exactly.

    Only the build-shaping knobs (``min_rows``, ``n_partitions``,
    ``kmeans_iters``, ``holdout_queries``, ``recall_k``) participate in
    artifact fingerprints; ``nprobe`` is a query-time trade-off that can
    change without invalidating a persisted index.
    """

    #: Corpora smaller than this keep the exact flat index — the tier is
    #: opt-in by scale and never silently changes small-corpus results.
    min_rows: int = 10_000
    #: Number of k-means partitions; None derives ~sqrt(rows).
    n_partitions: int | None = None
    #: Partitions probed (then exact-reranked) per query. Larger probes
    #: raise recall and cost; ``>= n_partitions`` degrades to exact.
    nprobe: int = 8
    #: Fixed k-means iteration count (deterministic builds need a fixed
    #: schedule, not a convergence test).
    kmeans_iters: int = 8
    #: Rows sampled at build time to measure recall@``recall_k`` against
    #: the exact index (0 disables the measurement).
    holdout_queries: int = 64
    #: k used by the build-time recall measurement.
    recall_k: int = 10

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.min_rows < 1:
            raise PipelineConfigError("min_rows must be >= 1")
        if self.n_partitions is not None and self.n_partitions < 1:
            raise PipelineConfigError("n_partitions must be >= 1 (or None for the heuristic)")
        if self.nprobe < 1:
            raise PipelineConfigError("nprobe must be >= 1")
        if self.kmeans_iters < 0:
            raise PipelineConfigError("kmeans_iters must be >= 0")
        if self.holdout_queries < 0:
            raise PipelineConfigError("holdout_queries must be >= 0")
        if self.recall_k < 1:
            raise PipelineConfigError("recall_k must be >= 1")

    def replace(self, **overrides: object) -> "IndexConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def tier_active(self, n_rows: int) -> bool:
        """Whether the partitioned tier activates for ``n_rows`` rows."""
        return n_rows >= self.min_rows

    def resolve_partitions(self, n_rows: int) -> int:
        """The partition count for ``n_rows`` rows (explicit or ~sqrt)."""
        if self.n_partitions is not None:
            return max(1, min(self.n_partitions, n_rows))
        return max(1, min(n_rows, round(n_rows**0.5)))

    def build_fingerprint(self) -> dict:
        """The build-shaping knobs, as an artifact-fingerprint fragment.

        ``nprobe`` is deliberately absent: it only affects query-time
        probing, so retuning it must not invalidate persisted indexes.
        """
        return {
            "min_rows": int(self.min_rows),
            "n_partitions": self.n_partitions,
            "kmeans_iters": int(self.kmeans_iters),
            "holdout_queries": int(self.holdout_queries),
            "recall_k": int(self.recall_k),
        }


#: The configuration consumers fall back to when none is supplied.
DEFAULT_INDEX_CONFIG = IndexConfig()


@dataclass(frozen=True)
class ServingConfig:
    """Settings for the concurrent query service (:meth:`GitTables.serve`).

    The service fronts one loaded session with a micro-batcher (requests
    arriving within one window are coalesced into the existing batch
    kernels) and, with ``workers > 0``, a pool of worker processes that
    each mmap the store's persisted index artifacts.
    """

    #: Worker processes serving batches. 0 runs batches in-process (no
    #: extra processes; still micro-batched), which is also the only
    #: mode available to sessions without a sharded store directory.
    workers: int = 2
    #: Most requests one dispatched batch may carry.
    max_batch: int = 64
    #: Upper bound of a busy window (milliseconds): when no worker has
    #: room, how long the batcher keeps accumulating requests after the
    #: first arrives. While a worker has room a window dispatches at once
    #: with whatever is already queued; in-process serving
    #: (``workers=0``) always holds the window this long. 0 = dispatch
    #: whatever is queued.
    max_wait_ms: float = 2.0
    #: Admission limit: requests in flight (admitted, unresolved) beyond
    #: this are rejected with :class:`~repro.errors.ServiceOverloaded`.
    max_queue: int = 1024
    #: Default per-request deadline (seconds) when a submit call gives none.
    default_timeout_s: float = 30.0
    #: Crashed-worker respawns tolerated over the service's lifetime
    #: before in-flight requests on a dead worker fail with
    #: :class:`~repro.errors.WorkerCrashed`.
    max_respawns: int = 3
    #: How long :meth:`close` waits for in-flight batches to resolve.
    drain_timeout_s: float = 30.0
    #: Per-endpoint reservoir size for latency percentiles.
    latency_samples: int = 4096
    #: Index-tier settings applied by workers when they load the store
    #: (and by the in-process executor). ``None`` inherits the serving
    #: session's own index configuration.
    index: IndexConfig | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.workers < 0:
            raise PipelineConfigError("workers must be >= 0")
        if self.workers > 99:
            raise PipelineConfigError("workers must be <= 99 (worker ids are two digits)")
        if self.max_batch < 1:
            raise PipelineConfigError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise PipelineConfigError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise PipelineConfigError("max_queue must be >= 1")
        if self.default_timeout_s <= 0:
            raise PipelineConfigError("default_timeout_s must be positive")
        if self.max_respawns < 0:
            raise PipelineConfigError("max_respawns must be >= 0")
        if self.drain_timeout_s <= 0:
            raise PipelineConfigError("drain_timeout_s must be positive")
        if self.latency_samples < 1:
            raise PipelineConfigError("latency_samples must be >= 1")

    def replace(self, **overrides: object) -> "ServingConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    @classmethod
    def in_process(cls, **overrides: object) -> "ServingConfig":
        """A workers=0 configuration (micro-batched, no worker processes)."""
        return cls(workers=0).replace(**overrides)


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of all stage configurations plus global determinism settings.

    Every field shapes corpus contents and is recorded in the build
    fingerprint. Execution settings that do not (the worker process
    count) are arguments of :meth:`repro.core.pipeline.CorpusBuilder.build`.
    """

    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    curation: CurationConfig = field(default_factory=CurationConfig)
    annotation: AnnotationConfig = field(default_factory=AnnotationConfig)
    #: Seed driving every random choice in the pipeline.
    seed: int = 20230530
    #: Target number of tables for corpus construction runs.
    target_tables: int = 400

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Validate every stage configuration; raise on the first error."""
        self.extraction.validate()
        self.curation.validate()
        self.annotation.validate()
        if self.target_tables < 1:
            raise PipelineConfigError("target_tables must be >= 1")

    def replace(self, **overrides: object) -> "PipelineConfig":
        """A copy with the given fields replaced (and re-validated).

        Accepts both top-level fields (``seed=1``, ``target_tables=50``)
        and whole stage configs (``annotation=AnnotationConfig(...)``)::

            config = PipelineConfig.small().replace(target_tables=50)
        """
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """Reconstruct a configuration from its ``dataclasses.asdict`` form.

        The inverse of the build fingerprint's ``config`` section (see
        :func:`~repro.storage.checkpoint.config_fingerprint`), used to
        re-materialize the configuration a stored corpus was built with.
        JSON round-trips turn tuples into lists, so sequence-valued
        fields are coerced back. Unknown keys raise — a fingerprint from
        a newer layout must not be silently reinterpreted.
        """
        payload = dict(payload)
        extraction = ExtractionConfig(**payload.pop("extraction", {}))
        curation_kwargs = dict(payload.pop("curation", {}))
        if "blocked_column_terms" in curation_kwargs:
            curation_kwargs["blocked_column_terms"] = tuple(
                curation_kwargs["blocked_column_terms"]
            )
        curation = CurationConfig(**curation_kwargs)
        annotation_kwargs = dict(payload.pop("annotation", {}))
        for key in ("ontologies", "ngram_sizes"):
            if key in annotation_kwargs:
                annotation_kwargs[key] = tuple(annotation_kwargs[key])
        annotation = AnnotationConfig(**annotation_kwargs)
        return cls(
            extraction=extraction, curation=curation, annotation=annotation, **payload
        )

    @classmethod
    def small(cls, seed: int = 20230530) -> "PipelineConfig":
        """A configuration sized for tests (fast, ~100 tables)."""
        return cls(
            extraction=ExtractionConfig(topic_count=8),
            seed=seed,
            target_tables=100,
        )

    @classmethod
    def default(cls, seed: int = 20230530) -> "PipelineConfig":
        """The default experiment configuration (~400 tables)."""
        return cls(seed=seed)

    @classmethod
    def large(cls, seed: int = 20230530) -> "PipelineConfig":
        """A larger configuration used by the benchmark harness."""
        return cls(
            extraction=ExtractionConfig(topic_count=80),
            seed=seed,
            target_tables=1200,
        )
