"""The :class:`GitTables` session facade.

One object fronting everything downstream of a built corpus: the five
paper applications (semantic type detection §5.1, schema completion
§5.2, data search §5.3, table-to-KG matching §5.3, and the §4.2 data
shift classifier) plus corpus statistics and persistence, behind uniform
methods with shared lazily-built state.

The expensive artefacts — the sentence-embedding cache, the search
engine's schema-embedding index, the completion index, the curated KG
benchmark — are constructed on first use and reused across calls, so
repeated queries never rebuild state. A sharded store owns its derived
indexes as **mmap-backed artifacts** next to the corpus
(:mod:`repro.storage.artifacts`), and every consumer resolves them
through the corpus's own store (``corpus.artifacts``): a session
holds no artifact state of its own, :meth:`GitTables.load` warms the
indexes from disk in milliseconds with zero corpus-wide embedding work,
building and publishing on first miss, and ``use_artifacts=False`` at
open is the one switch that reads and writes none. Search and
completion resolve
through batched nearest-neighbour queries
(:meth:`~repro.embeddings.similarity.NearestNeighbourIndex.query_batch`);
:meth:`GitTables.search_batch` exposes the many-queries-in-one-GEMM path
directly::

    from repro import GitTables, PipelineConfig

    gt = GitTables.build(PipelineConfig.small())
    gt.search("status and sales amount per product", k=3)
    gt.search_batch(["order status", "sensor readings"], k=3)
    gt.complete_schema(["order_id", "order_date"], k=5)
    gt.detect_types()
"""

from __future__ import annotations

import dataclasses
import os

from .applications.data_search import SEARCH_ARTIFACT, SearchResult, TableSearchEngine
from .applications.domain_classifier import DomainShiftResult, detect_data_shift
from .applications.kg_matching import (
    KGMatchingBenchmark,
    MatcherScore,
    PatternMatcher,
    ValueLinkingMatcher,
    evaluate_matcher,
)
from .applications.schema_completion import (
    COMPLETION_ARTIFACT,
    CompletionEvaluation,
    NearestCompletion,
    SchemaCompletion,
)
from .applications.type_detection import TypeDetectionExperiment, TypeDetectionResult
from .config import DEFAULT_INDEX_CONFIG, IndexConfig, PipelineConfig
from .core.corpus import GitTablesCorpus
from .core.pipeline import DEFAULT_BATCH_SIZE, CorpusBuilder, PipelineResult
from .errors import CorpusError
from .github.content import GeneratorConfig
from .storage.artifacts import IndexArtifactStore
from .storage.checkpoint import load_build_meta
from .storage.columnar import ColumnarProjection, ensure_projection, publish_projection
from .storage.sharded import DEFAULT_SHARD_SIZE, ShardedJsonlStore, is_sharded_dir
from .core.stats import AnnotationStatistics, CorpusStatistics
from .embeddings.sentence import SentenceEncoder
from .pipeline.report import PipelineReport

__all__ = ["GitTables"]


class GitTables:
    """A session over a built GitTables corpus.

    Construct with :meth:`build` (runs the streaming construction
    pipeline), :meth:`from_corpus` (wrap an existing corpus), or
    :meth:`load` (read a corpus saved with :meth:`save`).
    """

    def __init__(
        self,
        corpus: GitTablesCorpus,
        result: PipelineResult | None = None,
        config: PipelineConfig | None = None,
        encoder: SentenceEncoder | None = None,
        index_config: IndexConfig | None = None,
    ) -> None:
        self._corpus = corpus
        self._result = result
        self.config = config
        #: Scale gate + knobs for the approximate nearest-neighbour tier
        #: shared by every index this session builds.
        self._index_config = index_config if index_config is not None else DEFAULT_INDEX_CONFIG
        #: One embedding model (with its internal text cache) shared by
        #: search and schema completion.
        self._encoder = encoder or SentenceEncoder()
        self._search_engine: TableSearchEngine | None = None
        self._completer: NearestCompletion | None = None
        self._kg_benchmarks: dict[tuple[int, int], KGMatchingBenchmark] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: PipelineConfig | None = None,
        instance=None,
        generator_config=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        store_dir: str | os.PathLike[str] | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        processes: int = 1,
        index_config: IndexConfig | None = None,
    ) -> "GitTables":
        """Run the streaming construction pipeline and wrap the result.

        With ``store_dir`` the build streams into a sharded on-disk
        store and is resumable: re-running after an interruption picks
        up from the store's manifest instead of starting over, and the
        session's corpus is backed by the lazy sharded reader rather
        than held in memory. ``processes`` (default ``1``, must be
        ``>= 1``) is how many workers build the store — worker
        processes from 2 on, one worker in this process at 1. The
        finalized directory does not depend on the count, and a
        killed build may be resumed under any process count. See
        :meth:`CorpusBuilder.build <repro.core.pipeline.CorpusBuilder.build>`.
        """
        builder = CorpusBuilder(
            config=config,
            instance=instance,
            generator_config=generator_config,
            batch_size=batch_size,
        )
        result = builder.build(store_dir=store_dir, shard_size=shard_size, processes=processes)
        return cls(
            corpus=result.corpus, result=result, config=builder.config, index_config=index_config
        )

    @classmethod
    def from_corpus(
        cls,
        corpus: GitTablesCorpus,
        config: PipelineConfig | None = None,
        index_config: IndexConfig | None = None,
    ) -> "GitTables":
        """Wrap an already-built corpus."""
        return cls(corpus=corpus, config=config, index_config=index_config)

    @classmethod
    def from_result(
        cls,
        result: PipelineResult,
        config: PipelineConfig | None = None,
        index_config: IndexConfig | None = None,
    ) -> "GitTables":
        """Wrap a :class:`PipelineResult` from a previous construction run."""
        return cls(corpus=result.corpus, result=result, config=config, index_config=index_config)

    @classmethod
    def load(
        cls,
        directory: str | os.PathLike[str],
        cache_shards: int = 2,
        use_artifacts: bool = True,
        index_config: IndexConfig | None = None,
    ) -> "GitTables":
        """Load a sharded corpus store previously persisted with :meth:`save`.

        The corpus comes back lazily (only the manifest is read up
        front; ``cache_shards`` bounds resident shards, whose tables are
        decoded on first access); a directory that is not a sharded
        store raises :class:`~repro.errors.CorpusError`.

        The store owns its persistent **index artifacts**
        (``corpus.artifacts``): the search, completion, type-detection,
        KG-benchmark and statistics caches warm from fingerprint-guarded
        mmap'd artifacts on first use — zero corpus-wide embedding work
        when the artifacts are valid, a build-and-publish on first miss.
        ``use_artifacts=False`` is forwarded to
        :meth:`GitTablesCorpus.load <repro.core.corpus.GitTablesCorpus.load>`:
        the store then owns no artifacts, and nothing over it reads or
        publishes one (:meth:`compact` reopens it the same way). Call
        :meth:`warm` to resolve the serving indexes (search and
        completion) eagerly.
        """
        corpus = GitTablesCorpus.load(
            directory, cache_shards=cache_shards, use_artifacts=use_artifacts
        )
        return cls(corpus=corpus, index_config=index_config)

    # -- corpus access -----------------------------------------------------

    @property
    def corpus(self) -> GitTablesCorpus:
        return self._corpus

    @property
    def result(self) -> PipelineResult | None:
        """The construction run's result (None for wrapped/loaded corpora)."""
        return self._result

    @property
    def pipeline_report(self) -> PipelineReport | None:
        """Per-stage streaming instrumentation of the construction run."""
        return self._result.pipeline_report if self._result else None

    def __len__(self) -> int:
        return len(self._corpus)

    def __repr__(self) -> str:
        return f"GitTables({len(self._corpus)} tables, name={self._corpus.name!r})"

    def topics(self) -> list[str]:
        return self._corpus.topics()

    def columnar(self) -> ColumnarProjection:
        """The corpus' materialized columnar metadata projection.

        Resolved once per session: a projection already attached to the
        corpus is reused, a persisted ``stats-projection`` artifact
        matching the store's content fingerprint is mmap'd back, and
        otherwise the projection is built with one corpus scan (and
        published for the next session when the store owns artifacts). All
        statistics surfaces — :meth:`stats`, :meth:`annotation_stats`,
        :class:`~repro.storage.columnar.TablePredicate` filters — run
        engine-side over these arrays afterwards.
        """
        return ensure_projection(self._corpus)

    def stats(self) -> CorpusStatistics:
        """Structural corpus statistics, computed on the columnar engine."""
        return CorpusStatistics.from_projection(self.columnar())

    def annotation_stats(self) -> AnnotationStatistics:
        """Annotation statistics, computed on the columnar engine."""
        return AnnotationStatistics.from_projection(self.columnar())

    def save(
        self,
        directory: str | os.PathLike[str],
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        """Persist the corpus atomically as a sharded JSONL store.

        The save carries the index artifacts along: any index already
        built in this session (search engine, completion matrix, KG
        benchmarks) and the columnar stats projection are published into
        ``<directory>/artifacts`` under the saved manifest's content
        fingerprint, through the same encode hooks
        :func:`~repro.storage.artifacts.resolve` publishes with, so a
        later :meth:`load` of the directory warms from mmap'd artifacts
        instead of re-embedding the corpus. Indexes built before a
        corpus mutation (tables added since) are *not* published — they
        no longer describe the saved bytes.
        """
        # The source corpus' own projection (attached, adopted from its
        # store, or built once) describes exactly the tables being saved.
        projection = ensure_projection(self._corpus)
        self._corpus.save(directory, shard_size=shard_size)
        # Corpora are append-only (duplicate ids rejected, no removal),
        # so a size match means the index still describes the corpus.
        current_size = len(self._corpus)
        saved = ShardedJsonlStore(directory)
        artifacts, fingerprint = saved.artifacts, saved.content_fingerprint()
        engines = [
            (SEARCH_ARTIFACT, self._search_engine),
            (COMPLETION_ARTIFACT, self._completer),
        ]
        for name, engine in engines:
            if engine is not None and engine._corpus_size == current_size:
                artifacts.publish(name, engine._fingerprint(fingerprint), **engine._encode())
        for benchmark in self._kg_benchmarks.values():
            if benchmark.corpus_size == current_size:
                artifacts.publish(
                    benchmark.artifact_name,
                    benchmark._fingerprint(fingerprint),
                    **benchmark._encode(),
                )
        publish_projection(artifacts, projection, corpus_fingerprint=fingerprint)

    def extend(
        self,
        target_tables: int | None = None,
        topics: int | None = None,
        processes: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> "GitTables":
        """Grow the backing store in place — O(new tables), not O(corpus).

        Reopens this session's sharded store directory for a new
        **epoch**: the original build configuration is re-materialized
        from the recorded build metadata, the growth axes
        (``target_tables``, ``topics``) are raised, and the construction
        pipeline resumes exactly where the sealed store left off — only
        the new tables are generated, annotated and appended (as new
        shards under the next epoch; existing shard files are never
        rewritten). The resulting directory is byte-identical to a
        from-scratch build of the larger configuration, modulo the
        manifest's epoch trailer.

        The session's engines then **delta-refresh** rather than
        rebuild: search and completion load their superseded artifacts,
        embed only the appended tables' schemas, and republish under the
        grown corpus fingerprint (the columnar stats projection extends
        the same way during finalize). Superseded corpus-keyed artifacts
        are pruned only *after* every engine has republished, so a crash
        mid-refresh leaves the next session able to delta-refresh from
        the same prior-epoch artifacts.

        ``processes`` (default ``1``, must be ``>= 1``) is the extension's
        worker process count, as for :meth:`build`; the extended
        directory's bytes do not depend on it.

        Requires a store-backed session whose build metadata carries a
        verifiable generator fingerprint (corpora built from a custom
        pre-built ``instance`` cannot prove extension compatibility).
        Growth axes must not shrink. Returns ``self``.
        """
        directory = self._store_directory("extend")
        stored = load_build_meta(directory)
        if stored is None:
            raise CorpusError(
                f"cannot extend corpus at {directory}: the directory holds "
                "no build metadata to grow from"
            )
        config_payload = stored.get("config")
        generator_payload = stored.get("generator")
        if not isinstance(config_payload, dict) or not isinstance(generator_payload, dict):
            raise CorpusError(
                f"cannot extend corpus at {directory}: the build carries no "
                "verifiable generator fingerprint (it was built from a "
                "custom pre-built instance)"
            )
        config = PipelineConfig.from_dict(config_payload)
        if target_tables is not None:
            config = config.replace(target_tables=int(target_tables))
        if topics is not None:
            config = config.replace(
                extraction=dataclasses.replace(config.extraction, topic_count=int(topics))
            )
        # JSON round-trips turn the delimiter weight tuples into lists.
        generator_payload = dict(generator_payload)
        if "delimiters" in generator_payload:
            generator_payload["delimiters"] = tuple(
                (str(delimiter), float(weight))
                for delimiter, weight in generator_payload["delimiters"]
            )
        generator = GeneratorConfig(**generator_payload)
        builder = CorpusBuilder(
            config=config, generator_config=generator, batch_size=batch_size
        )
        result = builder.build(
            store_dir=directory,
            shard_size=shard_size,
            processes=processes,
            extend=True,
            use_artifacts=self.artifacts is not None,
        )
        self._corpus = result.corpus
        self._result = result
        self.config = config
        self._search_engine = None
        self._completer = None
        self._kg_benchmarks.clear()
        # Warm both engines now: their constructors delta-refresh from
        # the superseded artifacts (tail-only embedding) and republish
        # under the grown fingerprint with the corpus-keyed prune
        # deferred — then one sweep retires the prior epoch's artifacts.
        self.warm()
        if self.artifacts is not None:
            self.artifacts.prune(self._corpus.store.content_fingerprint())
        return self

    def compact(self, shard_size: int | None = None) -> dict:
        """Re-shard the backing store in place — online, zero re-embedding.

        Rewrites the sealed store directory to ``shard_size`` tables per
        shard (``None`` keeps the current size, reducing the call to
        cleanup of a previously crashed compaction) and publishes the
        result as a new manifest **generation**. The corpus content is
        untouched — same tables, same order — so the store keeps its
        ``content_fingerprint`` and every derived artifact (search and
        completion indexes, ANN tiers, the columnar projection) remains
        valid as-is: the session simply reopens the new layout and
        re-resolves its engines from the same mmap'd artifacts.

        Safe to run while a :meth:`serve` pool is serving the same
        directory: workers follow the generation bump through their
        store-version probe and hot-reload (visible in
        ``QueryService.metrics()`` under ``workers.store_generation`` /
        ``workers.generations``), and answers are bit-identical before,
        during, and after the swap. Returns the compaction report as a
        plain dict (generation, shard counts, fingerprint, files swept).
        """
        from .storage.compaction import compact_store

        directory = self._store_directory("compact")
        report = compact_store(directory, shard_size=shard_size)
        if report.rewritten:
            # Reopen the new layout with the same settings; engines
            # rebuild lazily from the unchanged (fingerprint-pinned)
            # artifacts — no embedding.
            store = self._corpus.store
            self._corpus = GitTablesCorpus.load(
                directory,
                cache_shards=getattr(store, "cache_shards", 2),
                use_artifacts=store.artifacts is not None,
            )
            self._search_engine = None
            self._completer = None
            # Same tables in the same order: the benchmarks' ordinals
            # still hold, they only read values through the new layout.
            for benchmark in self._kg_benchmarks.values():
                benchmark.corpus = self._corpus
        return report.to_dict()

    def _store_directory(self, action: str | None = None):
        """The sharded store directory behind this session, or ``None``.

        With ``action`` named, a session without one raises :class:`CorpusError`.
        """
        directory = getattr(self._corpus.store, "directory", None)
        if directory is not None and is_sharded_dir(directory):
            return directory
        if action is not None:
            raise CorpusError(
                f"{action}() requires a session over a sharded store directory "
                "(build with store_dir=... or load one)"
            )
        return None

    # -- shared lazy state -------------------------------------------------

    @property
    def encoder(self) -> SentenceEncoder:
        """The shared sentence encoder (embedding cache included)."""
        return self._encoder

    @property
    def artifacts(self) -> IndexArtifactStore | None:
        """The index artifact store the corpus's storage owns, if any."""
        return self._corpus.artifacts

    @property
    def search_engine(self) -> TableSearchEngine:
        """The data-search engine, built once over the corpus schemas.

        When the store owns artifacts, "built" means mmap'd from a
        valid persisted artifact; a fresh build publishes one.
        """
        if self._search_engine is None:
            self._search_engine = TableSearchEngine(
                self._corpus, encoder=self._encoder, index_config=self._index_config
            )
        return self._search_engine

    @property
    def completer(self) -> NearestCompletion:
        """The schema-completion index, built once (or mmap'd, see above)."""
        if self._completer is None:
            self._completer = NearestCompletion(
                self._corpus, encoder=self._encoder, index_config=self._index_config
            )
        return self._completer

    def kg_benchmark(self, min_columns: int = 3, min_rows: int = 5) -> KGMatchingBenchmark:
        """The curated CTA benchmark, cached per curation thresholds.

        Its cell values are read from the corpus only when a matcher
        first runs on it.
        """
        key = (min_columns, min_rows)
        if key not in self._kg_benchmarks:
            self._kg_benchmarks[key] = KGMatchingBenchmark.from_corpus(
                self._corpus, min_columns=min_columns, min_rows=min_rows
            )
        return self._kg_benchmarks[key]

    @property
    def index_config(self) -> IndexConfig:
        """The ANN-tier configuration this session builds indexes with."""
        return self._index_config

    def index_stats(self) -> dict:
        """Per-engine index-tier instrumentation for already-built engines.

        Engines not built yet are absent — this never triggers a build,
        so it is safe on the serving hot path.
        """
        stats: dict = {}
        if self._search_engine is not None:
            stats["search"] = self._search_engine.index_stats()
        if self._completer is not None:
            stats["completion"] = self._completer.index_stats()
        return stats

    def warm(self) -> "GitTables":
        """Resolve the indexes serving needs now — the search engine and
        the completion index (mmap'd when artifacts hold valid versions,
        built-and-published otherwise); returns self.

        Experiment inputs such as :meth:`kg_benchmark` stay lazy: they
        resolve on first use, so a cold start reads no artifact of theirs.
        """
        _ = self.search_engine
        _ = self.completer
        return self

    def reset_caches(self, invalidate_artifacts: bool = True) -> None:
        """Drop every lazily-built artefact (after corpus mutation).

        When the store owns artifacts, the *persisted* artifacts are
        deleted as well by default — they describe the pre-mutation
        corpus. Pass ``invalidate_artifacts=False`` to only drop the
        in-memory state (the fingerprint guard still protects against
        stale reads if the stored corpus bytes changed).
        """
        self._search_engine = None
        self._completer = None
        self._kg_benchmarks.clear()
        if invalidate_artifacts and self.artifacts is not None:
            self.artifacts.invalidate()

    # -- applications ------------------------------------------------------

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Natural-language data search over embedded schemas (§5.3)."""
        return self.search_engine.search(query, k=k)

    def search_batch(self, queries: list[str], k: int = 10) -> list[list[SearchResult]]:
        """Batched data search: many queries against one batched index query."""
        return self.search_engine.search_batch(list(queries), k=k)

    def complete_schema(
        self, prefix: list[str] | tuple[str, ...], k: int = 10
    ) -> list[SchemaCompletion]:
        """NearestCompletion (Algorithm 1) suggestions for a prefix (§5.2)."""
        return self.completer.complete(prefix, k=k)

    def evaluate_completion(
        self,
        full_schema: list[str] | tuple[str, ...],
        prefix_length: int = 3,
        k: int = 10,
    ) -> CompletionEvaluation:
        """Completion relevance for a known full schema (paper Table 8)."""
        return self.completer.evaluate(full_schema, prefix_length=prefix_length, k=k)

    def detect_types(
        self,
        eval_corpus: GitTablesCorpus | "GitTables" | None = None,
        **experiment_options,
    ) -> TypeDetectionResult:
        """Sherlock-style semantic type detection trained on this corpus (§5.1).

        With no argument: k-fold cross-validation within this corpus.
        With ``eval_corpus``: train here, evaluate there (the transfer
        setting of Table 7). ``experiment_options`` are forwarded to
        :class:`TypeDetectionExperiment` (``columns_per_type``,
        ``epochs``, ``n_splits``, ``seed``, …).
        """
        experiment = TypeDetectionExperiment(**experiment_options)
        if eval_corpus is None:
            return experiment.within_corpus(self._corpus)
        other = eval_corpus.corpus if isinstance(eval_corpus, GitTables) else eval_corpus
        return experiment.cross_corpus(self._corpus, other)

    def match_kg(
        self,
        ontology: str = "dbpedia",
        matcher: object | None = None,
        min_columns: int = 3,
        min_rows: int = 5,
    ) -> MatcherScore:
        """Score a table-to-KG matcher on the curated benchmark (§5.3).

        ``matcher`` defaults to the canonical value-linking baseline;
        pass ``PatternMatcher()`` (or any object with an
        ``annotate_column(values)`` method) for alternatives.
        """
        if matcher is None:
            matcher = ValueLinkingMatcher()
        benchmark = self.kg_benchmark(min_columns=min_columns, min_rows=min_rows)
        return evaluate_matcher(matcher, benchmark, ontology)

    def match_kg_all(
        self, min_columns: int = 3, min_rows: int = 5
    ) -> list[MatcherScore]:
        """Both baseline matchers on both ontologies (paper Figure 6a)."""
        benchmark = self.kg_benchmark(min_columns=min_columns, min_rows=min_rows)
        return [
            evaluate_matcher(matcher, benchmark, ontology)
            for matcher in (ValueLinkingMatcher(), PatternMatcher())
            for ontology in ("dbpedia", "schema_org")
        ]

    # -- serving -----------------------------------------------------------

    def serve(self, config: "ServingConfig | None" = None, **overrides):
        """Start a concurrent query service over this session.

        Returns a started
        :class:`~repro.serving.service.QueryService`: a micro-batcher
        coalesces concurrent ``search`` / ``complete_schema`` /
        ``detect_types`` requests into the existing batch kernels, and
        (with ``workers > 0``) a pool of worker processes answers them,
        each mmap'ing the store's persisted index artifacts instead of
        re-embedding the corpus. Results are bit-identical to the same
        single-shot calls on this session. ``overrides`` are
        :class:`~repro.config.ServingConfig` fields (``workers=0`` runs
        in-process — the only mode for sessions without a store
        directory). Close the service when done (it is a context
        manager)::

            with gt.serve(workers=4) as service:
                service.search("population by country", k=5)

        Store-backed sessions warm (and persist) the search and
        completion artifacts up front so every worker starts with an
        mmap, not an embed.
        """
        from .config import ServingConfig
        from .serving.service import QueryService

        if config is None:
            config = ServingConfig()
        if overrides:
            config = config.replace(**overrides)
        if config.index is None:
            # Workers must build (or mmap) their indexes with the same
            # ANN-tier settings this session uses, or served results
            # would diverge from single-shot calls on the session.
            config = config.replace(index=self._index_config)
        directory = self._store_directory()
        if config.workers > 0 and directory is not None:
            # Resolve-or-publish the served indexes before any worker
            # spawns: each worker then warms from the mmap'd artifacts.
            _ = self.search_engine
            _ = self.completer
        return QueryService(session=self, config=config, directory=directory)

    def shift_report(
        self, other: GitTablesCorpus | "GitTables", **options
    ) -> DomainShiftResult:
        """Data-shift detection against another corpus (§4.2).

        ``options`` are forwarded to
        :func:`~repro.applications.domain_classifier.detect_data_shift`
        (``n_columns_per_corpus``, ``n_splits``, ``n_estimators``,
        ``seed``, …).
        """
        other_corpus = other.corpus if isinstance(other, GitTables) else other
        return detect_data_shift(self._corpus, other_corpus, **options)
