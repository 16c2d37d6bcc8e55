"""End-to-end GitTables corpus construction (paper Figure 1).

:class:`CorpusBuilder` is a thin, backward-compatible wrapper over the
streaming stage graph in :mod:`repro.pipeline`:

    GitHub instance → extraction → parsing → filtering → annotation →
    content curation → :class:`~repro.core.corpus.GitTablesCorpus`

Tables stream through generator-based stages in batches; the run stops
pulling from every upstream stage as soon as ``config.target_tables``
tables have been curated, so no table is annotated only to be discarded.
Builds targeting a ``store_dir`` stream each batch into a sharded
on-disk store (:mod:`repro.storage.sharded`) and are resumable: the
manifest is the commit log, a resume skips every already-annotated
table via the resume-skip stage, and the final
:class:`~repro.pipeline.report.PipelineReport` merges the counters of
every session that contributed. ``CorpusBuilder.build(processes=N)`` is
the one way to parallelise a build: it fans a store build out across
worker processes (:mod:`repro.storage.parallel`) that finalize the same
bytes as the serial graph.
Every stage still produces its own report; the unified
:class:`~repro.pipeline.report.PipelineReport` of the returned
:class:`PipelineResult` carries them, so experiments can reproduce the
paper's per-stage statistics (parse success rate, filter rate, PII
fraction, …).

New code should prefer the :class:`repro.api.GitTables` facade, which
wraps a built corpus with the paper's applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import os

from ..config import PipelineConfig
from ..errors import CorpusError
from ..github.client import GitHubClient
from ..github.content import GeneratorConfig
from ..github.instance import GitHubInstance, build_instance
from ..pipeline.report import PipelineReport, combine_counters
from ..pipeline.runner import Pipeline
from ..pipeline.stage import StageContext
from ..pipeline.stages import PipelineComponents, default_stages
from ..storage.checkpoint import (
    BuildCheckpoint,
    config_fingerprint,
    load_build_meta,
    require_compatible_build,
    require_compatible_extension,
    save_build_meta,
)
from ..storage.columnar import ensure_projection
from ..storage.sharded import DEFAULT_SHARD_SIZE, ShardedCorpusWriter, ShardedJsonlStore
from ..wordnet.topics import select_topics
from .corpus import GitTablesCorpus
from .curation import CurationReport
from .extraction import CSVExtractor, ExtractionReport
from .filtering import FilterReport
from .parsing import ParsingReport

__all__ = ["PipelineResult", "CorpusBuilder"]

#: Default number of tables streamed per runner batch.
DEFAULT_BATCH_SIZE = 32


@dataclass
class PipelineResult:
    """The corpus plus per-stage reports.

    ``pipeline_report`` holds the unified per-stage counters and, in its
    ``stage_reports``, the per-stage report objects that the four
    ``*_report`` properties read (a stage that did not run reads as an
    empty report). Those reports are *session-scoped*: they describe the
    work the returning process actually performed. For store-backed
    builds that resumed (or reused) a directory, the cross-session truth
    lives in the report's counters (merged over every session); the
    curation report is additionally rebuilt from corpus metadata on pure
    reuse, since Table-3 statistics are derivable from the tables
    themselves, while extraction/parsing/filter reports describe dropped
    items that no longer exist anywhere.
    """

    corpus: GitTablesCorpus
    topics: tuple[str, ...]
    pipeline_report: PipelineReport

    @property
    def extraction_report(self) -> ExtractionReport:
        return self.pipeline_report.stage_reports.get("extraction", ExtractionReport())

    @property
    def parsing_report(self) -> ParsingReport:
        return self.pipeline_report.stage_reports.get("parsing", ParsingReport())

    @property
    def filter_report(self) -> FilterReport:
        return self.pipeline_report.stage_reports.get("filtering", FilterReport())

    @property
    def curation_report(self) -> CurationReport:
        return self.pipeline_report.stage_reports.get("curation", CurationReport())

    @property
    def table_count(self) -> int:
        return len(self.corpus)


class CorpusBuilder:
    """Builds a GitTables corpus from a (simulated) GitHub instance."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        instance: GitHubInstance | None = None,
        generator_config: GeneratorConfig | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        real_time_factor: float = 0.0,
    ) -> None:
        # PipelineConfig validates itself in __post_init__.
        self.config = config or PipelineConfig.default()
        self.batch_size = batch_size
        #: Converts the simulated GitHub client's virtual request time
        #: into real sleeps (0.0 = pure virtual clock). Benchmarks use
        #: it to model the network-bound production workload.
        self.real_time_factor = real_time_factor
        #: The generator configuration behind the synthetic instance, kept
        #: for the resume fingerprint (None when a pre-built instance was
        #: handed in — such builds cannot be fingerprinted).
        self.generator_config: GeneratorConfig | None = None
        if instance is None:
            self.generator_config = self._derive_generator_config(generator_config)
            instance = build_instance(self.generator_config)
        self.instance = instance
        self.client = GitHubClient(instance, real_time_factor=real_time_factor)
        self.extractor = CSVExtractor(self.client, self.config.extraction)
        #: The per-file processing components, constructed through the
        #: pickle-able factory that parallel worker processes also use.
        self.components = PipelineComponents.from_config(self.config)
        self.parser = self.components.parser
        self.table_filter = self.components.table_filter
        self.annotator = self.components.annotator
        self.curator = self.components.curator

    def _derive_generator_config(self, override: GeneratorConfig | None) -> GeneratorConfig:
        """Size the synthetic GitHub so the target table count is reachable.

        Only ~16% of files come from permissively licensed repositories
        and ~9% of the remainder is filtered, so the instance holds about
        8x the configured target in CSV files.
        """
        if override is not None:
            return override
        target_files = int(self.config.target_tables * 8)
        base = GeneratorConfig(seed=self.config.seed)
        return base.scaled_to_files(target_files)

    def pipeline(
        self,
        skip_source_urls: set[str] | None = None,
        fast_forward_past: str | None = None,
    ) -> Pipeline:
        """The Figure-1 stage graph over this builder's components.

        A fresh graph (with fresh stage reports) per call; callers may
        insert, replace or reorder stages before running it.
        ``skip_source_urls`` inserts the resume-skip stage used by
        store-targeted builds; ``fast_forward_past`` is the sealed
        store's stream high-water mark for epoch extensions (see
        :class:`~repro.pipeline.stages.ResumeSkipStage`).
        """
        return Pipeline(
            default_stages(
                self.extractor,
                self.parser,
                self.table_filter,
                self.annotator,
                self.curator,
                skip_source_urls=skip_source_urls,
                fast_forward_past=fast_forward_past,
            ),
            batch_size=self.batch_size,
            name="gittables-build",
        )

    def build(
        self,
        store_dir: str | os.PathLike[str] | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        processes: int = 1,
        extend: bool = False,
        use_artifacts: bool = True,
    ) -> PipelineResult:
        """Run the full streaming pipeline and return corpus plus reports.

        Without ``store_dir`` the corpus is assembled in memory (the
        historical behaviour). With ``store_dir`` the build streams
        straight into a sharded on-disk store and is **resumable**: every
        runner batch is committed to the shard files and manifest before
        the next is pulled, so a killed build restarted with the same
        configuration picks up from the manifest, skips every table it
        already annotated, and produces a directory byte-identical to an
        uninterrupted run. The returned corpus is backed by the lazy
        sharded reader, not resident in memory.

        ``processes`` (default ``1``, the single-process streaming build)
        is the number of worker processes; it must be ``>= 1`` for every
        build, and ``CorpusError`` is raised otherwise. A store build with
        ``processes > 1`` fans out across worker processes, each
        searching, downloading and annotating a disjoint slice of the
        source-URL stream into its own shard files, merged on commit
        boundaries and finalized byte-identically to a serial build — see
        :class:`repro.storage.parallel.ParallelCorpusBuilder`. A build
        may be killed under one process count and resumed under another
        (the count is not part of the config fingerprint). An in-memory
        build always runs in the calling process.

        ``extend=True`` reopens a *completed* store under a grown
        configuration (larger ``target_tables`` and/or
        ``extraction.topic_count``; everything else — seed, stage
        settings, generator — must match the original build). The
        committed corpus becomes the new epoch's prefix and only the
        missing tables are searched, annotated and appended, so growing
        a corpus costs O(new tables), not O(corpus). When only
        ``target_tables`` grew, the extended directory finalizes
        byte-identical (modulo the manifest epoch trailer) to a
        from-scratch build of the larger target with the same explicit
        ``generator_config``.

        ``use_artifacts=False`` reads and publishes no index artifact.
        """
        if processes < 1:
            raise CorpusError("processes must be >= 1")
        if store_dir is not None:
            from ..storage.parallel import ParallelCorpusBuilder, has_parallel_state

            # A directory holding in-flight parallel state (worker
            # shards/logs) must resume through the coordinator even at
            # processes=1 — the single-writer path cannot append to
            # worker-scoped shards. Either path finalizes the same bytes.
            if processes > 1 or has_parallel_state(store_dir):
                return ParallelCorpusBuilder(
                    self, processes=processes, use_artifacts=use_artifacts
                ).build(store_dir, shard_size=shard_size, extend=extend)
            return self._build_to_store(store_dir, shard_size, extend=extend, use_artifacts=use_artifacts)
        if extend:
            raise CorpusError("extend=True requires a store_dir to reopen")
        topic_selection = select_topics(
            self.config.extraction.topic_count, seed=self.config.seed
        )
        corpus = GitTablesCorpus()

        def collect(batch: list) -> None:
            for annotated in batch:
                corpus.add(annotated)

        outcome = self.pipeline().run(
            topic_selection.topics,
            config=self.config,
            limit=self.config.target_tables,
            sink=collect,
        )
        return PipelineResult(corpus, topic_selection.topics, outcome.report)

    def ensure_build_meta(
        self,
        store_dir: str | os.PathLike[str],
        fingerprint: dict,
        committed_count: int,
        extend: bool = False,
    ) -> None:
        """Validate (or create) the directory's permanent provenance record.

        ``build.json`` pins the configuration a store was started with:
        any build call against an existing store — in-flight or
        completed, serial or parallel — must match it. Shared by the
        single-process and process-parallel build paths so both enforce
        identical provenance rules.

        With ``extend=True`` a *compatible growth* of the configuration
        is accepted instead of exact equality (see
        :func:`~repro.storage.checkpoint.require_compatible_extension`),
        and ``build.json`` is re-pinned to the grown fingerprint — from
        then on the directory belongs to the extended configuration, and
        a crashed extension resumes against the new record.
        """
        stored_fingerprint = load_build_meta(store_dir)
        if stored_fingerprint is not None:
            if stored_fingerprint.get("generator") is None or self.generator_config is None:
                # A pre-built `instance` cannot be fingerprinted, so two
                # different sources would compare equal — refuse to mix.
                raise CorpusError(
                    f"corpus at {store_dir} involves a pre-built GitHub instance "
                    "whose data source cannot be verified; such builds are not "
                    "resumable or reusable — delete the directory to rebuild"
                )
            if extend:
                require_compatible_extension(stored_fingerprint, fingerprint, store_dir)
                save_build_meta(store_dir, fingerprint)
            else:
                require_compatible_build(stored_fingerprint, fingerprint, store_dir)
        elif extend:
            raise CorpusError(
                f"cannot extend corpus at {store_dir}: the directory holds no "
                "build metadata to grow from"
            )
        elif committed_count > 0:
            raise CorpusError(
                f"corpus at {store_dir} holds {committed_count} tables but "
                "no build metadata, so it cannot be verified against this "
                "configuration; load it explicitly or delete the directory to rebuild"
            )
        else:
            save_build_meta(store_dir, fingerprint)

    def reuse_result(
        self, store_dir: str | os.PathLike[str], topics: tuple[str, ...], use_artifacts: bool = True
    ) -> PipelineResult:
        """Wrap a completed store without touching manifest or shards.

        Curation statistics are rebuilt from table metadata; the other
        legacy stage reports describe dropped/raw items and only exist
        in the session that did the work (see :class:`PipelineResult`).
        """
        report = PipelineReport(pipeline_name="gittables-build")
        result = self.store_result(store_dir, report, topics, use_artifacts=use_artifacts)
        result.pipeline_report.items_collected = result.table_count
        return result

    def store_result(
        self,
        store_dir: str | os.PathLike[str],
        report: PipelineReport,
        topics: tuple[str, ...],
        extend: bool = False,
        use_artifacts: bool = True,
    ) -> PipelineResult:
        """The result of a finished store build: every store build ends here.

        Opens the lazy corpus and resolves (or builds and publishes) its
        columnar stats projection, so the curation report — and every
        later statistic on this corpus — reads metadata arrays instead of
        parsing shards. Artifacts live outside the byte-identity of the
        corpus files. Extensions defer pruning: the superseded
        search/completion artifacts must survive until their engines have
        delta-refreshed from them (the facade prunes once every artifact
        is republished). A session that ran no curation stage (reuse, or
        a resume whose target was already met) gets its curation report
        rebuilt from corpus metadata. ``use_artifacts=False`` opens the
        corpus without its artifact store.
        """
        corpus = GitTablesCorpus(store=ShardedJsonlStore(store_dir, use_artifacts=use_artifacts))
        ensure_projection(corpus, prune=not extend)
        if "curation" not in report.stage_reports:
            report.stage_reports["curation"] = CurationReport.from_corpus(corpus)
        return PipelineResult(corpus, topics, report)

    def _build_to_store(
        self, store_dir: str | os.PathLike[str], shard_size: int, extend: bool, use_artifacts: bool
    ) -> PipelineResult:
        """Resumable streaming build into a sharded corpus directory."""
        config = self.config
        topic_selection = select_topics(config.extraction.topic_count, seed=config.seed)
        writer = ShardedCorpusWriter(store_dir, shard_size=shard_size)
        fingerprint = config_fingerprint(config, self.generator_config)
        self.ensure_build_meta(store_dir, fingerprint, writer.committed_count, extend=extend)
        # Persist the ontology label indexes next to the corpus: later
        # sessions (and parallel build workers) of this directory then
        # mmap them instead of re-embedding every ontology label.
        if use_artifacts:
            self.annotator.publish_artifacts(writer.artifacts)

        checkpoint = BuildCheckpoint.load(store_dir)
        if checkpoint is None:
            if writer.committed_count >= config.target_tables:
                # A completed build (its checkpoint was cleared): the
                # fingerprint matched, so reuse it as-is.
                return self.reuse_result(store_dir, topic_selection.topics, use_artifacts=use_artifacts)
            checkpoint = BuildCheckpoint(fingerprint=fingerprint)
        else:
            checkpoint.require_compatible(fingerprint, store_dir)

        base_counters = checkpoint.counters
        # Persist the fingerprint before any work so even a crash inside
        # the first batch leaves a resumable directory behind.
        checkpoint.save(store_dir)

        ctx = StageContext(config=config)

        def commit_batch(batch: list) -> None:
            writer.extend(batch)
            writer.commit()
            # Recomputed from the immutable base every commit (never
            # compounded); the session count lives in the merged
            # counters, the checkpoint field mirrors it.
            merged = combine_counters(base_counters, ctx.report.counters())
            BuildCheckpoint(
                fingerprint=fingerprint,
                sessions=merged["sessions"],
                counters=merged,
            ).save(store_dir)

        remaining = config.target_tables - writer.committed_count
        if remaining > 0:
            fast_forward_past = None
            run_topics = topic_selection.topics
            if extend:
                if writer.is_sealed:
                    # A sealed manifest lists tables in canonical stream
                    # order, so the extension can fast-forward the
                    # replayed stream past the last committed table
                    # instead of re-parsing every previously rejected
                    # file — the O(new tables) growth path. A crashed
                    # extension reopens unsealed and falls back to the
                    # (order-agnostic) membership skip.
                    fast_forward_past = writer.last_source_url()
                    marker = writer.last_committed_table()
                    if marker is not None and marker.topic in run_topics:
                        # Topics are consumed in order and the high-water
                        # table belongs to the last topic the sealed
                        # build reached, so earlier topics yield only
                        # already-processed files — skip enumerating
                        # (and re-searching) them entirely. Files they
                        # share with later topics were either committed
                        # (dropped by the membership skip) or rejected
                        # (parse/filter are content-deterministic, so
                        # they re-reject identically).
                        run_topics = run_topics[run_topics.index(marker.topic) :]
                # Durably open the next epoch before the first append —
                # deferred to here so an extension whose target is
                # already met reuses the sealed store without bumping.
                writer.begin_extension()
            outcome = self.pipeline(
                skip_source_urls=writer.source_urls(),
                fast_forward_past=fast_forward_past,
            ).run(
                run_topics,
                config=config,
                ctx=ctx,
                limit=remaining,
                sink=commit_batch,
            )
            report = outcome.report
        else:
            report = ctx.report
            report.pipeline_name = "gittables-build"
        # Compact the manifest delta log: a completed directory holds
        # only shard files + manifest.json, byte-identical no matter how
        # many commits or sessions produced it.
        writer.finalize()
        if base_counters:
            report.merge_counters(base_counters)
        # The build is complete: the checkpoint's job is done, and
        # removing it makes a resumed directory byte-identical to a
        # one-shot one.
        BuildCheckpoint.clear(store_dir)
        topics = topic_selection.topics
        return self.store_result(store_dir, report, topics, extend=extend, use_artifacts=use_artifacts)
