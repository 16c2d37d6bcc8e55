"""End-to-end GitTables corpus construction (paper Figure 1).

:class:`CorpusBuilder` is a thin, backward-compatible wrapper over the
streaming stage graph in :mod:`repro.pipeline`:

    GitHub instance → extraction → parsing → filtering → annotation →
    content curation → :class:`~repro.core.corpus.GitTablesCorpus`

Tables stream through generator-based stages in batches; the run stops
pulling from every upstream stage as soon as ``config.target_tables``
tables have been curated, so no table is annotated only to be discarded.
A build without a store runs that graph in memory. Every build that
targets a ``store_dir`` runs through one coordinator
(:mod:`repro.storage.parallel`): ``processes`` workers — worker 0 in
the calling process at ``processes=1`` — run the same graph over
disjoint slices of the source-URL stream, commit into their own shard
ranges, and the coordinator finalizes the canonical sharded store
(:mod:`repro.storage.sharded`). Such builds are resumable under any
process count, never re-annotate a committed table, and return a
:class:`~repro.pipeline.report.PipelineReport` whose counters merge
every session and worker that contributed.
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
from ..pipeline.report import PipelineReport
from ..pipeline.runner import Pipeline
from ..pipeline.stages import PipelineComponents, default_stages
from ..storage.checkpoint import (
    load_build_meta,
    require_compatible_build,
    require_compatible_extension,
    save_build_meta,
)
from ..storage.columnar import PROJECTION_ARTIFACT, ensure_projection
from ..storage.sharded import DEFAULT_SHARD_SIZE, ShardedJsonlStore
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
    empty report). An in-memory build carries all four. A store build
    carries the coordinator's session-scoped extraction report and, from
    first read, a curation report rebuilt from corpus metadata (Table 3
    is derivable from the tables themselves); its parse and filter work
    lives in the report's counters, merged over every session and
    worker, since the dropped items they describe exist nowhere else.
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
        reports = self.pipeline_report.stage_reports
        if "curation" not in reports:
            reports["curation"] = CurationReport.from_corpus(self.corpus)
        return reports["curation"]

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

    def pipeline(self) -> Pipeline:
        """The Figure-1 stage graph over this builder's components.

        A fresh graph (with fresh stage reports) per call; callers may
        insert, replace or reorder stages before running it.
        """
        return Pipeline(
            default_stages(
                self.extractor,
                self.parser,
                self.table_filter,
                self.annotator,
                self.curator,
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

        Without ``store_dir`` the corpus is assembled in memory. With
        ``store_dir`` the build streams into a sharded on-disk store
        through :class:`repro.storage.parallel.ParallelCorpusBuilder` and
        is **resumable**: every ``batch_size`` stored tables are committed
        before more are curated, so a killed build restarted with the
        same configuration picks up from its committed state, never
        re-annotates a committed table, and produces a directory
        byte-identical to an uninterrupted run. The returned corpus is
        backed by the lazy sharded reader, not resident in memory.

        ``processes`` (default ``1``) is the number of workers; it must be
        ``>= 1`` for every build, and ``CorpusError`` is raised otherwise.
        Each worker searches, downloads and annotates a disjoint slice of
        the source-URL stream into its own shard files; at ``processes=1``
        the one worker runs in the calling process, otherwise each runs
        in its own process. The finalized bytes do not depend on the
        count, and a build may be killed under one count and resumed
        under another (it is not part of the config fingerprint). An
        in-memory build always runs in the calling process.

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
            from ..storage.parallel import ParallelCorpusBuilder

            return ParallelCorpusBuilder(
                self, processes=processes, use_artifacts=use_artifacts
            ).build(store_dir, shard_size=shard_size, extend=extend)
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
        completed, under any process count — must match it.

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

        Opens the lazy corpus; its columnar stats projection and the
        curation report are resolved on first use. An extension
        delta-refreshes a projection the store already has, with the
        prune deferred: superseded artifacts must survive until every
        engine has refreshed from them (the facade prunes once all are
        republished). ``use_artifacts=False`` opens the corpus without
        its artifact store.
        """
        corpus = GitTablesCorpus(store=ShardedJsonlStore(store_dir, use_artifacts=use_artifacts))
        if extend and corpus.artifacts and corpus.artifacts.path(PROJECTION_ARTIFACT).is_dir():
            ensure_projection(corpus, prune=False)
        return PipelineResult(corpus, topics, report)
