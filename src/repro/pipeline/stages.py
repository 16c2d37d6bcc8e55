"""Stage adapters wrapping the Figure-1 components as streaming stages.

Each adapter keeps the legacy component and its legacy report intact —
``ExtractStage`` wraps :class:`~repro.core.extraction.CSVExtractor`,
``ParseStage`` wraps :class:`~repro.core.parsing.ParsingStage`, and so
on — but exposes them through the :class:`~repro.pipeline.stage.Stage`
protocol so they compose into a pull-driven graph. The legacy report
objects are registered in ``PipelineReport.stage_reports`` under the
stage name, which keeps every pre-existing statistic (parse success
rate, filter drop rate, PII fraction) available while the unified
per-stage counters are collected by the runner.

Stage graph item types::

    topics (str) → ExtractStage → ExtractedFile → ParseStage →
    ParsedFile → FilterStage → ParsedFile → AnnotateStage →
    AnnotatedCandidate → CurateStage → AnnotatedTable

``ParseStage`` and ``AnnotateStage`` additionally implement the
:class:`~repro.pipeline.stage.BatchStage` protocol (``process_batch``),
so they can be wrapped in a :class:`~repro.pipeline.stage.MapStage` to
receive whole chunks — annotation then resolves all column names of a
chunk with one batched index query per ontology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..config import PipelineConfig
from ..core.annotation import AnnotationPipeline, TableAnnotations
from ..core.corpus import AnnotatedTable
from ..core.curation import ContentCurator, CurationReport
from ..core.extraction import CSVExtractor, ExtractionReport
from ..core.filtering import FilterReport, TableFilter
from ..core.parsing import ParsedFile, ParsingReport, ParsingStage
from ..errors import CSVParseError
from .stage import StageContext

__all__ = [
    "AnnotatedCandidate",
    "ExtractStage",
    "ResumeSkipStage",
    "ParseStage",
    "FilterStage",
    "AnnotateStage",
    "CurateStage",
    "PipelineComponents",
    "default_stages",
    "processing_stages",
]


@dataclass
class AnnotatedCandidate:
    """A filtered, annotated table awaiting curation."""

    parsed: ParsedFile
    annotations: TableAnnotations


@dataclass
class PipelineComponents:
    """The per-file processing components behind the Figure-1 stages.

    Bundles everything downstream of extraction — parser, filter,
    annotator (with its encoder and ontology indexes), curator — and
    knows how to construct the set from a :class:`PipelineConfig` alone.
    That makes the construction a *pickle-able stage factory*: a
    process-parallel build ships only the config to each worker process,
    and every worker calls :meth:`from_config` after the fork/spawn, so
    the encoder caches and ontology label indexes are initialised
    per-process (they are neither shareable nor picklable themselves).
    """

    parser: ParsingStage
    table_filter: TableFilter
    annotator: AnnotationPipeline
    curator: ContentCurator

    @classmethod
    def from_config(cls, config: PipelineConfig, artifacts=None) -> "PipelineComponents":
        """Construct fresh components for one process from the config.

        ``artifacts`` (an
        :class:`~repro.storage.artifacts.IndexArtifactStore`) lets the
        annotation pipeline resolve its ontology label indexes from
        mmap'd fingerprint-guarded artifacts instead of re-embedding
        every label — what keeps N-process builds from paying the
        embedding cost N times.
        """
        return cls(
            parser=ParsingStage(),
            table_filter=TableFilter(config.curation),
            annotator=AnnotationPipeline(config.annotation, artifacts=artifacts),
            curator=ContentCurator(config.curation, seed=config.seed),
        )


class ExtractStage:
    """topics → :class:`ExtractedFile`, one topic's search at a time.

    Streams at topic granularity: the URL de-duplication map of a single
    topic is materialized (required for correctness), but topics past the
    point where downstream stops pulling are never even queried.
    """

    name = "extraction"

    def __init__(self, extractor: CSVExtractor) -> None:
        self.extractor = extractor
        self.report = ExtractionReport()

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        # Fresh report per run so a reused stage never mixes run counts.
        self.report = report = ExtractionReport()
        ctx.report.stage_reports[self.name] = report
        seen_urls: set[str] = set()
        client = self.extractor.client
        try:
            for topic in items:
                report.topics.append(topic)
                for extracted in self.extractor.extract_topic(topic, report=report):
                    report.total_urls += 1
                    if extracted.url in seen_urls:
                        report.duplicate_urls += 1
                        continue
                    seen_urls.add(extracted.url)
                    report.files_downloaded += 1
                    yield extracted
        finally:
            report.api_requests = client.request_count
            report.simulated_wait_seconds = client.total_wait_seconds


class ResumeSkipStage:
    """Drop extracted files whose tables a resumed build already stored.

    Sits between extraction and parsing when a corpus build targets a
    sharded store directory. ``done_urls`` is the set of source URLs
    recorded in the store manifest; re-extracted files matching it are
    dropped *before* parsing, so a resumed session never re-annotates (or
    re-curates) a committed table. The stage's runner metrics make the
    resume auditable: ``items_dropped`` is exactly the number of tables
    skipped because a previous session already produced them. On a fresh
    build the set is empty and the stage passes everything through.

    ``fast_forward_past`` sharpens the skip for *epoch extensions of a
    sealed store*: membership in ``done_urls`` only covers committed
    tables, so a plain resume still re-parses every file a previous
    session extracted and **rejected** (parse failures, filter drops) —
    an O(corpus) cost that defeats incremental growth. A sealed
    manifest, however, lists its tables in canonical stream order, and
    an extension replays the identical deterministic stream (enforced by
    the build-meta fingerprint) with extraction de-duplicating URLs — so
    the last committed table's source URL is a stream high-water mark:
    *everything* up to and including it was already processed. While
    fast-forwarding, the stage drops every file until that marker has
    passed; afterwards it falls back to the membership check. Only
    sealed-at-open extensions may set the marker — a mid-build crash of
    a *parallel* session commits out of stream order, where membership
    is the only safe filter.
    """

    name = "resume-skip"

    def __init__(
        self,
        done_urls: set[str] | frozenset[str] = frozenset(),
        fast_forward_past: str | None = None,
    ) -> None:
        self.done_urls = set(done_urls)
        self.fast_forward_past = fast_forward_past

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        marker = self.fast_forward_past
        for extracted in items:
            if marker is not None:
                if extracted.url == marker:
                    marker = None
                continue
            if extracted.url not in self.done_urls:
                yield extracted


class ParseStage:
    """:class:`ExtractedFile` → :class:`ParsedFile`, dropping parse failures."""

    name = "parsing"

    def __init__(self, parser: ParsingStage | None = None) -> None:
        self.parser = parser or ParsingStage()
        self.report = ParsingReport()

    def begin(self, ctx: StageContext) -> None:
        # Fresh report per run so a reused stage never mixes run counts.
        self.report = ParsingReport()
        ctx.report.stage_reports[self.name] = self.report

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        self.begin(ctx)
        for extracted in items:
            yield from self.process_batch([extracted], ctx)

    def process_batch(self, batch: list, ctx: StageContext) -> list:
        """Parse a chunk of extracted files, dropping parse failures."""
        report = self.report
        parsed_files: list[ParsedFile] = []
        for extracted in batch:
            try:
                parsed_files.append(self.parser.parse_file(extracted))
            except CSVParseError as error:
                reason = str(error).split(":")[0]
                report.failures_by_reason[reason] = report.failures_by_reason.get(reason, 0) + 1
        report.attempted += len(batch)
        report.parsed += len(parsed_files)
        report.failed += len(batch) - len(parsed_files)
        return parsed_files


class FilterStage:
    """:class:`ParsedFile` → surviving :class:`ParsedFile` (paper §3.3 rules)."""

    name = "filtering"

    def __init__(self, table_filter: TableFilter) -> None:
        self.table_filter = table_filter
        self.report = FilterReport()

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        self.report = report = FilterReport()
        ctx.report.stage_reports[self.name] = report
        for parsed in items:
            license_obj = parsed.source.license
            license_key = license_obj.key if license_obj is not None else None
            decision = self.table_filter.evaluate(parsed.table, license_key=license_key)
            report.record(decision)
            if decision.keep:
                yield parsed


class AnnotateStage:
    """:class:`ParsedFile` → :class:`AnnotatedCandidate` (paper §3.4).

    ``process`` annotates one table at a time (all of a table's columns
    still resolve through one batched index query per ontology), keeping
    the strict pull-one semantics of the streaming graph. ``process_batch``
    annotates a whole chunk with a single resolution pass across every
    column name in the chunk; batched and per-item results are
    bit-identical.
    """

    name = "annotation"

    def __init__(self, annotator: AnnotationPipeline) -> None:
        self.annotator = annotator

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        for parsed in items:
            yield AnnotatedCandidate(
                parsed=parsed, annotations=self.annotator.annotate(parsed.table)
            )

    def process_batch(self, batch: list, ctx: StageContext) -> list:
        """Annotate a chunk of parsed files with one resolution pass."""
        annotations = self.annotator.annotate_batch([parsed.table for parsed in batch])
        return [
            AnnotatedCandidate(parsed=parsed, annotations=table_annotations)
            for parsed, table_annotations in zip(batch, annotations)
        ]


class CurateStage:
    """:class:`AnnotatedCandidate` → :class:`AnnotatedTable` (PII scrubbing)."""

    name = "curation"

    def __init__(self, curator: ContentCurator) -> None:
        self.curator = curator
        self.report = CurationReport()

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        self.report = report = CurationReport()
        ctx.report.stage_reports[self.name] = report
        for candidate in items:
            parsed = candidate.parsed
            curated = self.curator.curate(
                parsed.table, candidate.annotations, report=report
            )
            source = parsed.source
            yield AnnotatedTable(
                table=curated.table,
                annotations=candidate.annotations,
                topic=source.topic,
                repository=source.repository,
                source_url=source.url,
                license_key=source.license.key if source.license else None,
            )


def default_stages(
    extractor: CSVExtractor,
    parser: ParsingStage,
    table_filter: TableFilter,
    annotator: AnnotationPipeline,
    curator: ContentCurator,
    skip_source_urls: set[str] | None = None,
    fast_forward_past: str | None = None,
) -> list:
    """The paper's Figure-1 stage order, from existing components.

    A strictly serial per-item graph (zero over-pull past an early-stop
    limit). ``skip_source_urls`` (store-targeted builds only) inserts a
    :class:`ResumeSkipStage` after extraction so tables already committed
    by an interrupted session are never re-annotated;
    ``fast_forward_past`` additionally skips everything up to the sealed
    store's stream high-water mark (see :class:`ResumeSkipStage`).
    """
    stages: list = [ExtractStage(extractor)]
    if skip_source_urls is not None:
        stages.append(ResumeSkipStage(skip_source_urls, fast_forward_past=fast_forward_past))
    stages.extend(
        processing_stages(
            PipelineComponents(
                parser=parser,
                table_filter=table_filter,
                annotator=annotator,
                curator=curator,
            )
        )
    )
    return stages


def processing_stages(components: PipelineComponents) -> list:
    """The post-extraction stage graph: parse → filter → annotate → curate.

    This is the per-file work a build fans out: process-parallel builds
    run one such graph per worker process over a disjoint slice of the
    extracted-file stream (:mod:`repro.storage.parallel`).
    """
    return [
        ParseStage(components.parser),
        FilterStage(components.table_filter),
        AnnotateStage(components.annotator),
        CurateStage(components.curator),
    ]
