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

``AnnotateStage`` annotates chunks of as many tables as the run still
takes (``StageContext.remaining``), each with one batched index query per
ontology. ``ParseStage`` and ``AnnotateStage`` implement the
:class:`~repro.pipeline.stage.BatchStage` protocol (``process_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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

    ``process`` annotates chunks of as many tables as the run still takes
    (``ctx.remaining``; one when unknown) with ``process_batch``, one
    resolution pass per chunk, so it annotates no table a pull-one graph
    would not. Batched and per-item results are bit-identical.
    """

    name = "annotation"

    def __init__(self, annotator: AnnotationPipeline) -> None:
        self.annotator = annotator

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        items = iter(items)
        while chunk := list(islice(items, ctx.remaining or 1)):
            yield from self.process_batch(chunk, ctx)

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
) -> list:
    """The paper's Figure-1 stage order, from existing components.

    A strictly serial per-item graph (zero over-pull past an early-stop
    limit).
    """
    return [
        ExtractStage(extractor),
        *processing_stages(
            PipelineComponents(
                parser=parser,
                table_filter=table_filter,
                annotator=annotator,
                curator=curator,
            )
        ),
    ]


def processing_stages(components: PipelineComponents) -> list:
    """The post-extraction stage graph: parse → filter → annotate → curate.

    This is the per-file work a store build fans out: each build worker
    runs one such graph over a disjoint slice of the source-URL stream
    (:mod:`repro.storage.parallel`).
    """
    return [
        ParseStage(components.parser),
        FilterStage(components.table_filter),
        AnnotateStage(components.annotator),
        CurateStage(components.curator),
    ]
