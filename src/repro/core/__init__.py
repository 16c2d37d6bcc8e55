"""The GitTables construction pipeline (the paper's primary contribution).

Stages (paper §3):

1. :mod:`~repro.core.extraction` — topic queries against the GitHub
   Search API, size-qualifier segmentation, pagination, raw-file download.
2. :mod:`~repro.core.parsing` — CSV → :class:`~repro.dataframe.Table`.
3. :mod:`~repro.core.filtering` — license / dimension / header / content
   filters.
4. :mod:`~repro.core.annotation` — syntactic and semantic column
   annotation against DBpedia and Schema.org.
5. :mod:`~repro.core.curation` — PII anonymisation.
6. :mod:`~repro.core.corpus` — the resulting corpus container.
7. :mod:`~repro.core.pipeline` — end-to-end orchestration.
8. :mod:`~repro.core.stats` — corpus and annotation statistics (§4).
"""

from .annotation import (
    AnnotationMethod,
    AnnotationPipeline,
    ColumnAnnotation,
    SemanticAnnotator,
    SyntacticAnnotator,
    TableAnnotations,
    annotate_table,
    annotate_tables,
)
from .corpus import AnnotatedTable, GitTablesCorpus
from .extraction import CSVExtractor, ExtractedFile, build_topic_query, segment_query
from .filtering import FilterDecision, TableFilter
from .parsing import ParsedFile, ParsingStage
from .curation import ContentCurator, CurationResult
from .pipeline import CorpusBuilder, PipelineResult
from .stats import AnnotationStatistics, CorpusStatistics

__all__ = [
    "AnnotatedTable",
    "AnnotationMethod",
    "AnnotationPipeline",
    "AnnotationStatistics",
    "CSVExtractor",
    "ColumnAnnotation",
    "ContentCurator",
    "CorpusBuilder",
    "CorpusStatistics",
    "CurationResult",
    "ExtractedFile",
    "FilterDecision",
    "GitTablesCorpus",
    "ParsedFile",
    "ParsingStage",
    "PipelineResult",
    "SemanticAnnotator",
    "SyntacticAnnotator",
    "TableAnnotations",
    "TableFilter",
    "annotate_table",
    "annotate_tables",
    "build_topic_query",
    "segment_query",
]
