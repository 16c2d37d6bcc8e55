"""Streaming stage-graph pipeline API.

The paper's Figure-1 pipeline as a composable graph of pull-driven
generator stages::

    from repro.pipeline import Pipeline

    pipeline = Pipeline([extract, parse, filter_, annotate, curate], batch_size=32)
    outcome = pipeline.run(topics, config=config, limit=config.target_tables)
    print(outcome.report.summary())

Stages implement the :class:`Stage` protocol (``process(items, ctx) ->
Iterator``); plain callables are adapted automatically. The runner
streams items in configurable batches, stops pulling the moment a result
limit is met, and collects per-stage counters and timings into a
:class:`PipelineReport`. Adapters for every legacy Figure-1 component
live in :mod:`repro.pipeline.stages`.
"""

from .report import PipelineReport, StageMetrics, combine_counters
from .runner import Pipeline, PipelineOutcome
from .stage import (
    BatchStage,
    FunctionStage,
    MapStage,
    Stage,
    StageContext,
    iter_chunks,
    stage_from,
)
from .stages import (
    AnnotateStage,
    AnnotatedCandidate,
    CurateStage,
    ExtractStage,
    FilterStage,
    ParseStage,
    PipelineComponents,
    default_stages,
    processing_stages,
)

__all__ = [
    "AnnotateStage",
    "AnnotatedCandidate",
    "BatchStage",
    "CurateStage",
    "ExtractStage",
    "FilterStage",
    "FunctionStage",
    "MapStage",
    "ParseStage",
    "Pipeline",
    "PipelineComponents",
    "PipelineOutcome",
    "PipelineReport",
    "Stage",
    "StageContext",
    "StageMetrics",
    "combine_counters",
    "default_stages",
    "iter_chunks",
    "processing_stages",
    "stage_from",
]
