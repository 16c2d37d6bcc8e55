"""Composable, streaming pipeline runner.

A :class:`Pipeline` chains stages into a single pull-driven generator
graph. The runner consumes results in configurable batches and stops
pulling — across the *whole* graph — as soon as an optional ``limit`` is
met; the count it still takes (``StageContext.remaining``) bounds how far
ahead a batching stage works. No stage ever materializes the full stream
or does work past the limit (e.g. annotating tables that would be
discarded once the corpus target is reached).

Each run assembles a :class:`~repro.pipeline.report.PipelineReport` with
per-stage item counters and wall-clock timings, collected by wrapping
every stage boundary with counting/timing iterators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from ..config import PipelineConfig
from .report import PipelineReport, StageMetrics
from .stage import Stage, StageContext, stage_from

__all__ = ["Pipeline", "PipelineOutcome"]


@dataclass
class PipelineOutcome:
    """The collected results of one pipeline run."""

    items: list
    report: PipelineReport
    context: StageContext

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator:
        return iter(self.items)


def _count_pulls(upstream: Iterator, metrics: StageMetrics) -> Iterator:
    """Count items a stage pulls from its upstream."""
    for item in upstream:
        metrics.items_in += 1
        yield item


class Pipeline:
    """An ordered graph of streaming stages."""

    def __init__(
        self,
        stages: Sequence[Stage | Callable] = (),
        batch_size: int = 32,
        name: str = "pipeline",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.name = name
        self.stages: list[Stage] = []
        for stage in stages:
            self.then(stage)

    # -- composition -------------------------------------------------------

    def then(self, stage: Stage | Callable, name: str | None = None) -> "Pipeline":
        """Append a stage (chainable)."""
        resolved = stage_from(stage, name)
        if any(existing.name == resolved.name for existing in self.stages):
            raise ValueError(f"duplicate stage name {resolved.name!r}")
        self.stages.append(resolved)
        return self

    def insert(self, index: int, stage: Stage | Callable, name: str | None = None) -> "Pipeline":
        """Insert a stage at ``index`` (chainable)."""
        resolved = stage_from(stage, name)
        if any(existing.name == resolved.name for existing in self.stages):
            raise ValueError(f"duplicate stage name {resolved.name!r}")
        self.stages.insert(index, resolved)
        return self

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    # -- execution ---------------------------------------------------------

    def stream(self, source: Iterable, ctx: StageContext) -> Iterator:
        """The lazy output iterator of the full stage graph.

        Nothing executes until the returned iterator is pulled; callers
        that stop pulling stop the entire upstream graph. Callers that
        abandon the iterator early should ``close()`` it so stage
        ``finally`` blocks run deterministically (``run`` does this).
        """
        iterator, _ = self._build(source, ctx)
        return iterator

    def _build(self, source: Iterable, ctx: StageContext) -> tuple[Iterator, list]:
        """Assemble the generator chain plus the list of closeables."""
        if not self.stages:
            raise ValueError("pipeline has no stages")
        closers: list = []
        current: Iterator = iter(source)
        for stage in self.stages:
            metrics = ctx.report.register_stage(stage.name)
            stage_output = iter(stage.process(_count_pulls(current, metrics), ctx))
            current = self._timed_output(stage_output, metrics)
            closers.append(stage_output)
            closers.append(current)
        return current, closers

    @staticmethod
    def _timed_output(output: Iterator, metrics: StageMetrics) -> Iterator:
        """Count and time the items a stage emits (inclusive of upstream)."""
        while True:
            started = perf_counter()
            try:
                item = next(output)
            except StopIteration:
                metrics.cumulative_seconds += perf_counter() - started
                return
            metrics.cumulative_seconds += perf_counter() - started
            metrics.items_out += 1
            yield item

    def run(
        self,
        source: Iterable,
        config: PipelineConfig | None = None,
        ctx: StageContext | None = None,
        limit: int | None = None,
        sink: Callable[[list], None] | None = None,
    ) -> PipelineOutcome:
        """Run the graph over ``source``, collecting at most ``limit`` items.

        Results are pulled in batches of ``batch_size``; once ``limit``
        results have been collected no further item is pulled from any
        stage (streaming early stop).

        With a ``sink``, each result batch is handed to ``sink(batch)``
        instead of being accumulated, so the run never materializes more
        than one batch of results — this is how corpus builds stream
        straight into an on-disk store. ``PipelineOutcome.items`` is
        empty in sink mode; counters in the report are unaffected. A
        sink that raises aborts the run (stage ``finally`` blocks still
        execute), which is also the crash model of resumable builds:
        everything the sink committed stays committed.
        """
        if ctx is None:
            ctx = StageContext(config=config)
        elif config is not None:
            ctx.config = config
        report = ctx.report
        report.pipeline_name = self.name
        report.batch_size = self.batch_size

        started = perf_counter()
        stream, closers = self._build(source, ctx)
        if limit is not None:
            ctx.remaining = limit if ctx.remaining is None else min(ctx.remaining, limit)
            stream = self._count_down(stream, ctx, limit)
        items: list = []
        collected = 0
        try:
            while True:
                take = self.batch_size
                if limit is not None:
                    take = min(take, limit - collected)
                    if take <= 0:
                        report.stopped_early = True
                        break
                batch = list(islice(stream, take))
                if not batch:
                    break
                report.batches += 1
                report.peak_batch_items = max(report.peak_batch_items, len(batch))
                collected += len(batch)
                # Keep the collected count and elapsed time live so
                # mid-run checkpoint snapshots (resumable builds) see
                # accurate totals even if this session is killed.
                report.items_collected = collected
                report.total_seconds = perf_counter() - started
                if sink is not None:
                    sink(batch)
                else:
                    items.extend(batch)
        finally:
            ctx.remaining = None
            # Close outermost-first so stage finally-blocks (which flush
            # report fields) run now, not whenever GC finalizes the chain.
            for generator in reversed(closers):
                close = getattr(generator, "close", None)
                if close is not None:
                    close()
        report.items_collected = collected
        report.total_seconds = perf_counter() - started
        self._finalize_exclusive_times(report)
        return PipelineOutcome(items=items, report=report, context=ctx)

    @staticmethod
    def _count_down(stream: Iterator, ctx: StageContext, limit: int) -> Iterator:
        """Reset ``ctx.remaining`` to ``limit`` minus the items received, at each item."""
        for received, item in enumerate(stream, 1):
            ctx.remaining = limit - received
            yield item

    @staticmethod
    def _finalize_exclusive_times(report: PipelineReport) -> None:
        """Derive per-stage exclusive seconds from the inclusive timings."""
        upstream_seconds = 0.0
        for metrics in report.stages.values():
            metrics.seconds = max(0.0, metrics.cumulative_seconds - upstream_seconds)
            upstream_seconds = metrics.cumulative_seconds
