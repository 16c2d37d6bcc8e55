"""The stage protocol of the streaming pipeline API.

A stage is anything with a ``name`` and a ``process(items, ctx)`` method
that maps an iterator of upstream items to an iterator of downstream
items. Stages are *pull-driven*: nothing upstream runs until a consumer
asks for the next item, which is what lets the runner stop the whole
graph the moment a corpus target is met.

:class:`StageContext` carries the run-wide configuration, the
:class:`~repro.pipeline.report.PipelineReport` being assembled, and a
free-form ``state`` dict stages can use to publish artefacts to each
other (and to the caller).

Batch-capable stages implement the :class:`BatchStage` protocol
(``process_batch(batch, ctx) -> list``) and are adapted into the
streaming graph by :class:`MapStage`, which chunks the upstream stream
and hands each chunk to the stage in order. Builds parallelise across
worker processes (:mod:`repro.storage.parallel`), not inside a stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

from ..config import PipelineConfig
from .report import PipelineReport

__all__ = [
    "StageContext",
    "Stage",
    "BatchStage",
    "FunctionStage",
    "MapStage",
    "iter_chunks",
    "stage_from",
]


def iter_chunks(items: Iterable, chunk_size: int) -> Iterator[list]:
    """Yield ``items`` in lists of at most ``chunk_size``.

    The chunking primitive shared by :class:`MapStage` and the
    process-parallel build workers (which commit one chunk per shard
    append, so the chunk is also the crash-atomicity unit).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    iterator = iter(items)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


@dataclass
class StageContext:
    """Run-wide state shared by every stage of one pipeline run."""

    config: PipelineConfig | None = None
    report: PipelineReport = field(default_factory=PipelineReport)
    #: Free-form cross-stage scratch space (artefact registry).
    state: dict[str, object] = field(default_factory=dict)

    def publish(self, key: str, value: object) -> None:
        """Publish an artefact for downstream stages / the caller."""
        self.state[key] = value


@runtime_checkable
class Stage(Protocol):
    """Protocol every pipeline stage implements."""

    name: str

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        """Map an iterator of upstream items to downstream items."""
        ...


class FunctionStage:
    """Adapt a plain callable into a :class:`Stage`.

    ``fn`` is applied per item; returning ``None`` drops the item (so a
    predicate-style callable doubles as a filter when combined with
    ``drop_none=True``, the default).
    """

    def __init__(self, fn: Callable, name: str | None = None, drop_none: bool = True) -> None:
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "function")
        self.drop_none = drop_none

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        for item in items:
            result = self.fn(item)
            if result is None and self.drop_none:
                continue
            yield result


@runtime_checkable
class BatchStage(Protocol):
    """Protocol of a stage that maps a whole batch of items at once.

    ``process_batch`` receives a materialized chunk of upstream items and
    returns the downstream items (dropping is expressed by returning
    fewer). An optional ``begin(ctx)`` hook, when present, is called once
    per run before the first chunk (stages use it to register fresh
    legacy reports).
    """

    name: str

    def process_batch(self, batch: list, ctx: StageContext) -> list:
        """Map one chunk of upstream items to downstream items."""
        ...


class MapStage:
    """Adapt a :class:`BatchStage` into the streaming :class:`Stage` protocol.

    The upstream iterator is consumed in chunks of ``chunk_size``, each
    handed to the wrapped stage's ``process_batch`` in input order.

    Trade-off versus a plain per-item stage: chunking pulls up to
    ``chunk_size`` items from upstream even when the run's limit needs
    fewer, so opt in where batching matters more than strict zero
    over-pull (the default construction graph stays per-item).
    """

    def __init__(self, stage: BatchStage, chunk_size: int = 32) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.stage = stage
        self.name = stage.name
        self.chunk_size = chunk_size

    def process(self, items: Iterator, ctx: StageContext) -> Iterator:
        begin = getattr(self.stage, "begin", None)
        if begin is not None:
            begin(ctx)
        for chunk in iter_chunks(items, self.chunk_size):
            yield from self.stage.process_batch(chunk, ctx)


def stage_from(obj: Stage | Callable, name: str | None = None) -> Stage:
    """Coerce a stage or bare callable into a :class:`Stage`."""
    if callable(obj) and not hasattr(obj, "process"):
        return FunctionStage(obj, name=name)
    if name is not None and getattr(obj, "name", None) != name:
        obj.name = name  # type: ignore[union-attr]
    return obj  # type: ignore[return-value]
