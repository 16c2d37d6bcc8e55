"""Shared experiment context: corpora built once, reused everywhere.

Building a GitTables corpus is the expensive step of every experiment, so
the context caches one corpus (plus the synthetic VizNet contrast corpus
and the T2Dv2 benchmark) per scale. Scales:

* ``"small"`` — fast, used by the test suite (~100 tables),
* ``"default"`` — the standard experiment scale (~400 tables),
* ``"large"`` — used by the benchmark harness when more statistical
  stability is wanted (~1200 tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import GitTables
from ..benchdata.t2dv2 import T2Dv2Benchmark, build_t2dv2
from ..benchdata.webtables import WebTableConfig, build_webtables_corpus
from ..config import PipelineConfig
from ..core.corpus import GitTablesCorpus
from ..core.pipeline import CorpusBuilder, PipelineResult
from ..github.content import GeneratorConfig

__all__ = ["ExperimentContext", "get_context", "clear_context_cache"]

_SCALES = ("small", "default", "large")


@dataclass
class ExperimentContext:
    """Lazily built corpora shared by the experiment drivers.

    With ``store_dir`` set, the GitTables corpus is built *into a
    resumable sharded on-disk store* (one subdirectory per
    (scale, seed)) instead of memory: an interrupted build resumes from
    its manifest, a finished store is reused as-is by later processes,
    and the drivers iterate the lazy store without materializing the
    table list.
    """

    scale: str = "default"
    seed: int = 20230530
    #: Optional directory for persistent, resumable corpus storage.
    store_dir: str | None = None
    #: Worker processes for the corpus build (default 1, must be >= 1;
    #: see :meth:`~repro.core.pipeline.CorpusBuilder.build`). Only a
    #: store-backed build fans out; an in-memory build runs in-process.
    #: Content-neutral: any process count yields byte-identical stores,
    #: so cached/shared store directories stay interchangeable.
    processes: int = 1
    _pipeline_result: PipelineResult | None = field(default=None, repr=False)
    _session: GitTables | None = field(default=None, repr=False)
    _viznet: GitTablesCorpus | None = field(default=None, repr=False)
    _t2dv2: T2Dv2Benchmark | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; expected one of {_SCALES}")

    # -- configuration per scale -------------------------------------------

    def pipeline_config(self) -> PipelineConfig:
        if self.scale == "small":
            return PipelineConfig.small(seed=self.seed)
        if self.scale == "large":
            return PipelineConfig.large(seed=self.seed)
        return PipelineConfig.default(seed=self.seed)

    def generator_config(self) -> GeneratorConfig | None:
        if self.scale == "small":
            return GeneratorConfig(n_repositories=250, mean_rows=60, mean_cols=10, seed=self.seed)
        return None

    def webtable_config(self) -> WebTableConfig:
        if self.scale == "small":
            return WebTableConfig(n_tables=120, seed=self.seed)
        if self.scale == "large":
            return WebTableConfig(n_tables=800, seed=self.seed)
        return WebTableConfig(n_tables=300, seed=self.seed)

    # -- cached artefacts -----------------------------------------------------

    def corpus_store_dir(self) -> str | None:
        """Where this context's sharded corpus lives (None = in memory)."""
        if self.store_dir is None:
            return None
        import os

        return os.path.join(self.store_dir, f"gittables-{self.scale}-seed{self.seed}")

    @property
    def pipeline_result(self) -> PipelineResult:
        """The GitTables construction run (corpus + stage reports)."""
        if self._pipeline_result is None:
            self._pipeline_result = CorpusBuilder(
                self.pipeline_config(), generator_config=self.generator_config()
            ).build(store_dir=self.corpus_store_dir(), processes=self.processes)
        return self._pipeline_result

    @property
    def gittables(self) -> GitTablesCorpus:
        """The constructed GitTables corpus."""
        return self.pipeline_result.corpus

    @property
    def session(self) -> GitTables:
        """The :class:`~repro.api.GitTables` facade over the corpus.

        Shared across all experiment drivers of this context, so the
        embedding cache, the search/completion indexes and the KG
        benchmark are built at most once per scale. A store-backed
        corpus owns its persistent artifacts, so those indexes are built
        at most once per *store directory* — later processes mmap the
        published artifacts.
        """
        if self._session is None:
            self._session = GitTables.from_result(self.pipeline_result, config=self.pipeline_config())
        return self._session

    def gittables_projection(self):
        """The columnar stats projection of the GitTables corpus.

        Resolved through :func:`~repro.storage.columnar.ensure_projection`:
        an already-attached projection wins, store-backed contexts mmap
        the artifact a first statistics call published, and only a miss
        (or an in-memory corpus) triggers a full scan. Every statistic
        is computed on this projection; the per-table scan it is tested
        against lives in ``tests/stats_oracle.py``.
        """
        from ..storage.columnar import ensure_projection

        return ensure_projection(self.gittables)

    def viznet_projection(self):
        """The columnar stats projection of the contrast corpus (in memory)."""
        from ..storage.columnar import ensure_projection

        return ensure_projection(self.viznet)

    @property
    def viznet(self) -> GitTablesCorpus:
        """The synthetic VizNet/Web-table contrast corpus."""
        if self._viznet is None:
            self._viznet = build_webtables_corpus(self.webtable_config())
        return self._viznet

    @property
    def t2dv2(self) -> T2Dv2Benchmark:
        """The synthetic T2Dv2 gold standard."""
        if self._t2dv2 is None:
            n_tables = {"small": 40, "default": 60, "large": 120}[self.scale]
            self._t2dv2 = build_t2dv2(n_tables=n_tables, seed=self.seed)
        return self._t2dv2


_CONTEXT_CACHE: dict[tuple[str, int, str | None], ExperimentContext] = {}


def get_context(
    scale: str = "default",
    seed: int = 20230530,
    store_dir: str | None = None,
    processes: int = 1,
) -> ExperimentContext:
    """Return the cached context for (scale, seed), building it lazily.

    ``store_dir`` opts the context into persistent sharded corpus
    storage (resumable builds, lazy loading; see
    :class:`ExperimentContext`); ``processes`` > 1 runs that store
    build process-parallel. The cache key deliberately excludes
    ``processes`` — the stores are byte-identical either way, so a
    context built with any process count is reusable by all.
    """
    key = (scale, seed, store_dir)
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = ExperimentContext(
            scale=scale, seed=seed, store_dir=store_dir, processes=processes
        )
    return _CONTEXT_CACHE[key]


def clear_context_cache() -> None:
    """Drop all cached contexts (used by tests that need isolation)."""
    _CONTEXT_CACHE.clear()
