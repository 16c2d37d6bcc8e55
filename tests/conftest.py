"""Shared pytest fixtures.

Expensive artefacts (the small GitTables corpus, the VizNet contrast
corpus, the T2Dv2 benchmark) are session-scoped and shared through the
experiment context so the whole suite builds them exactly once.

Also home of the crash-injection helpers for the process-parallel build
harness: :func:`kill_at` builds a
:class:`~repro.storage.parallel.FaultSpec` that SIGKILLs a chosen
worker (or the coordinator) at a precise commit point, and
:func:`run_parallel_build_subprocess` runs a whole parallel build in a
child process so coordinator-side kills don't take the test runner
down with them.

It also fixes the Hypothesis policy. The default ``tier1`` profile is
derandomised and keeps no example database, so every property draws the
same examples on every run and an unchanged tree cannot turn red by
drawing a new counter-example; counter-examples that were found are
pinned with ``@example``. The ``explore`` profile draws fresh random
examples: ``tests/test_hypothesis_explore.py`` (marked ``slow``) runs
every property module under it, and ``--hypothesis-profile=explore``
selects it for any run.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro._procs import build_mp_context
from repro.config import PipelineConfig
from repro.core.pipeline import CorpusBuilder
from repro.dataframe.table import Table
from repro.experiments.context import get_context
from repro.github.content import GeneratorConfig
from repro.github.instance import build_instance
from repro.storage.parallel import FaultSpec, ParallelCorpusBuilder

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def kill_at(commit_n: int, worker: int | None = 0, point: str = "before-log-append") -> FaultSpec:
    """A fault injector: SIGKILL ``worker`` at its ``commit_n``-th commit.

    ``point`` selects the precise instant within the commit (see
    :class:`~repro.storage.parallel.FaultSpec`); ``worker=None`` targets
    the coordinator's finalize points instead.
    """
    return FaultSpec(worker=worker, commit_n=commit_n, point=point)


def _parallel_build_entry(
    store_dir, config, generator_config, processes, fault, batch_size, shard_size, extend=False
):
    builder = CorpusBuilder(config=config, generator_config=generator_config, batch_size=batch_size)
    ParallelCorpusBuilder(builder, processes=processes, fault=fault).build(
        store_dir, shard_size=shard_size, extend=extend
    )


def run_parallel_build_subprocess(
    store_dir,
    config,
    generator_config,
    processes: int,
    fault: FaultSpec | None = None,
    batch_size: int = 8,
    shard_size: int = 8,
    timeout: float = 180.0,
    extend: bool = False,
):
    """Run one parallel build in a child process and return the Process.

    Coordinator-targeted :class:`FaultSpec`s SIGKILL the process running
    the build, so tests drive those scenarios through this wrapper: the
    child dies (exitcode ``-SIGKILL``) and the pytest process survives
    to assert on the wreckage and resume the build.
    """
    ctx = build_mp_context()
    process = ctx.Process(
        target=_parallel_build_entry,
        args=(
            str(store_dir),
            config,
            generator_config,
            processes,
            fault,
            batch_size,
            shard_size,
            extend,
        ),
    )
    process.start()
    process.join(timeout=timeout)
    if process.is_alive():  # pragma: no cover - hung build
        process.terminate()
        process.join(timeout=10.0)
        raise AssertionError("parallel build subprocess did not finish in time")
    return process


def _compaction_entry(store_dir, shard_size, fault):
    from repro.storage.compaction import compact_store

    compact_store(store_dir, shard_size=shard_size, fault=fault)


def run_compaction_subprocess(
    store_dir, shard_size=None, fault: FaultSpec | None = None, timeout: float = 120.0
):
    """Run one :func:`compact_store` in a child process; return the Process.

    Compaction runs in the calling process, so SIGKILL fault points
    (``before-shard-publish`` / ``before-manifest-publish`` /
    ``before-sweep``) would take the test runner down; this wrapper lets
    the child die (exitcode ``-SIGKILL``) while pytest survives to
    assert on the wreckage and re-run the compaction.
    """
    ctx = build_mp_context()
    process = ctx.Process(target=_compaction_entry, args=(str(store_dir), shard_size, fault))
    process.start()
    process.join(timeout=timeout)
    if process.is_alive():  # pragma: no cover - hung compaction
        process.terminate()
        process.join(timeout=10.0)
        raise AssertionError("compaction subprocess did not finish in time")
    return process


@pytest.fixture()
def fault_injector():
    """The :func:`kill_at` fault-spec factory, as a fixture."""
    return kill_at


@pytest.fixture()
def compaction_subprocess():
    """The :func:`run_compaction_subprocess` wrapper, as a fixture."""
    return run_compaction_subprocess


@pytest.fixture()
def parallel_build_subprocess():
    """The :func:`run_parallel_build_subprocess` wrapper, as a fixture."""
    return run_parallel_build_subprocess


@pytest.fixture()
def parallel_build_entry():
    """The raw child-process build entry point (for custom kill timing)."""
    return _parallel_build_entry


@pytest.fixture(scope="session")
def context():
    """The shared small-scale experiment context."""
    return get_context(scale="small")


@pytest.fixture(scope="session")
def gittables_corpus(context):
    """A small GitTables corpus built through the full pipeline."""
    return context.gittables


@pytest.fixture(scope="session")
def pipeline_result(context):
    """The pipeline result (corpus + stage reports) for the small corpus."""
    return context.pipeline_result


@pytest.fixture(scope="session")
def viznet_corpus(context):
    """The synthetic VizNet/Web-table contrast corpus."""
    return context.viznet


@pytest.fixture(scope="session")
def t2dv2_benchmark(context):
    """The synthetic T2Dv2 gold standard."""
    return context.t2dv2


@pytest.fixture(scope="session")
def github_instance():
    """A small synthetic GitHub instance (independent of the corpus)."""
    return build_instance(GeneratorConfig.small(seed=99))


@pytest.fixture()
def small_config():
    """A fresh small pipeline configuration."""
    return PipelineConfig.small()


@pytest.fixture()
def orders_table():
    """A hand-written order table used across unit tests."""
    return Table(
        header=["order_id", "order_date", "status", "quantity", "total_price", "customer_email"],
        rows=[
            ["1001", "2021-03-01", "SHIPPED", "4", "25.99", "alice@example.com"],
            ["1002", "2021-03-02", "PENDING", "1", "7.50", "bob@example.com"],
            ["1003", "2021-03-05", "SHIPPED", "2", "12.00", "carol@example.com"],
            ["1004", "2021-03-07", "CANCELLED", "8", "80.10", "dave@example.com"],
        ],
        table_id="unit-test-orders",
        metadata={"license": "mit", "topic": "order"},
    )


@pytest.fixture()
def people_table():
    """A hand-written person table with PII columns."""
    return Table(
        header=["id", "name", "email", "birth date", "city"],
        rows=[
            ["1", "Ada Lovelace", "ada@example.com", "1815-12-10", "London"],
            ["2", "Alan Turing", "alan@example.com", "1912-06-23", "London"],
            ["3", "Grace Hopper", "grace@example.com", "1906-12-09", "New York"],
        ],
        table_id="unit-test-people",
        metadata={"license": "mit"},
    )
