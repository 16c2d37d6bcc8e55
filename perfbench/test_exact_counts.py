"""The benchmark's own tests: seeded inputs and exact counts repeat.

Run from the checkout root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench -q

The counts a later change may claim as evidence — bytes stored per
table, fsyncs per commit, texts embedded per build and per extension,
bytes written per table, decodes per get and per scanned table — must
read exactly the same on two runs with one seed, while wall time moves.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from repro import GitTables  # noqa: E402
from repro.github import ContentGenerator  # noqa: E402
from spans import Tracer, covered_seconds, install_layers  # noqa: E402

#: A small grow round: build, three extensions, compaction.
TABLES = 12


@pytest.fixture(scope="module")
def tracer():
    tracer = Tracer()
    install_layers(tracer)
    return tracer


def _content_digest(instance: int) -> str:
    generator, _ = workloads.Grow(7, Path("."), None)._config(instance, TABLES)
    digest = hashlib.sha256()
    for repository in ContentGenerator(generator).generate_repositories():
        digest.update(repr(repository).encode("utf-8"))
    return digest.hexdigest()


def test_generated_inputs_repeat_for_a_seed_and_differ_across_seeds():
    # The pool's content is generated afresh identically...
    assert _content_digest(0) == _content_digest(0)
    assert _content_digest(0) != _content_digest(1)
    # ...and the seed decides the rounds run over it.
    plan = workloads.Grow(7, Path("."), None).plan(3)
    assert plan == workloads.Grow(7, Path("."), None).plan(3)
    assert plan != workloads.Grow(8, Path("."), None).plan(3)
    # ...but not how much work is done: every instance gets every pass.
    assert sorted(instance for instance, _ in plan) == sorted(
        list(range(workloads.GROW_POOL)) * 3)
    assert all(sum(steps) == workloads.GROW_APPENDED and min(steps) > 0 for _, steps in plan)


def _grow_counts(tracer: Tracer, seed: int, workdir: Path) -> tuple[dict, dict]:
    tracer.reset()
    grow = workloads.Grow(seed, workdir, tracer)
    grow.setup()
    record = workloads.grow_record()
    instance, steps = grow.plan(1)[0]
    grow._round(instance, steps, workloads.Phases(tracer, correct=False), TABLES, record)
    assert grow.failed == 0, grow.failures
    values = run.layer_metrics(tracer, grow, traced_s=1.0, overhead_s=0.0)
    exact = {
        name: values[name]
        for name in (
            "sharded.write.fsyncs_per_commit",
            "sharded.write.bytes_per_table",
            "embeddings.embed.texts_per_build",
            "embeddings.embed.texts_per_extend",
            "sniffer.calls",
            "github.files_fetched",
            "compaction.bytes_rewritten",
        )
    }
    exact["store_bytes_per_table"] = record["store_bytes"] / record["stored_tables"]
    return exact, dict(tracer.self_s)


def test_grow_counts_are_exact(tracer, tmp_path):
    first, _ = _grow_counts(tracer, 3, tmp_path / "a")
    second, _ = _grow_counts(tracer, 3, tmp_path / "b")
    assert first == second
    assert first["sharded.write.fsyncs_per_commit"] > 0
    assert first["embeddings.embed.texts_per_extend"] > 0
    other, _ = _grow_counts(tracer, 4, tmp_path / "c")
    assert other != first


def _read_counts(tracer: Tracer, store: Path, seed: int) -> dict:
    tracer.reset()
    tracer.enabled = True
    try:
        session = GitTables.load(store)
        scanned = [annotated.table_id for annotated in session.corpus]
        rng = random.Random(seed)
        for _ in range(25):
            session.corpus.get(rng.choice(scanned))
    finally:
        tracer.enabled = False
    values = run.layer_metrics(tracer, None, traced_s=1.0, overhead_s=0.0)
    return {
        name: values[name]
        for name in ("sharded.read.decodes_per_get", "sharded.read.decodes_per_scanned_table",
                     "sharded.read.get_cache_misses", "sharded.decode.calls")
    }


def test_read_counts_are_exact(tracer, tmp_path):
    from repro import PipelineConfig

    store = tmp_path / "store"
    GitTables.build(PipelineConfig.small(seed=5).replace(target_tables=20),
                    store_dir=store, shard_size=2, processes=1)
    first = _read_counts(tracer, store, 1)
    assert first == _read_counts(tracer, store, 1)
    assert first["sharded.read.decodes_per_scanned_table"] == 1.0
    assert first["sharded.read.decodes_per_get"] > 0


def test_covered_seconds_merges_overlaps():
    assert covered_seconds([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered_seconds([]) == 0.0


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_serve_attribution_is_measured_not_derived():
    from types import SimpleNamespace

    serving = {"intervals": [(0.0, 1.0), (2.0, 3.0)], "generator_spans": [(0.5, 1.5)],
               "histogram": {1: 2}, "requests": 2, "batches": 2, "rejections": 0,
               "expired": 0, "failed": 0, "reloads": 0, "respawns": 0, "p99_ms": 1.0}
    loadgen = {"lateness_p50_ms": 0.1, "lateness_p99_ms": 0.2, "cpu_s": 0.1, "wall_s": 4.0}
    workload = SimpleNamespace(serving=serving, loadgen=loadgen)
    values = run.layer_metrics(Tracer(), workload, traced_s=4.0, overhead_s=0.0)
    assert values["serving.self_s"] == pytest.approx(2.0)
    # The generator ran only 0.5 s while nothing was in flight; the
    # other 1.5 s of the phase belongs to no layer.
    assert values["loadgen.self_s"] == pytest.approx(0.5)
    assert values["trace.unattributed_s"] == pytest.approx(1.5)


def test_fixed_duration_overhead_is_cpu_per_request():
    from types import SimpleNamespace

    traced = SimpleNamespace(total_s=10.0, cpu_s=3.0, ops=1000, corrected={"build": 5.0},
                             slowness=lambda: 2.0)
    untraced = SimpleNamespace(total_s=10.0, cpu_s=2.4, ops=1200, corrected={"build": 4.5})
    serve = SimpleNamespace(fixed_duration=True)
    assert run.tracing_overhead(serve, traced, untraced) == pytest.approx(1.0)
    # Equal wall times, but the host was slower during the untraced
    # replay: the tracer's cost is the corrected difference, in traced
    # wall seconds.
    grow = SimpleNamespace(fixed_duration=False)
    assert run.tracing_overhead(grow, traced, untraced) == pytest.approx(1.0)


def test_host_correction_divides_each_call_by_the_slowness_around_it(monkeypatch):
    import hostspeed

    # The host runs the probe at twice its reference time, then at the
    # reference time: calls made in the slow stretch count for half.
    readings = iter([2 * hostspeed.NOMINAL_S] * 2 + [hostspeed.NOMINAL_S] * 3)
    monkeypatch.setattr(hostspeed, "probe", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", 0.0)
    monkeypatch.setattr(hostspeed, "WINDOW_S", 0.0)
    phases = hostspeed.Phases()
    _, slow = phases.timed("slow", lambda: sum(range(100_000)))
    _, fast = phases.timed("fast", lambda: sum(range(100_000)))
    phases.finish()
    assert phases.corrected["slow"] == pytest.approx(slow / 2)
    assert phases.corrected["fast"] == pytest.approx(fast)
    assert not hostspeed.Phases(correct=False).finish().corrected
