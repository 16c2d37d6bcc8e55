#!/usr/bin/env python3
"""The GitTables life-cycle benchmark: ``grow``, ``read`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grow --seed 1 --seconds 15 --trace 0

It imports the program from ``src/`` (nothing is installed), works in
``.perfbench_work/`` under the checkout and removes it afterwards,
prints a stamped human-readable report, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the measured rounds are replayed untraced and then with
every layer wrapped (see ``spans.py``), and the metrics are the
per-layer ones, including the tracing overhead. See ``README.md`` in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import NOMINAL_S, probe  # noqa: E402
from spans import Tracer, covered_seconds, install_layers, layer_names  # noqa: E402

#: End-to-end metrics, reported by every workload from its own phases.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "latency_ms": "ms",
}

#: Extra per-layer counts beyond every layer's ``calls`` and ``self_s``.
LAYER_COUNTS = {
    "github.files_fetched": "count",
    "sniffer.bytes_sniffed": "B",
    "parser.rows_parsed": "count",
    "filtering.kept_share": "share",
    "curation.tables_curated": "count",
    "anonymize.columns_scrubbed": "count",
    "annotation.columns_annotated": "count",
    "embeddings.embed.texts": "count",
    "embeddings.embed.texts_per_build": "count",
    "embeddings.embed.texts_per_extend": "count",
    "embeddings.embed.cold_start_texts": "count",
    "embeddings.score.rows_per_query": "count",
    "embeddings.score.candidate_fraction": "share",
    "sharded.write.fsyncs_per_commit": "count",
    "sharded.write.bytes_per_table": "B",
    "sharded.write.store_bytes_per_table": "B",
    "sharded.read.decodes_per_get": "count",
    "sharded.read.decodes_per_scanned_table": "count",
    "sharded.read.get_cache_misses": "count",
    "artifacts.bytes_published": "B",
    "artifacts.bytes_loaded": "B",
    "compaction.bytes_rewritten": "B",
    "compaction.files_swept": "count",
    "compaction.fsyncs": "count",
    "serving.requests": "count",
    "serving.requests_per_batch": "count",
    "serving.batches_size_1": "count",
    "serving.batches_size_2": "count",
    "serving.batches_size_3_4": "count",
    "serving.batches_size_5_plus": "count",
    "serving.rejections": "count",
    "serving.expired_or_failed": "count",
    "serving.reloads": "count",
    "serving.respawns": "count",
    "serving.p99_ms": "ms",
    "loadgen.lateness_p50_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.cpu_s": "s",
    "loadgen.wall_s": "s",
    "trace.phase_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in layer_names():
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
    names.update(LAYER_COUNTS)
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tracing_overhead(workload, traced, untraced) -> float:
    """Seconds the tracer added to a replay of the measured rounds.

    ``traced`` and ``untraced`` are the two replays' phase totals. Where
    the phases do a fixed amount of work this is the difference of their
    host-corrected times (the host's speed drifts between the replays by
    more than the tracer costs), in the traced replay's wall seconds.
    Serve's phases end at a deadline or on a schedule, so their wall
    time cannot grow; there the tracer's cost is the extra CPU time of
    this process per completed request, times the requests.
    """
    if not workload.fixed_duration:
        added = sum(traced.corrected.values()) - sum(untraced.corrected.values())
        return added * traced.slowness()
    per_request = traced.cpu_s / traced.ops - untraced.cpu_s / untraced.ops
    return per_request * traced.ops


def layer_metrics(tracer, workload, traced_s: float, overhead_s: float) -> dict[str, float]:
    """Fold the tracer's aggregates into the per-layer metric values."""
    counts, inclusive, calls = tracer.counts, tracer.inclusive, tracer.name_calls
    values = {name: 0.0 for name in per_layer_names()}
    serving = getattr(workload, "serving", None)
    if serving is not None:
        # Requests run in the worker process, out of the wrappers' reach:
        # the serving layer owns the time any request is in flight, and
        # the generator the time it ran its own code or slept on its
        # schedule while none was. Whatever neither covers stays
        # unattributed.
        busy = covered_seconds(serving["intervals"])
        tracer.add_span("serving", busy, calls=len(serving["intervals"]))
        spans = serving["generator_spans"]
        tracer.add_span("loadgen", covered_seconds(serving["intervals"] + spans) - busy,
                        calls=len(spans))
    for layer in layer_names():
        values[f"{layer}.calls"] = float(tracer.calls.get(layer, 0))
        values[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)

    def within(name: str, key: str) -> float:
        return inclusive.get((name, key), 0.0)

    texts = "embeddings.embed.texts"
    values.update({
        "github.files_fetched": counts["github.files_fetched"],
        "sniffer.bytes_sniffed": counts["sniffer.bytes_sniffed"],
        "parser.rows_parsed": counts["parser.rows_parsed"],
        "filtering.kept_share": _ratio(counts["filtering.kept"], counts["filtering.evaluated"]),
        "curation.tables_curated": counts["curation.curated"],
        "anonymize.columns_scrubbed": counts["anonymize.columns_scrubbed"],
        "annotation.columns_annotated": counts["annotation.columns_annotated"],
        texts: counts[texts],
        "embeddings.embed.texts_per_build": _ratio(
            within("GitTables.build", texts) + within("GitTables.warm", texts),
            calls.get("GitTables.build", 0),
        ),
        "embeddings.embed.texts_per_extend": _ratio(
            within("GitTables.extend", texts), calls.get("GitTables.extend", 0)
        ),
        "embeddings.score.rows_per_query": _ratio(
            counts["embeddings.score.rows_scored"], counts["embeddings.score.queries"]
        ),
        "sharded.write.fsyncs_per_commit": _ratio(
            within("ShardedCorpusWriter.commit", "fsync"),
            calls.get("ShardedCorpusWriter.commit", 0),
        ),
        "sharded.write.bytes_per_table": _ratio(
            counts["sharded.write.bytes_written"], counts["sharded.write.tables_added"]
        ),
        "sharded.read.decodes_per_get": _ratio(
            within("ShardedJsonlStore.get", "decode"), calls.get("ShardedJsonlStore.get", 0)
        ),
        "sharded.read.decodes_per_scanned_table": _ratio(
            within("ShardedJsonlStore.__iter__", "decode"),
            counts["ShardedJsonlStore.__iter__.yielded"],
        ),
        "sharded.read.get_cache_misses": counts["sharded.read.get_cache_misses"],
        "artifacts.bytes_published": counts["artifacts.bytes_published"],
        "artifacts.bytes_loaded": counts["artifacts.bytes_loaded"],
        "compaction.bytes_rewritten": counts["compaction.bytes_rewritten"],
        "compaction.files_swept": counts["compaction.files_swept"],
        "compaction.fsyncs": within("compact_store", "fsync"),
    })
    values["embeddings.embed.cold_start_texts"] = _ratio(
        within("GitTables.load", texts) + within("GitTables.warm", texts),
        calls.get("GitTables.load", 0),
    )
    index_stats = getattr(workload, "last_index_stats", None)
    if index_stats:
        fractions = [
            stats["mean_candidate_fraction"]
            for stats in index_stats.values()
            if stats.get("tier") == "partitioned"
        ]
        if fractions:
            values["embeddings.score.candidate_fraction"] = statistics.fmean(fractions)
    if serving is not None:
        histogram = serving["histogram"]
        values.update({
            "serving.requests": serving["requests"],
            "serving.requests_per_batch": _ratio(serving["requests"], serving["batches"]),
            "serving.batches_size_1": histogram.get(1, 0),
            "serving.batches_size_2": histogram.get(2, 0),
            "serving.batches_size_3_4": histogram.get(4, 0),
            "serving.batches_size_5_plus": sum(
                number for bucket, number in histogram.items() if bucket > 4
            ),
            "serving.rejections": serving["rejections"],
            "serving.expired_or_failed": serving["expired"] + serving["failed"],
            "serving.reloads": serving["reloads"],
            "serving.respawns": serving["respawns"],
            "serving.p99_ms": serving["p99_ms"],
        })
        values.update({f"loadgen.{key}": value for key, value in workload.loadgen.items()})
    attributed = tracer.attributed_s()
    values.update({
        "trace.phase_s": traced_s,
        "trace.overhead_s": overhead_s,
        "trace.attributed_s": attributed,
        "trace.unattributed_s": traced_s - attributed,
    })
    return values


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_build() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def host_slowness() -> float:
    """The host's slowness right now: probe time over the reference host's.

    Stamped before and after the run. Grow and read divide their phase
    times by the slowness sampled around the phases (see
    ``hostspeed.py``); serve's figures are reported as measured.
    """
    return statistics.median(probe() for _ in range(20)) / NOMINAL_S


def stamp(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_build(),
        "git_sha": git_sha(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grow", "read", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import numpy

    from workloads import WORKLOADS, max_rss_mb

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Untraced runs wrap only embed_many, whose tally the output checks
    # read; the tracer records nothing until a traced replay enables it.
    tracer = Tracer()
    install_layers(tracer, ["embeddings.embed"])
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    header = stamp(args, numpy.__version__)
    header["host_slowness_before"] = host_slowness()
    try:
        workload.setup()
        # A traced run replays its rounds twice more, so it measures for
        # half as long; per-layer figures need no long sample.
        measured = workload.measure(args.seconds / 2 if args.trace else args.seconds)
        rss = max_rss_mb()
        if hasattr(workload, "worker_rss_mb"):
            rss += workload.worker_rss_mb()
        if args.trace:
            untraced = workload.replay(None)
            install_layers(tracer)
            traced = workload.replay(tracer)
            values = layer_metrics(tracer, workload, traced.total_s,
                                   tracing_overhead(workload, traced, untraced))
            values["sharded.write.store_bytes_per_table"] = (
                measured["detail"]["store_bytes_per_table"][0]
            )
            units = per_layer_names()
            header["tracing_overhead_s"] = values["trace.overhead_s"]
        else:
            values = {
                "setup_s": statistics.median(workload.setup_s),
                "peak_rss_mb": rss,
                "ops_per_s": measured["ops_per_s"][0],
                "latency_ms": measured["latency_ms"][0],
            }
            units = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    header["host_slowness_after"] = host_slowness()
    if hasattr(workload, "slowness"):
        header["phase_slowness"] = workload.slowness
    print("stamp " + json.dumps(header, sort_keys=True))
    for name, (value, unit) in measured["detail"].items():
        print(f"{args.workload:6s} {name:28s} {value:14.4f} {unit}")
    print(f"{args.workload:6s} {'setup_s (each)':28s} "
          + " ".join(f"{value:.3f}" for value in workload.setup_s) + " s")
    print(f"{args.workload:6s} {'failed_share':28s} "
          f"{workload.failed / max(1, workload.attempted):14.6f} share")
    for failure in workload.failures:
        print(f"{args.workload:6s} FAILED CHECK: {failure}")
    result = {
        "correct": workload.failed == 0,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
