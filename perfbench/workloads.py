"""The three life-cycle workloads: ``grow``, ``read`` and ``serve``.

Every workload drives the program through the public ``repro`` API
only, makes its inputs from the seed it is given, times only its own
phases, and checks the outputs it gets. A workload object is used in
three steps:

1. ``setup()`` — input generation and store preparation, repeated a few
   times (``setup_s`` is the median of the repetitions; grow generates
   each pool instance as its first round needs it);
2. ``measure(seconds)`` — the workload's phases after a discarded
   warm-up, for about ``seconds`` of phase time;
3. ``replay(tracer)`` — in a traced run only: the very same rounds
   again, once untraced and once with the tracer recording. Both
   replays see equally warm caches, so comparing them gives the tracing
   overhead.

Sizes and the serve workload's open-loop rate are constants here, never
derived at run time, so a slower program shows as a lower number.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import threading
import time
from pathlib import Path

from repro import GitTables, PipelineConfig, ServingConfig
from repro.config import IndexConfig
from repro.github import GeneratorConfig, build_instance
from repro.storage import ShardedJsonlStore
from repro.storage.columnar import TablePredicate

from hostspeed import Phases

#: Synthetic files generated per wanted table (only ~1 in 8 survives
#: licensing and filtering; the margin keeps every target reachable).
FILES_PER_TABLE = 10

#: Every workload works on a fixed pool of synthetic instances; the seed
#: draws what is done with them (grow: the order of the rounds and how
#: each round's appended tables split into extension epochs; read and
#: serve: the ids, queries, prefixes and request mix). Table sizes are
#: heavy-tailed (lognormal rows, up to 12 000), so content drawn per
#: seed let a few large tables, not the program, decide a run's speed:
#: one grow seed in five was 30 % slower than the others, on every
#: repetition.
DATASET_SEED = 20230530

# grow: rounds over a pool of GROW_POOL instances. A round builds
# GROW_TABLES tables of one instance, extends them in GROW_STEPS epochs
# adding GROW_APPENDED tables in all, and compacts; every instance gets
# the same number of rounds, so every seed does the same work. A pass
# (one round per instance) takes about GROW_PASS_S seconds of phase time
# on a 2-vCPU machine.
GROW_POOL = 4
GROW_TABLES = 30
GROW_APPENDED = 30
GROW_STEPS = 3
GROW_PASS_S = 8.0
GROW_SHARD_SIZE = 16
GROW_COMPACT_SHARD_SIZE = 64

# read: READ_STORES stores of READ_TABLES tables in shards of
# READ_SHARD_SIZE, i.e. 20 shards per store against the default
# cache_shards=2. The partitioned ANN tier is switched on through the
# public min_rows gate (the default 10 000-row gate is out of reach);
# 16 partitions keep the default nprobe=8 from probing nearly every row.
READ_STORES = 3
READ_TABLES = 80
READ_SHARD_SIZE = 4
READ_INDEX = IndexConfig(min_rows=64, n_partitions=16)
# Per round; sized so that each timed phase adds up to seconds in a run.
READ_COLD_STARTS = 2
READ_GETS = 20
READ_BATCH = 64
READ_COMPLETIONS = 16

# serve: SERVE_STORES stores of SERVE_TABLES tables at the default shard
# size and flat index, each behind one worker process.
SERVE_STORES = 2
SERVE_TABLES = 80
SERVE_CLIENTS = 2
#: Open-loop arrival rate (requests/s): a quarter to a third of the
#: closed-loop capacity (510-690 requests/s) measured on a 2-vCPU
#: machine when the workload was written.
SERVE_RATE = 170.0
SERVE_OPEN_REQUESTS = 600
SERVE_CHECK_SAMPLE = 40
SERVE_K = 10


TEXTS = "embeddings.embed.texts"


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def directory_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    return sum(
        (Path(root) / name).stat().st_size
        for root, _, names in os.walk(directory)
        for name in names
    )


def max_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def decoded_tables(store: Path) -> list[dict]:
    """Every table of a sealed store, decoded, in store order."""
    return [annotated.to_dict() for annotated in ShardedJsonlStore(store)]


class Workload:
    name = ""

    #: Phases end at a deadline or on a schedule rather than when their
    #: work is done, so tracing cost shows in CPU time, not wall time.
    fixed_duration = False

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Keeps the embedded-texts tally the output checks read; it
        #: records spans only in a traced replay.
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        """One output check; a failed check counts as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def setup(self) -> None:
        """Generate inputs and prepare stores (timed into ``setup_s``)."""

    def close(self) -> None:
        """Stop whatever the workload started."""


# -- grow --------------------------------------------------------------------


class Grow(Workload):
    """Continuing curation: build, warm, extend in epochs, compact."""

    name = "grow"

    def setup(self) -> None:
        # Each pool instance is generated as its first round needs it.
        self.generation = Phases()

    def plan(self, passes: int) -> list[tuple[int, list[int]]]:
        """The seeded rounds: ``passes`` rounds of every pool instance.

        A round is (pool instance, tables added by each extension). The
        seed draws the order of the instances and the split of each
        round's appended tables into epochs; an instance's rounds run one
        after another, so its content is generated once.
        """
        rng = random.Random(self.seed)
        order = list(range(GROW_POOL))
        rng.shuffle(order)
        rounds = []
        for instance in order:
            for _ in range(passes):
                steps = [rng.randint(7, 13) for _ in range(GROW_STEPS - 1)]
                rounds.append((instance, steps + [GROW_APPENDED - sum(steps)]))
        return rounds

    def _config(self, instance: int, tables: int):
        seed = _sub_seed(DATASET_SEED, 200 + instance)
        final = tables + GROW_APPENDED
        generator = GeneratorConfig(seed=seed).scaled_to_files(final * FILES_PER_TABLE)
        return generator, PipelineConfig(seed=seed, target_tables=tables)

    def _round(self, instance: int, steps: list[int], phases: Phases, tables: int,
               record: dict | None) -> None:
        # Content generation is input generation, so it is timed into
        # setup_s, not into the build; build_instance keeps the last
        # instance it made, so the build and every extend reuse it.
        generator, config = self._config(instance, tables)
        self.generation.timed(instance, build_instance, generator)
        store = self.workdir / f"grow-{instance}"
        shutil.rmtree(store, ignore_errors=True)

        def build_and_warm():
            session = GitTables.build(
                config,
                generator_config=generator,
                store_dir=store,
                shard_size=GROW_SHARD_SIZE,
                processes=1,
            )
            return session.warm()

        texts_before = self.tracer.tallies[TEXTS]
        session, _ = phases.timed("build", build_and_warm)
        build_texts = self.tracer.tallies[TEXTS] - texts_before
        self.attempted += 1
        self.check(len(session) == tables, f"build: {len(session)} tables != {tables}")
        expected = _schema_texts(session.corpus.iter_schemas())
        self.check(build_texts == expected, f"build embedded {build_texts} texts, expected {expected}")
        target = tables
        for step in steps:
            before = target
            target += step
            texts_before = self.tracer.tallies[TEXTS]
            phases.timed("extend", session.extend, target_tables=target,
                         shard_size=GROW_SHARD_SIZE)
            texts = self.tracer.tallies[TEXTS] - texts_before
            self.attempted += 1
            self.check(len(session) == target, f"extend: {len(session)} tables != {target}")
            expected = _schema_texts(session.corpus.iter_schemas(start=before))
            self.check(texts == expected, f"extend embedded {texts} texts, expected {expected}")
        # Outside the timed phase: decode every table before and after
        # compaction, so a rewrite that loses, reorders or alters tables
        # fails the check whatever the manifest says.
        tables_before = decoded_tables(store)
        fingerprint = ShardedJsonlStore(store).content_fingerprint()
        report, _ = phases.timed("compact", session.compact, shard_size=GROW_COMPACT_SHARD_SIZE)
        self.attempted += 1
        self.check(
            report["fingerprint"] == fingerprint
            and ShardedJsonlStore(store).content_fingerprint() == fingerprint,
            "compact changed content_fingerprint",
        )
        self.check(len(tables_before) == target, "the store does not hold every table")
        self.check(decoded_tables(store) == tables_before,
                   "compact changed the stored tables or their order")
        if record is not None:
            record["built"] += tables
            record["extended"] += target - tables
            record["steps"] += len(steps)
            record["store_bytes"] += directory_bytes(store)
            record["stored_tables"] += target
        shutil.rmtree(store, ignore_errors=True)

    def measure(self, seconds: float) -> dict:
        # Warm-up: one small round loads the lazily built ontologies,
        # lexicons and annotation state; its numbers are discarded.
        self._round(999, [10, 10, 10], Phases(correct=False), 12, None)
        self.generation = Phases()
        # The round count is fixed by the time asked for, never by the
        # speed measured, so a seed always gets the same inputs.
        self.rounds = self.plan(max(1, round(seconds / GROW_PASS_S)))
        record = grow_record()
        phases = Phases()
        for instance, steps in self.rounds:
            self._round(instance, steps, phases, GROW_TABLES, record)
        phases.finish()
        self.setup_s = list(self.generation.finish().corrected.values())
        self.slowness = phases.slowness()
        self.phase_s = phases.total_s
        # Work over host-corrected time, summed over every round.
        build_rate = record["built"] / phases.corrected["build"]
        extend_rate = record["extended"] / phases.corrected["extend"]
        step_ms = phases.corrected["extend"] / record["steps"] * 1000.0
        return {
            "ops_per_s": (_geomean([build_rate, extend_rate]), "1/s"),
            "latency_ms": (step_ms, "ms"),
            "detail": {
                "build_tables_per_s": (build_rate, "1/s"),
                "extend_tables_per_s": (extend_rate, "1/s"),
                "extend_step_mean_ms": (step_ms, "ms"),
                "ops_per_wall_s": (_geomean([record["built"] / phases.raw["build"],
                                             record["extended"] / phases.raw["extend"]]), "1/s"),
                "extend_step_wall_ms": (phases.raw["extend"] / record["steps"] * 1000.0, "ms"),
                "build_phase_s": (phases.raw["build"], "s"),
                "extend_phase_s": (phases.raw["extend"], "s"),
                "store_bytes_per_table": (record["store_bytes"] / record["stored_tables"], "B"),
                "rounds": (len(self.rounds), "count"),
            },
        }

    def replay(self, tracer) -> Phases:
        phases = Phases(tracer)
        for instance, steps in self.rounds:
            self._round(instance, steps, phases, GROW_TABLES, None)
        return phases.finish()


def grow_record() -> dict:
    """Totals of the grow workload's rounds, summed by ``_round``."""
    return {"built": 0, "extended": 0, "steps": 0, "store_bytes": 0, "stored_tables": 0}


def _schema_texts(schemas) -> int:
    """Texts the search and completion engines embed for these schemas.

    Search embeds every attribute of every schema; completion embeds the
    attributes of schemas at least ``min_schema_length`` (4) long.
    """
    total = 0
    for _, schema in schemas:
        total += len(schema) + (len(schema) if len(schema) >= 4 else 0)
    return total


# -- read --------------------------------------------------------------------


class Read(Workload):
    """An offline consumer of sealed stores: loads, scans, gets, queries."""

    name = "read"

    def setup(self) -> None:
        self.stores: list[Path] = []
        setup = Phases()
        for index in range(READ_STORES):
            seed = _sub_seed(DATASET_SEED, index)
            generator = GeneratorConfig(seed=seed).scaled_to_files(READ_TABLES * FILES_PER_TABLE)
            config = PipelineConfig(seed=seed, target_tables=READ_TABLES)
            store = self.workdir / f"read-{index}"
            # Timed step by step, so the host's speed is sampled between.
            setup.timed(index, build_instance, generator)
            session, _ = setup.timed(
                index,
                GitTables.build,
                config,
                generator_config=generator,
                store_dir=store,
                shard_size=READ_SHARD_SIZE,
                processes=1,
                index_config=READ_INDEX,
            )
            setup.timed(index, session.warm)
            setup.timed(index, session.columnar)
            self.stores.append(store)
        self.setup_s = list(setup.finish().corrected.values())
        self._inputs()

    def _inputs(self) -> None:
        """Seeded query, prefix and id streams over the stores' own schemas."""
        rng = random.Random(self.seed)
        self.ids: list[list[str]] = []
        self.queries: list[list[str]] = []
        self.prefixes: list[list[list[str]]] = []
        self.topics: list[list[str]] = []
        for store in self.stores:
            reader = ShardedJsonlStore(store)
            self.ids.append(list(reader.table_ids()))
            schemas = [annotated.table.schema for annotated in reader]
            self.queries.append([" ".join(rng.choice(schemas)[:3]) for _ in range(256)])
            long_enough = [schema for schema in schemas if len(schema) >= 3]
            self.prefixes.append(
                [list(rng.choice(long_enough)[: rng.randint(1, 3)]) for _ in range(256)]
            )
            self.topics.append(sorted({annotated.topic for annotated in reader}))

    def _round(self, round_index: int, phases: Phases, record: dict | None) -> None:
        slot = round_index % len(self.stores)
        store = self.stores[slot]
        rng = random.Random(_sub_seed(self.seed, round_index))
        queries = self.queries[slot]

        def cold_start():
            session = GitTables.load(store, index_config=READ_INDEX)
            session.warm()
            return session, self.tracer.tallies[TEXTS], session.search(queries[round_index % len(queries)])

        for _ in range(READ_COLD_STARTS):
            texts_before = self.tracer.tallies[TEXTS]
            (session, texts_warm, _), _ = phases.timed("cold_start", cold_start)
            self.attempted += 1
            self.check(texts_warm == texts_before, "cold start re-embedded the corpus")

        def scan():
            return [annotated for annotated in session.corpus]

        scanned, _ = phases.timed("scan", scan)
        self.attempted += len(scanned)
        wanted = [rng.choice(self.ids[slot]) for _ in range(READ_GETS)]
        got, _ = phases.timed("get", lambda: [session.corpus.get(table_id) for table_id in wanted])
        self.attempted += len(got)
        start = rng.randrange(len(queries) - READ_BATCH)
        batch = queries[start:start + READ_BATCH]
        answers, _ = phases.timed("search_batch", session.search_batch, batch, k=10)
        self.attempted += len(batch)
        prefixes = [
            self.prefixes[slot][rng.randrange(len(self.prefixes[slot]))]
            for _ in range(READ_COMPLETIONS)
        ]
        completions, _ = phases.timed(
            "complete", lambda: [session.complete_schema(prefix, k=10) for prefix in prefixes]
        )
        self.attempted += len(prefixes)
        # The corpus analyses feed only per-layer figures: one per round,
        # in turn.
        topic = self.topics[slot][round_index % len(self.topics[slot])]
        analysis = (
            session.stats,
            session.annotation_stats,
            lambda: session.corpus.filter(TablePredicate(topic=topic, min_rows=5)),
        )[round_index // len(self.stores) % 3]
        phases.timed("analysis", analysis)
        self.attempted += 1

        by_id = {annotated.table_id: annotated for annotated in scanned}
        self.check(
            [annotated.table_id for annotated in scanned] == self.ids[slot],
            "scan is not the manifest's tables in manifest order",
        )
        for table_id, annotated in zip(wanted, got):
            self.check(
                annotated is not None and annotated.to_dict() == by_id[table_id].to_dict(),
                f"get({table_id}) differs from the scanned table",
            )
        for query, answer in list(zip(batch, answers))[:4]:
            self.check(session.search(query, k=10) == answer, "search_batch != search")
        self.check(all(completions), "a completion came back empty")
        if record is not None:
            for phase, work in (
                ("cold_start", READ_COLD_STARTS), ("scan", len(scanned)), ("get", len(got)),
                ("search_batch", len(batch)), ("complete", len(prefixes)),
            ):
                record[phase] += work
        self.last_index_stats = session.index_stats()

    def measure(self, seconds: float) -> dict:
        warm = Phases(correct=False)
        for round_index in range(len(self.stores)):
            self._round(round_index, warm, None)
        #: phase -> operations, summed over the measured rounds.
        record = {phase: 0 for phase in READ_PHASES}
        phases = Phases()
        rounds = 0
        while phases.total_s < seconds:
            self._round(rounds, phases, record)
            rounds += 1
        phases.finish()
        self.rounds = rounds
        self.phase_s = phases.total_s
        self.slowness = phases.slowness()
        # Work over host-corrected time, summed over every round.
        detail = {
            f"{phase}_per_s": (work / phases.corrected[phase], "1/s")
            for phase, work in record.items() if phase != "cold_start"
        }
        detail["cold_start_mean_ms"] = (
            phases.corrected["cold_start"] / record["cold_start"] * 1000.0, "ms")
        detail["scan_tables_per_s"] = detail.pop("scan_per_s")
        for phase in record:
            detail[f"{phase}_phase_s"] = (phases.raw[phase], "s")
        detail["rounds"] = (rounds, "count")
        detail["ops_per_wall_s"] = (_geomean([
            record[phase] / phases.raw[phase]
            for phase in ("scan", "get", "search_batch", "complete")
        ]), "1/s")
        detail["cold_start_wall_ms"] = (
            phases.raw["cold_start"] / record["cold_start"] * 1000.0, "ms")
        stored = sum(directory_bytes(store) for store in self.stores)
        detail["store_bytes_per_table"] = (stored / (READ_TABLES * len(self.stores)), "B")
        rates = [detail[name][0] for name in
                 ("scan_tables_per_s", "get_per_s", "search_batch_per_s", "complete_per_s")]
        return {
            "ops_per_s": (_geomean(rates), "1/s"),
            "latency_ms": detail["cold_start_mean_ms"],
            "detail": detail,
        }

    def replay(self, tracer) -> Phases:
        phases = Phases(tracer)
        for round_index in range(self.rounds):
            self._round(round_index, phases, None)
        return phases.finish()


READ_PHASES = ("cold_start", "scan", "get", "search_batch", "complete")


# -- serve -------------------------------------------------------------------


class Serve(Workload):
    """The online applications behind ``GitTables.serve`` with one worker."""

    name = "serve"
    fixed_duration = True

    def setup(self) -> None:
        self.sessions = []
        self.services = []
        self.stores: list[Path] = []
        setup = Phases()
        for index in range(SERVE_STORES):
            seed = _sub_seed(DATASET_SEED, 100 + index)
            generator = GeneratorConfig(seed=seed).scaled_to_files(SERVE_TABLES * FILES_PER_TABLE)
            config = PipelineConfig(seed=seed, target_tables=SERVE_TABLES)
            store = self.workdir / f"serve-{index}"
            # Timed step by step, so the host's speed is sampled between.
            setup.timed(index, build_instance, generator)
            session, _ = setup.timed(index, GitTables.build, config,
                                     generator_config=generator, store_dir=store, processes=1)
            setup.timed(index, session.warm)
            self.sessions.append(session)
            service, _ = setup.timed(index, session.serve, ServingConfig(workers=1))
            self.services.append(service)
            self.stores.append(store)
        self.setup_s = list(setup.finish().corrected.values())
        rng = random.Random(self.seed)
        self.requests = []
        for session in self.sessions:
            schemas = [schema for _, schema in session.corpus.iter_schemas()]
            stream = []
            for _ in range(4096):
                schema = rng.choice(schemas)
                if rng.random() < 0.5:
                    stream.append(("search", " ".join(schema[:3])))
                else:
                    stream.append(("complete", tuple(schema[: rng.randint(1, 3)])))
            self.requests.append(stream)
        self.samples: list[tuple[int, tuple, object]] = []
        self.sample_rng = random.Random(self.seed + 2)
        self.intervals: list[tuple[float, float]] | None = None
        self.generator_spans: list[tuple[float, float]] | None = None

    def close(self) -> None:
        for service in getattr(self, "services", []):
            service.close()

    def _submit(self, service, request):
        kind, payload = request
        submitted = time.perf_counter()
        if kind == "search":
            future = service.submit_search(payload, k=SERVE_K)
        else:
            future = service.submit_complete_schema(list(payload), k=SERVE_K)
        if self.intervals is not None:
            # Traced runs: each request's submit-to-resolve interval.
            future.add_done_callback(
                lambda _, start=submitted: self.intervals.append((start, time.perf_counter()))
            )
        return future

    def _generator_span(self, start: float) -> None:
        """Traced runs: the generator ran its own code (or slept) since ``start``."""
        if self.generator_spans is not None:
            self.generator_spans.append((start, time.perf_counter()))

    def _closed_loop(self, slot: int, seconds: float, offset: int) -> int:
        """SERVE_CLIENTS threads, each waiting for its reply; returns completions."""
        service = self.services[slot]
        stream = self.requests[slot]
        completed = [0] * SERVE_CLIENTS
        errors: list[BaseException] = []
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            position = offset + index
            try:
                free = time.perf_counter()
                while free < deadline:
                    request = stream[position % len(stream)]
                    self._generator_span(free)
                    result = self._submit(service, request).result(timeout=30)
                    free = time.perf_counter()
                    if self.sample_rng.random() < 0.01 and len(self.samples) < SERVE_CHECK_SAMPLE * 4:
                        self.samples.append((slot, request, result))
                    completed[index] += 1
                    position += SERVE_CLIENTS
                self._generator_span(free)
            except Exception as error:  # recorded as a failed operation below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.attempted += sum(completed) + len(errors)
        for error in errors:
            self.check(False, f"closed-loop request failed: {error!r}")
        return sum(completed)

    def _open_loop(self, slot: int, count: int, offset: int) -> dict:
        """One thread sending on a fixed schedule; latency from each due time."""
        service = self.services[slot]
        stream = self.requests[slot]
        latencies = {"search": [], "complete": []}
        lateness: list[float] = []
        futures = []
        lock = threading.Lock()
        start = time.perf_counter() + 0.01
        cpu_before = time.process_time()
        for i in range(count):
            free = time.perf_counter()
            due = start + i / SERVE_RATE
            if due > free:
                time.sleep(due - free)
            lateness.append(time.perf_counter() - due)
            request = stream[(offset + i) % len(stream)]

            def done(future, due=due, kind=request[0]):
                finished = time.perf_counter()
                with lock:
                    latencies[kind].append(finished - due)

            self._generator_span(free)
            try:
                future = self._submit(service, request)
            except Exception as error:  # refused at admission
                self.check(False, f"open-loop request refused: {error!r}")
                continue
            future.add_done_callback(done)
            futures.append((request, future))
        for request, future in futures:
            try:
                result = future.result(timeout=30)
            except Exception as error:
                self.check(False, f"open-loop request failed: {error!r}")
                continue
            free = time.perf_counter()
            if self.sample_rng.random() < 0.02 and len(self.samples) < SERVE_CHECK_SAMPLE * 4:
                self.samples.append((slot, request, result))
            self._generator_span(free)
        wall = time.perf_counter() - start
        self.attempted += count
        return {
            "latencies": latencies,
            "lateness": lateness,
            "wall": wall,
            "cpu": time.process_time() - cpu_before,
        }

    def _pass(self, closed_s: float, phases: Phases, record: dict, offset: int) -> None:
        for slot in range(len(self.services)):
            completed, seconds = phases.timed("closed", self._closed_loop, slot, closed_s, offset)
            result, _ = phases.timed("open", self._open_loop, slot, SERVE_OPEN_REQUESTS, offset)
            record["closed_completed"] += completed
            record["closed_s"] += seconds
            for kind in ("search", "complete"):
                record[kind].extend(result["latencies"][kind])
            record["lateness"].extend(result["lateness"])
            record["open_wall"] += result["wall"]
            record["open_cpu"] += result["cpu"]

    def measure(self, seconds: float) -> dict:
        for slot in range(len(self.services)):
            self._closed_loop(slot, 1.0, 0)  # warm-up, discarded
        open_s = SERVE_STORES * SERVE_OPEN_REQUESTS / SERVE_RATE
        self.closed_s = max(1.0, (seconds - open_s) / SERVE_STORES)
        record = _serve_record()
        phases = Phases(correct=False)
        self._pass(self.closed_s, phases, record, offset=1000)
        self.phase_s = phases.total_s
        self._verify()
        serve_rate = record["closed_completed"] / record["closed_s"]
        search_p50 = statistics.median(record["search"]) * 1000.0
        complete_p50 = statistics.median(record["complete"]) * 1000.0
        every = record["search"] + record["complete"]
        p99 = _p99_ms(every)
        lateness = sorted(record["lateness"])
        stored = sum(directory_bytes(store) for store in self.stores)
        self.loadgen = {
            "lateness_p50_ms": statistics.median(lateness) * 1000.0,
            "lateness_p99_ms": lateness[int(0.99 * (len(lateness) - 1))] * 1000.0,
            "cpu_s": record["open_cpu"],
            "wall_s": record["open_wall"],
        }
        return {
            "ops_per_s": (serve_rate, "1/s"),
            "latency_ms": (_geomean([search_p50, complete_p50]), "ms"),
            "detail": {
                "serve_per_s": (serve_rate, "1/s"),
                "closed_loop_s": (record["closed_s"], "s"),
                "store_bytes_per_table": (stored / (SERVE_TABLES * len(self.stores)), "B"),
                "search_p50_ms": (search_p50, "ms"),
                "complete_p50_ms": (complete_p50, "ms"),
                "serve_p99_ms": (p99, "ms"),
                "open_loop_requests": (len(every), "count"),
                "loadgen_lateness_p99_ms": (self.loadgen["lateness_p99_ms"], "ms"),
            },
        }

    def _verify(self) -> None:
        """Served answers must equal the in-process facade's, bit for bit."""
        for slot, (kind, payload), result in self.samples[:SERVE_CHECK_SAMPLE]:
            session = self.sessions[slot]
            if kind == "search":
                expected = session.search(payload, k=SERVE_K)
            else:
                expected = session.complete_schema(list(payload), k=SERVE_K)
            self.check(result == expected, f"served {kind}({payload!r}) != facade answer")
        self.check(len(self.samples) >= 10, "too few served responses sampled for checking")
        for service in self.services:
            workers = service.metrics()["workers"]
            self.check(workers["crashes"] == 0, f"{workers['crashes']} worker crashes")

    def worker_rss_mb(self) -> float:
        return sum(
            max_rss_mb(pid) for service in self.services for pid in service.worker_pids()
        )

    def replay(self, tracer) -> Phases:
        phases = Phases(tracer, correct=False)
        record = _serve_record()
        if tracer is None:
            self._pass(self.closed_s, phases, record, offset=1000)
            phases.ops = record["closed_completed"] + len(record["search"] + record["complete"])
            return phases
        before = [service.metrics() for service in self.services]
        self.intervals, self.generator_spans = [], []
        self._pass(self.closed_s, phases, record, offset=1000)
        intervals, self.intervals = self.intervals, None
        generator_spans, self.generator_spans = self.generator_spans, None
        after = [service.metrics() for service in self.services]
        phases.ops = record["closed_completed"] + len(record["search"] + record["complete"])
        self.serving = _serving_counts(before, after, intervals)
        self.serving["generator_spans"] = generator_spans
        self.serving["p99_ms"] = _p99_ms(record["search"] + record["complete"])
        return phases


def _serve_record() -> dict:
    return {"closed_completed": 0, "closed_s": 0.0, "search": [], "complete": [],
            "lateness": [], "open_wall": 0.0, "open_cpu": 0.0}


def _p99_ms(latencies: list[float]) -> float:
    """Nearest-rank 99th percentile of latencies in seconds, in ms."""
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)] * 1000.0


def _serving_counts(before: list[dict], after: list[dict], intervals: list) -> dict:
    """What the services' ``metrics()`` snapshots say happened in between."""
    counts = {"requests": 0, "batches": 0, "rejections": 0, "expired": 0, "failed": 0,
              "histogram": {}, "reloads": 0, "respawns": 0, "intervals": intervals}
    for old, new in zip(before, after):
        for endpoint, stats in new["endpoints"].items():
            prior = old["endpoints"].get(endpoint, {})
            counts["requests"] += stats["completed"] - prior.get("completed", 0)
            counts["batches"] += stats["batches"] - prior.get("batches", 0)
            counts["rejections"] += stats["rejected"] - prior.get("rejected", 0)
            counts["expired"] += stats["deadline_expired"] - prior.get("deadline_expired", 0)
            counts["failed"] += stats["failed"] - prior.get("failed", 0)
            old_histogram = prior.get("batch_size_histogram", {})
            for bucket, number in stats["batch_size_histogram"].items():
                delta = number - old_histogram.get(bucket, 0)
                counts["histogram"][int(bucket)] = counts["histogram"].get(int(bucket), 0) + delta
        counts["respawns"] += new["workers"]["respawns"] - old["workers"]["respawns"]
        counts["reloads"] += sum(new["workers"]["artifact_reloads"].values()) - sum(
            old["workers"]["artifact_reloads"].values()
        )
    return counts


WORKLOADS = {workload.name: workload for workload in (Grow, Read, Serve)}
