"""In-memory span recorder and the wrappers that attribute time to layers.

The benchmark installs these wrappers from outside the program: each
wrapped public callable records a span (layer, start, end) whose parent
is the enclosing wrapped call on the same thread. Spans are folded into
per-layer aggregates as they close, so memory stays constant however
long a run is:

* ``calls`` — spans opened per layer (a generator counts once, however
  many times it resumes);
* ``self_s`` — span time minus the time its direct child spans cover;
* counters — work counts recorded at the same boundaries (``count``);
  every counter is also credited to each span open when it is recorded,
  so ratios such as fsyncs per commit are measured where the work
  happens (``inclusive``);
* tallies — counts a layer keeps on every call, traced or not
  (``tally``). The untraced runs install only the layer that keeps one
  (``embeddings.embed``), so their output checks read the same count
  the traced run reports.

A callable imported by name into another module (``from .sniffer import
sniff_dialect``) is rebound in every ``repro`` module that holds it, not
only in the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

__all__ = ["LAYERS", "Tracer", "covered_seconds", "install_layers", "layer_names"]


def _proc_wchar() -> int:
    """Bytes this process has passed to write syscalls so far."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    return 0


class _Frame:
    __slots__ = ("layer", "name", "start", "child_s", "events", "first")

    def __init__(self, layer: str, name: str, first: bool) -> None:
        self.layer = layer
        self.name = name
        self.first = first
        self.child_s = 0.0
        self.events: dict[str, float] = {}
        self.start = time.perf_counter()


class Tracer:
    """Per-layer span aggregates; recording happens only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: (callable name, counter) -> total recorded while that callable ran.
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.name_calls: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, int] = defaultdict(int)
        #: (layer, qualified name) pairs wrapped so far.
        self.installed: set[tuple[str, str]] = set()

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.counts, self.inclusive, self.name_calls,
                      self.tallies):
            table.clear()

    def stack(self) -> list[_Frame]:
        """The calling thread's open spans, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, name: str, first: bool = True) -> _Frame:
        frame = _Frame(layer, name, first)
        self.stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        stack = self.stack()
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            self.self_s[frame.layer] += duration - frame.child_s
            if frame.first:
                self.calls[frame.layer] += 1
                self.name_calls[frame.name] += 1
            for key, value in frame.events.items():
                self.inclusive[(frame.name, key)] += value

    def count(self, key: str, value: float = 1) -> None:
        """Record ``value`` units of ``key`` at the current point."""
        if not self.enabled:
            return
        for frame in self.stack():
            frame.events[key] = frame.events.get(key, 0) + value
        with self._lock:
            self.counts[key] += value

    def tally(self, key: str, value: int) -> None:
        """Count ``value`` units of ``key`` whether or not recording is on."""
        with self._lock:
            self.tallies[key] += value

    def add_span(self, layer: str, self_seconds: float, calls: int = 0) -> None:
        """Credit time measured outside the stack discipline to ``layer``."""
        with self._lock:
            self.self_s[layer] += self_seconds
            self.calls[layer] += calls

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())


# -- what gets wrapped -------------------------------------------------------
#
# layer -> [(module, qualified name, before hook, after hook, tally hook)].
# ``before`` receives (tracer, args, kwargs) and returns a state; ``after``
# receives (tracer, args, kwargs, result, state) once the call has
# returned, while its span is still open, so its counts are credited to
# the call itself. ``tally`` receives (tracer, args) on every call, also
# while recording is off.


def _score_rows_flat(tracer, args, kwargs, result, state):
    index, matrix = args[0], args[1]
    from repro.embeddings.ann import PartitionedIndex

    queries = len(matrix)
    tracer.count("embeddings.score.queries", queries)
    if not isinstance(index, PartitionedIndex):
        tracer.count("embeddings.score.rows_scored", len(index) * queries)


def _partitioned_before(tracer, args, kwargs):
    return args[0].stats()["candidate_rows"]


def _score_rows_partitioned(tracer, args, kwargs, result, state):
    tracer.count("embeddings.score.queries", len(args[1]))
    tracer.count("embeddings.score.rows_scored", args[0].stats()["candidate_rows"] - state)


def _outermost_write_before(tracer, args, kwargs):
    """Bytes written so far, or None inside an enclosing write span."""
    if any(frame.layer == "sharded.write" for frame in tracer.stack()[:-1]):
        return None
    return _proc_wchar()


def _artifact_bytes(arrays) -> int:
    import numpy as np

    return sum(int(np.asarray(array).nbytes) for array in (arrays or {}).values())


def _filter_hook(tracer, args, kwargs, result, state):
    tracer.count("filtering.evaluated")
    tracer.count("filtering.kept", int(bool(result.keep)))


def _publish_hook(tracer, args, kwargs, result, state):
    arrays = kwargs.get("arrays", args[3] if len(args) > 3 else None)
    tracer.count("artifacts.bytes_published", _artifact_bytes(arrays))


def _load_hook(tracer, args, kwargs, result, state):
    if result is not None:
        tracer.count("artifacts.bytes_loaded", _artifact_bytes(result.arrays))


def _write_hook(tracer, args, kwargs, result, state):
    if state is not None:
        tracer.count("sharded.write.bytes_written", _proc_wchar() - state)


def _compaction_before(tracer, args, kwargs):
    return _proc_wchar()


def _compaction_hook(tracer, args, kwargs, result, state):
    tracer.count("compaction.bytes_rewritten", _proc_wchar() - state)
    tracer.count("compaction.files_swept", result.swept_files)


def _get_before(tracer, args, kwargs):
    return tracer.counts["decode"]


def _get_hook(tracer, args, kwargs, result, state):
    if tracer.counts["decode"] > state:
        tracer.count("sharded.read.get_cache_misses")


def _add_hook(tracer, args, kwargs, result, state):
    tracer.count("sharded.write.tables_added")


LAYERS = {
    "api": [
        ("repro.api", "GitTables.build"),
        ("repro.api", "GitTables.load"),
        ("repro.api", "GitTables.warm"),
        ("repro.api", "GitTables.extend"),
        ("repro.api", "GitTables.compact"),
        ("repro.api", "GitTables.search"),
        ("repro.api", "GitTables.search_batch"),
        ("repro.api", "GitTables.complete_schema"),
        ("repro.api", "GitTables.serve"),
    ],
    "github": [
        ("repro.github.client", "GitHubClient.search"),
        ("repro.github.client", "GitHubClient.raw_content",
         None, lambda t, a, k, r, s: t.count("github.files_fetched")),
    ],
    "extraction": [("repro.core.extraction", "CSVExtractor.extract_topic")],
    "sniffer": [
        ("repro.dataframe.sniffer", "sniff_dialect",
         None, lambda t, a, k, r, s: t.count("sniffer.bytes_sniffed", len(a[0].encode("utf-8")))),
    ],
    "parser": [
        ("repro.dataframe.parser", "parse_csv",
         None, lambda t, a, k, r, s: t.count("parser.rows_parsed", r[0].num_rows)),
    ],
    "filtering": [("repro.core.filtering", "TableFilter.evaluate", None, _filter_hook)],
    "curation": [
        ("repro.core.curation", "ContentCurator.curate",
         None, lambda t, a, k, r, s: t.count("curation.curated")),
    ],
    "anonymize": [
        ("repro.anonymize.pii_scrubber", "PIIScrubber.scrub",
         None, lambda t, a, k, r, s: t.count("anonymize.columns_scrubbed", r[1].scrubbed_count)),
    ],
    "annotation": [
        # Construction builds the ontology label indexes, once per build
        # and per extension.
        ("repro.core.annotation", "AnnotationPipeline.__init__"),
        ("repro.core.annotation", "AnnotationPipeline.annotate_batch",
         None, lambda t, a, k, r, s: t.count(
             "annotation.columns_annotated", sum(table.num_columns for table in a[1]))),
    ],
    "pipeline": [("repro.pipeline.runner", "Pipeline.run")],
    "embeddings.embed": [
        ("repro.embeddings.sentence", "SentenceEncoder.embed_many",
         None, lambda t, a, k, r, s: t.count("embeddings.embed.texts", len(a[1])),
         lambda t, a: t.tally("embeddings.embed.texts", len(a[1]))),
        # Ontology labels and column names for annotation; not counted in
        # the texts, which are the schema attributes search and
        # completion embed.
        ("repro.embeddings.fasttext", "FastTextModel.embed_batch"),
    ],
    "embeddings.score": [
        ("repro.embeddings.similarity", "NearestNeighbourIndex.top_k_batch", None, _score_rows_flat),
        ("repro.embeddings.ann", "PartitionedIndex.top_k_batch",
         _partitioned_before, _score_rows_partitioned),
        ("repro.embeddings.ann", "PartitionedIndex.probe_batch",
         _partitioned_before, _score_rows_partitioned),
    ],
    "data_search": [
        ("repro.applications.data_search", "TableSearchEngine.search"),
        ("repro.applications.data_search", "TableSearchEngine.search_batch"),
    ],
    "schema_completion": [("repro.applications.schema_completion", "NearestCompletion.complete")],
    "sharded.write": [
        ("repro.storage.sharded", "ShardedCorpusWriter.add", None, _add_hook),
        ("repro.storage.sharded", "ShardedCorpusWriter.commit", _outermost_write_before, _write_hook),
        ("repro.storage.sharded", "ShardedCorpusWriter.finalize", _outermost_write_before, _write_hook),
    ],
    "sharded.read": [
        ("repro.storage.sharded", "ShardedJsonlStore.__iter__"),
        ("repro.storage.sharded", "ShardedJsonlStore.iter_from"),
        ("repro.storage.sharded", "ShardedJsonlStore.get", _get_before, _get_hook),
    ],
    "sharded.decode": [
        ("repro.core.corpus", "AnnotatedTable.from_dict",
         None, lambda t, a, k, r, s: t.count("decode")),
    ],
    "artifacts": [
        ("repro.storage.artifacts", "IndexArtifactStore.publish", None, _publish_hook),
        ("repro.storage.artifacts", "IndexArtifactStore.load", None, _load_hook),
    ],
    "columnar": [("repro.storage.columnar", "ColumnarProjection.from_corpus")],
    "kg_matching": [("repro.api", "GitTables.kg_benchmark")],
    "compaction": [("repro.storage.compaction", "compact_store", _compaction_before, _compaction_hook)],
    "stats": [
        ("repro.api", "GitTables.stats"),
        ("repro.api", "GitTables.annotation_stats"),
        ("repro.core.corpus", "GitTablesCorpus.filter"),
    ],
    "fsync": [("os", "fsync", None, lambda t, a, k, r, s: t.count("fsync"))],
}


def _make_wrapper(tracer: Tracer, layer: str, name: str, func, before, after, tally):
    if inspect.isgeneratorfunction(func):

        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            if not tracer.enabled:
                yield from func(*args, **kwargs)
                return
            generator = func(*args, **kwargs)
            first = True
            while True:
                frame = tracer.enter(layer, name, first)
                first = False
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count(f"{name}.yielded")
                yield item

        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if tally is not None:
            tally(tracer, args)
        if not tracer.enabled:
            return func(*args, **kwargs)
        frame = tracer.enter(layer, name)
        try:
            state = before(tracer, args, kwargs) if before is not None else None
            result = func(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result, state)
        finally:
            tracer.exit(frame)
        return result

    return wrapper


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global that holds ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install_layers(tracer: Tracer, layers: list[str] | None = None) -> list[tuple[str, str]]:
    """Wrap the callables of ``layers`` (default: all of :data:`LAYERS`).

    A callable this tracer has wrapped already is left alone, so the
    untraced set can be widened to the full one later in a process.
    Returns the (layer, name) pairs wrapped by this call.
    """
    installed = []
    for layer in LAYERS if layers is None else layers:
        for spec in LAYERS[layer]:
            module_name, qualname = spec[0], spec[1]
            if (layer, qualname) in tracer.installed:
                continue
            before, after, tally = (tuple(spec[2:]) + (None, None, None))[:3]
            module = importlib.import_module(module_name)
            owner_path, _, attribute = qualname.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _make_wrapper(tracer, layer, qualname, raw.__func__, before, after, tally)
                )
                setattr(owner, attribute, wrapped)
            else:
                wrapped = _make_wrapper(tracer, layer, qualname, raw, before, after, tally)
                setattr(owner, attribute, wrapped)
                if owner is module and module_name != "os":
                    _rebind_everywhere(raw, wrapped)
            tracer.installed.add((layer, qualname))
            installed.append((layer, qualname))
    return installed


def layer_names() -> list[str]:
    """Every layer :func:`install_layers` wraps, plus the two measured directly."""
    return list(LAYERS) + ["serving", "loadgen"]


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
