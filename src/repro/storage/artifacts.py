"""Persistent mmap-backed index artifacts: embed once, serve forever.

Every application index over a GitTables corpus (the search engine's
schema-embedding matrix, schema completion's per-attribute matrix, the
semantic annotators' ontology label vectors, type-detection feature
matrices, the curated KG benchmark's column coordinates) is a pure
function of two inputs: the corpus bytes and the configuration of the
model that produced it. Artifacts reference the corpus rather than copy
its cell values: the KG benchmark stores table ordinals and column
positions, and reads values back through ``corpus.get``.
Rebuilding them on every ``GitTables.load()`` makes cold start
O(corpus x embed) even though the corpus itself is lazily disk-backed.

:class:`IndexArtifactStore` persists those derived artefacts next to the
corpus manifest, under ``<store_dir>/artifacts/``::

    artifacts/
      search-schemas/
        meta.json            # fingerprint, payload, array specs
        unit_vectors.npy     # raw .npy array, mapped read-only with one mmap
      completion-attributes/
        meta.json
        attributes.npy
      ...

Each artifact is guarded by a **fingerprint** — an arbitrary JSON
document assembled by the publisher, conventionally the encoder
configuration plus the corpus manifest content hash (see
:func:`corpus_content_fingerprint`). :meth:`IndexArtifactStore.load`
returns the artifact only when the stored fingerprint matches the
requested one byte-for-byte *and* every array file opens and matches its
recorded dtype/shape; any mismatch — different encoder config, mutated
corpus, truncated or corrupt file — reads as a miss, so stale vectors
are never served silently. Publishing is atomic (staging directory +
rename), so a crash mid-publish leaves either the old artifact or none.

Arrays are plain C-order ``.npy`` files, each opened with one ``mmap``
checked against NumPy's own header for its dtype and shape: loading an
index costs one mmap instead of re-embedding the corpus, and the page
cache is shared across processes serving the same store.

:func:`resolve` is the one lifecycle every consumer goes through —
adopt on a fingerprint match, delta-refresh a sealed-prefix artifact
over the corpus tail, otherwise build, then publish; consumers supply
only their format hooks.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import atomic_write_json, fsync_dir, is_dead_pid_suffix

__all__ = [
    "ARTIFACTS_DIRNAME",
    "ARTIFACT_FORMAT",
    "IndexArtifactStore",
    "LoadedArtifact",
    "corpus_artifacts",
    "corpus_content_fingerprint",
    "fingerprint_digest",
    "resolve",
    "try_publish",
]

#: Subdirectory of a corpus store directory that holds the artifacts.
ARTIFACTS_DIRNAME = "artifacts"
ARTIFACT_FORMAT = "gittables-index-artifact"
META_FILENAME = "meta.json"

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _normalize(value):
    """JSON round-trip so tuples/lists and int/float keys compare equal."""
    return json.loads(json.dumps(value))


def fingerprint_digest(value) -> str:
    """Stable hex digest of an arbitrary JSON-serialisable value."""
    payload = json.dumps(_normalize(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def corpus_content_fingerprint(corpus) -> str | None:
    """Content hash of a corpus' stored bytes, or ``None`` if unavailable.

    Accepts a :class:`~repro.core.corpus.GitTablesCorpus` or a bare
    store. Only disk-backed stores expose a ``content_fingerprint`` —
    in-memory corpora return ``None``, which artifact-aware consumers
    treat as "do not persist": there is no durable identity to key on.
    """
    store = getattr(corpus, "store", corpus)
    fingerprint = getattr(store, "content_fingerprint", None)
    if fingerprint is None:
        return None
    return fingerprint()


def corpus_artifacts(corpus) -> tuple["IndexArtifactStore | None", str | None]:
    """The artifact store ``corpus``'s storage owns and the fingerprint keying it.

    ``(None, None)`` when it owns none, so :func:`resolve` only builds.
    """
    artifacts = getattr(corpus, "artifacts", None)
    if artifacts is None:
        return None, None
    return artifacts, corpus_content_fingerprint(corpus)


@dataclass(frozen=True)
class LoadedArtifact:
    """One artifact resolved from disk: mmap'd arrays plus JSON payload."""

    name: str
    fingerprint: dict
    #: array key -> read-only ndarray viewing an ``mmap`` (zero-size: in RAM).
    arrays: dict
    payload: dict


class IndexArtifactStore:
    """Fingerprint-guarded store of named float arrays and JSON payloads.

    ``directory`` is the artifacts root itself. A sharded corpus store
    owns the one under its directory (``<store_dir>/artifacts``): reach
    it as ``corpus.artifacts`` (or ``store.artifacts``), which is
    ``None`` for in-memory corpora and for stores opened with
    ``use_artifacts=False``. The directory is created lazily on first
    publish, so opening a read-only corpus directory costs nothing until
    something is published.
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)

    @classmethod
    def for_corpus_dir(cls, corpus_dir: str | os.PathLike[str]) -> "IndexArtifactStore":
        """The artifact store living inside a corpus store directory."""
        return cls(Path(corpus_dir) / ARTIFACTS_DIRNAME)

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid artifact name {name!r}")
        return name

    def path(self, name: str) -> Path:
        """Where the named artifact lives (whether or not it exists)."""
        return self.directory / self._check_name(name)

    def names(self) -> list[str]:
        """Sorted names of every currently published artifact."""
        if not self.directory.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.directory.iterdir()
            if entry.is_dir() and _NAME_PATTERN.match(entry.name)
        )

    # -- read side ---------------------------------------------------------

    def load(self, name: str, fingerprint: dict | None = None) -> LoadedArtifact | None:
        """The named artifact, or ``None`` on any miss.

        A miss is indistinguishable by design: absent artifact, stale
        fingerprint (different encoder config or mutated corpus),
        unreadable metadata, missing/truncated/mis-shaped array files —
        all return ``None`` so the caller rebuilds and republishes.
        With ``fingerprint=None`` the artifact comes back *whatever its
        fingerprint* (the delta-refresh read in :func:`resolve`, which
        compares fingerprints itself); format and array-spec integrity
        are enforced either way. Arrays come back read-only, as
        ndarray views over a read-only ``mmap`` (see :meth:`_open_array`).
        """
        artifact_dir = self.path(name)
        meta_path = artifact_dir / META_FILENAME
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        if meta.get("format") != ARTIFACT_FORMAT:
            return None
        if fingerprint is not None and meta.get("fingerprint") != _normalize(fingerprint):
            return None
        arrays: dict = {}
        for key, spec in meta.get("arrays", {}).items():
            array = self._open_array(artifact_dir / spec["file"], spec)
            if array is None:
                return None
            arrays[key] = array
        return LoadedArtifact(
            name=name,
            fingerprint=meta.get("fingerprint"),
            arrays=arrays,
            payload=meta.get("payload", {}),
        )

    @staticmethod
    def _open_array(path: Path, spec: dict):
        """mmap one array file: exactly NumPy's own ``.npy`` header for the
        spec's dtype and shape, then the raw data (compared, never parsed)."""
        try:
            dtype, shape, header = np.dtype(spec["dtype"]), tuple(spec["shape"]), io.BytesIO()
            fields = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(header, fields)
            with open(path, "rb") as handle:
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (KeyError, TypeError, ValueError, OSError):
            return None
        header = header.getvalue()
        size = len(data) - len(header)
        if dtype.hasobject or size != dtype.itemsize * np.prod(shape) or data[: len(header)] != header:
            return None
        # A zero-size array has nothing to map: it is read eagerly.
        array = np.ndarray(shape, dtype, data, len(header)) if size else np.zeros(shape, dtype)
        array.setflags(write=False)
        return array

    # -- write side --------------------------------------------------------

    def publish(
        self,
        name: str,
        fingerprint: dict,
        arrays: dict | None = None,
        payload: dict | None = None,
        prune: bool = True,
    ) -> Path | None:
        """Atomically (re)publish an artifact; returns its directory.

        The artifact is staged in a sibling directory and renamed into
        place, replacing any previous version wholesale — a reader never
        observes a half-written artifact, and a crash mid-publish leaves
        the previous version (or nothing) behind.

        A corpus-keyed publish is fenced on the store's current content
        fingerprint, re-read from its manifest: a session whose corpus
        another session has since grown publishes nothing and returns
        ``None``, so it can neither overwrite the grown store's artifacts
        nor leave one keyed to a corpus no reader will open again.

        ``prune=False`` skips the corpus-keyed garbage collection below.
        The delta-refresh flow needs this ordering guarantee: artifacts
        superseded by a corpus extension must stay on disk until *every*
        consumer has republished from them, then one explicit
        :meth:`prune` sweeps the prior epoch. Without it, the first
        publish of the new epoch would delete the very artifacts the
        remaining engines still need to extend incrementally.
        """
        target = self.path(name)
        corpus_key = _corpus_key(fingerprint)
        if corpus_key is not None and corpus_key != self._current_corpus_key(corpus_key):
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        staging = self.directory / f".{name}.tmp-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            specs: dict[str, dict] = {}
            for key, array in (arrays or {}).items():
                self._check_name(key)
                # C order: the only layout _open_array maps.
                array = np.asarray(array, order="C")
                filename = f"{key}.npy"
                with open(staging / filename, "wb") as handle:
                    np.save(handle, array)
                    handle.flush()
                    os.fsync(handle.fileno())
                specs[key] = {
                    "file": filename,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                }
            atomic_write_json(
                staging / META_FILENAME,
                {
                    "format": ARTIFACT_FORMAT,
                    "version": 1,
                    "fingerprint": _normalize(fingerprint),
                    "arrays": specs,
                    "payload": _normalize(payload or {}),
                },
            )
            self._swap_in(staging, target)
            fsync_dir(self.directory)
        finally:
            if staging.exists():
                shutil.rmtree(staging)
        # Garbage-collect siblings pinned to older corpus states: they
        # are unreachable (their load() can only miss) and would
        # otherwise accumulate forever across rebuilds.
        if prune and corpus_key is not None:
            self.prune(corpus_key)
        return target

    def prune(self, keep_fingerprint: str) -> list[str]:
        """Delete artifacts keyed to a corpus state other than ``keep_fingerprint``.

        Only artifacts whose fingerprint carries a top-level ``"corpus"``
        key participate: those are pinned to one corpus state and can
        never be loaded again once the corpus changed. Corpus-independent
        artifacts (e.g. ontology label indexes, keyed on model config
        only) are left alone, as are artifacts with unreadable metadata
        (possibly mid-publish by a concurrent process). Stale staging
        and retired directories of *dead* processes are swept as well.

        ``keep_fingerprint`` is fenced like a publish: unless it is the
        store's current content fingerprint, re-read from the manifest
        now, the caller is a stale session and nothing is pruned, so a
        prune only ever deletes what the current manifest cannot reach.
        Returns the names of the removed artifacts.
        """
        if keep_fingerprint != self._current_corpus_key(keep_fingerprint):
            return []
        removed: list[str] = []
        for name in self.names():
            try:
                with open(self.directory / name / META_FILENAME, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError):
                continue
            corpus_key = _corpus_key(meta.get("fingerprint"))
            if corpus_key is None or corpus_key == keep_fingerprint:
                continue
            shutil.rmtree(self.directory / name, ignore_errors=True)
            removed.append(name)
        for leftover in self.directory.glob(".*.tmp-*"):
            if leftover.is_dir() and is_dead_pid_suffix(leftover.name):
                shutil.rmtree(leftover, ignore_errors=True)
        for leftover in self.directory.glob(".*.old-*"):
            if leftover.is_dir() and is_dead_pid_suffix(leftover.name):
                shutil.rmtree(leftover, ignore_errors=True)
        return removed

    def _current_corpus_key(self, default: str) -> str:
        """The owning store's content fingerprint, read from its manifest now.

        ``default`` when the parent directory holds no published corpus
        (a standalone artifact directory, or a fresh build in flight):
        there is nothing to fence on.
        """
        from .sharded import ShardedJsonlStore, is_sharded_dir

        corpus_dir = self.directory.parent
        if not is_sharded_dir(corpus_dir):
            return default
        return ShardedJsonlStore(corpus_dir, use_artifacts=False).content_fingerprint()

    def _swap_in(self, staging: Path, target: Path) -> None:
        """Replace ``target`` with ``staging`` with a minimal gap.

        An existing version is renamed aside (not rmtree'd in place), so
        the no-artifact window is two renames, not a recursive delete.
        Concurrent publishers racing for the same name are tolerated:
        losing the final rename leaves the winner's (equally fresh)
        artifact in place.
        """
        retired = self.directory / f".{target.name}.old-{os.getpid()}"
        if retired.exists():
            shutil.rmtree(retired)
        if target.exists():
            try:
                os.rename(target, retired)
            except OSError:
                # A concurrent publisher swapped it out under us.
                pass
        try:
            os.rename(staging, target)
        except OSError:
            if not target.exists():
                raise
            # Lost the race: a concurrent publish landed first.
        if retired.exists():
            shutil.rmtree(retired, ignore_errors=True)

    def invalidate(self, name: str | None = None) -> None:
        """Delete one artifact (or, with no name, every artifact)."""
        if name is not None:
            target = self.path(name)
            if target.exists():
                shutil.rmtree(target)
            return
        for existing in self.names():
            shutil.rmtree(self.directory / existing)


def _corpus_key(fingerprint: object) -> str | None:
    """The corpus state an artifact fingerprint is pinned to, if any."""
    key = fingerprint.get("corpus") if isinstance(fingerprint, dict) else None
    return key if isinstance(key, str) else None


def try_publish(publish, *args, **kwargs) -> bool:
    """Run a publish callable, treating filesystem failure as a cache miss.

    Artifact publication is an *optimisation*, never a correctness
    requirement: :func:`resolve` publishes through this so a read-only
    corpus directory (or a lost concurrent-publish race) degrades to
    serving the freshly built in-RAM index instead of crashing the
    query. Returns whether the publish succeeded.
    """
    try:
        publish(*args, **kwargs)
        return True
    except OSError:
        return False


#: Fingerprint keys a delta refresh may change: the corpus state the
#: artifact describes, and the ANN tier section, which is re-derived
#: from the extended rows.
_REFRESHED_KEYS = ("corpus", "ann")


def _refreshable(stale: object, expected: dict) -> bool:
    """Whether ``stale`` differs from ``expected`` only in refreshed keys."""
    if not isinstance(stale, dict):
        return False

    def fixed(fingerprint: dict) -> dict:
        return {key: value for key, value in fingerprint.items() if key not in _REFRESHED_KEYS}

    return fixed(stale) == fixed(expected)


def resolve(
    artifacts: IndexArtifactStore | None,
    name: str,
    fingerprint: dict,
    corpus,
    *,
    decode,
    build,
    encode,
    extend=None,
    prune: bool = True,
):
    """Adopt, delta-refresh or build one derived artifact, then publish it.

    The single lifecycle every artifact-backed index follows:

    1. ``meta.json`` is read once (:meth:`IndexArtifactStore.load`);
    2. on an exact fingerprint match the artifact is **adopted**:
       ``decode(loaded)``;
    3. otherwise, when the stored fingerprint equals ``fingerprint`` on
       every key except ``corpus`` and ``ann`` and its ``corpus`` key is
       the fingerprint of a sealed prefix of ``corpus``'s store, the
       artifact is **extended** over the tail: ``extend(loaded,
       boundary)`` with ``boundary`` the prefix's table count;
    4. otherwise the value is **built**: ``build()``;
    5. a built or extended value is published from ``encode(value)`` (a
       dict of :meth:`IndexArtifactStore.publish` keyword arguments,
       ``arrays`` and ``payload``) through :func:`try_publish`. An
       extension defers the corpus-keyed prune, so sibling indexes can
       still extend from *their* superseded artifacts; whoever drives
       the extension prunes once all are current.

    ``decode`` and ``extend`` return ``None`` to reject an artifact that
    fails a per-kind check; that reads as a miss. Without an artifact
    store, or when ``fingerprint["corpus"]`` is ``None`` (an in-memory
    corpus has no durable identity to key on), the value is only built.
    Returns ``(value, outcome)``, the outcome being ``"adopted"``,
    ``"extended"`` or ``"built"``.
    """
    if artifacts is None or fingerprint.get("corpus", "") is None:
        return build(), "built"
    expected = _normalize(fingerprint)
    loaded = artifacts.load(name)
    value = None
    if loaded is not None and loaded.fingerprint == expected:
        value = decode(loaded)
        if value is not None:
            return value, "adopted"
    elif loaded is not None and extend is not None and _refreshable(loaded.fingerprint, expected):
        # Only sharded stores have a content fingerprint to key on.
        boundary = corpus.store.sealed_prefix_boundary(loaded.fingerprint.get("corpus"))
        if boundary is not None:
            value = extend(loaded, boundary)
    outcome = "built" if value is None else "extended"
    if value is None:
        value = build()
    try_publish(
        artifacts.publish, name, fingerprint, **encode(value),
        prune=prune and outcome != "extended",
    )
    return value, outcome
