"""Build checkpoints: what a resumed corpus construction needs to know.

A resumable build writes two kinds of state into its corpus directory:

* the **manifest** (see :mod:`repro.storage.sharded`) — the committed
  corpus itself, which tells a resumed session which source files are
  already annotated and stored;
* ``build.json`` (this module) — the build's **provenance**: a
  fingerprint of the pipeline configuration the corpus was (or is
  being) built with. It is written before the first batch and kept for
  the life of the directory, so *any* later build call against the
  directory — whether the build is still in flight or long completed —
  is validated against the original configuration instead of silently
  returning or extending a corpus built with a different seed/target.
* ``checkpoint.json`` (this module) — the *session* state: the
  cumulative :class:`~repro.pipeline.report.PipelineReport` counters of
  every session so far, so the final report reconciles across
  interrupted sessions.

The checkpoint is deleted when a build completes, which is what makes a
finished resumed directory byte-identical to a finished one-shot
directory; ``build.json`` is deterministic (pure configuration, no
timings), so keeping it preserves that byte-identity.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CorpusError
from ._io import atomic_write_json

__all__ = [
    "BUILD_META_FILENAME",
    "CHECKPOINT_FILENAME",
    "BuildCheckpoint",
    "checkpoint_filename",
    "config_fingerprint",
    "load_build_meta",
    "numbered_sidecar_ids",
    "save_build_meta",
    "require_compatible_build",
    "require_compatible_extension",
    "worker_checkpoint_ids",
]

BUILD_META_FILENAME = "build.json"
CHECKPOINT_FILENAME = "checkpoint.json"


def checkpoint_filename(worker: int | None = None) -> str:
    """The checkpoint file name — global, or scoped to one build worker.

    Process-parallel builds keep one :class:`BuildCheckpoint` per worker
    (``checkpoint-00.json``, ``checkpoint-01.json``, …) next to that
    worker's manifest log, so each worker's cross-session counters
    survive killing any subset of workers independently.
    """
    if worker is None:
        return CHECKPOINT_FILENAME
    if worker < 0:
        raise ValueError("worker must be >= 0")
    return f"checkpoint-{worker:02d}.json"


def numbered_sidecar_ids(directory: str | os.PathLike[str], pattern: str) -> list[int]:
    """Worker ids embedded in ``<stem>-<NN>.<ext>`` sidecar file names.

    The single parser behind every worker-scoped file family of a
    parallel build (``checkpoint-<NN>.json``, ``manifest-<NN>.log``), so
    the id-naming scheme cannot drift between them.
    """
    ids = []
    for path in Path(directory).glob(pattern):
        suffix = path.stem.rsplit("-", 1)[-1]
        if suffix.isdigit():
            ids.append(int(suffix))
    return sorted(ids)


def worker_checkpoint_ids(directory: str | os.PathLike[str]) -> list[int]:
    """Worker ids that have a per-worker checkpoint in ``directory``."""
    return numbered_sidecar_ids(directory, "checkpoint-*.json")


def _normalize(value):
    """JSON round-trip normalisation so tuples compare equal to lists."""
    return json.loads(json.dumps(value))


def config_fingerprint(config, generator_config=None) -> dict:
    """A JSON-comparable fingerprint of everything that shapes the stream.

    Covers the full :class:`~repro.config.PipelineConfig` — every field
    of it shapes the stream; the worker process count is a build
    argument, not a field, so a build may be resumed under a different
    count — and the synthetic-instance generator configuration. A
    custom pre-built ``instance`` object cannot be fingerprinted —
    ``generator`` is recorded as ``None`` then, which the builder treats
    as *unverifiable*: stores carrying such a fingerprint are never
    resumed or reused, because two different instances would compare
    equal.
    """
    fingerprint = {"config": dataclasses.asdict(config), "generator": None}
    if generator_config is not None:
        if dataclasses.is_dataclass(generator_config):
            fingerprint["generator"] = dataclasses.asdict(generator_config)
        else:  # pragma: no cover - defensive for exotic callers
            fingerprint["generator"] = repr(generator_config)
    return _normalize(fingerprint)


def save_build_meta(directory: str | os.PathLike[str], fingerprint: dict) -> None:
    """Record the build's configuration fingerprint (atomic, durable)."""
    atomic_write_json(
        Path(directory) / BUILD_META_FILENAME, {"fingerprint": _normalize(fingerprint)}
    )


def load_build_meta(directory: str | os.PathLike[str]) -> dict | None:
    """The fingerprint a directory's corpus was built with, or ``None``."""
    path = Path(directory) / BUILD_META_FILENAME
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle).get("fingerprint")


def require_compatible_build(
    stored_fingerprint: dict, fingerprint: dict, directory
) -> None:
    """Reject building against a directory made with a different config."""
    if stored_fingerprint != _normalize(fingerprint):
        raise CorpusError(
            f"corpus at {directory} was built with a different pipeline "
            "configuration (seed/target/stage settings differ); delete the "
            "directory to rebuild from scratch"
        )


#: Fingerprint fields an extension is allowed to *grow*. Everything
#: else must match the original build byte-for-byte.
_EXTENSION_GROWTH_AXES = (
    ("config", "target_tables"),
    ("config", "extraction", "topic_count"),
)


def _pop_axis(payload: dict, axis: tuple[str, ...]):
    """Remove a nested fingerprint field, returning its value (or None)."""
    node = payload
    for key in axis[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            return None
    if isinstance(node, dict):
        return node.pop(axis[-1], None)
    return None


def require_compatible_extension(
    stored_fingerprint: dict, fingerprint: dict, directory
) -> None:
    """Reject an extension that changes anything but the growth axes.

    An extension may grow ``target_tables`` and ``extraction.topic_count``
    — the axes along which an epoched build appends new tables after the
    committed prefix — but every other configuration field, *including
    the synthetic-instance generator*, must match the original build
    exactly: a changed seed, stage setting, or generator would make the
    extension's stream disagree with the committed prefix. Shrinking a
    growth axis is also rejected (the committed corpus already exceeds
    the new target).
    """
    stored = json.loads(json.dumps(_normalize(stored_fingerprint)))
    new = json.loads(json.dumps(_normalize(fingerprint)))
    if stored.get("generator") is None or new.get("generator") is None:
        raise CorpusError(
            f"cannot extend corpus at {directory}: the build carries no "
            "verifiable generator fingerprint (it was built from a custom "
            "pre-built instance), so a compatible extension stream cannot "
            "be proven"
        )
    for axis in _EXTENSION_GROWTH_AXES:
        before, after = _pop_axis(stored, axis), _pop_axis(new, axis)
        if before is not None and after is not None and after < before:
            raise CorpusError(
                f"cannot extend corpus at {directory}: "
                f"{'.'.join(axis)} shrank from {before} to {after}; an "
                "extension may only grow the corpus"
            )
    if stored != new:
        raise CorpusError(
            f"cannot extend corpus at {directory}: the pipeline "
            "configuration differs from the original build beyond the "
            "growth axes (target_tables, extraction.topic_count); an "
            "extension must reuse the original seed, stage settings and "
            "generator"
        )


@dataclass
class BuildCheckpoint:
    """Cross-session state of one resumable corpus build."""

    fingerprint: dict
    #: Completed sessions so far (the running one not included).
    sessions: int = 0
    #: Cumulative report counters of completed work, as produced by
    #: :meth:`repro.pipeline.report.PipelineReport.counters`.
    counters: dict = field(default_factory=dict)

    @classmethod
    def load(
        cls, directory: str | os.PathLike[str], worker: int | None = None
    ) -> "BuildCheckpoint | None":
        """The (optionally worker-scoped) checkpoint in ``directory``."""
        path = Path(directory) / checkpoint_filename(worker)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(
            fingerprint=payload.get("fingerprint", {}),
            sessions=int(payload.get("sessions", 0)),
            counters=payload.get("counters", {}),
        )

    def save(self, directory: str | os.PathLike[str], worker: int | None = None) -> None:
        """Atomically write the checkpoint next to the manifest."""
        atomic_write_json(
            Path(directory) / checkpoint_filename(worker),
            {
                "fingerprint": self.fingerprint,
                "sessions": self.sessions,
                "counters": self.counters,
            },
        )

    def require_compatible(self, fingerprint: dict, directory) -> None:
        """Reject a resume whose configuration differs from the original."""
        if self.fingerprint != _normalize(fingerprint):
            raise CorpusError(
                f"cannot resume corpus build at {directory}: the pipeline "
                "configuration differs from the one the build was started "
                "with (delete the directory to rebuild from scratch)"
            )

    @staticmethod
    def clear(directory: str | os.PathLike[str], worker: int | None = None) -> None:
        """Remove the checkpoint (called when a build completes)."""
        path = Path(directory) / checkpoint_filename(worker)
        if path.exists():
            path.unlink()

    @staticmethod
    def clear_workers(directory: str | os.PathLike[str]) -> None:
        """Remove every per-worker checkpoint (parallel build finalize)."""
        for worker in worker_checkpoint_ids(directory):
            BuildCheckpoint.clear(directory, worker=worker)
