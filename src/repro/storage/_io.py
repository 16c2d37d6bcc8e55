"""Shared durability helpers for the storage package, and its one fault hook."""

from __future__ import annotations

import json
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

__all__ = [
    "FaultSpec",
    "atomic_replace",
    "atomic_write_json",
    "directory_file_bytes",
    "fault_point",
    "fsync_dir",
    "is_dead_pid_suffix",
]


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic crash injection for the test harness.

    ``worker`` selects which build worker process self-SIGKILLs (``None``
    targets the process that publishes a layout: the parallel build's
    coordinator, or :func:`~repro.storage.compaction.compact_store`),
    ``commit_n`` the 1-based commit ordinal *within the faulted session*,
    and ``point`` when exactly to die. Every point fires through
    :func:`fault_point`.

    Writer points, once per commit:

    * ``"before-shard-append"`` — commit started, nothing written yet;
    * ``"before-log-append"`` — shard bytes flushed, no commit record;
    * ``"torn-log-append"`` — half the commit record's bytes written
      (a torn log tail that resume must truncate away);
    * ``"after-log-append"`` — commit durable, checkpoint not yet saved.

    Layout-publish points, fired by
    :func:`~repro.storage.sharded.publish_layout` for the parallel
    finalize and for compaction (``commit_n`` ignored):

    * ``"before-shard-publish"`` — new shards staged as ``.tmp`` files
      only;
    * ``"before-manifest-publish"`` — staged shards renamed into place,
      the old manifest still authoritative;
    * ``"before-sweep"`` — the new manifest published, files it does not
      list not yet deleted.

    Only the crash/concurrency tests construct these; production builds
    never pass one.
    """

    worker: int | None
    commit_n: int = 1
    point: str = "before-log-append"

    def fire(self) -> None:
        """Die exactly like a SIGKILLed process (no cleanup, no atexit)."""
        os.kill(os.getpid(), signal.SIGKILL)


def fault_point(fault, point: str, commit_n: int | None = None, torn=None) -> None:
    """Fire ``fault`` when it is armed for ``point`` (no-op when ``None``).

    Writer points pass their ``commit_n``, which must match the spec's;
    layout-publish points pass none. ``torn`` is a ``(handle, payload)``
    pair: half of ``payload`` is written and fsynced before the process
    dies, leaving a torn record on disk.
    """
    if fault is None or fault.point != point:
        return
    if commit_n is not None and fault.commit_n != commit_n:
        return
    if torn is not None:
        handle, payload = torn
        handle.write(payload[: max(1, len(payload) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
    fault.fire()


def directory_file_bytes(directory: str | os.PathLike[str]) -> dict[str, bytes]:
    """Name → content of every regular file directly in ``directory``.

    The canonical comparator behind the storage layer's byte-identity
    guarantees (any two process counts, one-shot vs resumed builds).
    Top-level files only — a corpus directory's own bytes are exactly
    its manifest + shards + build metadata; subtrees such as
    ``artifacts/`` are derived caches, deliberately outside the
    identity (compare them separately if a test needs to).
    """
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(directory).iterdir())
        if path.is_file()
    }


def is_dead_pid_suffix(name: str) -> bool:
    """Whether a ``...-<pid>`` suffixed sibling belongs to a dead process."""
    pid_text = name.rpartition("-")[2]
    if not pid_text.isdigit() or int(pid_text) == os.getpid():
        return False
    try:
        os.kill(int(pid_text), 0)
    except ProcessLookupError:
        return True
    except OSError:  # pragma: no cover - e.g. EPERM: pid is alive
        return False
    return False


def fsync_dir(directory: str | os.PathLike[str]) -> None:
    """Durably persist a directory's entries (file creations/renames).

    fsyncing a file does not durably record its *name* — that requires
    fsyncing the containing directory. Best-effort: some platforms and
    filesystems reject opening directories for fsync; those simply keep
    their native (weaker) crash guarantees.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_replace(
    path: str | os.PathLike[str], mode: str = "wb", encoding: str | None = None
) -> Iterator[IO]:
    """Yield a handle whose contents atomically replace ``path`` on exit.

    The bytes are written to a temp sibling, flushed and fsynced, then
    renamed over ``path`` — a reader (or a crash at any point) never
    observes a half-written file. The rename itself is made durable by
    fsyncing the directory. If the body raises, the temp file is removed
    and ``path`` is left untouched.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    handle = open(tmp_path, mode, encoding=encoding)
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    os.replace(tmp_path, path)
    fsync_dir(path.parent)


def atomic_write_json(path: str | os.PathLike[str], payload: dict, indent: int = 1) -> None:
    """Atomically replace ``path`` with ``payload`` as JSON.

    Built on :func:`atomic_replace`, so a reader never observes a
    half-written file and the rename is made durable.
    """
    with atomic_replace(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, indent=indent) + "\n")
