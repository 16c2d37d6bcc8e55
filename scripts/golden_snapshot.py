"""The golden snapshot of the paper's numbers: every experiment's rows and notes.

``tests/golden/experiments_small.json`` holds the rows and notes of all
registered experiments (Tables 1-8, Figures 4-6, annotation quality,
domain shift) at ``small`` scale. ``tests/test_golden.py`` regenerates
them and compares exactly, so any change to a reproduced number shows as
a per-experiment diff. Floats are written by ``json`` as their ``repr``
(the shortest string that round-trips), so the comparison is bit-exact.

Usage::

    PYTHONPATH=src python scripts/golden_snapshot.py            # rewrite the snapshot
    PYTHONPATH=src python scripts/golden_snapshot.py --check    # diff against it
    PYTHONPATH=src python scripts/golden_snapshot.py --check --store-dir /tmp/s --processes 2

``--store-dir`` runs the experiments over a store-backed corpus (built
into the directory with ``--processes`` workers, or reused if already
there) instead of an in-memory one. Regenerating is a change to a check:
name every experiment whose rows moved, and why, in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments import context as experiment_context
from repro.experiments.registry import run_all_experiments

SCALE = "small"
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / f"experiments_{SCALE}.json"


def _plain(value):
    """``value`` with numpy scalars and tuples turned into JSON types."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@contextlib.contextmanager
def _drivers_use(context: experiment_context.ExperimentContext):
    """Make ``get_context(scale)`` inside the drivers return ``context``."""
    key = (context.scale, context.seed, None)
    cache = experiment_context._CONTEXT_CACHE
    previous = cache.get(key)
    cache[key] = context
    try:
        yield
    finally:
        if previous is None:
            cache.pop(key, None)
        else:
            cache[key] = previous


def snapshot(store_dir: str | None = None, processes: int = 1) -> dict:
    """experiment id -> {"rows", "notes"} for every registered experiment.

    Without ``store_dir`` the drivers run over the shared in-memory
    context; with it, over a context whose corpus is built into (or
    reused from) ``store_dir`` with ``processes`` workers.
    """
    if store_dir is None:
        results = run_all_experiments(SCALE)
    else:
        context = experiment_context.ExperimentContext(
            scale=SCALE, store_dir=str(store_dir), processes=processes
        )
        with _drivers_use(context):
            results = run_all_experiments(SCALE)
    return {
        experiment_id: {"rows": _plain(result.rows), "notes": result.notes}
        for experiment_id, result in sorted(results.items())
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per differing row (or missing experiment), by experiment."""
    lines: list[str] = []
    for experiment_id in sorted(set(expected) | set(actual)):
        if experiment_id not in actual:
            lines.append(f"{experiment_id}: missing from the run")
            continue
        if experiment_id not in expected:
            lines.append(f"{experiment_id}: not in the snapshot")
            continue
        want, got = expected[experiment_id], actual[experiment_id]
        if want["notes"] != got["notes"]:
            lines.append(f"{experiment_id}: notes differ")
        if len(want["rows"]) != len(got["rows"]):
            lines.append(
                f"{experiment_id}: {len(got['rows'])} rows, snapshot has {len(want['rows'])}"
            )
        for index, (want_row, got_row) in enumerate(zip(want["rows"], got["rows"])):
            if want_row != got_row:
                lines.append(f"{experiment_id}[{index}]: {got_row} != snapshot {want_row}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of rewriting")
    parser.add_argument("--store-dir", help="run over a store-backed corpus in this directory")
    parser.add_argument("--processes", type=int, default=1, help="build processes for --store-dir")
    args = parser.parse_args(argv)
    actual = snapshot(args.store_dir, args.processes)
    if args.check:
        lines = diff(load_golden(), actual)
        print("\n".join(lines) if lines else f"matches {GOLDEN_PATH.name}")
        return 1 if lines else 0
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(dumps(actual), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(actual)} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
