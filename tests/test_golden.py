"""The paper's numbers, pinned: every experiment against its golden snapshot.

``tests/golden/experiments_small.json`` is regenerated by
``scripts/golden_snapshot.py``; these tests rerun every registered
experiment at ``small`` scale and require the same rows and notes, bit
for bit, over the in-memory corpus and (``slow``) over a store-backed
corpus built with two processes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_snapshot.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_snapshot", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches(golden, actual: dict) -> None:
    expected = golden.load_golden()
    lines = golden.diff(expected, actual)
    assert not lines, "experiments differ from the golden snapshot:\n" + "\n".join(lines)
    assert golden.dumps(actual) == golden.dumps(expected)


def test_experiments_match_golden_snapshot(golden, context):
    _assert_matches(golden, golden.snapshot())


@pytest.mark.slow
def test_store_backed_experiments_match_golden_snapshot(golden, tmp_path):
    _assert_matches(golden, golden.snapshot(store_dir=tmp_path, processes=2))
    # A second run over the finished store adopts every published artifact.
    _assert_matches(golden, golden.snapshot(store_dir=tmp_path, processes=2))


def test_diff_names_the_experiment_and_row(golden):
    expected = {"table1": {"rows": [{"a": 1.0}, {"a": 2.0}], "notes": "n"}}
    actual = {"table1": {"rows": [{"a": 1.0}, {"a": 2.0000000000000004}], "notes": "n"}}
    assert golden.diff(expected, actual) == [
        "table1[1]: {'a': 2.0000000000000004} != snapshot {'a': 2.0}"
    ]
    assert golden.diff(expected, {}) == ["table1: missing from the run"]
