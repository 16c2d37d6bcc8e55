"""Randomised exploration of every Hypothesis property (``slow``).

Tier-1 runs the properties derandomised (see ``conftest.py``), so it
never explores beyond a fixed set of examples. This test runs every
module that uses Hypothesis under the random ``explore`` profile, in
several passes with fresh seeds, multiplying the tier-1 example budget.
A failure reports the seed; rerun the module with
``--hypothesis-profile=explore --hypothesis-seed=<seed>`` to reproduce
it, then pin the counter-example with ``@example``.

Run with ``PYTHONPATH=src python -m pytest -m slow tests/test_hypothesis_explore.py``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PASSES = 5


def _property_modules() -> list[str]:
    return sorted(
        str(path)
        for path in TESTS.glob("test_*.py")
        if path.name != Path(__file__).name and "from hypothesis import" in path.read_text()
    )


@pytest.mark.slow
def test_properties_hold_under_random_exploration():
    modules = _property_modules()
    assert modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")])
    )
    for _ in range(PASSES):
        seed = random.SystemRandom().randrange(2**32)
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--hypothesis-profile=explore", f"--hypothesis-seed={seed}", *modules,
            ],
            cwd=TESTS.parent,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"seed {seed}:\n{result.stdout[-4000:]}"
