"""Lint gate: run ruff (configured in pyproject.toml) over the repo.

Skips when ruff is not installed in the environment — the offline test
image ships without it — but keeps CI environments that do have ruff
honest about the correctness-focused rule set. Without ruff, a small
stdlib-``ast`` check still enforces the strict tier's F841 (unused
local variable) over the strict-tier subsystems named in pyproject.toml.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_HAS_RUFF = importlib.util.find_spec("ruff") is not None


@pytest.mark.skipif(not _HAS_RUFF, reason="ruff is not installed")
def test_ruff_check_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests", "benchmarks", "examples"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"ruff found issues:\n{proc.stdout}\n{proc.stderr}"


def _strict_tier_subsystems() -> list[str]:
    """The subsystems the negated strict-tier ignore pattern leaves strict."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [subsystems] = re.findall(r'^"!src/repro/\{([^}]*)\}/\*\*" = ', pyproject, re.MULTILINE)
    return subsystems.split(",")


def _unused_locals(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of plain ``name = ...`` assignments never loaded.

    Per function: assignments in its own body (not in nested functions,
    lambdas or classes) whose name is never read anywhere in the
    function, nested scopes included. ``_``-prefixed names, tuple
    unpacking and ``global``/``nonlocal`` names are not flagged.
    """
    hits = []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded, declared, assigned = set(), set(), []
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        pending = list(ast.iter_child_nodes(function))
        while pending:
            node = pending.pop()
            if isinstance(node, scopes):
                continue
            if isinstance(node, ast.Assign):
                assigned += [
                    (target.lineno, target.id)
                    for target in node.targets
                    if isinstance(target, ast.Name)
                ]
            pending.extend(ast.iter_child_nodes(node))
        hits += [
            (line, name)
            for line, name in assigned
            if not name.startswith("_") and name not in loaded and name not in declared
        ]
    return sorted(hits)


@pytest.mark.skipif(_HAS_RUFF, reason="ruff enforces F841 itself")
def test_strict_tier_has_no_unused_locals():
    hits = []
    for subsystem in _strict_tier_subsystems():
        for path in sorted((REPO_ROOT / "src" / "repro" / subsystem).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            hits += [
                f"{path.relative_to(REPO_ROOT)}:{line}: F841 local {name!r} is never used"
                for line, name in _unused_locals(tree)
            ]
    assert not hits, "unused local variables:\n" + "\n".join(hits)
