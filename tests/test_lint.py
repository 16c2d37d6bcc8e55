"""Lint gate: run ruff (configured in pyproject.toml) over the repo.

Skips when ruff is not installed in the environment — the offline test
image ships without it — but keeps CI environments that do have ruff
honest about the correctness-focused rule set. Without ruff, a small
stdlib check still enforces F401 (unused module-level import), the
strict tier's F841 (unused local variable), F541 (f-string without
placeholders) and W291/W292/W293 (trailing whitespace, missing final
newline) over every file ruff checks. E7 has no fallback.
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

#: What ruff checks; the whole of it is in the strict tier.
LINTED = ("src", "tests", "benchmarks", "examples")


def _linted_files() -> list[Path]:
    return [path for root in LINTED for path in sorted((REPO_ROOT / root).rglob("*.py"))]


@pytest.mark.skipif(not _HAS_RUFF, reason="ruff is not installed")
def test_ruff_check_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", *LINTED],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"ruff found issues:\n{proc.stdout}\n{proc.stderr}"


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


def _empty_fstrings(tree: ast.AST) -> list[int]:
    """Lines of f-strings with no placeholder (format specs excluded)."""
    specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(value, ast.FormattedValue) for value in node.values)
    ]


def _module_level(tree: ast.Module):
    """Module-level statements, including those in ``if``/``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def _unused_imports(tree: ast.Module, text: str) -> list[tuple[int, str]]:
    """``(line, name)`` of module-level imports the module never references.

    A name is referenced when it is read anywhere in the module, listed
    in a module-level ``__all__``, or appears in a string annotation.
    ``from __future__`` and star imports, and lines carrying ``# noqa``,
    are not flagged.
    """
    lines = text.split("\n")
    imported = []
    exported: set[str] = set()
    for node in _module_level(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                (alias.lineno, alias.asname or alias.name.partition(".")[0])
                for alias in node.names
                if alias.name != "*" and "# noqa" not in lines[alias.lineno - 1]
            ]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(
                element.value for element in ast.walk(node.value) if isinstance(element, ast.Constant)
            )
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return [(line, name) for line, name in imported if name not in used and name not in exported]


@pytest.mark.skipif(_HAS_RUFF, reason="ruff enforces F401 itself")
def test_no_unused_imports():
    hits = []
    for path in _linted_files():
        if path.name == "__init__.py":
            continue  # package roots re-export their public API
        text = path.read_text(encoding="utf-8")
        hits += [
            f"{path.relative_to(REPO_ROOT)}:{line}: F401 {name!r} imported but unused"
            for line, name in _unused_imports(ast.parse(text, filename=str(path)), text)
        ]
    assert not hits, "unused imports:\n" + "\n".join(hits)


@pytest.mark.skipif(_HAS_RUFF, reason="ruff enforces F841 itself")
def test_strict_tier_has_no_unused_locals():
    hits = []
    for path in _linted_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        hits += [
            f"{path.relative_to(REPO_ROOT)}:{line}: F841 local {name!r} is never used"
            for line, name in _unused_locals(tree)
        ]
    assert not hits, "unused local variables:\n" + "\n".join(hits)


@pytest.mark.skipif(_HAS_RUFF, reason="ruff enforces F541 and W2 itself")
def test_strict_tier_has_no_empty_fstrings_or_trailing_whitespace():
    hits = []
    for path in _linted_files():
        text = path.read_text(encoding="utf-8")
        relative = path.relative_to(REPO_ROOT)
        hits += [
            f"{relative}:{line}: F541 f-string without placeholders"
            for line in _empty_fstrings(ast.parse(text, filename=str(path)))
        ]
        hits += [
            f"{relative}:{number}: W291 trailing whitespace"
            for number, line in enumerate(text.split("\n"), 1)
            if line != line.rstrip()
        ]
        if text and not text.endswith("\n"):
            hits.append(f"{relative}: W292 no newline at end of file")
    assert not hits, "whitespace and f-string issues:\n" + "\n".join(hits)
