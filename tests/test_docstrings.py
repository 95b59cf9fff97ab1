"""Docstring audit: every public API in the audited packages is documented.

Mirrors the pydocstyle/ruff "missing docstring" rules (D100-D104) with no
third-party dependency, scoped — per the documentation policy — to
``repro.experiments``, ``repro.store``, ``repro.sim``, ``repro.faults``,
``repro.serve``, ``repro.clustering``, ``repro.core``, ``repro.trace``,
``repro.util``, ``repro.mem``, ``repro.machines``, ``repro.workloads``,
``repro.profiling`` and ``repro.cpu``.  CI additionally runs ruff's ``D1`` rules over the same
packages.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages under the documentation mandate.
AUDITED = (
    "experiments", "store", "sim", "faults", "serve", "clustering", "core",
    "trace", "util", "mem", "machines", "workloads", "profiling", "cpu",
)


def _is_public(name: str) -> bool:
    """Whether a definition name is public (pydocstyle semantics)."""
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


def _missing_in_node(
    node: ast.AST, qualifier: str, missing: list[str]
) -> None:
    """Recursively collect public defs without docstrings under ``node``."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        name = child.name
        if name.startswith("__") and name.endswith("__"):
            continue  # magic methods: D105/D107 territory, not enforced
        if not _is_public(name):
            continue  # private defs (and everything inside) are exempt
        if ast.get_docstring(child) is None:
            missing.append(f"{qualifier}{name}")
        _missing_in_node(child, f"{qualifier}{name}.", missing)


def missing_docstrings(path: pathlib.Path) -> list[str]:
    """All public, undocumented definitions in one source file.

    Args:
        path: Python source file to audit.

    Returns:
        Qualified names missing a docstring; the module itself is
        reported as ``<module>`` when its docstring is absent.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    _missing_in_node(tree, "", missing)
    return missing


def test_audited_packages_exist():
    for package in AUDITED:
        assert (SRC / package / "__init__.py").is_file()


def test_public_api_is_documented():
    offenders: list[str] = []
    for package in AUDITED:
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC.parent)
            offenders += [
                f"{rel}: {name}" for name in missing_docstrings(path)
            ]
    assert not offenders, (
        "public definitions missing docstrings (one-line summary + "
        "args/returns required):\n  " + "\n  ".join(offenders)
    )
