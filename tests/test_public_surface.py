"""The public surface: every name the package exports is used by the
program itself (its modules, scripts or benchmark), not only by tests."""

import ast
import pathlib

import etacalc

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Exported for checks that do not exist yet: ROADMAP item 3 wires
# psi_spectral into psi_constancy and eta_bk/m_minus into a bk_jump check.
NOT_YET_USED = {"eta_bk", "m_minus", "psi_spectral"}


def _used_names() -> set[str]:
    """Names read anywhere in src/, scripts/ and bench/, outside
    ``__init__``: loaded identifiers and attributes.  Definitions,
    assignments, imports, strings and comments do not count."""
    used = set()
    for directory in ("src", "scripts", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_export_is_used_by_the_program():
    unused = set(etacalc.__all__) - _used_names()
    assert unused == NOT_YET_USED
