"""The mass-row layout of ModelBank stays inside gaussian.

codec and priority read mass rows only through ModelBank.row_blocks,
ModelBank.plane_statistics and ModelBank.moments.  This test fails when
either reads the flat buffer, the element starts, the strided window helper
or the bank's kept root statistics, or defines its own block budget, so a
new model layout changes one module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tritstream"
LAYOUT_NAMES = {"masses_flat", "starts", "_windows", "_root_rows", "_root_moments"}


def _layout_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id == "_windows":
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in LAYOUT_NAMES:
            yield 0, node.name


def _block_constants(tree):
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and any(
                    word in target.id.upper() for word in ("BLOCK", "ENTRIES", "GATHER")):
                yield node.lineno, target.id


@pytest.mark.parametrize("module", ["codec.py", "priority.py"])
def test_layout_stays_in_gaussian(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert list(_layout_reads(tree)) == []
    assert list(_block_constants(tree)) == []


def test_the_guard_sees_what_it_forbids():
    tree = ast.parse("from .gaussian import _windows\n"
                     "_BLOCK_ENTRIES = 1 << 16\n"
                     "def f(bank, i):\n"
                     "    return bank.masses_flat[bank.starts[i]] + bank._root_moments[0, i]\n")
    assert sorted(name for _, name in _layout_reads(tree)) == [
        "_root_moments", "_windows", "masses_flat", "starts"]
    assert list(_block_constants(tree)) == [(2, "_BLOCK_ENTRIES")]
