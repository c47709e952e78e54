"""Each training mode is described once, by its record in ``train.MODES``.

``fit`` and ``train_step`` read the record: its strength, its rule term, its
loss scale, its total and what validation stops on. A branch on the mode's
name elsewhere would be a second description that the table cannot see. This
test reads ``train.py`` and fails on

- a string literal that names a mode outside the table and ``TrainConfig``
  (whose default names one), and
- a compare (``==``, ``!=``, ``in``, ``not in``) against a mode name or a
  read of an attribute named ``mode`` outside ``TrainConfig``, which checks
  the name against the table's keys.

A node is attributed to the module-level function or class around it, one
in a module-level assignment to the assigned name, and any other to
``<module>``.
"""

import ast
from pathlib import Path

from rulemix.train import MODES

TRAIN = Path(__file__).resolve().parents[1] / "src" / "rulemix" / "train.py"
NAME_OWNERS = {"MODES", "TrainConfig"}
COMPARE_OWNERS = {"TrainConfig"}
COMPARES = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _owner(top: ast.stmt) -> str:
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return top.name
    if isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
        return top.targets[0].id
    return "<module>"


def _names_a_mode(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in MODES


def _reads_mode(node: ast.AST) -> bool:
    return _names_a_mode(node) or (isinstance(node, ast.Attribute) and node.attr == "mode")


def mode_name_uses(tree: ast.Module) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """(owner, line) of each string literal naming a mode, and of each compare against one or a ``.mode`` read."""
    names, compares = [], []
    for top in tree.body:
        owner = _owner(top)
        for node in ast.walk(top):
            if _names_a_mode(node):
                names.append((owner, node.lineno))
            if (isinstance(node, ast.Compare) and any(isinstance(op, COMPARES) for op in node.ops)
                    and any(_reads_mode(side) for side in [node.left, *node.comparators])):
                compares.append((owner, node.lineno))
    return sorted(names), sorted(compares)


def strays(tree: ast.Module) -> list[str]:
    names, compares = mode_name_uses(tree)
    return sorted({f"train.py:{line} in {owner}: mode name" for owner, line in names if owner not in NAME_OWNERS}
                  | {f"train.py:{line} in {owner}: compare" for owner, line in compares
                     if owner not in COMPARE_OWNERS})


def test_only_the_table_and_the_config_read_a_mode_name():
    tree = ast.parse(TRAIN.read_text())
    assert not strays(tree), f"read the mode's record in MODES, not its name: {strays(tree)}"
    names, compares = mode_name_uses(tree)
    # each owner still does what it is allowed to, so neither list can go stale
    assert {owner for owner, _ in names} == NAME_OWNERS
    assert {owner for owner, _ in compares} == COMPARE_OWNERS
    assert sum(owner == "MODES" for owner, _ in names) == len(MODES)


def test_a_planted_compare_in_fit_is_reported():
    tree = ast.parse(TRAIN.read_text())
    fit = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "fit")
    planted = ast.parse('if cfg.mode == "controlled":\n    pass\n').body[0]
    fit.body.insert(1, ast.increment_lineno(planted, fit.body[1].lineno - 1))
    line = planted.lineno
    assert strays(tree) == [f"train.py:{line} in fit: compare", f"train.py:{line} in fit: mode name"]


def test_guard_attributes_each_use_to_its_top_level_owner():
    module = ast.parse(
        "MODES = {'controlled': 1}\n"
        "class TrainConfig:\n"
        "    mode: str = 'task_only'\n"
        "def fit(cfg):\n"
        "    if cfg.mode != other:\n"
        "        return 'rule_only' in names\n"
        "    return cfg.mode\n"  # a read that is not a compare
    )
    assert mode_name_uses(module) == (
        [("MODES", 1), ("TrainConfig", 3), ("fit", 6)],
        [("fit", 5), ("fit", 6)],
    )
