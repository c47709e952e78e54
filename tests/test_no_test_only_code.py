"""Every top-level definition in ``src/rulemix`` is used by the program.

A function, class, method or module constant that only the tests reach
belongs in the tests (``tests/helpers.py`` for shared oracles), not in the
package. A definition counts as used when its name is loaded, read as an
attribute, or written as a string constant (``getattr`` and the benchmark's
patch table name attributes that way) anywhere in ``src/rulemix`` or in
``perfbench/*.py``, outside its own definition. The re-exports in
``__init__.py`` do not count, and neither do perfbench's test files.

Known blind spot: a name that is also a builtin or a common attribute, such
as ``sum``, looks used wherever that other name appears.
"""

import ast
import types
from pathlib import Path

import rulemix

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rulemix"


def _program_files() -> list[Path]:
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return package + bench


def _public(name: str) -> bool:
    return not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, target.id, node.lineno, node.end_lineno


def references(tree: ast.Module):
    """(name, line) of every read of a name, an attribute or an identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def unused(trees: dict[str, ast.Module], checked: set[str]) -> list[str]:
    """``"<file>: <qualified name>"`` of each definition in ``checked`` files no file reads."""
    refs = {key: list(references(tree)) for key, tree in trees.items()}
    out = []
    for key in sorted(checked):
        for qualified, name, first, last in definitions(trees[key]):
            if not any(
                ref == name and (other != key or not first <= line <= last)
                for other, found in refs.items()
                for ref, line in found
            ):
                out.append(f"{key}: {qualified}")
    return out


def test_every_package_definition_is_used_by_the_program():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text()) for path in _program_files()}
    package = {key for key in trees if key.startswith("src/")}
    assert len(package) > 10, "the package sources were not found"
    found = unused(trees, package)
    assert not found, f"reached only from tests; move to tests/helpers.py or delete: {found}"


def test_guard_flags_a_definition_no_program_code_reads():
    module = ast.parse(
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def lonely():\n    return lonely()\n"
        "class Box:\n    def open(self):\n        return getattr(self, 'shut')\n"
        "    def shut(self):\n        return used()\n"
    )
    reader = ast.parse("import m\nm.Box\n")
    assert unused({"m": module}, {"m"}) == ["m: lonely", "m: Box", "m: Box.open"]
    assert unused({"m": module, "reader": reader}, {"m"}) == ["m: lonely", "m: Box.open"]


def test_package_exports_neither_modules_nor_test_oracles():
    exported = {name: getattr(rulemix, name) for name in rulemix.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, types.ModuleType)]
    assert "Tape" in exported and "config" not in exported
    assert not {"grad_check_fd", "spearman_rank_corr", "extended_alpha_grid"} & exported.keys()
