"""Every file the command module writes goes through ``staged_writes``.

A command writes an output only to a path returned by ``stage(...)``, so a
failed or interrupted command leaves no partial file and no target touched.
This test reads ``src/rulemix/cli.py`` and fails on any write call whose
path is anything but a ``stage(...)`` call written in place, or a handle
opened on one. The write calls are ``open`` (the builtin or a method) with a
``w``, ``x`` or ``a`` mode or a mode that is not a literal, ``write_text``,
``write_bytes``, and the writers in ``PATH_ARGUMENT``.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "rulemix" / "cli.py"

# writer name -> the position of its path argument
PATH_ARGUMENT = {
    "save_checkpoint": 0,
    "to_csv": 0,
    "sweep_to_csv": 1,
    "write_dataset_csv": 0,
    "write_table": 0,
    "savez": 0,
}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_stage(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "stage"


def _argument(call: ast.Call, index: int, keyword: str) -> ast.expr | None:
    if index < len(call.args):
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def _written_path(call: ast.Call) -> tuple[bool, ast.expr | None]:
    """(whether ``call`` writes a file, the expression naming that file)."""
    name = _name(call.func)
    if name in ("write_text", "write_bytes"):
        return True, call.func.value
    if name == "open":
        method = isinstance(call.func, ast.Attribute)  # path.open(mode)
        mode = _argument(call, 0 if method else 1, "mode")
        literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        writes = mode is not None and not (literal and not set("wxa") & set(mode.value))
        return writes, call.func.value if method else _argument(call, 0, "file")
    if name in PATH_ARGUMENT:
        return True, _argument(call, PATH_ARGUMENT[name], "path")
    return False, None


def _calls(node: ast.AST):
    """Every call under ``node``, outside the bodies of the writers in ``PATH_ARGUMENT``.

    Such a writer writes the path it is given; each call of it is checked instead.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name in PATH_ARGUMENT:
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _calls(child)


def unstaged_writes(tree: ast.Module) -> list[str]:
    """``"<line>: <call>"`` for each write in ``tree`` whose path is not a ``stage(...)`` call.

    A handle opened on a staged path (``with open(stage(p), "wb") as fh``) counts as staged;
    the handle is known by its name alone, which the module must not reuse for an unstaged file.
    """
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.optional_vars, ast.Name) and isinstance(item.context_expr, ast.Call)
        and _name(item.context_expr.func) == "open" and _is_stage(_written_path(item.context_expr)[1])
    }
    found = []
    for call in _calls(tree):
        writes, path = _written_path(call)
        if writes and not (_is_stage(path) or isinstance(path, ast.Name) and path.id in handles):
            found.append(f"{call.lineno}: {ast.unparse(call)}")
    return found


def test_command_module_writes_only_staged_paths():
    tree = ast.parse(CLI.read_text())
    calls = {_name(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert {"stage", "save_checkpoint", "sweep_to_csv", "write_dataset_csv", "write_table", "write_text"} <= calls
    found = unstaged_writes(tree)
    assert not found, f"write through staged_writes: stage(path), not the path itself: {found}"


def test_guard_flags_each_write_outside_stage():
    module = ast.parse(
        "def write_table(path, header, blocks):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(names)\n"
        "with staged_writes() as stage:\n"
        "    save_checkpoint(stage(a), result)\n"
        "    sweep_to_csv(records, stage(b))\n"
        "    stage(c).write_text(text)\n"
        "    write_table(stage(d), names, blocks)\n"
        "    with open(stage(e), 'wb') as fh:\n"
        "        np.savez(fh, x=x)\n"
        "np.savez(other, x=x)\n"
        "open(f).read()\n"
        "open(g, mode='r')\n"
        "save_checkpoint(h, result)\n"
        "sweep_to_csv(stage(i), j)\n"
        "k.write_text(text)\n"
        "open(l, 'a')\n"
        "m.open(mode)\n"
        "report.to_csv(path=n)\n"
        "write_table(o, names, blocks)\n"
    )
    flagged = [int(line.split(":")[0]) for line in unstaged_writes(module)]
    assert flagged == [11, 14, 15, 16, 17, 18, 19, 20]
