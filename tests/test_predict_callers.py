"""Only the training step records the model on a gradient tape.

``model.predict`` records every layer's output on the tape it is given.
Passes that take no gradient run on the inference path,
``model.forward_per_alpha``, which builds no tape at all. This test reads
every module of ``src/rulemix`` and fails on a call of ``predict`` from any
function but those in ``CALLERS``:

* ``record``, the method of ``train._Step`` that records the training
  step, the one pass that backpropagates;
* ``predict_values``, the reference the benchmark checks sweeps against.

A call is attributed to the innermost named function around it, a call at
module level to ``<module>``, and a name imported as ``predict`` under
another name counts as a call site in itself.

A second guard follows every call by name from the inference path's entry
points in ``TAPELESS`` through the package's module-level functions, and
fails where one of them constructs a ``Tape``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rulemix"
CALLERS = {"record", "predict_values"}
TAPELESS = {"forward_per_alpha", "alpha_sweep", "_output"}  # model, evaluate and train


def predict_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(calling function, line) for each call of ``predict`` or ``<module>.predict`` in ``tree``."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                found.extend((f"import as {a.asname}", child.lineno) for a in child.names
                             if a.name == "predict" and a.asname not in (None, "predict"))
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "predict"
                        or isinstance(func, ast.Attribute) and func.attr == "predict"):
                    found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_training_step_and_the_inference_path_call_predict():
    calls = {
        f"{path.name}:{line} in {owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner, line in predict_calls(ast.parse(path.read_text()))
        if owner not in CALLERS
    }
    assert not calls, f"run passes that take no gradient through forward_per_alpha: {sorted(calls)}"
    owners = {owner for path in SRC.glob("*.py") for owner, _ in predict_calls(ast.parse(path.read_text()))}
    assert owners == CALLERS  # each allowed caller is still one, so the list cannot go stale


def test_guard_attributes_each_call_to_its_function():
    module = ast.parse(
        "from .model import predict as run\n"
        "predict(tape, spec, params, x, 0.5)\n"
        "def train_step(tape):\n"
        "    fwd = predict(tape, spec, params, x, alpha)\n"
        "    def inner():\n"
        "        return model.predict(tape, spec, params, x, alpha)\n"
        "    return [predict(t, s, p, v, a) for v in xs]\n"
        "def compute_loss_scale(tape):\n"
        "    f = lambda v: predict(tape, spec, params, v, 0.5)\n"
        "    return predict_values(spec, params, x, 0.5), forward_per_alpha(spec, params, x, (0.5,))\n"
    )
    assert predict_calls(module) == [
        ("import as run", 1), ("<module>", 2), ("train_step", 4), ("inner", 6), ("train_step", 7),
        ("compute_loss_scale", 9),
    ]


def functions(trees: list[ast.Module]) -> dict[str, list[ast.AST]]:
    """Module-level function definitions by name, over every module (a name defined twice keeps both)."""
    found: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(node.name, []).append(node)
    return found


def tape_constructions(roots: set[str], defs: dict[str, list[ast.AST]]) -> list[tuple[str, int]]:
    """(function, line) of each ``Tape(...)`` call in ``roots`` or a function they call by name, transitively."""
    found, seen, todo = [], set(), sorted(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for fn in defs[name]:
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if callee == "Tape":
                    found.append((name, node.lineno))
                elif isinstance(func, ast.Name):
                    todo.append(callee)
    return found


def test_the_inference_path_constructs_no_tape():
    defs = functions([ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))])
    assert TAPELESS <= defs.keys()
    assert not tape_constructions(TAPELESS, defs)


def test_tape_guard_follows_calls_by_name():
    module = ast.parse(
        "def entry(x):\n"
        "    return [helper(v) for v in x]\n"
        "def helper(v):\n"
        "    def inner():\n"
        "        return autodiff.Tape()\n"
        "    return inner()\n"
        "def unrelated():\n"
        "    return Tape()\n"
    )
    defs = functions([module])
    assert tape_constructions({"entry"}, defs) == [("helper", 5)]
    assert tape_constructions({"unrelated"}, defs) == [("unrelated", 8)]
