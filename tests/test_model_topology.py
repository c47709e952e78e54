"""The network is written once, in ``model.encode``, ``model.couple`` and ``model.decode``.

Training records these functions on a ``Tape``; inference runs them over
``autodiff.Arrays``. A second copy of the topology (say, a tape-free forward
pass written out by hand) would have to branch on the coupling again. This
test reads ``model.py`` and fails on any read of an attribute named
``coupling`` outside ``OWNERS``: ``ModelSpec``, which validates the coupling
and lays out the parameters, and the three functions that run the network.

A read is attributed to the module-level function or class around it, and
one at module level to ``<module>``.
"""

import ast
from pathlib import Path

MODEL = Path(__file__).resolve().parents[1] / "src" / "rulemix" / "model.py"
OWNERS = {"ModelSpec", "encode", "couple", "decode"}


def coupling_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(module-level owner, line) for each ``<expr>.coupling`` in ``tree``, in line order."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        found += sorted((owner, node.lineno) for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and node.attr == "coupling")
    return found


def test_only_the_spec_encode_couple_and_decode_read_the_coupling():
    reads = coupling_reads(ast.parse(MODEL.read_text()))
    strays = sorted(f"model.py:{line} in {owner}" for owner, line in reads if owner not in OWNERS)
    assert not strays, f"branch on the coupling in encode, couple or decode only: {strays}"
    assert {owner for owner, _ in reads} == OWNERS  # each owner still reads it, so the list cannot go stale


def test_guard_attributes_each_read_to_its_top_level_owner():
    module = ast.parse(
        "LAYOUT = spec.coupling\n"
        "class ModelSpec:\n"
        "    def blocks(self):\n"
        "        return self.coupling\n"
        "def forward(spec):\n"
        "    def inner():\n"
        "        return spec.coupling == 'single'\n"
        "    return [s.coupling for s in specs]\n"
    )
    assert coupling_reads(module) == [("<module>", 1), ("ModelSpec", 4), ("forward", 7), ("forward", 8)]
