"""The benchmark's tracer patches rulemix names where callers look them up.

``perfbench/spans.py`` lists every (owner, attribute) it replaces during a
traced run. A refactor that removes or moves one of those names breaks the
benchmark without failing any other test, so each one is checked here.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_resolves():
    table = load_spans().patch_table()
    assert table
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in table
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, f"perfbench traces names that no longer exist: {missing}"
