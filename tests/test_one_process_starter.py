"""Only ``parallel.py`` starts processes in the package.

Work that runs in several processes goes through ``parallel.forked_map``, so
that one helper owns forking, result passing and reaping, and a second pool
is not written beside it. This test reads every module of ``src/rulemix``
and fails on a process-starting construct outside ``parallel.py``: an
import of ``multiprocessing``, ``concurrent.futures`` or ``subprocess`` (or
a submodule), and ``os.fork``, ``os.forkpty`` or an ``os`` spawn function,
used as an attribute or imported by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rulemix"
HELPER = "parallel.py"
MODULES = ("multiprocessing", "concurrent.futures", "subprocess")


def _starts_processes_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in MODULES)


def _os_starter(name: str) -> bool:
    return name in ("fork", "forkpty") or name.startswith(("spawn", "posix_spawn"))


def process_starts(tree: ast.Module) -> list[str]:
    """``"<line>: <code>"`` for each process-starting construct in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(_starts_processes_module(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (
                _starts_processes_module(module)
                or module == "concurrent" and any(alias.name == "futures" for alias in node.names)
                or module == "os" and any(_os_starter(alias.name) for alias in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = isinstance(node.value, ast.Name) and node.value.id == "os" and _os_starter(node.attr)
        else:
            hit = False
        if hit:
            found.append((node.lineno, f"{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_only_the_helper_starts_processes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert HELPER in [p.name for p in modules]
    found = {p.name: process_starts(ast.parse(p.read_text())) for p in modules}
    assert found.pop(HELPER), f"{HELPER} no longer starts processes: update this guard"
    assert not {name: hits for name, hits in found.items() if hits}, (
        f"start processes through parallel.forked_map, not in another module: {found}"
    )


def test_guard_flags_each_way_to_start_a_process():
    module = ast.parse(
        "import os\n"
        "import multiprocessing\n"
        "import concurrent.futures as cf\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from multiprocessing.pool import Pool\n"
        "import subprocess\n"
        "from os import fork\n"
        "pid = os.fork()\n"
        "os.posix_spawn(path, argv, env)\n"
        "os.getpid()\n"
        "import concurrent\n"
        "from os import getpid\n"
        "fork = other.fork\n"
        "import multiprocessing_like\n"
    )
    flagged = [int(line.split(":")[0]) for line in process_starts(module)]
    assert flagged == [2, 3, 4, 5, 6, 7, 8, 9, 10]
