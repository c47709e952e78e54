"""Only ``parallel.py`` starts processes or threads in the package.

Work that runs in several processes goes through ``parallel.forked_map``,
and work on several threads through ``parallel.threaded_map``, so that one
helper owns forking, result passing, reaping and joining, and a second pool
is not written beside it. This test reads every module of ``src/rulemix``
and fails on a process- or thread-starting construct outside
``parallel.py``: an import of ``multiprocessing``, ``concurrent.futures``,
``subprocess`` or ``_thread`` (or a submodule); ``os.fork``, ``os.forkpty``
or an ``os`` spawn function; and ``threading.Thread`` or
``threading.Timer``; each used as an attribute or imported by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rulemix"
HELPER = "parallel.py"
MODULES = ("multiprocessing", "concurrent.futures", "subprocess", "_thread")
THREADS = ("Thread", "Timer")  # the starters of the threading module


def _starts_processes_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in MODULES)


def _os_starter(name: str) -> bool:
    return name in ("fork", "forkpty") or name.startswith(("spawn", "posix_spawn"))


def process_starts(tree: ast.Module) -> list[str]:
    """``"<line>: <code>"`` for each process- or thread-starting construct in ``tree``."""
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
                or module == "threading" and any(alias.name in THREADS for alias in node.names)
            )
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = (node.value.id == "os" and _os_starter(node.attr)
                   or node.value.id == "threading" and node.attr in THREADS)
        else:
            hit = False
        if hit:
            found.append((node.lineno, f"{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_only_the_helper_starts_processes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert HELPER in [p.name for p in modules]
    found = {p.name: process_starts(ast.parse(p.read_text())) for p in modules}
    assert found.pop(HELPER), f"{HELPER} no longer starts processes or threads: update this guard"
    assert not {name: hits for name, hits in found.items() if hits}, (
        f"start processes through parallel.forked_map and threads through parallel.threaded_map, "
        f"not in another module: {found}"
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
        "import threading\n"
        "t = threading.Thread(target=run)\n"
        "from threading import Thread\n"
        "from threading import Timer, Event\n"
        "threading.Timer(1.0, run)\n"
        "import _thread\n"
        "from _thread import start_new_thread\n"
        "threading.current_thread()\n"
        "from threading import Lock\n"
        "other.Thread(target=run)\n"
    )
    flagged = [int(line.split(":")[0]) for line in process_starts(module)]
    assert flagged == [2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18, 19, 20, 21, 22]
