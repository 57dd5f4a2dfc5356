#!/usr/bin/env python3
"""Traced memory peak of importing chainsim from source.

    python3 scripts/import_peak.py

The package is copied, without any __pycache__, into a temporary
directory and imported from there with bytecode writing off, so every
module compiles from source, as in a fresh checkout.  The standard
modules that perfbench/run.py and perfbench/workloads.py import are
imported first, so their allocations are not counted.  Prints the
tracemalloc peak of a first ``import chainsim``, of a second one after
dropping the package from sys.modules (perfbench's set-up repeats the
import that way), and of compile() on each module's source.  Standard
library only.
"""

from __future__ import annotations

import ast
import gc
import importlib
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chainsim"
BENCH_FILES = (ROOT / "perfbench" / "run.py", ROOT / "perfbench" / "workloads.py")


def standard_imports(paths) -> list:
    """The standard-library modules the files at paths import at top level."""
    names = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(n for n in names if n.split(".")[0] in sys.stdlib_module_names)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, while fn runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drop_chainsim() -> None:
    for name in [m for m in sys.modules if m == "chainsim" or m.startswith("chainsim.")]:
        del sys.modules[name]


def main() -> int:
    sys.dont_write_bytecode = True
    for name in standard_imports(BENCH_FILES):
        importlib.import_module(name)
    rows = []
    with tempfile.TemporaryDirectory(prefix="chainsim-import-") as tmp:
        shutil.copytree(PACKAGE, Path(tmp) / "chainsim",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        rows.append(("import chainsim, first", traced_peak(
            lambda: importlib.import_module("chainsim"))))
        drop_chainsim()
        rows.append(("import chainsim, second", traced_peak(
            lambda: importlib.import_module("chainsim"))))
        sys.path.remove(tmp)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows.append(("compile %s" % path.name, traced_peak(
            lambda: compile(source, str(path), "exec"))))
    for label, peak in rows:
        print("%-26s %12s B  %8.1f KiB" % (label, format(peak, ","), peak / 1024))
    return 0


if __name__ == "__main__":
    sys.exit(main())
