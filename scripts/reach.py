#!/usr/bin/env python3
"""List the functions of ``src/kads`` that no verification suite reaches.

Runs under ``sys.setprofile``, in this fresh interpreter, the suites of
``run_all_checks.py``, formal ``poisson``, csv ``export`` and
``check-bialgebra --inject-fault`` formal and at lambda = -0.7, each into
a temporary directory, their printed output dropped.  Then prints every
function of the imported ``kads`` package (methods and nested functions
too) that never started, one line each: its line count (decorators
included), a tab, its dotted name.  The last line gives the totals.

Usage:  PYTHONPATH=src python scripts/reach.py
"""

import ast
import contextlib
import io
import pathlib
import sys
import tempfile

EXTRA_RUNS = [
    ("poisson_formal", ["poisson", "--lambda", "formal"]),
    ("export_csv", ["export", "--lambda", "-1.0", "--kappa-inv", "0.31",
                    "--samples", "50", "--format", "csv"]),
    ("fault_formal", ["check-bialgebra", "--inject-fault"]),
    ("fault_curved", ["check-bialgebra", "--lambda", "-0.7", "--inject-fault"]),
]


def reached() -> tuple:
    """The package directory and the (file, first line) of every code
    object started while the runs ran; kads is imported under the profile,
    so module-level calls count too."""
    started = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.setprofile(hook)
    try:
        import kads
        from kads.cli import main
        from run_all_checks import SUITES

        # csv export prints its report
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            for name, args in SUITES + EXTRA_RUNS:
                main(args + ["--out", str(pathlib.Path(tmp) / name)])
    finally:
        sys.setprofile(None)
    return (pathlib.Path(kads.__file__).resolve().parent,
            {(str(pathlib.Path(c.co_filename).resolve()), c.co_firstlineno) for c in started})


def functions(node, prefix: str):
    """(dotted name, first line, line count) of each def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield name, first, child.end_lineno - first + 1
            yield from functions(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}.{child.name}")
        else:
            yield from functions(child, prefix)


def main() -> int:
    package, started = reached()
    count = lines = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, first, size in functions(tree, f"kads.{path.stem}"):
            if (str(path), first) not in started:
                print(f"{size}\t{name}")
                count += 1
                lines += size
    print(f"{count} functions, {lines} lines that no suite reaches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
