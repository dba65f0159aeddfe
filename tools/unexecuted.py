"""Statements of the qpr package that no run reaches.

    python3 tools/unexecuted.py

Traces, with the standard library's sys.settrace alone, the tier-1 suite run
in-process (pytest over tests/) and then round 0 of every perfbench workload
for seeds 0-3, each operation one in-process ``qpr.cli.main(argv)`` call as
perfbench/run.py makes it.  Then prints, per module of src/qpr, each
statement that never ran (line number and first source line) and the total.

Docstrings and def, class and import lines are skipped, and so are try
headers and global declarations, which run no code of their own.  A simple
statement counts as run when any of its lines reports a line event; a
compound one (if, for, while, with) when its header does.

Tracing slows the suite several times over, so the tests that gate timing
(AC-7, AC-8 and AC-10 in tests/test_acceptance.py) may overrun and fail
under it; that is expected.  The tool reports coverage, not test outcomes:
pytest's summary is shown for reference only.  Exits 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "qpr")
SEEDS = range(4)
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, ast.Global, ast.Nonlocal)


def statements(path: str) -> dict[int, range]:
    """The statements of a module that run code, by first line, each with
    the lines whose line event counts it as run."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _SCOPES) and node.body and _is_docstring(node.body[0])}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)  # a compound statement: its header alone
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[node.lineno] = range(node.lineno, last + 1)
    return out


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


class LineTracer:
    """Line events of the frames whose code lies in one directory."""

    def __init__(self, directory: str):
        self.prefix = os.path.join(directory, "")
        self.seen: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.seen.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def run_tier1() -> list[str]:
    """pytest over tests/ in this process; its summary lines (each failed
    test, then the counts)."""
    import pytest
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        pytest.main(["-q", "-rf", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    lines = out.getvalue().strip().splitlines()
    return [line for line in lines if line.startswith("FAILED")] + lines[-1:]


def run_rounds() -> int:
    """Round 0 of every workload for SEEDS; the number of operations."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    from qpr.cli import main
    ops = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.round_ops(name, seed, 0):
                ops += 1
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        main(op["argv"])
                    except SystemExit:
                        pass
    return ops


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = LineTracer(PKG)
    with tracer.active():
        summary = run_tier1()
        ops = run_rounds()
    print("tier-1 under tracing (outcomes not asserted; timing gates may overrun):")
    for line in summary:
        print(f"  {line}")
    print(f"round 0 of every workload, seeds {SEEDS.start}-{SEEDS.stop - 1}: {ops} operations")
    total = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        seen = tracer.seen.get(path, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        missed = [first for first, span in sorted(statements(path).items())
                  if seen.isdisjoint(span)]
        total += len(missed)
        print(f"{name}: {len(missed)} never ran")
        for first in missed:
            print(f"  {first:4}  {source[first - 1].strip()}")
    print(f"{total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
