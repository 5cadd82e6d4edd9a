"""List the statements of the library that the tier-1 suite never runs.

    python tests/linetrace.py [pytest arguments]

Runs pytest in-process (by default on ``tests``, quiet, as tier 1 runs it)
with a line tracer installed by ``sys.settrace`` and ``threading.settrace``,
then prints, as ``path:line: source``, every statement in
``src/pencil_tracemin`` that no test reached.  Only statements inside
function bodies are counted, so those that run at import time (module and
class bodies, definitions, imports) are not; nor are docstrings, which
compile to no instruction, or ``try:`` headers.  A compound statement counts
by its header alone (``if x:``, ``for ... in ...:``), and a statement
spanning several lines ran when a line event fired on any of its own lines.
Code run in a subprocess (the demos, one CLI test) is not seen.  Exits with
pytest's status, or 1 when pytest passed but a statement was unreached.
The file name does not match ``test_*.py``, so pytest does not collect it.
``coverage`` would do the same job, but it is not a dependency.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pencil_tracemin"


def statements(path: Path):
    """{line: (first, last)} of each statement inside a function body of the
    module at ``path``, keyed by its first line; (first, last) are the lines
    whose events count for it: a simple statement's span, a compound one's
    header."""
    out = {}

    def visit(body):
        for k, node in enumerate(body):
            if k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue  # a docstring
            children = [c for field in ("body", "handlers", "orelse", "finalbody", "cases")
                        for c in getattr(node, field, []) if isinstance(c, ast.AST)]
            if not isinstance(node, ast.Try):
                last = children[0].lineno - 1 if children else node.end_lineno
                out[node.lineno] = (node.lineno, max(last, node.lineno))
            for child in children:
                visit(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                      else [child])

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body)
    return out


def traced_lines(args):
    """(pytest status, {path: lines run}) of a pytest run on ``args``."""
    files = {str(p): p for p in PACKAGE.glob("*.py")}
    hits = {p: set() for p in files.values()}

    def local(frame, event, arg):
        if event == "line":
            hits[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def unreached(hits):
    """[(path, line)] of the statements whose lines no event reached."""
    missing = []
    for path, lines in sorted(hits.items()):
        for line, (first, last) in sorted(statements(path).items()):
            if not lines.intersection(range(first, last + 1)):
                missing.append((path, line))
    return missing


def main(argv=None):
    args = list(argv if argv is not None else sys.argv[1:])
    args = args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = traced_lines(args)
    missing = unreached(hits)
    print(f"\n{len(missing)} statements in {PACKAGE.relative_to(ROOT)} never ran:")
    for path, line in missing:
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    return int(status) or int(bool(missing))


if __name__ == "__main__":
    sys.exit(main())
