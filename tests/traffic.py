"""List the library statements that the pinned outputs and the benchmark never execute.

Runs, under one `sys.settrace` line tracer, every golden-output entry
(`golden_outputs.run_matrix()` and `run_library()`) and one cycle of each
benchmark workload (`prepare`, `validate`, then `execute` and `verify` per
step) in a temporary directory, then prints each statement inside a function
of `src/bhvqe` that none of them executed, as `file:line: source`. Module and
class bodies run on import and are not listed. `bench/` is imported, never
written. Always exits 0: the list is a map for simplification work, not a
gate.

    PYTHONPATH=src python tests/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import sys
import tempfile

import bhvqe

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

import golden_outputs  # noqa: E402
import workloads  # noqa: E402

PACKAGE = pathlib.Path(bhvqe.__file__).resolve().parent


def function_statements(tree: ast.Module) -> dict[int, range]:
    """First line -> the lines that run its own code, for every statement inside a function.

    A compound statement's own lines end before its body; a `try` has none,
    and a docstring or a `global`/`nonlocal` declaration is not executed.
    """
    statements: dict[int, range] = {}

    def visit(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
                continue
            if not isinstance(stmt, ast.Try):
                inner = getattr(stmt, "body", None)
                header_end = inner[0].lineno if inner else stmt.end_lineno + 1
                statements[stmt.lineno] = range(stmt.lineno, header_end)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, None) or [])
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body)
    return statements


def run_traffic() -> dict[str, set[int]]:
    """The lines of each package file that executed, by file path."""
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            executed.setdefault(frame.f_code.co_filename, set())
            return local
        return None

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(call)
        try:
            golden_outputs.run_matrix()
            golden_outputs.run_library()
            for name in workloads.WORKLOADS:
                workload = workloads.make(name, 1, str(pathlib.Path(tmp) / name))
                workload.prepare()
                workload.validate()
                for step in workload.steps():
                    workload.verify(step, workload.execute(step))
        finally:
            sys.settrace(None)
    return executed


def main() -> int:
    executed = run_traffic()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        for first, own in sorted(function_statements(ast.parse(source)).items()):
            if ran.isdisjoint(own):
                print(f"{path.relative_to(PACKAGE.parent.parent)}:{first}: {lines[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
