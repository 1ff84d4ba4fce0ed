"""Statement and branch coverage of ``src/genet`` over the test suite, stdlib only.

Run as ``PYTHONPATH=src python -m tests.linecov [pytest args]`` (default:
``tests``). Pytest runs in this process under ``sys.settrace``; for each module
it prints the statements never run and the ``if`` statements with an arm never
taken. Code run only in subprocesses, as by the CLI tests, counts as not run.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "genet")
ARCS: dict = defaultdict(set)  # file -> {(line, next line or -1 on return)}


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    arcs, last = ARCS[frame.f_code.co_filename], [-1]

    def local(frame, event, arg):
        if event in ("line", "return"):
            arcs.add((last[0], frame.f_lineno if event == "line" else -1))
            last[0] = frame.f_lineno
        return local
    return local


def report(path: str) -> list[tuple[int, str]]:
    arcs = ARCS[path]
    ran = {line for _, line in arcs}
    out = []
    for node in ast.walk(ast.parse(Path(path).read_text("utf-8"))):
        span = range(node.lineno, node.end_lineno + 1) if isinstance(node, ast.stmt) else ()
        if (span and not hasattr(node, "body") and ran.isdisjoint(span)
                and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))):
            out.append((node.lineno, "never run"))
        if isinstance(node, ast.If):  # the arms are the lines leaving the test
            test = range(node.lineno, node.test.end_lineno + 1)
            body = range(node.body[0].lineno, node.body[0].end_lineno + 1)
            leaves = {line for prev, line in arcs if prev in test and line not in test}
            for arm, taken in (("true", leaves & set(body)), ("false", leaves - set(body))):
                if not taken:
                    out.append((node.lineno, f"if arm {arm} never taken"))
    return sorted(out)


if __name__ == "__main__":
    sys.settrace(_trace)
    status = pytest.main(sys.argv[1:] or ["tests"])
    sys.settrace(None)
    for path in sorted(Path(SRC).glob("*.py")):
        print("\n".join(f"{path.name}:{line}: {what}" for line, what in report(str(path)))
              or f"{path.name}: all run")
    sys.exit(status)
