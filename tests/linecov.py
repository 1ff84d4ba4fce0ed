"""Statement and branch coverage of ``src/genet`` over the test suite, stdlib only.

Run as ``PYTHONPATH=src python -m tests.linecov [--map FILE] [pytest args]``
(default: ``tests``). Pytest runs in this process under ``sys.settrace``; for
each module it prints the statements never run and the ``if`` statements with
an arm never taken. Code run only in subprocesses, as by the CLI tests, counts
as not run. ``--map FILE`` also writes, as JSON, the node ids of the tests that
ran each line, keyed ``"module.py:line"``; a line run outside any test, as at
import, maps to none.
"""

import ast
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "genet")
ARCS: dict = defaultdict(set)  # file -> {(line, next line or -1 on return)}
TESTS: dict = defaultdict(set)  # (file name, line) -> {node ids of the tests that ran it}
NODE = [None]  # the node id of the running test, set only under --map


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    arcs, last = ARCS[frame.f_code.co_filename], [-1]
    name = Path(frame.f_code.co_filename).name

    def local(frame, event, arg):
        if event in ("line", "return"):
            arcs.add((last[0], frame.f_lineno if event == "line" else -1))
            last[0] = frame.f_lineno
            if NODE[0] is not None:
                TESTS[name, frame.f_lineno].add(NODE[0])
        return local
    return local


class NodeIds:
    """A pytest plugin that names the running test for the tracer."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        NODE[0] = item.nodeid
        yield
        NODE[0] = None


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
    args, out = sys.argv[1:], None
    if args[:1] == ["--map"]:
        out, args = args[1], args[2:]
    sys.settrace(_trace)
    status = pytest.main(args or ["tests"], plugins=[NodeIds()] if out else [])
    sys.settrace(None)
    if out:
        Path(out).write_text(json.dumps({f"{name}:{line}": sorted(tests) for (name, line), tests
                                         in sorted(TESTS.items())}, indent=1), "utf-8")
    for path in sorted(Path(SRC).glob("*.py")):
        print("\n".join(f"{path.name}:{line}: {what}" for line, what in report(str(path)))
              or f"{path.name}: all run")
    sys.exit(status)
