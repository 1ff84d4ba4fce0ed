"""Statement and branch coverage of ``src/genet`` over the test suite, stdlib only.

Run as ``PYTHONPATH=src python -m tests.linecov [--map FILE] [pytest args]``
(default: ``tests``). Pytest runs in this process under ``sys.settrace``, and a
``sitecustomize.py`` first on ``PYTHONPATH`` traces each Python process that a
test starts with that environment, as the CLI tests do. For each module it
prints the statements never run and the ``if`` statements with an arm never
taken. ``--map FILE`` also writes, as JSON, the node ids of the tests that ran
each line, keyed ``"module.py:line"``; a line run outside any test, as at
import, maps to none.
"""

import ast
import atexit
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src" / "genet")
NODE_ENV = "LINECOV_NODE"
ARCS: dict = defaultdict(set)  # file -> {(line, next line or -1 on return)}
TESTS: dict = defaultdict(set)  # (file name, line) -> {node ids of the tests that ran it}
NODE = [os.environ.get(NODE_ENV)]  # the node id of the running test, set only under --map
SITE = "import runpy\nrunpy.run_path({path!r})['trace_child']({out!r})\n"  # sitecustomize.py


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


def trace_child(out: str) -> None:
    """Trace this subprocess of a test; at exit, write what it ran to a new file in `out`."""
    def dump():
        with os.fdopen(tempfile.mkstemp(".json", dir=out)[0], "w", encoding="utf-8") as f:
            json.dump({"node": NODE[0], "lines": [*TESTS],
                       "arcs": {path: sorted(arcs) for path, arcs in ARCS.items()}}, f)
    atexit.register(dump)
    sys.settrace(_trace)


def merge(out: str) -> None:
    for part in Path(out).glob("*.json"):
        child = json.loads(part.read_text("utf-8"))
        for path, arcs in child["arcs"].items():
            ARCS[path].update(map(tuple, arcs))
        for name, line in child["lines"]:
            TESTS[name, line].add(child["node"])


class PerTest:
    """A pytest plugin that re-arms the tracer before each test, which CPython
    drops at the recursion limit; under ``--map`` it names the running test
    for the tracer and, by the environment, for the processes it starts."""

    def __init__(self, named: bool):
        self.named = named

    def pytest_runtest_logstart(self, nodeid, location):
        sys.settrace(_trace)
        if self.named:
            NODE[0] = os.environ[NODE_ENV] = nodeid

    def pytest_runtest_logfinish(self, nodeid, location):
        if self.named:
            NODE[0] = None
            del os.environ[NODE_ENV]


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
    import pytest

    args, out = sys.argv[1:], None
    if args[:1] == ["--map"]:
        out, args = args[1], args[2:]
    with tempfile.TemporaryDirectory() as children:
        Path(children, "sitecustomize.py").write_text(
            SITE.format(path=__file__, out=children), "utf-8")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [children, os.environ.get("PYTHONPATH")]))
        sys.settrace(_trace)
        status = pytest.main(args or ["tests"], plugins=[PerTest(out is not None)])
        sys.settrace(None)
        merge(children)
    if out:
        Path(out).write_text(json.dumps({f"{name}:{line}": sorted(tests) for (name, line), tests
                                         in sorted(TESTS.items())}, indent=1), "utf-8")
    for path in sorted(Path(SRC).glob("*.py")):
        print("\n".join(f"{path.name}:{line}: {what}" for line, what in report(str(path)))
              or f"{path.name}: all run")
    sys.exit(status)
