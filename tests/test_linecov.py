"""`python -m tests.linecov --map` attributes each traced line to the tests that ran it,
in their own process and in the processes they start."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from genet import xmlio

ROOT = Path(__file__).resolve().parent.parent


def _last_line(function) -> str:
    lines, start = inspect.getsourcelines(function)
    return f"xmlio.py:{start + len(lines) - 1}"


def _linecov(tmp_path, name: str, source: str) -> tuple[str, dict]:
    """The report and the line map of `python -m tests.linecov --map` over
    the one test file `name` in `tmp_path`, holding `source`."""
    (tmp_path / name).write_text(source, "utf-8")
    out = tmp_path / "map.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "tests.linecov", "--map", str(out),
         "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         "--rootdir", str(tmp_path), str(tmp_path / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text("utf-8"))


def test_map_names_the_test_that_ran_each_line(tmp_path):
    """The first test ends at the recursion limit, where CPython drops the
    tracer; the second is traced all the same."""
    _, lines = _linecov(tmp_path, "test_two.py", (
        "import pytest\nfrom genet import xmlio\n\n"
        "def test_boolean():\n    assert xmlio.parse_boolean('true') is True\n"
        "    def deep():\n        deep()\n"
        "    with pytest.raises(RecursionError):\n        deep()\n\n"
        "def test_integer():\n    assert xmlio.parse_integer('07') == '7'\n"))
    assert lines[_last_line(xmlio.parse_boolean)] == ["test_two.py::test_boolean"]
    assert lines[_last_line(xmlio.parse_integer)] == ["test_two.py::test_integer"]


def test_subprocesses_of_tests_are_traced(tmp_path):
    stdout, lines = _linecov(tmp_path, "test_one.py", (
        "import os, subprocess, sys\n\n"
        "def test_main():\n"
        "    assert subprocess.run([sys.executable, '-m', 'genet', 'bases', 'list'],\n"
        "                          env=os.environ, capture_output=True).returncode == 0\n"))
    report = [line for line in stdout.splitlines() if line.startswith("__main__.py")]
    assert report and not [line for line in report if line.endswith("never run")], report
    last = len((ROOT / "src" / "genet" / "__main__.py").read_text("utf-8").splitlines())
    assert lines[f"__main__.py:{last}"] == ["test_one.py::test_main"]
