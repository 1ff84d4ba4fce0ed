"""`python -m tests.linecov --map` attributes each traced line to the tests that ran it."""

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


def test_map_names_the_test_that_ran_each_line(tmp_path):
    (tmp_path / "test_two.py").write_text(
        "from genet import xmlio\n\n"
        "def test_boolean():\n    assert xmlio.parse_boolean('true') is True\n\n"
        "def test_integer():\n    assert xmlio.parse_integer('07') == '7'\n", "utf-8")
    out = tmp_path / "map.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "tests.linecov", "--map", str(out),
         "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         "--rootdir", str(tmp_path), str(tmp_path / "test_two.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = json.loads(out.read_text("utf-8"))
    assert lines[_last_line(xmlio.parse_boolean)] == ["test_two.py::test_boolean"]
    assert lines[_last_line(xmlio.parse_integer)] == ["test_two.py::test_integer"]
