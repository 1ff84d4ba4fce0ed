"""Byte-for-byte pin of the CLI's output on the shipped fixtures.

For each of the 12 matching theory × scenario pairs, `reason`,
`reason --explain` and `reason --format json` are run, and `validate` is
run on each of the 12 theories. Exit code, stdout and stderr must equal
the checked-in `golden/fixture_outputs.json`. Fixture paths are recorded
by name only, so the file does not depend on where the tree lives.

Regenerate (only when an output change is intended) with
`PYTHONPATH=src python -m tests.test_golden`.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from genet.cli import main
from genet.fixtures import scenario_path, theory_path
from .conftest import CASE_THEORIES, THEORY_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture_outputs.json"

REASON_VARIANTS = {"text": (), "explain": ("--explain",),
                   "json": ("--format", "json")}


def _commands() -> dict[str, list[str]]:
    commands = {}
    for scenario, theories in sorted(CASE_THEORIES.items()):
        for theory in sorted(theories):
            for variant, extra in REASON_VARIANTS.items():
                commands[f"reason {theory} {scenario} {variant}"] = [
                    "reason", "--theory", str(theory_path(theory)),
                    "--scenario", str(scenario_path(scenario)), *extra]
    for theory in sorted(THEORY_NAMES):
        commands[f"validate {theory}"] = ["validate", str(theory_path(theory))]
    return commands


COMMANDS = _commands()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text("utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_output_matches_golden(golden, key):
    assert _run(COMMANDS[key]) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: _run(argv) for key, argv in COMMANDS.items()},
                                 indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(COMMANDS)} outputs to {GOLDEN}")
