"""Byte-for-byte pin of genet's output on the shipped fixtures.

For each of the 12 matching theory × scenario pairs, `reason`,
`reason --explain` and `reason --format json` are run, and `validate` is
run on each of the 12 theories. Exit code, stdout and stderr must equal
the checked-in `golden/fixture_outputs.json`. Fixture paths are recorded
by name only, so the file does not depend on where the tree lives.

`golden/action_outputs.json` pins `reason --action <id> --explain` and
`reason --action <id> --format json` for every action of the same 12
pairs, the route through the public `evaluate_*` functions.
`golden/decisions.json` pins `decision_to_dict(decide(theory, scenario))`
for all 36 theory × scenario pairs, including the 24 that the CLI refuses
with `AGENT_MISMATCH` before it decides.

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
from genet.reasoner import decide, decision_to_dict
from genet.scenario import load_scenario
from genet.xmlio import parse_theory
from .conftest import (CASE_THEORIES, SCENARIO_NAMES, THEORY_NAMES, scenario_bytes,
                       theory_bytes)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "fixture_outputs.json"
ACTION_GOLDEN = GOLDEN_DIR / "action_outputs.json"
DECISION_GOLDEN = GOLDEN_DIR / "decisions.json"

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


def _action_commands() -> dict[str, list[str]]:
    commands = {}
    for scenario, theories in sorted(CASE_THEORIES.items()):
        actions = load_scenario(scenario_bytes(scenario)).action_ids()
        for theory in sorted(theories):
            for action in actions:
                for variant in ("explain", "json"):
                    commands[f"reason {theory} {scenario} --action {action} {variant}"] = [
                        "reason", "--theory", str(theory_path(theory)),
                        "--scenario", str(scenario_path(scenario)),
                        "--action", action, *REASON_VARIANTS[variant]]
    return commands


COMMANDS = _commands()
ACTION_COMMANDS = _action_commands()
PAIRS = [f"{theory} {scenario}" for theory in sorted(THEORY_NAMES)
         for scenario in sorted(SCENARIO_NAMES)]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _decision(pair: str) -> dict:
    theory, scenario = pair.split()
    return decision_to_dict(decide(parse_theory(theory_bytes(theory)),
                                   load_scenario(scenario_bytes(scenario))))


def _load(path: Path) -> dict:
    return json.loads(path.read_text("utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def action_golden() -> dict:
    return _load(ACTION_GOLDEN)


@pytest.fixture(scope="module")
def decision_golden() -> dict:
    return _load(DECISION_GOLDEN)


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_output_matches_golden(golden, key):
    assert _run(COMMANDS[key]) == golden[key]


def test_action_golden_covers_every_command(action_golden):
    assert sorted(action_golden) == sorted(ACTION_COMMANDS)


@pytest.mark.parametrize("key", sorted(ACTION_COMMANDS))
def test_action_output_matches_golden(action_golden, key):
    assert _run(ACTION_COMMANDS[key]) == action_golden[key]


def test_decision_golden_covers_every_pair(decision_golden):
    assert sorted(decision_golden) == sorted(PAIRS)


@pytest.mark.parametrize("pair", PAIRS)
def test_decision_matches_golden(decision_golden, pair):
    assert _decision(pair) == decision_golden[pair]


def _write(path: Path, outputs: dict) -> None:
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True, ensure_ascii=False)
                    + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {path}")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(GOLDEN, {key: _run(argv) for key, argv in COMMANDS.items()})
    _write(ACTION_GOLDEN, {key: _run(argv) for key, argv in ACTION_COMMANDS.items()})
    _write(DECISION_GOLDEN, {pair: _decision(pair) for pair in PAIRS})
