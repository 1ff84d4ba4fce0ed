"""Byte-for-byte pin of genet's output on the shipped fixtures.

For each of the 12 matching theory × scenario pairs, `reason`,
`reason --explain` and `reason --format json` are run, and `validate` is
run on each of the 12 theories. Exit code, stdout and stderr must equal
the checked-in `golden/fixture_outputs.json`. Fixture paths are recorded
by name only, so the file does not depend on where the tree lives. When
`python3.10`, the declared minimum, is on PATH, the `--explain` and
`--format json` runs are repeated under it, in fresh processes.

`golden/action_outputs.json` pins `reason --action <id> --explain` and
`reason --action <id> --format json` for every action of the same 12
pairs, the route through the public `evaluate` function.
`golden/decisions.json` pins `decision_to_dict(decide(theory, scenario))`
for all 36 theory × scenario pairs, including the 24 that the CLI refuses
with `AGENT_MISMATCH` before it decides.
`golden/synth_traces.json` pins, by sha256, the `decision_to_dict` JSON
(`indent=2`) and the `render_decision(..., explain=True)` text of the
first 20 synthetic benchmark requests of each mode (seed 1), and the same
two forms of `evaluate` for every action of the first 3. These traces
are far larger than the fixtures' and reach request gating, excluded
patient kinds, shared specifications and inert effects at size.
`golden/malformed_theories.json` pins the `schema_check` findings and the
`parse_theory` outcome of every mutant that `_mutants` derives from
`mia-egoism` and `trainco-dct`: each attribute dropped, set to bad values
or joined by an unknown one, stray text and unknown children added, each
child deleted, duplicated and moved, elements renamed or moved to another
namespace, and the bytes truncated.
`golden/multi_fault_theories.json` pins the same findings and outcome for
documents with two faults: by sha256, one digest per first-order mutant,
over the mutants `_mutants` derives from it. The first-order mutants are
every 10th well-formed one of `mia-kantianism`, in sorted name order, so
the order in which findings are reported is pinned where there are several.

Regenerate (only when an output change is intended) with
`PYTHONPATH=src python -m tests.test_golden`.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
from pathlib import Path
from xml.etree import ElementTree

import pytest

from genet.cli import main
from genet.fixtures import scenario_path, theory_path
from genet.model import GenetError
from genet.reasoner import (decide, decision_to_dict, evaluate, evaluation_to_dict,
                            render_decision, render_evaluation)
from genet.scenario import load_scenario
from genet.xmlio import GENET_NS, parse_theory, schema_check
from .conftest import (CASE_THEORIES, SCENARIO_NAMES, THEORY_NAMES, load_synth,
                       scenario_bytes, theory_bytes)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "fixture_outputs.json"
ACTION_GOLDEN = GOLDEN_DIR / "action_outputs.json"
DECISION_GOLDEN = GOLDEN_DIR / "decisions.json"
MALFORMED_GOLDEN = GOLDEN_DIR / "malformed_theories.json"
SYNTH_GOLDEN = GOLDEN_DIR / "synth_traces.json"
MULTI_FAULT_GOLDEN = GOLDEN_DIR / "multi_fault_theories.json"

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


SYNTH_MODES = ["conseq", "deon"]


def _digests(as_dict: dict, text: str) -> dict:
    return {"json": hashlib.sha256(json.dumps(as_dict, indent=2).encode("utf-8")).hexdigest(),
            "explain": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _synth_traces(mode: str) -> dict:
    """Digests of each synthetic request's decision, keyed by request name,
    and of each action's evaluation for the first 3, keyed by name and action."""
    out = {}
    for n, request in enumerate(load_synth().make_requests(mode, 1, 20)):
        theory = parse_theory(request.theory_doc)
        scenario = load_scenario(request.scenario_doc)
        decision = decide(theory, scenario)
        out[request.name] = _digests(decision_to_dict(decision),
                                     render_decision(decision, explain=True))
        for action in scenario.action_ids() if n < 3 else ():
            evaluation = evaluate(theory, scenario, action)
            out[f"{request.name} {action}"] = _digests(
                evaluation_to_dict(evaluation), render_evaluation(evaluation, explain=True))
    return out


MUTATED_THEORIES = ["mia-egoism", "trainco-dct"]
BAD_VALUES = ["", " ", "yes", "-1", "101", "+7", "2.5", "all agent", "\u00e9"]
KNOWN_TAGS = ["ethicalTheory", "agent", "patientKinds", "patientKind",
              "influenceThresholds", "principles", "principle"]
OTHER_NS = "http://example.org/other"


def _move(elem, i: int, to: int) -> None:
    child = elem[i]
    elem.remove(child)
    elem.insert(to, child)


def _mutants(doc: bytes) -> dict[str, bytes]:
    """Deterministic malformed variants of a theory document, by name.

    Each mutant changes one thing. Child elements are not added inside
    `principle` or `patientKind`; the parser once accepted those silently,
    and tests/test_xmlio.py covers them on their own.
    """
    root = ElementTree.fromstring(doc)
    paths: list[tuple[str, tuple[int, ...]]] = []

    def walk(elem, label: str, at: tuple[int, ...]) -> None:
        paths.append((label, at))
        for i, child in enumerate(elem):
            walk(child, f"{label}/{child.tag.rsplit('}', 1)[-1]}[{i}]", at + (i,))

    walk(root, root.tag.rsplit("}", 1)[-1], ())
    mutants = {"original": ElementTree.tostring(root)}

    def mutate(name: str, at: tuple[int, ...], change) -> None:
        tree = copy.deepcopy(root)
        elem = tree
        for i in at:
            elem = elem[i]
        change(elem)
        mutants[name] = ElementTree.tostring(tree)

    for label, at in paths:
        elem = root
        for i in at:
            elem = elem[i]
        local = elem.tag.rsplit("}", 1)[-1]
        for attr in elem.attrib:
            mutate(f"{label} drop @{attr}", at, lambda e, a=attr: e.attrib.pop(a))
            for value in BAD_VALUES:
                mutate(f"{label} @{attr}={value!r}", at,
                       lambda e, a=attr, v=value: e.set(a, v))
        mutate(f"{label} add @bogus", at, lambda e: e.set("bogus", "1"))
        mutate(f"{label} add @other:bogus", at,
               lambda e: e.set(f"{{{OTHER_NS}}}bogus", "1"))
        mutate(f"{label} add text", at,
               lambda e: setattr(e, "text", (e.text or "") + "stray"))
        if len(elem):
            mutate(f"{label} add tail text", at,
                   lambda e: setattr(e[-1], "tail", (e[-1].tail or "") + "stray"))
        if local not in ("principle", "patientKind"):
            for tag in (f"{{{GENET_NS}}}foo", "foo", f"{{{GENET_NS}}}principle"):
                mutate(f"{label} add child {tag}", at,
                       lambda e, t=tag: e.append(ElementTree.Element(t)))
        for i in range(len(elem)):
            mutate(f"{label} delete [{i}]", at, lambda e, i=i: e.remove(e[i]))
            mutate(f"{label} duplicate [{i}]", at,
                   lambda e, i=i: e.insert(i + 1, copy.deepcopy(e[i])))
            for where, to in (("first", 0), ("last", len(elem) - 1)):
                if i != to:
                    mutate(f"{label} move [{i}] {where}", at,
                           lambda e, i=i, to=to: _move(e, i, to))
        for ns in (OTHER_NS, None):
            tag = local if ns is None else f"{{{ns}}}{local}"
            mutate(f"{label} namespace {ns}", at, lambda e, t=tag: setattr(e, "tag", t))
        for other in KNOWN_TAGS:
            if other != local:
                mutate(f"{label} rename {other}", at,
                       lambda e, t=f"{{{GENET_NS}}}{other}": setattr(e, "tag", t))
    for length in range(0, len(doc), 29):
        mutants[f"truncate {length}"] = doc[:length]
    return mutants


def _diagnose(doc: bytes) -> dict:
    """The findings of `schema_check` and the outcome of `parse_theory`."""
    out = {"schema_check": [[v.code, v.path, v.message]
                            for v in schema_check(doc).violations]}
    try:
        parse_theory(doc)
        out["parse_theory"] = "ok"
    except GenetError as exc:
        out["parse_theory"] = [exc.code, str(exc)]
    return out


def _malformed(theory: str) -> dict:
    return {name: _diagnose(doc)
            for name, doc in _mutants(theory_bytes(theory)).items()}


def _multi_fault() -> dict:
    """The digest of the diagnoses of the mutants of every 10th well-formed
    first-order mutant of mia-kantianism, keyed by the first mutant's name."""
    firsts = _mutants(theory_bytes("mia-kantianism"))
    well_formed = []
    for name in sorted(firsts):
        try:
            ElementTree.fromstring(firsts[name])
        except ElementTree.ParseError:
            continue
        well_formed.append(name)
    out = {}
    for name in well_formed[::10]:
        diagnoses = {second: _diagnose(doc) for second, doc in _mutants(firsts[name]).items()}
        out[name] = hashlib.sha256(json.dumps(diagnoses, sort_keys=True).encode("utf-8")
                                   ).hexdigest()
    return out


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


@pytest.mark.parametrize("mode", SYNTH_MODES)
def test_synthetic_traces_match_golden(mode):
    actual, expected = _synth_traces(mode), _load(SYNTH_GOLDEN)[mode]
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


@pytest.fixture(scope="module")
def malformed_golden() -> dict:
    return _load(MALFORMED_GOLDEN)


def test_malformed_golden_covers_every_theory(malformed_golden):
    assert sorted(malformed_golden) == sorted(MUTATED_THEORIES)


@pytest.mark.parametrize("theory", MUTATED_THEORIES)
def test_malformed_theory_diagnostics_match_golden(malformed_golden, theory):
    actual, expected = _malformed(theory), malformed_golden[theory]
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


def test_multi_fault_diagnostics_match_golden():
    actual, expected = _multi_fault(), _load(MULTI_FAULT_GOLDEN)
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


def _python_3_10() -> str:
    """python3.10 from PATH; the test is skipped when it is missing or does not start."""
    path = shutil.which("python3.10")
    if path is None or subprocess.run([path, "-c", ""], capture_output=True).returncode:
        pytest.skip("python3.10 is not on PATH or does not start")
    return path


def test_fixture_outputs_under_the_declared_minimum_python(golden):
    """pyproject.toml declares Python 3.10 the minimum. Under it, each
    pinned command, a fresh process, prints what the golden file pins, with
    its exit code: `reason` in its three formats for the 12 fixture pairs,
    and `validate`, which loads the template reader, for the 12 theories.
    Each module's annotations are evaluated as it is imported."""
    python = _python_3_10()
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    keys = sorted(COMMANDS)
    assert len(keys) == 48
    for key in keys:
        proc = subprocess.run([python, "-m", "genet.cli", *COMMANDS[key]],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stdout.decode("utf-8")) == (
            golden[key]["exit"], golden[key]["stdout"]), key


def _write(path: Path, outputs: dict) -> None:
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True, ensure_ascii=False)
                    + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {path}")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(GOLDEN, {key: _run(argv) for key, argv in COMMANDS.items()})
    _write(ACTION_GOLDEN, {key: _run(argv) for key, argv in ACTION_COMMANDS.items()})
    _write(DECISION_GOLDEN, {pair: _decision(pair) for pair in PAIRS})
    _write(MALFORMED_GOLDEN, {theory: _malformed(theory) for theory in MUTATED_THEORIES})
    _write(SYNTH_GOLDEN, {mode: _synth_traces(mode) for mode in SYNTH_MODES})
    _write(MULTI_FAULT_GOLDEN, _multi_fault())
