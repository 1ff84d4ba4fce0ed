"""Mutation fuzzing of the shipped JSON inputs.

The scenario fixtures and the base templates are mutated by dropping a
key or list entry, giving a value another type, nesting it past the
decoder's depth, making it an integer of 4,300 or more digits, or cutting
the bytes short; a template directory may also hold a directory named
`dir.json`. Each loader must raise only its typed error, and the CLI must
end every command with a documented exit code (0, 1, 2 or 3), never with a
traceback. The malformed theory documents pinned in the golden file go
through `genet validate` the same way.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from genet.bases import BASE_DIR_ENV, load_registry
from genet.fixtures import theory_path
from genet.scenario import ScenarioError, load_scenario
from .conftest import CASE_THEORIES, SCENARIO_NAMES, scenario_bytes, theory_bytes
from .test_bases import BUILTIN_DIR
from .test_golden import MALFORMED_GOLDEN, MUTATED_THEORIES, _load, _mutants, _run

TEMPLATE_NAMES = sorted(path.stem for path in BUILTIN_DIR.glob("*.json"))
OTHER_VALUES = [None, True, False, 0, -1, 7, 1.5, "", "x", "human", "all", [], ["x"],
                {}, {"x": 1}]
# Values at and past what the decoders hold: nesting deeper than the
# recursion limit, and integers of 4,300 digits (the most CPython converts
# to and from str, enough to overflow a printed score) and of 4,400.
HUGE_VALUES = ["[" * 50_000 + "]" * 50_000, '{"x": ' * 50_000 + "1" + "}" * 50_000,
               "9" * 4300, "1" * 4400]
PLACEHOLDER = "\0huge\0"
EXIT_CODES = {0, 1, 2, 3}


def _positions(value, at: tuple = ()):
    """Every position below a JSON value, as a tuple of keys and indexes."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield at + (key,)
        yield from _positions(item, at + (key,))


@st.composite
def mutants(draw, doc: bytes) -> bytes:
    """`doc` with one key or entry dropped, one value replaced by a value
    of another type or by a huge one, or its bytes truncated."""
    how = draw(st.sampled_from(["drop", "retype", "huge", "truncate"]))
    if how == "truncate":
        return doc[:draw(st.integers(0, len(doc) - 1))]
    data = json.loads(doc)
    at = draw(st.sampled_from(list(_positions(data))))
    owner = data
    for key in at[:-1]:
        owner = owner[key]
    if how == "drop":
        del owner[at[-1]]
    elif how == "retype":
        old = owner[at[-1]]
        owner[at[-1]] = draw(st.sampled_from(
            [value for value in OTHER_VALUES if type(value) is not type(old)]))
    else:
        owner[at[-1]] = PLACEHOLDER
        return json.dumps(data).replace(json.dumps(PLACEHOLDER),
                                        draw(st.sampled_from(HUGE_VALUES))).encode("utf-8")
    return json.dumps(data).encode("utf-8")


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(SCENARIO_NAMES).flatmap(
    lambda name: mutants(scenario_bytes(name))))
def test_scenario_loader_raises_only_scenario_error(doc):
    try:
        load_scenario(doc)
    except ScenarioError:
        pass


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_reason_exits_with_a_documented_code(data):
    scenario = data.draw(st.sampled_from(sorted(CASE_THEORIES)))
    theory = data.draw(st.sampled_from(CASE_THEORIES[scenario]))
    doc = data.draw(mutants(scenario_bytes(scenario)))
    action = data.draw(st.sampled_from(
        load_scenario(scenario_bytes(scenario)).action_ids()))
    extra = data.draw(st.sampled_from(
        [(), ("--explain",), ("--format", "json"), ("--action", action, "--explain"),
         ("--action", action, "--format", "json")]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.scenario.json"
        path.write_bytes(doc)
        assert _run(["reason", "--theory", str(theory_path(theory)),
                     "--scenario", str(path), *extra])["exit"] in EXIT_CODES


def _template_dir(base_dir: Path, name: str, doc: bytes, with_directory: bool) -> list:
    """Write the template `doc` into `base_dir`, with a directory named
    `dir.json` beside it when asked; return the entries."""
    paths = [base_dir / f"{name}.json"]
    paths[0].write_bytes(doc)
    if with_directory:
        paths.append(base_dir / "dir.json")
        paths[1].mkdir()
    return paths


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_template_loader_raises_only_a_value_error_naming_the_file(data):
    name = data.draw(st.sampled_from(TEMPLATE_NAMES))
    doc = data.draw(mutants((BUILTIN_DIR / f"{name}.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        paths = _template_dir(Path(tmp), name, doc, data.draw(st.booleans()))
        try:
            load_registry(Path(tmp))
        except ValueError as exc:
            assert type(exc) is ValueError
            assert any(str(path) in str(exc) for path in paths)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_template_commands_exit_with_a_documented_code(data):
    name = data.draw(st.sampled_from(TEMPLATE_NAMES))
    doc = data.draw(mutants((BUILTIN_DIR / f"{name}.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "bases"
        base_dir.mkdir()
        _template_dir(base_dir, name, doc, data.draw(st.booleans()))
        with mock.patch.dict(os.environ, {BASE_DIR_ENV: str(base_dir)}):
            for argv in (["bases", "list"], ["bases", "show", name],
                         ["instantiate", "--base", name, "--agent", "A",
                          "--external", "0", "--substance", "0", "--name", "x",
                          "--out", str(Path(tmp) / "out.xml")]):
                assert _run(argv)["exit"] in EXIT_CODES, argv


@pytest.mark.parametrize("theory", MUTATED_THEORIES)
def test_validate_reports_every_malformed_theory(tmp_path, theory):
    """Each mutant pinned in the malformed-theory golden file ends `genet
    validate` with exit 0 or 1, and prints its schema findings when it has
    any."""
    golden = _load(MALFORMED_GOLDEN)[theory]
    path = tmp_path / "mutant.xml"
    for name, doc in _mutants(theory_bytes(theory)).items():
        path.write_bytes(doc)
        result = _run(["validate", str(path)])
        expected = golden[name]
        assert result["exit"] == (0 if expected["parse_theory"] == "ok" else 1), name
        if expected["schema_check"]:
            assert result["stdout"] == "".join(
                "\t".join(finding) + "\n" for finding in expected["schema_check"]), name
