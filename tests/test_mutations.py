"""Mutation fuzzing of every input that genet rejects.

The scenario fixtures and the base templates are mutated by dropping a
key or list entry, giving a value another type, nesting it past the
decoder's depth, making it an integer of 4,300 or more digits, or cutting
the bytes short; a template directory may also hold a directory named
`dir.json`. Theory documents are mutated as in the malformed-theory golden
file, or cut short; theory instances get invalid fields, and templates get
arbitrary names, edits and patient kinds. Each library entry point must
either accept its input or raise `GenetError` with a code it documents and
at least one finding, and the CLI must end every command with a documented
exit code (0, 1, 2 or 3), never with a traceback. The malformed theory
documents pinned in the golden file go through `genet validate` the same
way.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from genet.bases import (
    BASE_DIR_ENV,
    FIXED_FIELD_VIOLATION,
    MUTABILITY_VIOLATION,
    TEMPLATE_ERROR,
    UNKNOWN_BASE_THEORY,
    UNKNOWN_REMOVAL,
    check_conformance,
    instantiate,
    load_registry,
)
from genet.fixtures import theory_path
from genet.model import (
    DUPLICATE_PRINCIPLE,
    EMPTY_PRINCIPLES,
    INVALID_INSTANCE,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    validate_instance,
)
from genet.scenario import (
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    PARSE_ERROR,
    RANGE_ERROR,
    load_scenario,
)
from genet.xmlio import (
    NAMESPACE_MISMATCH,
    SCHEMA_VIOLATION,
    WELL_FORMEDNESS,
    emit_theory,
    parse_theory,
)
from .conftest import (CASE_THEORIES, SCENARIO_NAMES, THEORY_NAMES, scenario_bytes,
                       theory_bytes)
from .strategies import principles, valid_instances
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
# The codes each entry point documents for a rejected input.
SCENARIO_CODES = {PARSE_ERROR, DANGLING_REFERENCE, DUPLICATE_ID, RANGE_ERROR}
THEORY_CODES = {WELL_FORMEDNESS, NAMESPACE_MISMATCH, SCHEMA_VIOLATION, INVALID_INSTANCE}
INSTANTIATION_CODES = {FIXED_FIELD_VIOLATION, MUTABILITY_VIOLATION, DUPLICATE_PRINCIPLE,
                       UNKNOWN_REMOVAL, EMPTY_PRINCIPLES, INVALID_INSTANCE}


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
def test_scenario_loader_raises_only_genet_error(doc):
    try:
        load_scenario(doc)
    except GenetError as exc:
        assert exc.code in SCENARIO_CODES
        assert exc.report.codes() == [exc.code]


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
def test_template_loader_raises_only_a_genet_error_naming_the_file(data):
    name = data.draw(st.sampled_from(TEMPLATE_NAMES))
    doc = data.draw(mutants((BUILTIN_DIR / f"{name}.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        paths = _template_dir(Path(tmp), name, doc, data.draw(st.booleans()))
        try:
            load_registry(Path(tmp))
        except GenetError as exc:
            assert type(exc) is GenetError
            assert exc.report.codes() == [exc.code] == [TEMPLATE_ERROR]
            assert any(str(path) in str(exc) for path in paths)


@functools.cache
def _theory_mutants(name: str) -> list[bytes]:
    return list(_mutants(theory_bytes(name)).values())


@st.composite
def theory_mutants(draw) -> bytes:
    """A fixture theory document with one thing changed as in the golden
    file, or cut short."""
    name = draw(st.sampled_from(THEORY_NAMES))
    if draw(st.booleans()):
        return draw(st.sampled_from(_theory_mutants(name)))
    doc = theory_bytes(name)
    return doc[:draw(st.integers(0, len(doc) - 1))]


@settings(deadline=None, max_examples=200)
@given(theory_mutants())
def test_theory_parser_raises_only_genet_error(doc):
    try:
        parse_theory(doc)
    except GenetError as exc:
        assert exc.code in THEORY_CODES
        assert exc.report.violations


# Each replaces one field of a valid instance with a value that
# validate_instance rejects.
BREAKS = {
    "baseTheory": lambda t: t._replace(baseTheory=""),
    "instanceName": lambda t: t._replace(instanceName=""),
    "agent": lambda t: t._replace(agent=MoralAgent("", "not a uri")),
    "patientKinds": lambda t: t._replace(patientKinds=frozenset()),
    "thresholds": lambda t: t._replace(influenceThresholds=InfluenceThresholds(-1, 101)),
    "principles": lambda t: t._replace(principles=()),
    "specification": lambda t: t._replace(principles=t.principles + (
        MoralPrinciple(True, Subject.ALL, "two words"),)),
    "duplicate": lambda t: t._replace(principles=t.principles + t.principles[:1]),
}


@settings(deadline=None)
@given(valid_instances, st.lists(st.sampled_from(sorted(BREAKS)), min_size=1))
def test_emit_refuses_invalid_instances_with_their_findings(theory, breaks):
    for name in breaks:
        theory = BREAKS[name](theory)
    with pytest.raises(GenetError) as err:
        emit_theory(theory)
    assert err.value.code == INVALID_INSTANCE
    assert err.value.report == validate_instance(theory)
    assert err.value.report.violations


@given(st.text(max_size=30))
def test_registry_get_rejects_unknown_names(name):
    registry = load_registry()
    if name in registry.names():
        assert registry.get(name).name == name
        return
    with pytest.raises(GenetError) as err:
        registry.get(name)
    assert err.value.report.codes() == [err.value.code] == [UNKNOWN_BASE_THEORY]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_instantiate_raises_only_genet_error(data):
    registry = load_registry()
    template = registry.get(data.draw(st.sampled_from(registry.names())))
    if data.draw(st.booleans()):
        template = template._replace(fixedPatientKinds=None)
    pool = st.one_of(st.sampled_from(template.defaultPrinciples), principles)
    remove = data.draw(st.lists(pool.map(lambda p: (p.specification, p.subject)),
                                max_size=3))
    add = data.draw(st.lists(pool, max_size=3))
    kinds = data.draw(st.none() | st.frozensets(st.sampled_from(list(PatientKind))))
    try:
        instance = instantiate(
            template, agent=MoralAgent(data.draw(st.sampled_from(["A", ""]))),
            thresholds=InfluenceThresholds(data.draw(st.integers(-1, 101)), 0),
            patientKinds=kinds, remove=remove, add=add)
    except GenetError as exc:
        assert exc.code in INSTANTIATION_CODES
        assert exc.report.violations
    else:
        assert validate_instance(instance).ok


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
def test_validate_reports_every_malformed_theory(tmp_path, registry, theory):
    """Each mutant pinned in the malformed-theory golden file ends `genet
    validate` with exit 0 or 1, and prints its schema findings when it has
    any. A mutant that parses is checked against its base template: its
    conformance findings and exit 1, none and exit 0, or, for a base that is
    not registered, exit 0 with that one note on stderr."""
    golden = _load(MALFORMED_GOLDEN)[theory]
    path = tmp_path / "mutant.xml"
    for name, doc in _mutants(theory_bytes(theory)).items():
        path.write_bytes(doc)
        result = _run(["validate", str(path)])
        expected = golden[name]
        if expected["parse_theory"] != "ok":
            assert result["exit"] == 1, name
            if expected["schema_check"]:
                assert result["stdout"] == _lines(expected["schema_check"]), name
            continue
        try:
            findings = check_conformance(parse_theory(doc), registry).violations
        except GenetError as exc:
            findings = ()
            assert result["stderr"] == _lines(exc.report.violations), name
        assert (result["exit"], result["stdout"]) == (1 if findings else 0,
                                                      _lines(findings)), name


def _lines(findings) -> str:
    """Findings as the CLI prints them, one ``code\tpath\tmessage`` line each."""
    return "".join("\t".join(finding) + "\n" for finding in findings)
