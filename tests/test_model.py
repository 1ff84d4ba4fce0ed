from __future__ import annotations

import importlib.util
import pkgutil
import re
import typing

import pytest
from hypothesis import given

import genet
from genet import bases
from genet.model import (
    EthicalTheoryInstance,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    _has_non_xml,
    load_json,
    validate_instance,
)
from .strategies import valid_instances
from .test_mutations import BREAKS


def mia_egoism() -> EthicalTheoryInstance:
    maslow = ["physiologySatisfaction", "safetySatisfaction", "loveSatisfaction",
              "esteemSatisfaction", "selfActualisationSatisfaction"]
    return EthicalTheoryInstance(
        baseTheory="egoism",
        instanceName="Mia's Egoism",
        consequentiality=True,
        agent=MoralAgent("Mia", "http://facebook.com/mia"),
        patientKinds=frozenset({PatientKind.HUMAN}),
        influenceThresholds=InfluenceThresholds(external=50, substance=30),
        principles=tuple(MoralPrinciple(True, Subject.AGENT, s) for s in maslow),
    )


class TestValidateInstance:
    def test_mia_egoism_is_valid(self):
        assert validate_instance(mia_egoism()).ok

    def test_empty_patient_kinds(self):
        broken = mia_egoism()._replace(patientKinds=frozenset())
        assert validate_instance(broken).codes() == ["EMPTY_PATIENT_KINDS"]

    def test_empty_principles(self):
        broken = mia_egoism()._replace(principles=())
        report = validate_instance(broken)
        assert [(v.code, v.path) for v in report.violations] == [
            ("EMPTY_PRINCIPLES", "principles")]

    def test_substance_threshold_out_of_range(self):
        broken = mia_egoism()._replace(influenceThresholds=InfluenceThresholds(50, 130))
        report = validate_instance(broken)
        assert report.codes() == ["PERCENT_OUT_OF_RANGE"]
        assert report.violations[0].path == "influenceThresholds.substance"

    def test_duplicate_principle_pair(self):
        theory = mia_egoism()
        broken = theory._replace(principles=theory.principles + (theory.principles[0],))
        assert "DUPLICATE_PRINCIPLE" in validate_instance(broken).codes()

    def test_same_pair_different_morality_still_duplicate(self):
        # Interpretation: one good and one bad principle for the same
        # (specification, subject) would have the reasoner double-count.
        theory = mia_egoism()
        flipped = theory.principles[0]._replace(morality=False)
        broken = theory._replace(principles=theory.principles + (flipped,))
        assert "DUPLICATE_PRINCIPLE" in validate_instance(broken).codes()

    def test_whitespace_specification(self):
        theory = mia_egoism()
        bad = MoralPrinciple(True, Subject.ALL, "two words")
        broken = theory._replace(principles=theory.principles + (bad,))
        assert "SPECIFICATION_WHITESPACE" in validate_instance(broken).codes()
        # Every character str.isspace() accepts, leading or inner; U+200B
        # ZERO WIDTH SPACE is not one of them.
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        for spec in [f"{c}a" for c in spaces] + [f"a{c}b" for c in spaces] + ["a\u200bb"]:
            broken = theory._replace(principles=(MoralPrinciple(True, Subject.ALL, spec),))
            codes = validate_instance(broken).codes()
            assert ("SPECIFICATION_WHITESPACE" in codes) == (spec != "a\u200bb"), spec

    def test_bad_agent_reference(self):
        broken = mia_egoism()._replace(agent=MoralAgent("Mia", "not a uri"))
        assert "BAD_URI" in validate_instance(broken).codes()

    @pytest.mark.parametrize("reference", ["http://[oops", "http://]x", "//["])
    def test_reference_urlparse_cannot_split(self, reference):
        # urlparse raises ValueError on these; the check reports, not raises.
        broken = mia_egoism()._replace(agent=MoralAgent("Mia", reference))
        assert validate_instance(broken).codes() == ["BAD_URI"]

    def test_empty_instance_name_rejected_but_absent_ok(self):
        assert validate_instance(
            mia_egoism()._replace(instanceName=None)).ok
        assert not validate_instance(
            mia_egoism()._replace(instanceName="")).ok

    @given(valid_instances)
    def test_deterministic(self, theory):
        assert validate_instance(theory) == validate_instance(theory)

    @given(valid_instances)
    def test_generated_instances_have_unique_pairs(self, theory):
        assert validate_instance(theory).ok
        pairs = [(p.specification, p.subject) for p in theory.principles]
        assert len(pairs) == len(set(pairs))


def _with_principle(theory, principle):
    return theory._replace(principles=theory.principles + (principle,))


# The changes emit_theory is refused for, and more: each field holding a
# character XML cannot carry, empty and space-led specifications, a principle
# that repeats another but for its morality, and valid values at the edges.
NEAR_MISSES = {
    **BREAKS,
    **{f"non-xml-{field}": (lambda t, field=field: t._replace(**{field: "a\x01"}))
       for field in ("baseTheory", "instanceName")},
    "non-xml-agent-name": lambda t: t._replace(agent=t.agent._replace(name="\ud800")),
    "non-xml-reference": lambda t: t._replace(agent=MoralAgent("A", "http://a/\ufffe")),
    "non-xml-specification": lambda t: _with_principle(
        t, MoralPrinciple(True, Subject.ALL, "a\x1fb")),
    "non-xml-token-specification": lambda t: _with_principle(
        t, MoralPrinciple(True, Subject.ALL, "a\x01b")),
    "empty-specification": lambda t: _with_principle(t, MoralPrinciple(True, Subject.ALL, "")),
    "space-led-specification": lambda t: _with_principle(
        t, MoralPrinciple(True, Subject.ALL, "\u3000a")),
    "flipped-morality": lambda t: t._replace(principles=t.principles + tuple(
        p._replace(morality=not p.morality) for p in t.principles[:1])),
    "reference-unsplittable": lambda t: t._replace(agent=MoralAgent("A", "http://[x")),
    "no-instance-name": lambda t: t._replace(instanceName=None),
    "no-reference": lambda t: t._replace(agent=MoralAgent(t.agent.name)),
    "thresholds-at-bounds": lambda t: t._replace(
        influenceThresholds=InfluenceThresholds(0, 100)),
}


# The (code, path) findings validate_instance reports for each near miss of
# mia_egoism, whose five principles leave the added one at index 5.
SPEC = "principles[5].specification"
NEAR_MISS_FINDINGS = {
    "baseTheory": [("EMPTY_BASE_THEORY", "baseTheory")],
    "instanceName": [("EMPTY_INSTANCE_NAME", "instanceName")],
    "agent": [("EMPTY_AGENT_NAME", "agent.name"), ("BAD_URI", "agent.reference")],
    "patientKinds": [("EMPTY_PATIENT_KINDS", "patientKinds")],
    "thresholds": [("PERCENT_OUT_OF_RANGE", "influenceThresholds.external"),
                   ("PERCENT_OUT_OF_RANGE", "influenceThresholds.substance")],
    "principles": [("EMPTY_PRINCIPLES", "principles")],
    "specification": [("SPECIFICATION_WHITESPACE", SPEC)],
    "duplicate": [("DUPLICATE_PRINCIPLE", "principles[5]")],
    "non-xml-baseTheory": [("NON_XML_CHARACTER", "baseTheory")],
    "non-xml-instanceName": [("NON_XML_CHARACTER", "instanceName")],
    "non-xml-agent-name": [("NON_XML_CHARACTER", "agent.name")],
    "non-xml-reference": [("NON_XML_CHARACTER", "agent.reference")],
    # U+001F is both outside XML and a character str.isspace() accepts.
    "non-xml-specification": [("SPECIFICATION_WHITESPACE", SPEC),
                              ("NON_XML_CHARACTER", SPEC)],
    "non-xml-token-specification": [("NON_XML_CHARACTER", SPEC)],
    "empty-specification": [("EMPTY_SPECIFICATION", SPEC)],
    "space-led-specification": [("SPECIFICATION_WHITESPACE", SPEC)],
    "flipped-morality": [("DUPLICATE_PRINCIPLE", "principles[5]")],
    "reference-unsplittable": [("BAD_URI", "agent.reference")],
    "no-instance-name": [],
    "no-reference": [],
    "thresholds-at-bounds": [],
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_miss_instances(name):
    report = validate_instance(NEAR_MISSES[name](mia_egoism()))
    assert [(v.code, v.path) for v in report.violations] == NEAR_MISS_FINDINGS[name]


@pytest.mark.parametrize("doc, holds", [
    (b'["\\ud83d\\ude00"]', "\U0001f600"),  # a surrogate pair is one character
    (b'["\\\\ud800"]', "\\ud800"),  # an escaped backslash, then text
    ('["\ufffd\\t"]'.encode("utf-8"), "\ufffd\t"),
    (b'["T\\ud800"]', None),
    (b'{"a": {"T\\udfff": 1}}', None),
    (b'["\\u0001"]', None),
    (b'["\\uFFFE"]', None),
    ('["\uffff"]'.encode("utf-8"), None),
    ('["\ud800"]'.encode("utf-8", "surrogatepass"), None),
    ('["\ud800"]'.encode("utf-16", "surrogatepass"), None),
], ids=["pair", "escaped-backslash", "allowed", "lone-high", "lone-low-in-key",
        "control", "fffe", "raw-ffff", "raw-surrogate-utf8", "raw-surrogate-utf16"])
def test_load_json_rejects_strings_xml_cannot_carry(doc, holds):
    if holds is None:
        with pytest.raises(ValueError, match="holds a character that XML 1.0 cannot carry"):
            load_json(doc)
    else:
        assert load_json(doc) == [holds]


def _xml_char(cp: int) -> bool:
    """The Char production of XML 1.0, section 2.2."""
    return (cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF
            or 0xE000 <= cp <= 0xFFFD or 0x10000 <= cp <= 0x10FFFF)


def test_non_xml_matches_exactly_what_the_char_production_leaves_out():
    every = list(map(chr, range(0x110000)))  # lone surrogates included
    left_out = [char for char in every if not _xml_char(ord(char))]
    assert len(left_out) == 2079
    assert [char for char in every if _has_non_xml(char)] == left_out
    # Alone and amid text that is printable but not ASCII.
    assert [char for char in every if _has_non_xml(f"\u00e9{char}x")] == left_out


def _module_globals() -> list:
    """The values every genet module but ``__main__`` defines or imports."""
    return [value for info in pkgutil.iter_modules(genet.__path__) if info.name != "__main__"
            for value in vars(importlib.import_module(f"genet.{info.name}")).values()]


def test_no_record_holds_an_unevaluated_annotation():
    """A field annotation given as a string, as `from __future__ import
    annotations` makes every one, costs typing.NamedTuple a ForwardRef and a
    compile() call per field, each time the module is imported."""
    records = {value for value in _module_globals() if isinstance(value, type)
               and issubclass(value, tuple) and hasattr(value, "_fields")
               and value.__module__.startswith("genet.")}
    assert len(records) >= 20
    assert [f"{record.__name__}.{field}" for record in records
            for field, kind in record.__annotations__.items()
            if isinstance(kind, (str, typing.ForwardRef))] == []


def test_no_pattern_holds_a_code_point_above_latin_1():
    """For such a code point in a class, re builds a 65,536-entry charmap
    when the module is imported: about 0.4 ms in every process."""
    patterns = {value for value in _module_globals() if isinstance(value, re.Pattern)}
    assert patterns and [p.pattern for p in patterns if max(p.pattern) > "\xff"] == []


class TestSubjectCovers:
    def test_all_is_not_a_target_class(self):
        with pytest.raises(ValueError):
            Subject.AGENT.covers(Subject.ALL)


# genet's public names: those of the model, XML, scenario and reasoner
# layers, and those genet.bases supplies. Every one loads on first use. A
# name leaves or joins the API only on purpose.
EAGER_NAMES = [
    "AGENT", "ActionEvaluation", "ActionOption", "ArgumentTrace", "Decision",
    "DecisionKind", "DeonticAssertion", "EffectAssertion", "EthicalTheoryInstance",
    "GenetError", "InfluenceThresholds", "MoralAgent", "MoralPrinciple", "MoralVerdict",
    "PatientKind", "RequestContext", "Scenario", "StakeholderGroup", "Subject",
    "ValidationReport", "Violation", "decide", "decision_to_dict", "emit_scenario",
    "emit_theory", "evaluate", "load_scenario", "parse_theory",
    "render_decision", "render_evaluation", "schema_check", "validate_instance",
    "validate_scenario_against_theory"]
LAZY_NAMES = ["BaseTheoryTemplate", "Mutability", "Registry", "check_conformance",
              "instantiate", "load_registry"]


class TestPublicNames:
    def test_names_bound_on_import(self):
        # A fresh run of genet/__init__.py, as `import genet` makes it.
        spec = importlib.util.find_spec("genet")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        assert [name for name in vars(fresh) if not name.startswith("_")] == []

        names = EAGER_NAMES + LAZY_NAMES
        layers = [importlib.import_module(f"genet.{layer}")
                  for layer in ("model", "xmlio", "scenario", "reasoner", "bases")]
        for name in names:
            # The one object every layer that holds the name agrees on.
            homes = {id(getattr(layer, name)) for layer in layers if hasattr(layer, name)}
            assert homes == {id(getattr(genet, name))}, name
        assert sorted(genet.__all__) == sorted(names)
        assert set(names) <= set(dir(genet))
        with pytest.raises(AttributeError,
                           match="^module 'genet' has no attribute 'no_such_name'$"):
            genet.no_such_name

    def test_names_genet_bases_supplies(self):
        for name in LAZY_NAMES:
            assert getattr(genet, name) is getattr(bases, name)
        others = [name for name in vars(bases) if not name.startswith("_")
                  and name not in EAGER_NAMES + LAZY_NAMES]
        assert others and not any(hasattr(genet, name) for name in others)
