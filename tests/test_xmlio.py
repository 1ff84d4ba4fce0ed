from __future__ import annotations

import re
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings

import genet
from genet.model import PatientKind, Subject, validate_instance
from genet.xmlio import (
    GENET_NS,
    InvalidInstanceError,
    TheoryParseError,
    emit_theory,
    parse_theory,
    schema_check,
)
from .conftest import VERBATIM_THEORIES, theory_bytes
from .strategies import valid_instances

MINIMAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<ethicalTheory xmlns="http://genet.cs.uct.ac.za" baseTheory="egoism"
               consequentiality="true">
    <agent name="A"/>
    <patientKinds><patientKind>human</patientKind></patientKinds>
    <influenceThresholds external="50" substance="30"/>
    <principles>
        <principle morality="true" subject="agent" specification="x"/>
    </principles>
</ethicalTheory>
"""


def mutate(pattern: str, replacement: str, doc: bytes = MINIMAL) -> bytes:
    text, count = re.subn(pattern, replacement, doc.decode("utf-8"),
                          count=1, flags=re.S)
    assert count == 1, f"pattern {pattern!r} did not match"
    return text.encode("utf-8")


class TestParseTheory:
    def test_trainco_dct_listing(self):
        theory = parse_theory(theory_bytes("trainco-dct"))
        assert theory.baseTheory == "ChristianDivineCommandTheory"
        assert theory.instanceName == "Train Company's Christian DCT"
        assert theory.consequentiality is False
        assert theory.agent.name == "Train Company"
        assert theory.patientKinds == frozenset(
            {PatientKind.HUMAN, PatientKind.OTHER_ANIMAL, PatientKind.NATURE})
        assert theory.influenceThresholds.external == 0
        assert theory.influenceThresholds.substance == 50
        assert len(theory.principles) == 6
        kill = [p for p in theory.principles if p.specification == "kill"]
        assert kill == [kill[0]]
        assert kill[0].morality is False and kill[0].subject is Subject.PATIENTS

    def test_missing_consequentiality(self):
        doc = mutate(r'\s*consequentiality="true"', "")
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"
        assert "MISSING_ATTRIBUTE" in err.value.report.codes()

    def test_patient_kind_outside_enumeration(self):
        doc = mutate(">human<", ">robot<")
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"
        assert "ENUM_VIOLATION" in err.value.report.codes()

    def test_broken_xml(self):
        with pytest.raises(TheoryParseError) as err:
            parse_theory(MINIMAL[:-30])
        assert err.value.code == "WELL_FORMEDNESS"

    def test_wrong_namespace(self):
        doc = mutate(r'xmlns="http://genet\.cs\.uct\.ac\.za"',
                     'xmlns="http://example.org/other"')
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "NAMESPACE_MISMATCH"

    def test_unknown_element_rejected_not_skipped(self):
        doc = mutate("</principles>", "</principles><extras/>")
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert "UNEXPECTED_ELEMENT" in err.value.report.codes()

    def test_unknown_attribute_rejected(self):
        doc = mutate('subject="agent"', 'subject="agent" weight="3"')
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert "UNEXPECTED_ATTRIBUTE" in err.value.report.codes()

    def test_boolean_lexical_space_accepts_digits(self):
        doc = mutate('consequentiality="true"', 'consequentiality="1"')
        assert parse_theory(doc).consequentiality is True

    def test_duplicate_principle_pair_rejected(self):
        doc = mutate("</principles>",
                     '    <principle morality="false" subject="agent" '
                     'specification="x"/>\n    </principles>')
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "INVALID_INSTANCE"

    @pytest.mark.parametrize("pattern, replacement, path", [
        (r'specification="x"/>', 'specification="x"><foo/></principle>',
         "/ethicalTheory/principles/principle[0]/foo"),
        (">human<", ">human<foo/><", "/ethicalTheory/patientKinds/patientKind[0]/foo"),
    ], ids=["principle", "patientKind"])
    def test_child_of_a_leaf_element_rejected(self, pattern, replacement, path):
        doc = mutate(pattern, replacement)
        leaf = path.split("/")[-2].split("[")[0]
        assert [(v.code, v.path, v.message) for v in schema_check(doc).violations] \
            == [("UNEXPECTED_ELEMENT", path, f"{leaf} has no child elements")]
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"

    def test_duplicate_patient_kind_rejected(self):
        doc = mutate("</patientKinds>",
                     "<patientKind>human</patientKind></patientKinds>")
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "INVALID_INSTANCE"


class TestSchemaCheck:
    @pytest.mark.parametrize("name", VERBATIM_THEORIES)
    def test_shipped_listings_are_clean(self, name):
        assert schema_check(theory_bytes(name)).ok

    def test_external_101(self):
        doc = mutate('external="50"', 'external="101"')
        assert schema_check(doc).codes() == ["PERCENT_OUT_OF_RANGE"]

    def test_external_100_boundary_ok(self):
        doc = mutate('external="50"', 'external="100"')
        assert schema_check(doc).ok

    def test_zero_principles_min_occurs(self):
        doc = mutate(r"<principles>.*</principles>", "<principles></principles>")
        assert schema_check(doc).codes() == ["MIN_OCCURS"]

    def test_zero_patient_kinds_min_occurs(self):
        doc = mutate(r"<patientKinds>.*</patientKinds>",
                     "<patientKinds></patientKinds>")
        assert "MIN_OCCURS" in schema_check(doc).codes()

    def test_negative_percentage(self):
        doc = mutate('substance="30"', 'substance="-1"')
        assert "PERCENT_OUT_OF_RANGE" in schema_check(doc).codes()

    @pytest.mark.parametrize("value", ["1" * 4400, "-" + "1" * 4400, "+000" + "9" * 4400],
                             ids=["4400-digits", "negative", "signed-zero-padded"])
    def test_percentage_past_the_digit_limit(self, value):
        doc = mutate('external="50"', f'external="{value}"')
        assert schema_check(doc).codes() == ["PERCENT_OUT_OF_RANGE"]
        with pytest.raises(TheoryParseError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"

    @pytest.mark.parametrize("value", ["101", "+0101", "-0005", "-1000", "0" * 30 + "1000"])
    def test_out_of_range_message_names_the_integer(self, value):
        doc = mutate('external="50"', f'external="{value}"')
        assert [v.message for v in schema_check(doc).violations] == [
            f"percentage {int(value)} outside [0, 100]"]

    @pytest.mark.parametrize("value", ["-0", "+000", "0100", " 7 "])
    def test_zero_padded_and_signed_percentages_in_range(self, value):
        doc = mutate('external="50"', f'external="{value}"')
        assert parse_theory(doc).influenceThresholds.external == int(value)

    def test_non_integer_percentage(self):
        doc = mutate('substance="30"', 'substance="lots"')
        assert "BAD_INTEGER" in schema_check(doc).codes()

    def test_out_of_sequence_elements(self):
        swapped = mutate(
            r'<agent name="A"/>\s*<patientKinds><patientKind>human</patientKind></patientKinds>',
            "<patientKinds><patientKind>human</patientKind></patientKinds>"
            '<agent name="A"/>')
        assert not schema_check(swapped).ok

    def test_parse_accepts_iff_schema_clean(self):
        # Same underlying walk: any schema finding must fail parse too.
        for doc in (MINIMAL, mutate('external="50"', 'external="101"')):
            report = schema_check(doc)
            if report.ok:
                parse_theory(doc)
            else:
                with pytest.raises(TheoryParseError):
                    parse_theory(doc)


class TestEmitTheory:
    def test_mia_kantianism_reparse(self):
        theory = parse_theory(theory_bytes("mia-kantianism"))
        again = parse_theory(emit_theory(theory))
        assert [p.specification for p in again.principles] == [
            "universallyWillable", "mereMeans"]

    def test_doe_utilitarianism_attribute_bytes(self):
        theory = parse_theory(theory_bytes("doe-utilitarianism"))
        assert b'baseTheory="utilitarianism"' in emit_theory(theory)

    def test_invalid_instance_refused(self):
        import dataclasses
        theory = parse_theory(theory_bytes("mia-kantianism"))
        broken = dataclasses.replace(theory, patientKinds=frozenset())
        with pytest.raises(InvalidInstanceError):
            emit_theory(broken)

    def test_emitted_document_is_schema_clean(self):
        theory = parse_theory(theory_bytes("trainco-dct"))
        assert schema_check(emit_theory(theory)).ok

    @settings(deadline=None)
    @given(valid_instances)
    def test_round_trip(self, theory):
        assert parse_theory(emit_theory(theory)) == theory

    @settings(deadline=None)
    @given(valid_instances)
    def test_deterministic_bytes(self, theory):
        assert emit_theory(theory) == emit_theory(theory)

    def test_canonical_booleans_on_output(self):
        doc = mutate('consequentiality="true"', 'consequentiality="1"')
        assert b'consequentiality="true"' in emit_theory(parse_theory(doc))


class TestAgainstShippedXsd:
    """Cross-checks the hand-written validator against the XSD file.

    No XSD engine is available here, so the test reads the schema
    document itself and verifies our constraints match its facets.
    """

    @pytest.fixture()
    def xsd(self):
        text = (Path(genet.__file__).parent / "data" / "schema"
                / "ethicalTheory.xsd").read_text("utf-8")
        return ElementTree.fromstring(text)

    XS = "{http://www.w3.org/2001/XMLSchema}"

    def test_target_namespace(self, xsd):
        assert xsd.get("targetNamespace") == GENET_NS

    def test_patient_kind_enumeration(self, xsd):
        kinds = [
            e.get("value")
            for t in xsd.iter(f"{self.XS}simpleType")
            if t.get("name") == "moralPatientKind"
            for e in t.iter(f"{self.XS}enumeration")]
        assert sorted(kinds) == sorted(k.value for k in PatientKind)

    def test_subject_enumeration(self, xsd):
        principle = [t for t in xsd.iter(f"{self.XS}complexType")
                     if t.get("name") == "moralPrincipleType"][0]
        subject = [a for a in principle.iter(f"{self.XS}attribute")
                   if a.get("name") == "subject"][0]
        values = [e.get("value") for e in subject.iter(f"{self.XS}enumeration")]
        assert sorted(values) == sorted(s.value for s in Subject)

    def test_percentage_bounds(self, xsd):
        pct = [t for t in xsd.iter(f"{self.XS}simpleType")
               if t.get("name") == "percentage"][0]
        assert pct.find(f"{self.XS}restriction/{self.XS}minInclusive").get("value") == "0"
        assert pct.find(f"{self.XS}restriction/{self.XS}maxInclusive").get("value") == "100"

    def test_required_attributes(self, xsd):
        required = {
            (t.get("name"), a.get("name"))
            for t in xsd.iter(f"{self.XS}complexType")
            for a in t.iter(f"{self.XS}attribute")
            if a.get("use") == "required"}
        assert ("ethicalTheory", "baseTheory") in required
        assert ("ethicalTheory", "consequentiality") in required
        assert ("ethicalTheory", "instanceName") not in required
        assert ("influencesType", "external") in required
        assert ("influencesType", "substance") in required
        assert ("moralAgent", "name") in required
        assert ("moralAgent", "reference") not in required
        assert ("moralPrincipleType", "morality") in required
        assert ("moralPrincipleType", "subject") in required
        assert ("moralPrincipleType", "specification") in required

    def test_min_occurs_one_on_collections(self, xsd):
        elements = {e.get("name"): e for e in xsd.iter(f"{self.XS}element")}
        for name in ("patientKind", "principle"):
            assert elements[name].get("minOccurs") == "1"
            assert elements[name].get("maxOccurs") == "unbounded"
