from __future__ import annotations

import re
import shutil
import subprocess
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

import genet
from genet.model import (
    EthicalTheoryInstance,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
)
from genet.xmlio import (
    ELEMENTS,
    GENET_NS,
    XSI_NS,
    emit_theory,
    parse_theory,
    quoteattr,
    schema_check,
)
from .conftest import THEORY_NAMES, VERBATIM_THEORIES, load_synth, theory_bytes
from .strategies import valid_instances
from .test_golden import MUTATED_THEORIES, SYNTH_MODES, _mutants

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


# The XSD strips only XML whitespace (space, tab, CR, LF) around booleans and
# integers, and allows only it between elements: (pattern, replacement, the
# one code schema_check reports, or None for a clean document).
WHITESPACE = {
    "boolean-ascii": ('consequentiality="true"', 'consequentiality=" true&#9;&#10;"', None),
    "boolean-nbsp": ('consequentiality="true"', 'consequentiality="true\u00a0"',
                     "BAD_BOOLEAN"),
    "boolean-nel": ('morality="true"', 'morality="\u0085true"', "BAD_BOOLEAN"),
    "integer-ascii": ('external="50"', 'external="&#13; 50&#9;"', None),
    "integer-nbsp": ('external="50"', 'external="\u00a050"', "BAD_INTEGER"),
    "integer-ideographic": ('substance="30"', 'substance="30\u3000"', "BAD_INTEGER"),
    "text-ascii": ("<principles>", "<principles>\t\r\n ", None),
    "text-nbsp": ("<principles>", "<principles>\u00a0", "UNEXPECTED_TEXT"),
    "text-ideographic": ("</principles>", "\u3000</principles>", "UNEXPECTED_TEXT"),
}


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
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"
        assert "MISSING_ATTRIBUTE" in err.value.report.codes()

    def test_patient_kind_outside_enumeration(self):
        doc = mutate(">human<", ">robot<")
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"
        assert "ENUM_VIOLATION" in err.value.report.codes()

    def test_broken_xml(self):
        with pytest.raises(GenetError) as err:
            parse_theory(MINIMAL[:-30])
        assert err.value.code == "WELL_FORMEDNESS"

    def test_wrong_namespace(self):
        doc = mutate(r'xmlns="http://genet\.cs\.uct\.ac\.za"',
                     'xmlns="http://example.org/other"')
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "NAMESPACE_MISMATCH"

    def test_unknown_element_rejected_not_skipped(self):
        doc = mutate("</principles>", "</principles><extras/>")
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert "UNEXPECTED_ELEMENT" in err.value.report.codes()

    def test_unknown_attribute_rejected(self):
        doc = mutate('subject="agent"', 'subject="agent" weight="3"')
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert "UNEXPECTED_ATTRIBUTE" in err.value.report.codes()

    def test_boolean_lexical_space_accepts_digits(self):
        doc = mutate('consequentiality="true"', 'consequentiality="1"')
        assert parse_theory(doc).consequentiality is True

    def test_duplicate_principle_pair_rejected(self):
        doc = mutate("</principles>",
                     '    <principle morality="false" subject="agent" '
                     'specification="x"/>\n    </principles>')
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "INVALID_INSTANCE"

    def test_reference_urlparse_cannot_split(self):
        doc = mutate('name="A"', 'name="A" reference="http://[oops"')
        # xs:anyURI takes any string; BAD_URI is a model invariant.
        assert schema_check(doc).ok
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert (err.value.code, err.value.report.codes()) == ("INVALID_INSTANCE",
                                                              ["BAD_URI"])

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
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "SCHEMA_VIOLATION"

    def test_duplicate_patient_kind_rejected(self):
        doc = mutate("</patientKinds>",
                     "<patientKind>human</patientKind></patientKinds>")
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert err.value.code == "INVALID_INSTANCE"

    def test_duplicate_patient_kind_with_a_schema_finding_is_a_schema_violation(self):
        doc = mutate("</patientKinds>", "<patientKind>human</patientKind></patientKinds>",
                     mutate('morality="true"', 'morality="maybe"'))
        with pytest.raises(GenetError) as err:
            parse_theory(doc)
        assert (err.value.code, err.value.report.codes()) == (
            "SCHEMA_VIOLATION", ["DUPLICATE_PATIENT_KIND", "BAD_BOOLEAN"])


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
        with pytest.raises(GenetError) as err:
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

    @pytest.mark.parametrize("name", WHITESPACE)
    def test_only_xml_whitespace_is_stripped(self, name):
        pattern, replacement, code = WHITESPACE[name]
        doc = mutate(pattern, replacement)
        assert schema_check(doc).codes() == ([code] if code else [])
        if code is None:
            assert parse_theory(doc) == parse_theory(MINIMAL)

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
                with pytest.raises(GenetError):
                    parse_theory(doc)

    @pytest.mark.parametrize("name", ELEMENTS)
    def test_xsi_attributes_are_tolerated(self, name):
        """An ``xsi:*`` attribute, as ``xsi:schemaLocation`` or ``xsi:type``, is
        allowed on every element and changes nothing."""
        doc = theory_bytes("mia-egoism")
        root = ElementTree.fromstring(doc)
        targets = [elem for elem in root.iter() if elem.tag == f"{{{GENET_NS}}}{name}"]
        assert targets
        for elem in targets:
            elem.set(f"{{{XSI_NS}}}type", "x")
            elem.set(f"{{{XSI_NS}}}schemaLocation", f"{GENET_NS} ethicalTheory.xsd")
        tagged = ElementTree.tostring(root)
        with _no_report():
            assert schema_check(tagged).ok
            assert parse_theory(tagged) == parse_theory(doc)

    def test_a_clean_document_runs_no_reporting_code(self):
        """The reader reports only on an element that fails its whole-element
        test, so no clean document reaches ``_report``: the fixtures, four of
        them with ``xsi:schemaLocation``, their canonical forms and the seed-1
        synthetic theories of both modes."""
        docs = [theory_bytes(name) for name in THEORY_NAMES]
        docs += [emit_theory(parse_theory(doc)) for doc in docs]
        docs += [request.theory_doc for mode in SYNTH_MODES
                 for request in load_synth().make_requests(mode, 1, 20)]
        with _no_report():
            for doc in docs:
                assert schema_check(doc).ok
                parse_theory(doc)

    @pytest.mark.parametrize("where, reported", [
        ("text", ("principle", "/ethicalTheory/principles/principle[1]")),
        ("tail", ("ethicalTheory", "/ethicalTheory")),
    ], ids=["principle-text", "agent-tail"])
    def test_stray_text_reports_only_the_element_that_holds_it(self, where, reported):
        """Each element is judged on its own character data: stray text in a
        principle, or after the agent (the root's character data), sends only
        that element to ``_report``, and the findings are unchanged."""
        root = ElementTree.fromstring(theory_bytes("mia-egoism"))
        if where == "text":
            root.find(f"{{{GENET_NS}}}principles")[1].text = "stray"
        else:
            agent = root.find(f"{{{GENET_NS}}}agent")
            agent.tail = (agent.tail or "") + "stray"
        doc = ElementTree.tostring(root)
        findings = schema_check(doc)
        assert findings.codes() == ["UNEXPECTED_TEXT"]
        with mock.patch.object(genet.xmlio, "_report", wraps=genet.xmlio._report) as spy:
            assert schema_check(doc) == findings
        assert [call.args[1:3] for call in spy.call_args_list] == [reported]


def _no_report():
    """A context in which any call of the theory reader's reporter fails."""
    def fail(elem, name, path, out):
        raise AssertionError(f"{path} of a clean document was reported on")
    return mock.patch.object(genet.xmlio, "_report", fail)


# The fixture theories already in canonical form; the others keep the
# paper's listing layout.
CANONICAL_THEORIES = [name for name in THEORY_NAMES if name not in VERBATIM_THEORIES]

# An instance with no instanceName and no agent reference, whose text needs
# escaping, and its canonical bytes written out.
ESCAPED = EthicalTheoryInstance(
    "egoism", False, MoralAgent("A&B <\"x\">\n'y'"),
    frozenset({PatientKind.NATURE, PatientKind.HUMAN}), InfluenceThresholds(100, 0),
    (MoralPrinciple(True, Subject.AGENT, "s&t<\"u\"'v'"),
     MoralPrinciple(False, Subject.ALL, 'say"hi"')))
ESCAPED_BYTES = b"""<?xml version="1.0" encoding="UTF-8"?>
<ethicalTheory xmlns="http://genet.cs.uct.ac.za" baseTheory="egoism" consequentiality="false">
    <agent name="A&amp;B &lt;&quot;x&quot;&gt;&#10;'y'"/>
    <patientKinds>
        <patientKind>human</patientKind>
        <patientKind>nature</patientKind>
    </patientKinds>
    <influenceThresholds external="100" substance="0"/>
    <principles>
        <principle morality="true" subject="agent" specification="s&amp;t&lt;&quot;u&quot;'v'"/>
        <principle morality="false" subject="all" specification='say"hi"'/>
    </principles>
</ethicalTheory>
"""


class TestEmitTheory:
    @pytest.mark.parametrize("name", CANONICAL_THEORIES)
    def test_canonical_fixture_bytes(self, name):
        doc = theory_bytes(name)
        assert emit_theory(parse_theory(doc)) == doc

    def test_escaped_text_and_absent_optional_attributes(self):
        assert emit_theory(ESCAPED) == ESCAPED_BYTES
        assert parse_theory(ESCAPED_BYTES) == ESCAPED

    def test_mia_kantianism_reparse(self):
        theory = parse_theory(theory_bytes("mia-kantianism"))
        again = parse_theory(emit_theory(theory))
        assert [p.specification for p in again.principles] == [
            "universallyWillable", "mereMeans"]

    def test_doe_utilitarianism_attribute_bytes(self):
        theory = parse_theory(theory_bytes("doe-utilitarianism"))
        assert b'baseTheory="utilitarianism"' in emit_theory(theory)

    def test_invalid_instance_refused(self):
        theory = parse_theory(theory_bytes("mia-kantianism"))
        broken = theory._replace(patientKinds=frozenset())
        with pytest.raises(GenetError):
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

    @given(st.text() | st.text(alphabet="ab&<>\"'\t\n\r "))
    def test_quoteattr_matches_saxutils(self, text):
        assert quoteattr(text) == saxutils.quoteattr(text)

    def test_canonical_booleans_on_output(self):
        doc = mutate('consequentiality="true"', 'consequentiality="1"')
        assert b'consequentiality="true"' in emit_theory(parse_theory(doc))


XSD_PATH = Path(genet.__file__).parent / "data" / "schema" / "ethicalTheory.xsd"


class TestAgainstShippedXsd:
    """Cross-checks the validator's element table against the XSD file.

    Most tests read the schema document itself and compare it with
    ``xmlio.ELEMENTS``; one also runs the XSD engine xmllint, when it is
    installed, over the malformed-theory mutants.
    """

    @pytest.fixture()
    def xsd(self):
        return ElementTree.fromstring(XSD_PATH.read_text("utf-8"))

    @pytest.mark.skipif(shutil.which("xmllint") is None, reason="xmllint is not installed")
    def test_schema_check_agrees_with_xmllint(self, tmp_path):
        docs = {f"{theory} {name}": doc for theory in MUTATED_THEORIES
                for name, doc in _mutants(theory_bytes(theory)).items()}
        docs.update({f"whitespace {name}": mutate(pattern, replacement)
                     for name, (pattern, replacement, _) in WHITESPACE.items()})
        files = {}
        for i, (name, doc) in enumerate(docs.items()):
            files[name] = tmp_path / f"{i}.xml"
            files[name].write_bytes(doc)
        proc = subprocess.run(["xmllint", "--noout", "--schema", str(XSD_PATH),
                               *map(str, files.values())],
                              capture_output=True, text=True, check=False)
        valid = {line.rsplit(" ", 1)[0] for line in proc.stderr.splitlines()
                 if line.endswith(" validates")}
        disagree = {name for name, path in files.items()
                    if schema_check(docs[name]).ok != (str(path) in valid)}
        # The XSD allows a repeated patientKind; genet rejects it on purpose,
        # since the model's patient kinds are a set.
        assert disagree == {name for name, doc in docs.items()
                            if schema_check(doc).codes() == ["DUPLICATE_PATIENT_KIND"]}

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

    def elements(self, xsd) -> dict:
        """Every element the XSD declares, by name: its complexType, named or
        inline, or None for an element of a simple type."""
        complex_types = {t.get("name"): t for t in xsd.findall(f"{self.XS}complexType")}
        return {e.get("name"): complex_types.get(e.get("type"),
                                                 e.find(f"{self.XS}complexType"))
                for e in xsd.iter(f"{self.XS}element")}

    def test_every_element_has_a_row(self, xsd):
        elements = self.elements(xsd)
        assert sorted(elements) == sorted(ELEMENTS)
        # Only an element of a simple type holds character data.
        assert {name for name, row in ELEMENTS.items() if row.text} == {
            name for name, kind in elements.items() if kind is None}

    def test_required_attributes(self, xsd):
        # Each complexType's required and optional attributes, in the XSD's
        # order, which is the order of the MISSING_ATTRIBUTE findings.
        for name, kind in self.elements(xsd).items():
            attributes = [] if kind is None else kind.findall(f"{self.XS}attribute")
            assert ELEMENTS[name].required == tuple(
                a.get("name") for a in attributes if a.get("use") == "required"), name
            assert ELEMENTS[name].optional == tuple(
                a.get("name") for a in attributes if a.get("use") != "required"), name

    def test_root_child_sequence(self, xsd):
        root = self.elements(xsd)["ethicalTheory"]
        children = root.findall(f"{self.XS}sequence/{self.XS}element")
        assert tuple(c.get("name") for c in children) == ELEMENTS["ethicalTheory"].sequence
        # Each exactly once.
        assert all(c.get("minOccurs") is c.get("maxOccurs") is None for c in children)
        assert all(not row.sequence for name, row in ELEMENTS.items()
                   if name != "ethicalTheory")

    def test_min_occurs_one_on_collections(self, xsd):
        # A collection holds one or more elements of its one child tag.
        collections = {}
        for name, kind in self.elements(xsd).items():
            children = ([] if kind is None or name == "ethicalTheory"
                        else kind.findall(f"{self.XS}sequence/{self.XS}element"))
            for child in children:
                assert (child.get("minOccurs"), child.get("maxOccurs")) == (
                    "1", "unbounded"), child.get("name")
                collections[name] = child.get("name")
        assert collections == {name: row.child for name, row in ELEMENTS.items()
                               if row.child is not None}
        assert sorted(collections) == ["patientKinds", "principles"]
