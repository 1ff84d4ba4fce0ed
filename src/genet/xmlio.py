"""Reading, writing, and schema validation of theory XML documents.

The document format: root ``ethicalTheory`` in the namespace
``http://genet.cs.uct.ac.za`` with attributes baseTheory (required),
instanceName (optional), consequentiality (required), and child elements
agent, patientKinds, influenceThresholds, principles, in that order.

Validation is implemented directly from the schema constraints so that
diagnostics are identical across platforms; the authoritative XSD ships
in ``genet/data/schema/ethicalTheory.xsd`` and conformance against it is
exercised by the test suite.
"""

from __future__ import annotations

import re
from typing import Optional
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .model import (
    INVALID_INSTANCE,
    PERCENT_OUT_OF_RANGE,
    EthicalTheoryInstance,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
    validate_instance,
)

GENET_NS = "http://genet.cs.uct.ac.za"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

# Schema-level violation codes.
WELL_FORMEDNESS = "WELL_FORMEDNESS"
NAMESPACE_MISMATCH = "NAMESPACE_MISMATCH"
MISSING_ATTRIBUTE = "MISSING_ATTRIBUTE"
UNEXPECTED_ATTRIBUTE = "UNEXPECTED_ATTRIBUTE"
MISSING_ELEMENT = "MISSING_ELEMENT"
UNEXPECTED_ELEMENT = "UNEXPECTED_ELEMENT"
UNEXPECTED_TEXT = "UNEXPECTED_TEXT"
BAD_BOOLEAN = "BAD_BOOLEAN"
BAD_INTEGER = "BAD_INTEGER"
ENUM_VIOLATION = "ENUM_VIOLATION"
MIN_OCCURS = "MIN_OCCURS"
DUPLICATE_PATIENT_KIND = "DUPLICATE_PATIENT_KIND"

# Error categories carried by TheoryParseError.code (with INVALID_INSTANCE).
SCHEMA_VIOLATION = "SCHEMA_VIOLATION"

_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def parse_boolean(text: str) -> Optional[bool]:
    """Map the XSD boolean lexical space (surrounding whitespace allowed)
    to True or False; None for anything else."""
    return _BOOLEANS.get(text.strip())


class TheoryParseError(ValueError):
    """Raised when a document cannot be decoded into a theory instance.

    ``code`` is one of WELL_FORMEDNESS, NAMESPACE_MISMATCH,
    SCHEMA_VIOLATION, or INVALID_INSTANCE; ``report`` carries the
    individual violations where applicable.
    """

    def __init__(self, code: str, report: ValidationReport, message: str):
        super().__init__(message)
        self.code = code
        self.report = report


class InvalidInstanceError(ValueError):
    """Raised by emit_theory when the instance fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"instance is invalid: {report.codes()}")
        self.code = INVALID_INSTANCE
        self.report = report


def _qname(local: str) -> str:
    return f"{{{GENET_NS}}}{local}"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _check_attrs(elem, path: str, required: list[str], optional: list[str],
                 out: list[Violation]) -> None:
    for name in required:
        if name not in elem.attrib:
            out.append(Violation(MISSING_ATTRIBUTE, f"{path}@{name}",
                                 f"required attribute {name!r} is missing"))
    allowed = set(required) | set(optional)
    for name in elem.attrib:
        # Tolerate the standard XML Schema instance attributes
        # (schemaLocation etc.).
        if name not in allowed and not name.startswith(f"{{{XSI_NS}}}"):
            out.append(Violation(UNEXPECTED_ATTRIBUTE, f"{path}@{name}",
                                 f"attribute {name!r} is not defined by the schema"))


def _check_no_text(elem, path: str, out: list[Violation]) -> None:
    texts = [elem.text or ""] + [child.tail or "" for child in elem]
    if any(t.strip() for t in texts):
        out.append(Violation(UNEXPECTED_TEXT, path,
                             "element must not contain character data"))


def _read_boolean(elem, name: str, path: str, out: list[Violation]):
    raw = elem.get(name)
    if raw is None:
        return None
    value = parse_boolean(raw)
    if value is None:
        out.append(Violation(BAD_BOOLEAN, f"{path}@{name}",
                             f"not a boolean: {raw!r}"))
    return value


def _read_enum(enum, raw: str, name: str, path: str, out: list[Violation]):
    try:
        return enum(raw)
    except ValueError:
        out.append(Violation(ENUM_VIOLATION, path, f"{name} {raw!r} outside "
                             f"enumeration {[member.value for member in enum]}"))
        return None


def _read_percentage(elem, name: str, path: str, out: list[Violation]):
    raw = elem.get(name)
    if raw is None:
        return None
    text = raw.strip()
    if not _INTEGER_RE.match(text):
        out.append(Violation(BAD_INTEGER, f"{path}@{name}",
                             f"not an integer: {raw!r}"))
        return None
    sign = "-" if text[0] == "-" else ""
    digits = text.lstrip("+-").lstrip("0") or "0"
    # Longer numbers are out of range, and int() refuses over 4,300 digits.
    value = int(sign + digits) if len(digits) <= 3 else None
    if value is None or not 0 <= value <= 100:
        out.append(Violation(PERCENT_OUT_OF_RANGE, f"{path}@{name}",
                             f"percentage {sign}{digits} outside [0, 100]"))
        return None
    return value


def _element(elem, path: str, out: list[Violation], required=(), optional=(),
             text: bool = False, child: Optional[str] = None, decode=None) -> list:
    """Check one element against its schema type: its attributes, its
    character data (allowed only when ``text``) and its content, which is
    no child elements or, when ``child`` is given, one or more elements of
    that tag. Each such child is decoded in document order by
    ``decode(child, path, out)``; the results other than None are returned.
    """
    _check_attrs(elem, path, required, optional, out)
    if not text:
        _check_no_text(elem, path, out)
    if child is None:
        for sub in elem:
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{_local(sub.tag)}",
                                 f"{_local(elem.tag)} has no child elements"))
        return []
    if len(elem) == 0:
        out.append(Violation(MIN_OCCURS, f"{path}/{child}",
                             f"at least one {child} is required"))
    values = []
    for i, sub in enumerate(elem):
        cpath = f"{path}/{child}[{i}]"
        if sub.tag != _qname(child):
            out.append(Violation(UNEXPECTED_ELEMENT, cpath,
                                 f"unexpected element {_local(sub.tag)!r}"))
        elif (value := decode(sub, cpath, out)) is not None:
            values.append(value)
    return values


def _decode_patient_kind(elem, path: str, out: list[Violation]) -> Optional[PatientKind]:
    _element(elem, path, out, text=True)
    return _read_enum(PatientKind, elem.text or "", "patientKind", path, out)


def _decode_principle(elem, path: str, out: list[Violation]) -> Optional[MoralPrinciple]:
    _element(elem, path, out, ["morality", "subject", "specification"])
    morality = _read_boolean(elem, "morality", path, out)
    raw = elem.get("subject")
    subject = (None if raw is None
               else _read_enum(Subject, raw, "subject", f"{path}@subject", out))
    specification = elem.get("specification")
    if morality is None or subject is None or specification is None:
        return None
    return MoralPrinciple(morality=morality, subject=subject, specification=specification)


def _decode(doc: bytes):
    """Structural walk shared by schema_check and parse_theory.

    Returns (schema violations, decoded instance or None). The instance
    is only built when the document is schema-clean.
    """
    out: list[Violation] = []
    try:
        root = ElementTree.fromstring(doc)
    except ElementTree.ParseError as exc:
        return [Violation(WELL_FORMEDNESS, "/", f"not well-formed XML: {exc}")], None

    if root.tag != _qname("ethicalTheory"):
        if _local(root.tag) == "ethicalTheory":
            return [Violation(NAMESPACE_MISMATCH, "/ethicalTheory",
                              f"root element is not in namespace {GENET_NS}")], None
        return [Violation(UNEXPECTED_ELEMENT, f"/{_local(root.tag)}",
                          "root element must be ethicalTheory")], None

    path = "/ethicalTheory"
    _check_attrs(root, path, ["baseTheory", "consequentiality"], ["instanceName"], out)
    consequentiality = _read_boolean(root, "consequentiality", path, out)
    _check_no_text(root, path, out)

    # The schema demands this exact child sequence.
    expected = ["agent", "patientKinds", "influenceThresholds", "principles"]
    found: dict[str, ElementTree.Element] = {}
    cursor = 0
    for child in root:
        name = _local(child.tag)
        if not child.tag.startswith(f"{{{GENET_NS}}}") or name not in expected:
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{name}",
                                 f"element {name!r} is not defined by the schema"))
            continue
        index = expected.index(name)
        if name in found:
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{name}",
                                 f"element {name!r} occurs more than once"))
            continue
        if index < cursor:
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{name}",
                                 f"element {name!r} is out of sequence"))
            continue
        found[name] = child
        cursor = index
    for name in expected:
        if name not in found:
            out.append(Violation(MISSING_ELEMENT, f"{path}/{name}",
                                 f"required element {name!r} is missing"))

    agent = None
    if (elem := found.get("agent")) is not None:
        _element(elem, f"{path}/agent", out, ["name"], ["reference"])
        agent = MoralAgent(name=elem.get("name", ""), reference=elem.get("reference"))

    kinds: list[PatientKind] = []
    if (elem := found.get("patientKinds")) is not None:
        kinds = _element(elem, f"{path}/patientKinds", out,
                         child="patientKind", decode=_decode_patient_kind)
        # The XSD tolerates repeated patientKind values; the model is a
        # set, so decoding them would be lossy. Reject instead.
        if len(kinds) != len(set(kinds)):
            out.append(Violation(DUPLICATE_PATIENT_KIND, f"{path}/patientKinds",
                                 "patientKind values must be distinct"))

    thresholds = None
    if (elem := found.get("influenceThresholds")) is not None:
        tpath = f"{path}/influenceThresholds"
        _element(elem, tpath, out, ["external", "substance"])
        external = _read_percentage(elem, "external", tpath, out)
        substance = _read_percentage(elem, "substance", tpath, out)
        if external is not None and substance is not None:
            thresholds = InfluenceThresholds(external=external, substance=substance)

    principles: list[MoralPrinciple] = []
    if (elem := found.get("principles")) is not None:
        principles = _element(elem, f"{path}/principles", out,
                              child="principle", decode=_decode_principle)

    if out:
        return out, None
    return [], EthicalTheoryInstance(
        baseTheory=root.get("baseTheory", ""),
        instanceName=root.get("instanceName"),
        consequentiality=consequentiality,
        agent=agent,
        patientKinds=frozenset(kinds),
        influenceThresholds=thresholds,
        principles=tuple(principles),
    )


def schema_check(doc: bytes) -> ValidationReport:
    """Report every schema constraint the document violates.

    Empty report = the document validates against the theory schema.
    """
    violations, _ = _decode(doc)
    return ValidationReport(tuple(violations))


def parse_theory(doc: bytes) -> EthicalTheoryInstance:
    """Decode a theory document, enforcing both the schema and the
    in-memory model invariants. Unknown elements and attributes are
    hard errors, never skipped.
    """
    violations, instance = _decode(doc)
    if violations:
        report = ValidationReport(tuple(violations))
        first = violations[0]
        if first.code in (WELL_FORMEDNESS, NAMESPACE_MISMATCH):
            raise TheoryParseError(first.code, report, first.message)
        if first.code == DUPLICATE_PATIENT_KIND:
            raise TheoryParseError(INVALID_INSTANCE, report, first.message)
        raise TheoryParseError(SCHEMA_VIOLATION, report,
                               f"schema violations: {report.codes()}")
    core = validate_instance(instance)
    if not core.ok:
        raise TheoryParseError(INVALID_INSTANCE, core,
                               f"document decodes to an invalid instance: {core.codes()}")
    return instance


# Canonical order for emitting the patient-kind set.
_KIND_ORDER = {kind: i for i, kind in enumerate(PatientKind)}


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def emit_theory(instance: EthicalTheoryInstance) -> bytes:
    """Serialize an instance to its canonical document form.

    Deterministic: fixed attribute order, 4-space indentation, UTF-8
    with an XML declaration. Round-trips exactly through parse_theory.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidInstanceError(report)

    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    attrs = [f"xmlns={quoteattr(GENET_NS)}",
             f"baseTheory={quoteattr(instance.baseTheory)}"]
    if instance.instanceName is not None:
        attrs.append(f"instanceName={quoteattr(instance.instanceName)}")
    attrs.append(f"consequentiality={quoteattr(_fmt_bool(instance.consequentiality))}")
    lines.append(f"<ethicalTheory {' '.join(attrs)}>")

    agent_attrs = [f"name={quoteattr(instance.agent.name)}"]
    if instance.agent.reference is not None:
        agent_attrs.append(f"reference={quoteattr(instance.agent.reference)}")
    lines.append(f"    <agent {' '.join(agent_attrs)}/>")

    lines.append("    <patientKinds>")
    for kind in sorted(instance.patientKinds, key=_KIND_ORDER.__getitem__):
        lines.append(f"        <patientKind>{escape(kind.value)}</patientKind>")
    lines.append("    </patientKinds>")

    t = instance.influenceThresholds
    lines.append(f'    <influenceThresholds external="{t.external}" '
                 f'substance="{t.substance}"/>')

    lines.append("    <principles>")
    for p in instance.principles:
        lines.append(f"        <principle morality={quoteattr(_fmt_bool(p.morality))} "
                     f"subject={quoteattr(p.subject.value)} "
                     f"specification={quoteattr(p.specification)}/>")
    lines.append("    </principles>")
    lines.append("</ethicalTheory>")
    return ("\n".join(lines) + "\n").encode("utf-8")
