"""Reading, writing, and schema validation of theory XML documents.

The document format: root ``ethicalTheory`` in the namespace
``http://genet.cs.uct.ac.za`` with attributes baseTheory (required),
instanceName (optional), consequentiality (required), and child elements
agent, patientKinds, influenceThresholds, principles, in that order.

Validation reads ``ELEMENTS``, one row per schema element and the schema's
one statement in code, so diagnostics are identical across platforms. The
authoritative XSD ships in ``genet/data/schema/ethicalTheory.xsd``, and the
test suite checks the table against it. A document with nothing to report
decodes on a straight path, ``_clean``, with the table's attribute sets and
lookups; only a document it hands back is walked through the table, which
reports the findings.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional
from xml.etree import ElementTree

from .model import (
    INVALID_INSTANCE,
    PATIENT_KINDS,
    PERCENT_OUT_OF_RANGE,
    EthicalTheoryInstance,
    GenetError,
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

# Error category raised by parse_theory, with WELL_FORMEDNESS,
# NAMESPACE_MISMATCH and INVALID_INSTANCE.
SCHEMA_VIOLATION = "SCHEMA_VIOLATION"

# XML whitespace, the only whitespace the XSD strips or allows between elements.
_SPACE = " \t\n\r"
# An xs:integer: its sign and its digits without leading zeros.
_INTEGER_RE = re.compile(r"([+-]?)0*([0-9]+)")
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def parse_boolean(text: str) -> Optional[bool]:
    """Map the XSD boolean lexical space (surrounding XML whitespace allowed)
    to True or False; None for anything else."""
    return _BOOLEANS.get(text.strip(_SPACE))


def parse_integer(text: str) -> Optional[str]:
    """An xs:integer (surrounding XML whitespace allowed) as int() reads it: a minus
    if negative, then the digits without leading zeros. None for anything else."""
    match = _INTEGER_RE.fullmatch(text.strip(_SPACE))
    return match[1].strip("+") + match[2] if match else None


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


class _Element(NamedTuple):
    """A schema element: its required and optional attributes, whether it may hold
    text, and its content: a ``sequence``, one or more ``child``, or nothing."""

    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    text: bool = False
    child: Optional[str] = None
    sequence: tuple[str, ...] = ()


# The theory schema, one row per element.
ELEMENTS = {
    "ethicalTheory": _Element(("baseTheory", "consequentiality"), ("instanceName",),
                              sequence=("agent", "patientKinds", "influenceThresholds",
                                        "principles")),
    "agent": _Element(("name",), ("reference",)),
    "patientKinds": _Element(child="patientKind"),
    "patientKind": _Element(text=True),
    "influenceThresholds": _Element(("external", "substance")),
    "principles": _Element(child="principle"),
    "principle": _Element(("morality", "subject", "specification")),
}

# Per element: its row, required and allowed attributes, qualified child tag.
_ROWS = {name: (row, frozenset(row.required), frozenset(row.required + row.optional),
                row.child and f"{{{GENET_NS}}}{row.child}")
         for name, row in ELEMENTS.items()}
_ROOT = f"{{{GENET_NS}}}ethicalTheory"
_SEQUENCE = {f"{{{GENET_NS}}}{name}": i
             for i, name in enumerate(ELEMENTS["ethicalTheory"].sequence)}
_XSI = f"{{{XSI_NS}}}"
_SUBJECTS = {subject.value: subject for subject in Subject}


def _check_attrs(attrib, path: str, row: _Element, allowed, out: list[Violation]) -> None:
    for name in row.required:
        if name not in attrib:
            out.append(Violation(MISSING_ATTRIBUTE, f"{path}@{name}",
                                 f"required attribute {name!r} is missing"))
    for name in attrib:
        # Tolerate the XML Schema instance attributes (schemaLocation etc.).
        if name not in allowed and not name.startswith(_XSI):
            out.append(Violation(UNEXPECTED_ATTRIBUTE, f"{path}@{name}",
                                 f"attribute {name!r} is not defined by the schema"))


def _check_text(elem, path: str, out: list[Violation]) -> None:
    """Report character data other than XML whitespace."""
    text = elem.text
    for sub in elem:
        if text and text.strip(_SPACE):
            break
        text = sub.tail
    if text and text.strip(_SPACE):
        out.append(Violation(UNEXPECTED_TEXT, path,
                             "element must not contain character data"))


def _read_boolean(elem, name: str, path: str, out: list[Violation]):
    if (raw := elem.get(name)) is None:
        return None
    if (value := parse_boolean(raw)) is None:
        out.append(Violation(BAD_BOOLEAN, f"{path}@{name}", f"not a boolean: {raw!r}"))
    return value


def _read_enum(members: dict, raw, name: str, path: str, out: list[Violation]):
    if (member := members.get(raw)) is None and raw is not None:
        out.append(Violation(ENUM_VIOLATION, path, f"{name} {raw!r} outside "
                             f"enumeration {list(members)}"))
    return member


def _read_percentage(elem, name: str, path: str, out: list[Violation]):
    if (raw := elem.get(name)) is None:
        return None
    if (digits := parse_integer(raw)) is None:
        out.append(Violation(BAD_INTEGER, f"{path}@{name}", f"not an integer: {raw!r}"))
        return None
    # Longer numbers are out of range, and int() refuses over 4,300 digits.
    if len(digits) > 3 or not 0 <= (value := int(digits)) <= 100:
        out.append(Violation(PERCENT_OUT_OF_RANGE, f"{path}@{name}",
                             f"percentage {digits} outside [0, 100]"))
        return None
    return value


def _walk(elem, path: str, name: str, out: list[Violation]):
    """Check an element against its row, then its children, depth first in document
    order. Returns the root's instance, built only when the document is schema-clean,
    else a collection's list of child values, else its value or None."""
    row, _, allowed, qchild = _ROWS[name]
    attrib = elem.attrib
    _check_attrs(attrib, path, row, allowed, out)
    if row.sequence:  # the root: its boolean is checked before its text
        consequentiality = _read_boolean(attrib, "consequentiality", path, out)
    if not row.text:
        _check_text(elem, path, out)
    if row.sequence:
        # The schema demands this exact child sequence.
        found: dict[str, ElementTree.Element] = {}
        cursor = 0
        for sub in elem:
            if (index := _SEQUENCE.get(sub.tag)) is None:
                child, problem = _local(sub.tag), "is not defined by the schema"
            elif (child := row.sequence[index]) in found:
                problem = "occurs more than once"
            elif index < cursor:
                problem = "is out of sequence"
            else:
                found[child] = sub
                cursor = index
                continue
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{child}",
                                 f"element {child!r} {problem}"))
        for child in row.sequence:
            if child not in found:
                out.append(Violation(MISSING_ELEMENT, f"{path}/{child}",
                                     f"required element {child!r} is missing"))
        # Walked in document order, which found keeps.
        values = {child: _walk(sub, f"{path}/{child}", child, out)
                  for child, sub in found.items()}
        if out:
            return None
        return EthicalTheoryInstance(
            attrib.get("baseTheory", ""), consequentiality, values["agent"],
            frozenset(values["patientKinds"]), values["influenceThresholds"],
            tuple(values["principles"]), attrib.get("instanceName"))
    if qchild is not None:
        child = row.child
        if not len(elem):
            out.append(Violation(MIN_OCCURS, f"{path}/{child}",
                                 f"at least one {child} is required"))
        values = []
        for i, sub in enumerate(elem):
            cpath = f"{path}/{child}[{i}]"
            if sub.tag != qchild:
                out.append(Violation(UNEXPECTED_ELEMENT, cpath,
                                     f"unexpected element {_local(sub.tag)!r}"))
            elif (value := _walk(sub, cpath, child, out)) is not None:
                values.append(value)
        # The XSD tolerates repeated patientKind values; the model is a
        # set, so decoding them would be lossy. Reject instead.
        if child == "patientKind" and len(set(values)) < len(values):
            out.append(Violation(DUPLICATE_PATIENT_KIND, path,
                                 "patientKind values must be distinct"))
        return values
    for sub in elem:
        out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{_local(sub.tag)}",
                             f"{name} has no child elements"))
    if name == "patientKind":
        return _read_enum(PATIENT_KINDS, elem.text or "", name, path, out)
    if name == "principle":
        morality = _read_boolean(attrib, "morality", path, out)
        subject = _read_enum(_SUBJECTS, attrib.get("subject"), "subject",
                             f"{path}@subject", out)
        specification = attrib.get("specification")
        if None in (morality, subject, specification):
            return None
        return MoralPrinciple(morality, subject, specification)
    if name == "agent":
        return MoralAgent(attrib.get("name", ""), attrib.get("reference"))
    external = _read_percentage(attrib, "external", path, out)
    substance = _read_percentage(attrib, "substance", path, out)
    if None in (external, substance):
        return None
    return InfluenceThresholds(external, substance)


_TAGS = list(_SEQUENCE)
_KIND, _PRINCIPLE = _ROWS["patientKinds"][3], _ROWS["principles"][3]
_TERMS = _ROWS["principle"][1]  # a principle's attributes, all required


def _fits(elem, name: str) -> bool:
    """Whether an element has the attributes its row allows, ``xsi:*`` tolerated."""
    _, need, allowed, _ = _ROWS[name]
    keys = elem.attrib.keys()
    return need <= keys <= allowed or need <= keys and all(
        key in allowed or key.startswith(_XSI) for key in keys)


def _clean(root) -> Optional[EthicalTheoryInstance]:
    """Decode a document with nothing to report in one straight pass, with the
    walk's attribute sets and lookups: the instance ``_walk`` would build, or
    None at the first thing not expected. It may hand back a clean document,
    which the walk then decodes, but must never accept one the walk rejects."""
    if [sub.tag for sub in root] != _TAGS:
        return None
    agent, kinds, limits, principles = root
    elems = list(root.iter())
    # Only the root and the two collections have child elements, and only a
    # patientKind holds character data other than XML whitespace.
    if len(elems) != 5 + len(kinds) + len(principles) or "".join(
            [elem.tail or "" for elem in elems]
            + [elem.text or "" for elem in elems if elem.tag != _KIND]).strip(_SPACE):
        return None
    if not (_fits(root, "ethicalTheory") and _fits(agent, "agent")
            and _fits(kinds, "patientKinds") and _fits(limits, "influenceThresholds")
            and _fits(principles, "principles")):
        return None
    found: set[PatientKind] = set()
    for sub in kinds:
        kind = PATIENT_KINDS.get(sub.text)
        if (sub.tag != _KIND or kind is None or kind in found
                or sub.attrib and not _fits(sub, "patientKind")):
            return None
        found.add(kind)
    values = []
    for sub in principles:
        attrib = sub.attrib
        if sub.tag != _PRINCIPLE or attrib.keys() != _TERMS and not _fits(sub, "principle"):
            return None
        morality = parse_boolean(attrib["morality"])
        if morality is None or (subject := _SUBJECTS.get(attrib["subject"])) is None:
            return None
        values.append(MoralPrinciple(morality, subject, attrib["specification"]))
    attrib = root.attrib
    consequentiality = parse_boolean(attrib["consequentiality"])
    unused: list[Violation] = []  # the walk reports what is wrong
    external = _read_percentage(limits.attrib, "external", "", unused)
    substance = _read_percentage(limits.attrib, "substance", "", unused)
    if None in (consequentiality, external, substance) or not found or not values:
        return None
    return EthicalTheoryInstance(
        attrib["baseTheory"], consequentiality,
        MoralAgent(agent.get("name"), agent.get("reference")), frozenset(found),
        InfluenceThresholds(external, substance), tuple(values),
        attrib.get("instanceName"))


def _decode(doc: bytes):
    """The decode schema_check and parse_theory share: (schema violations, the
    decoded instance, built only when the document is schema-clean, or None)."""
    try:
        root = ElementTree.fromstring(doc)
    except ElementTree.ParseError as exc:
        return [Violation(WELL_FORMEDNESS, "/", f"not well-formed XML: {exc}")], None

    if root.tag != _ROOT:
        if _local(root.tag) == "ethicalTheory":
            return [Violation(NAMESPACE_MISMATCH, "/ethicalTheory",
                              f"root element is not in namespace {GENET_NS}")], None
        return [Violation(UNEXPECTED_ELEMENT, f"/{_local(root.tag)}",
                          "root element must be ethicalTheory")], None
    if (instance := _clean(root)) is not None:
        return [], instance
    out: list[Violation] = []
    return out, _walk(root, "/ethicalTheory", "ethicalTheory", out)


def schema_check(doc: bytes) -> ValidationReport:
    """Report every schema constraint the document violates.

    Empty report = the document validates against the theory schema.
    """
    violations, _ = _decode(doc)
    return ValidationReport(tuple(violations))


def parse_theory(doc: bytes) -> EthicalTheoryInstance:
    """Decode a theory document, enforcing both the schema and the
    in-memory model invariants. Unknown elements and attributes are
    hard errors, never skipped. Raises GenetError with code
    WELL_FORMEDNESS, NAMESPACE_MISMATCH, SCHEMA_VIOLATION or INVALID_INSTANCE.
    """
    violations, instance = _decode(doc)
    if violations:
        report = ValidationReport(tuple(violations))
        first = violations[0]
        if first.code in (WELL_FORMEDNESS, NAMESPACE_MISMATCH):
            raise GenetError(first.code, first.message, report=report)
        if first.code == DUPLICATE_PATIENT_KIND:
            raise GenetError(INVALID_INSTANCE, first.message, report=report)
        raise GenetError(SCHEMA_VIOLATION, f"schema violations: {report.codes()}",
                         report=report)
    core = validate_instance(instance)
    if not core.ok:
        raise GenetError(INVALID_INSTANCE, f"document decodes to an invalid instance: "
                                           f"{core.codes()}", report=core)
    return instance


# Canonical order for emitting the patient-kind set.
_KIND_ORDER = {kind: i for i, kind in enumerate(PatientKind)}


_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def quoteattr(value: str) -> str:
    """Escape and quote an attribute value, with the same result as
    ``xml.sax.saxutils.quoteattr``, whose import pulls in urllib and http."""
    value = value.translate(_ATTR_ESCAPES)
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def emit_theory(instance: EthicalTheoryInstance) -> bytes:
    """Serialize an instance to its canonical document form.

    Deterministic: fixed attribute order, 4-space indentation, UTF-8
    with an XML declaration. Round-trips exactly through parse_theory.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise GenetError(INVALID_INSTANCE, f"instance is invalid: {report.codes()}",
                         report=report)

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
        lines.append(f"        <patientKind>{kind.value}</patientKind>")
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
