"""Reading, writing, and schema validation of theory XML documents.

The document format: root ``ethicalTheory`` in the namespace
``http://genet.cs.uct.ac.za`` with attributes baseTheory (required),
instanceName (optional), consequentiality (required), and child elements
agent, patientKinds, influenceThresholds, principles, in that order.

Validation reads ``ELEMENTS``, one row per schema element and the schema's
one statement in code, so diagnostics are identical across platforms. The
authoritative XSD ships in ``genet/data/schema/ethicalTheory.xsd``, and the
test suite checks the table against it. One reader, ``_read``, checks a
document against the table and decodes it in the same pass; its reporting
code runs only for an element that fails a test of the whole element.
"""

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

# Per element: its row, required and allowed attributes, qualified child tag,
# and its path, which the schema fixes but for a collection item's index.
_PATHS = {"ethicalTheory": "/ethicalTheory"}
for _name, _row in ELEMENTS.items():  # each parent before its children
    _PATHS.update((child, f"{_PATHS[_name]}/{child}")
                  for child in (*_row.sequence, _row.child) if child)
_ROWS = {name: (row, frozenset(row.required), frozenset(row.required + row.optional),
                row.child and f"{{{GENET_NS}}}{row.child}", _PATHS[name])
         for name, row in ELEMENTS.items()}
_ROOT = f"{{{GENET_NS}}}ethicalTheory"
_SEQUENCE = {f"{{{GENET_NS}}}{name}": i
             for i, name in enumerate(ELEMENTS["ethicalTheory"].sequence)}
_TEXT = {f"{{{GENET_NS}}}{name}" for name, row in ELEMENTS.items() if row.text}
_XSI = f"{{{XSI_NS}}}"
_SUBJECTS = {subject.value: subject for subject in Subject}
_record = tuple.__new__  # builds a record without NamedTuple.__new__'s Python frame


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


def _check_boolean(elem, name: str, path: str, out: list[Violation]) -> None:
    if (raw := elem.get(name)) is not None and parse_boolean(raw) is None:
        out.append(Violation(BAD_BOOLEAN, f"{path}@{name}", f"not a boolean: {raw!r}"))


def _check_enum(members: dict, raw, name: str, path: str, out: list[Violation]) -> None:
    if raw is not None and raw not in members:
        out.append(Violation(ENUM_VIOLATION, path, f"{name} {raw!r} outside "
                             f"enumeration {list(members)}"))


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


def _read(elem, name: str, i: Optional[int], stray: bool, out: list[Violation]):
    """Check an element against its row, then its children, depth first in
    document order, and decode it: the root's instance, built only when the
    document is schema-clean, else a collection's child values (a frozenset of
    patient kinds, a tuple of principles), else its value or None. The element
    is reported on only when it fails the whole-element test: its child tags,
    its attribute names, its enum or boolean value, and no ``stray`` text in
    the document. ``i`` is its index in a collection, else None: its path is
    built only for a finding."""
    row, need, allowed, qchild, at = _ROWS[name]
    attrib = elem.attrib
    fits = not stray and need <= attrib.keys() <= allowed
    if row.sequence:
        consequentiality = parse_boolean(attrib.get("consequentiality", ""))
        if fits and consequentiality is not None and [sub.tag for sub in elem] == [*_SEQUENCE]:
            found = dict(zip(row.sequence, elem))
        else:  # the root's boolean is reported before its text
            _check_attrs(attrib, at, row, allowed, out)
            _check_boolean(attrib, "consequentiality", at, out)
            _check_text(elem, at, out)
            # The schema demands this exact child sequence.
            found = {}
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
                out.append(Violation(UNEXPECTED_ELEMENT, f"{at}/{child}",
                                     f"element {child!r} {problem}"))
            for child in row.sequence:
                if child not in found:
                    out.append(Violation(MISSING_ELEMENT, f"{at}/{child}",
                                         f"required element {child!r} is missing"))
        # Read in document order, which found keeps.
        values = {child: _read(sub, child, None, stray, out) for child, sub in found.items()}
        if out:
            return None
        return _record(EthicalTheoryInstance, (
            attrib["baseTheory"], consequentiality, values["agent"],
            values["patientKinds"], values["influenceThresholds"],
            values["principles"], attrib.get("instanceName")))
    if qchild is not None:
        child = row.child
        if not fits:
            _check_attrs(attrib, at, row, allowed, out)
            _check_text(elem, at, out)
        if not len(elem):
            out.append(Violation(MIN_OCCURS, f"{at}/{child}",
                                 f"at least one {child} is required"))
        values = []
        for j, sub in enumerate(elem):
            if sub.tag != qchild:
                out.append(Violation(UNEXPECTED_ELEMENT, f"{at}/{child}[{j}]",
                                     f"unexpected element {_local(sub.tag)!r}"))
            elif (value := _read(sub, child, j, stray, out)) is not None:
                values.append(value)
        if child != "patientKind":
            return tuple(values)
        # The XSD tolerates repeated patientKind values; the model is a
        # set, so decoding them would be lossy. Reject instead.
        if len(kinds := frozenset(values)) < len(values):
            out.append(Violation(DUPLICATE_PATIENT_KIND, at,
                                 "patientKind values must be distinct"))
        return kinds
    value = True  # agent and influenceThresholds hold no enum or boolean
    if name == "principle":
        morality = parse_boolean(attrib.get("morality", ""))
        subject = _SUBJECTS.get(attrib.get("subject"))
        specification = attrib.get("specification")
        value = (None if morality is None or subject is None or specification is None
                 else _record(MoralPrinciple, (morality, subject, specification)))
    elif name == "patientKind":
        value = PATIENT_KINDS.get(elem.text or "")
    if not fits or len(elem) or value is None:
        path = at if i is None else f"{at}[{i}]"
        _check_attrs(attrib, path, row, allowed, out)
        if not row.text:
            _check_text(elem, path, out)
        for sub in elem:
            out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{_local(sub.tag)}",
                                 f"{name} has no child elements"))
        if name == "patientKind":
            _check_enum(PATIENT_KINDS, elem.text or "", name, path, out)
        elif name == "principle":
            _check_boolean(attrib, "morality", path, out)
            _check_enum(_SUBJECTS, attrib.get("subject"), "subject", f"{path}@subject", out)
    if name == "agent":
        return _record(MoralAgent, (attrib.get("name", ""), attrib.get("reference")))
    if name == "influenceThresholds":
        external = _read_percentage(attrib, "external", at, out)
        substance = _read_percentage(attrib, "substance", at, out)
        if None in (external, substance):
            return None
        return _record(InfluenceThresholds, (external, substance))
    return value


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
    # Character data other than XML whitespace, where a row allows none, has
    # every element reported on; the test runs once, over the whole document.
    elems = list(root.iter())
    stray = bool("".join([elem.tail or "" for elem in elems]
                         + [elem.text or "" for elem in elems if elem.tag not in _TEXT]
                         ).strip(_SPACE))
    out: list[Violation] = []
    return out, _read(root, "ethicalTheory", None, stray, out)


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
_ATTR_SPECIAL = frozenset('&<>"\n\r\t')  # what makes quoteattr do more than quote


def quoteattr(value: str) -> str:
    """Escape and quote an attribute value, with the same result as
    ``xml.sax.saxutils.quoteattr``, whose import pulls in urllib and http."""
    if _ATTR_SPECIAL.isdisjoint(value):
        return f'"{value}"'
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
