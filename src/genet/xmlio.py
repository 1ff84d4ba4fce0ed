"""Reading, writing, and schema validation of theory XML documents.

The document format: root ``ethicalTheory`` in the namespace
``http://genet.cs.uct.ac.za`` with attributes baseTheory (required),
instanceName (optional), consequentiality (required), and child elements
agent, patientKinds, influenceThresholds, principles, in that order.

Validation reads ``ELEMENTS``, one row per schema element and the schema's
one statement in code, so diagnostics are identical across platforms. The
authoritative XSD ships in ``genet/data/schema/ethicalTheory.xsd``, and the
test suite checks the table against it. One reader, ``_read``, checks a
document against the table and decodes it in the same pass. It decodes each
element first, and only an element failing a test of its own content goes to
the one reporter, ``_report``, so a clean document runs no reporting code.
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
_XSI = f"{{{XSI_NS}}}"
_SUBJECTS = {subject.value: subject for subject in Subject}
_record = tuple.__new__  # builds a record without NamedTuple.__new__'s Python frame


def _percentage(raw: str) -> Optional[int]:
    """A percentage's value, or None unless ``raw`` is an xs:integer in [0, 100]."""
    digits = parse_integer(raw)
    # Longer numbers are out of range, and int() refuses over 4,300 digits.
    if digits is None or len(digits) > 3 or not 0 <= (value := int(digits)) <= 100:
        return None
    return value


def _report(elem, name: str, path: str, out: list[Violation]) -> None:
    """The one reporter: append the findings on an element itself, in this order:
    its attribute names, the root's boolean, its character data and, for a leaf,
    its child elements and each of its values that fails its type. ``_read``
    calls it only for an element that fails its test of the whole element."""
    row, _, allowed, _, _ = _ROWS[name]
    attrib = elem.attrib
    for attr in row.required:
        if attr not in attrib:
            out.append(Violation(MISSING_ATTRIBUTE, f"{path}@{attr}",
                                 f"required attribute {attr!r} is missing"))
    for attr in attrib:
        # Tolerate the XML Schema instance attributes (schemaLocation etc.).
        if attr not in allowed and not attr.startswith(_XSI):
            out.append(Violation(UNEXPECTED_ATTRIBUTE, f"{path}@{attr}",
                                 f"attribute {attr!r} is not defined by the schema"))
    # The root's boolean comes before its text, a principle's after its children.
    raw = attrib.get("consequentiality") if row.sequence else None
    if raw is not None and parse_boolean(raw) is None:
        out.append(Violation(BAD_BOOLEAN, f"{path}@consequentiality",
                             f"not a boolean: {raw!r}"))
    text = "".join([elem.text or "", *[sub.tail or "" for sub in elem]])
    if not row.text and text.strip(_SPACE):
        out.append(Violation(UNEXPECTED_TEXT, path,
                             "element must not contain character data"))
    if row.sequence or row.child:
        return
    for sub in elem:
        out.append(Violation(UNEXPECTED_ELEMENT, f"{path}/{_local(sub.tag)}",
                             f"{name} has no child elements"))
    if name == "patientKind" and (raw := elem.text or "") not in PATIENT_KINDS:
        out.append(Violation(ENUM_VIOLATION, path, f"patientKind {raw!r} outside "
                             f"enumeration {list(PATIENT_KINDS)}"))
    if name == "principle":
        if (raw := attrib.get("morality")) is not None and parse_boolean(raw) is None:
            out.append(Violation(BAD_BOOLEAN, f"{path}@morality", f"not a boolean: {raw!r}"))
        if (raw := attrib.get("subject")) is not None and raw not in _SUBJECTS:
            out.append(Violation(ENUM_VIOLATION, f"{path}@subject", f"subject {raw!r} outside "
                                 f"enumeration {list(_SUBJECTS)}"))
    if name == "influenceThresholds":
        for attr in row.required:  # external, then substance
            if (raw := attrib.get(attr)) is None:
                continue
            if (digits := parse_integer(raw)) is None:
                out.append(Violation(BAD_INTEGER, f"{path}@{attr}",
                                     f"not an integer: {raw!r}"))
            elif _percentage(raw) is None:
                out.append(Violation(PERCENT_OUT_OF_RANGE, f"{path}@{attr}",
                                     f"percentage {digits} outside [0, 100]"))


def _read(elem, name: str, i: Optional[int], out: list[Violation]):
    """Check an element against its row, then its children, depth first in
    document order, and decode it: the root's instance, built only when the
    document is schema-clean, else a collection's child values (a frozenset of
    patient kinds, a tuple of principles), else its value or None. Only an
    element that fails the whole-element test goes to ``_report``: its child
    tags, its attribute names, its values and its own character data. ``i`` is
    its index in a collection, else None: its path is built only for a finding."""
    row, need, allowed, qchild, at = _ROWS[name]
    attrib = elem.attrib
    keys = attrib.keys()
    text = elem.text
    if len(elem):  # ElementTree keeps its other character data in its children's tails.
        text = "".join([text or "", *[sub.tail or "" for sub in elem]])
    # As the schema does, tolerate the XML Schema instance attributes.
    fits = need <= keys and (
        keys <= allowed or all(key.startswith(_XSI) for key in keys - allowed)) and (
        row.text or not (text and text.strip(_SPACE)))  # else XML whitespace only
    if row.sequence:
        consequentiality = parse_boolean(attrib.get("consequentiality", ""))
        if not fits or consequentiality is None:
            _report(elem, name, at, out)
        # The schema demands this exact child sequence.
        found, cursor = {}, 0
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
        values = {child: _read(sub, child, None, out) for child, sub in found.items()}
        if out:
            return None
        return _record(EthicalTheoryInstance, (
            attrib["baseTheory"], consequentiality, values["agent"],
            values["patientKinds"], values["influenceThresholds"],
            values["principles"], attrib.get("instanceName")))
    if qchild is not None:
        child = row.child
        if not fits:
            _report(elem, name, at, out)
        if not len(elem):
            out.append(Violation(MIN_OCCURS, f"{at}/{child}",
                                 f"at least one {child} is required"))
        values = []
        for j, sub in enumerate(elem):
            if sub.tag != qchild:
                out.append(Violation(UNEXPECTED_ELEMENT, f"{at}/{child}[{j}]",
                                     f"unexpected element {_local(sub.tag)!r}"))
            elif (value := _read(sub, child, j, out)) is not None:
                values.append(value)
        if child != "patientKind":
            return tuple(values)
        # The XSD tolerates repeated patientKind values; the model is a
        # set, so decoding them would be lossy. Reject instead.
        if len(kinds := frozenset(values)) < len(values):
            out.append(Violation(DUPLICATE_PATIENT_KIND, at,
                                 "patientKind values must be distinct"))
        return kinds
    if name == "principle":
        morality = parse_boolean(attrib.get("morality", ""))
        subject = _SUBJECTS.get(attrib.get("subject"))
        specification = attrib.get("specification")
        value = (None if morality is None or subject is None or specification is None
                 else _record(MoralPrinciple, (morality, subject, specification)))
    elif name == "patientKind":
        value = PATIENT_KINDS.get(elem.text or "")
    elif name == "agent":
        value = _record(MoralAgent, (attrib.get("name", ""), attrib.get("reference")))
    else:
        external = _percentage(attrib.get("external", ""))
        substance = _percentage(attrib.get("substance", ""))
        value = (None if external is None or substance is None
                 else _record(InfluenceThresholds, (external, substance)))
    if not fits or len(elem) or value is None:
        _report(elem, name, at if i is None else f"{at}[{i}]", out)
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
    out: list[Violation] = []
    return out, _read(root, "ethicalTheory", None, out)


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
        if report.codes() == [DUPLICATE_PATIENT_KIND]:
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


def _attributes(*pairs) -> str:
    """`` name="text"``, text escaped, for each (name, text) pair whose text is not None."""
    return "".join([f" {name}={quoteattr(text)}" for name, text in pairs if text is not None])


def emit_theory(instance: EthicalTheoryInstance) -> bytes:
    """Serialize an instance to its canonical document form.

    Deterministic: fixed attribute order, 4-space indentation, only the
    instance's own text escaped, UTF-8 with an XML declaration.
    Round-trips exactly through parse_theory.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise GenetError(INVALID_INSTANCE, f"instance is invalid: {report.codes()}",
                         report=report)
    agent, t = instance.agent, instance.influenceThresholds
    root = _attributes(("baseTheory", instance.baseTheory),
                       ("instanceName", instance.instanceName))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<ethicalTheory xmlns="{GENET_NS}"{root} '
        f'consequentiality="{_fmt_bool(instance.consequentiality)}">',
        f"    <agent{_attributes(('name', agent.name), ('reference', agent.reference))}/>",
        "    <patientKinds>",
        *[f"        <patientKind>{kind.value}</patientKind>"
          for kind in sorted(instance.patientKinds, key=_KIND_ORDER.__getitem__)],
        "    </patientKinds>",
        f'    <influenceThresholds external="{t.external}" substance="{t.substance}"/>',
        "    <principles>",
        *[f'        <principle morality="{_fmt_bool(p.morality)}" subject="{p.subject.value}" '
          f"specification={quoteattr(p.specification)}/>" for p in instance.principles],
        "    </principles>",
        "</ethicalTheory>\n",
    ]
    return "\n".join(lines).encode("utf-8")
