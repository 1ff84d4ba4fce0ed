"""In-memory representation of an ethical theory instance.

A theory instance names its base theory, fixes whether consequences or
actions are judged, identifies the moral agent, declares which kinds of
moral patients count, sets influence thresholds for requests made under
the influence, and carries an ordered list of moral principles.
``validate_instance`` is the one check of an instance: it reports on each
principle only when the whole collection fails its test.
"""

import json
import re
from enum import Enum
from typing import Callable, NamedTuple, Optional
from urllib.parse import urlparse


class PatientKind(Enum):
    """Closed set of morally considerable patient kinds."""

    HUMAN = "human"
    OTHER_ANIMAL = "otherAnimal"
    NATURE = "nature"
    OTHER_SENTIENT = "otherSentient"


# For the decoders: a dict lookup costs less than PatientKind(value).
PATIENT_KINDS = {kind.value: kind for kind in PatientKind}


class Subject(Enum):
    """Who a principle applies to: the agent, the patients, or both."""

    AGENT = "agent"
    PATIENTS = "patients"
    ALL = "all"

    def covers(self, target: "Subject") -> bool:
        """Whether this principle subject covers an agent/patients target."""
        if target is Subject.ALL:
            raise ValueError("target class must be agent or patients")
        return self is Subject.ALL or self is target


class MoralPrinciple(NamedTuple):
    """One (morality, subject, specification) triple.

    morality=True marks the specified occurrence as morally good,
    False as morally bad.
    """

    morality: bool
    subject: Subject
    specification: str


class MoralAgent(NamedTuple):
    """The entity decisions are made on behalf of.

    The reference URI is stored opaquely and never dereferenced.
    """

    name: str
    reference: Optional[str] = None


class InfluenceThresholds(NamedTuple):
    """Percentages above which a requester's influence voids their request."""

    external: int
    substance: int


class EthicalTheoryInstance(NamedTuple):
    baseTheory: str
    consequentiality: bool
    agent: MoralAgent
    patientKinds: frozenset[PatientKind]
    influenceThresholds: InfluenceThresholds
    principles: tuple[MoralPrinciple, ...]
    instanceName: Optional[str] = None


class Violation(NamedTuple):
    """A single invariant violation: machine-readable code, field path, text."""

    code: str
    path: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    # Template-conformance reports read as "conformant".
    conformant = ok

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


class GenetError(ValueError):
    """The one error for rejected input: a violation ``code``, the message and
    a ``report``, the findings given or else this one violation at ``path``."""

    def __init__(self, code: str, message: str, path: str = "",
                 report: Optional[ValidationReport] = None):
        super().__init__(message)
        self.code = code
        self.report = report or ValidationReport((Violation(code, path, message),))


# Violation codes emitted by validate_instance; bases and xmlio reuse some.
EMPTY_BASE_THEORY = "EMPTY_BASE_THEORY"
EMPTY_AGENT_NAME = "EMPTY_AGENT_NAME"
BAD_URI = "BAD_URI"
EMPTY_PATIENT_KINDS = "EMPTY_PATIENT_KINDS"
PERCENT_OUT_OF_RANGE = "PERCENT_OUT_OF_RANGE"
EMPTY_PRINCIPLES = "EMPTY_PRINCIPLES"
EMPTY_SPECIFICATION = "EMPTY_SPECIFICATION"
SPECIFICATION_WHITESPACE = "SPECIFICATION_WHITESPACE"
DUPLICATE_PRINCIPLE = "DUPLICATE_PRINCIPLE"
EMPTY_INSTANCE_NAME = "EMPTY_INSTANCE_NAME"
NON_XML_CHARACTER = "NON_XML_CHARACTER"
# Category for anything that decodes or instantiates to an invalid instance.
INVALID_INSTANCE = "INVALID_INSTANCE"
# Scenario and template JSON that is undecodable, mistyped or has unknown keys.
PARSE_ERROR = "PARSE_ERROR"


# The characters outside the XML 1.0 Char production: a C0 control other
# than tab, LF and CR, a lone surrogate, U+FFFE or U+FFFF. No theory
# document can carry one. None is printable, so printable text, nearly all
# text, is not searched. The regex holds the C0 controls alone: a class with
# any code point above U+00FF makes re build a 65,536-entry charmap, about
# 0.4 ms in every process. The other three are not ASCII, so only text that
# is not ASCII is scanned for them.
_C0 = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")


def _has_non_xml(text: str) -> bool:
    return not text.isprintable() and (_C0.search(text) is not None or not text.isascii()
                                       and any("\ud800" <= char <= "\udfff"
                                               or char in "\ufffe\uffff" for char in text))


def _non_xml(path: str, text: str) -> Violation:
    return Violation(NON_XML_CHARACTER, path,
                     f"{path} holds a character that XML 1.0 cannot carry: {text!r}")


def _is_uri(text: str) -> bool:
    # Syntactic check only: a scheme followed by some body. A text that
    # urlparse cannot split, such as "http://[oops", is not a URI.
    try:
        parsed = urlparse(text)
    except ValueError:
        return False
    return bool(parsed.scheme) and bool(parsed.netloc or parsed.path)


def validate_instance(theory: EthicalTheoryInstance) -> ValidationReport:
    """Check every structural invariant of a theory instance.

    Total and deterministic; violations are data, not failures. An empty
    report means the instance is valid.
    """
    out: list[Violation] = []

    if not theory.baseTheory:
        out.append(Violation(EMPTY_BASE_THEORY, "baseTheory",
                             "baseTheory must be a non-empty identifier"))
    if theory.instanceName == "":
        out.append(Violation(EMPTY_INSTANCE_NAME, "instanceName",
                             "instanceName, when present, must be non-empty"))
    if not theory.agent.name:
        out.append(Violation(EMPTY_AGENT_NAME, "agent.name",
                             "agent name must be non-empty"))
    if theory.agent.reference is not None and not _is_uri(theory.agent.reference):
        out.append(Violation(BAD_URI, "agent.reference",
                             f"not syntactically a URI: {theory.agent.reference!r}"))
    for path, text in (("baseTheory", theory.baseTheory),
                       ("instanceName", theory.instanceName),
                       ("agent.name", theory.agent.name),
                       ("agent.reference", theory.agent.reference)):
        if text and _has_non_xml(text):
            out.append(_non_xml(path, text))

    if not theory.patientKinds:
        out.append(Violation(EMPTY_PATIENT_KINDS, "patientKinds",
                             "at least one patient kind is required"))

    for name in ("external", "substance"):
        value = getattr(theory.influenceThresholds, name)
        if not 0 <= value <= 100:
            out.append(Violation(PERCENT_OUT_OF_RANGE, f"influenceThresholds.{name}",
                                 f"{name} threshold {value} outside [0, 100]"))

    principles = theory.principles
    if not principles:
        out.append(Violation(EMPTY_PRINCIPLES, "principles",
                             "at least one principle is required"))
    # Each principle is reported on only when the collection fails the test
    # of the whole: non-empty specifications without whitespace, none holding
    # a character XML cannot carry, and distinct (specification, subject) pairs.
    specs = [p.specification for p in principles]
    if (" ".join(specs).split() != specs or _has_non_xml("".join(specs))
            or len({(p.specification, p.subject) for p in principles}) < len(specs)):
        seen: set[tuple[str, Subject]] = set()
        for i, p in enumerate(principles):
            path = f"principles[{i}]"
            if not p.specification:
                out.append(Violation(EMPTY_SPECIFICATION, f"{path}.specification",
                                     "specification must be non-empty"))
            # str.split() splits at exactly the characters str.isspace() accepts.
            elif p.specification.split() != [p.specification]:
                out.append(Violation(
                    SPECIFICATION_WHITESPACE, f"{path}.specification",
                    f"specification contains whitespace: {p.specification!r}"))
            if _has_non_xml(p.specification):
                out.append(_non_xml(f"{path}.specification", p.specification))
            key = (p.specification, p.subject)
            if key in seen:
                out.append(Violation(DUPLICATE_PRINCIPLE, path,
                                     f"duplicate (specification, subject) pair "
                                     f"({p.specification!r}, {p.subject.value})"))
            seen.add(key)

    return ValidationReport(tuple(out))


# Strict JSON, read by the scenario and template loaders: repeated and
# unknown keys and mistyped values are rejected, never coerced.
def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {key!r}")
    return data


# One decoder: json.loads would build one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(doc: bytes):
    """``json.loads``, but a key repeated in an object, or a string holding a
    character that XML 1.0 cannot carry, such as a lone surrogate, is a
    ValueError."""
    data = _DECODER.decode(doc.decode(json.detect_encoding(doc), "surrogatepass"))
    # Strict JSON admits such a character only by a \u escape or verbatim,
    # as non-ASCII bytes in every encoding json reads, so only documents
    # with a backslash or a non-ASCII byte can hold one.
    if b"\\" in doc or not doc.isascii():
        items = [data]
        while items:
            item = items.pop()
            if isinstance(item, dict):
                items += item
                items += item.values()
            elif isinstance(item, list):
                items += item
            elif isinstance(item, str) and _has_non_xml(item):
                raise ValueError(f"string {item!r} holds a character that XML 1.0 "
                                 f"cannot carry")
    return data


class Field(NamedTuple):
    """A key of a JSON object: its type (``object``: any), the check that returns its
    value given the value, the object's path and the key, and its default if absent."""

    kind: type
    check: Optional[Callable] = None
    default: object = ...  # required


def read_object(raw, fields: dict[str, Field], where: str) -> list:
    """The values of ``raw``, an object with no keys outside ``fields``, for
    each of ``fields`` in turn: present and of exactly its type (JSON gives
    no subtypes, and a bool is no int), then checked, or else its default."""
    if type(raw) is not dict:
        raise GenetError(PARSE_ERROR, f"{where}: must be an object", where)
    if not raw.keys() <= fields.keys():
        unknown = next(key for key in raw if key not in fields)
        raise GenetError(PARSE_ERROR, f"{where}: unknown key {unknown!r}", where)
    values = []
    for key, (kind, check, default) in fields.items():
        if (value := raw.get(key, ...)) is ... and default is not ...:
            values.append(default)
        elif type(value) is kind or kind is object and value is not ...:
            values.append(value if check is None else check(value, where, key))
        else:
            problem = (f"missing key {key!r}" if value is ...
                       else f"key {key!r} must be {kind.__name__}")
            raise GenetError(PARSE_ERROR, f"{where}: {problem}", f"{where}.{key}")
    return values


def token(value: str, where: str, key: Optional[str] = None) -> str:
    """``value``, which must be non-empty and hold no character ``str.isspace()``
    accepts: exactly the characters ``str.split()`` splits at."""
    if value.split() != [value]:
        path = where if key is None else f"{where}.{key}"
        raise GenetError(PARSE_ERROR, f"{path}: must be a non-empty whitespace-free token",
                         path)
    return value
