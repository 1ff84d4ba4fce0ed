"""In-memory representation of an ethical theory instance.

A theory instance names its base theory, fixes whether consequences or
actions are judged, identifies the moral agent, declares which kinds of
moral patients count, sets influence thresholds for requests made under
the influence, and carries an ordered list of moral principles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional
from urllib.parse import urlparse


class PatientKind(Enum):
    """Closed set of morally considerable patient kinds."""

    HUMAN = "human"
    OTHER_ANIMAL = "otherAnimal"
    NATURE = "nature"
    OTHER_SENTIENT = "otherSentient"


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


@dataclass(frozen=True)
class MoralPrinciple:
    """One (morality, subject, specification) triple.

    morality=True marks the specified occurrence as morally good,
    False as morally bad.
    """

    morality: bool
    subject: Subject
    specification: str


@dataclass(frozen=True)
class MoralAgent:
    """The entity decisions are made on behalf of.

    The reference URI is stored opaquely and never dereferenced.
    """

    name: str
    reference: Optional[str] = None


@dataclass(frozen=True)
class InfluenceThresholds:
    """Percentages above which a requester's influence voids their request."""

    external: int
    substance: int


@dataclass(frozen=True)
class EthicalTheoryInstance:
    baseTheory: str
    consequentiality: bool
    agent: MoralAgent
    patientKinds: frozenset[PatientKind]
    influenceThresholds: InfluenceThresholds
    principles: tuple[MoralPrinciple, ...]
    instanceName: Optional[str] = None


@dataclass(frozen=True)
class Violation:
    """A single invariant violation: machine-readable code, field path, text."""

    code: str
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    # Template-conformance reports read as "conformant".
    conformant = ok

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


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
# Category for anything that decodes or instantiates to an invalid instance.
INVALID_INSTANCE = "INVALID_INSTANCE"


def _is_uri(text: str) -> bool:
    # Syntactic check only: a scheme followed by some body.
    parsed = urlparse(text)
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

    if not theory.patientKinds:
        out.append(Violation(EMPTY_PATIENT_KINDS, "patientKinds",
                             "at least one patient kind is required"))

    for name in ("external", "substance"):
        value = getattr(theory.influenceThresholds, name)
        if not 0 <= value <= 100:
            out.append(Violation(PERCENT_OUT_OF_RANGE, f"influenceThresholds.{name}",
                                 f"{name} threshold {value} outside [0, 100]"))

    if not theory.principles:
        out.append(Violation(EMPTY_PRINCIPLES, "principles",
                             "at least one principle is required"))
    seen: set[tuple[str, Subject]] = set()
    for i, p in enumerate(theory.principles):
        path = f"principles[{i}]"
        if not p.specification:
            out.append(Violation(EMPTY_SPECIFICATION, f"{path}.specification",
                                 "specification must be non-empty"))
        elif any(c.isspace() for c in p.specification):
            out.append(Violation(SPECIFICATION_WHITESPACE, f"{path}.specification",
                                 f"specification contains whitespace: {p.specification!r}"))
        key = (p.specification, p.subject)
        if key in seen:
            out.append(Violation(DUPLICATE_PRINCIPLE, path,
                                 f"duplicate (specification, subject) pair "
                                 f"({p.specification!r}, {p.subject.value})"))
        seen.add(key)

    return ValidationReport(tuple(out))
