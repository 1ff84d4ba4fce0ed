"""Base-theory templates and constraint-checked instantiation.

A template fixes consequentiality and (usually) the patient-kind set,
ships default principles, and declares how the principle collection may
be edited when a person or business instantiates it: ``add`` (append
only), ``remove`` (delete only), ``none`` (frozen), or ``all``.

Templates are plain JSON data files, one per base theory, so new
second-layer theories can be added without code changes. The builtin
four live in ``genet/data/bases/``; see the README for the key schema.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .model import (
    DUPLICATE_PRINCIPLE,
    EMPTY_PRINCIPLES,
    INVALID_INSTANCE,
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
from .scenario import _object, _optional, _require

BASE_DIR_ENV = "GENET_BASE_DIR"

# Instantiation / conformance codes.
MUTABILITY_VIOLATION = "MUTABILITY_VIOLATION"
FIXED_FIELD_VIOLATION = "FIXED_FIELD_VIOLATION"
UNKNOWN_REMOVAL = "UNKNOWN_REMOVAL"
UNKNOWN_BASE_THEORY = "UNKNOWN_BASE_THEORY"
CONSEQUENTIALITY_MISMATCH = "CONSEQUENTIALITY_MISMATCH"
NOT_REACHABLE = "NOT_REACHABLE"


class Mutability(Enum):
    ADD = "add"
    REMOVE = "remove"
    NONE = "none"
    ALL = "all"


# For each mode: (whether principles may be added, whether removed).
_EDITS = {Mutability.ADD: (True, False), Mutability.REMOVE: (False, True),
          Mutability.NONE: (False, False), Mutability.ALL: (True, True)}


@dataclass(frozen=True)
class BaseTheoryTemplate:
    name: str
    consequentiality: bool
    defaultPrinciples: tuple[MoralPrinciple, ...]
    mutability: Mutability
    fixedPatientKinds: Optional[frozenset[PatientKind]] = None
    freeFields: tuple[str, ...] = ("agent", "influenceThresholds", "instanceName")


@dataclass(frozen=True)
class PrincipleEdit:
    """A single change to the default principle collection: adding the
    principle when ``adds`` is true, removing it otherwise."""

    adds: bool
    principle: MoralPrinciple

    @staticmethod
    def add(principle: MoralPrinciple) -> "PrincipleEdit":
        return PrincipleEdit(True, principle)

    @staticmethod
    def remove(principle: MoralPrinciple) -> "PrincipleEdit":
        return PrincipleEdit(False, principle)


class InstantiationError(ValueError):
    """``report`` holds the findings: the produced instance's own violations
    for INVALID_INSTANCE, otherwise this one refusal at ``path``."""

    def __init__(self, code: str, message: str, path: str = "principles",
                 report: Optional[ValidationReport] = None):
        super().__init__(message)
        self.code = code
        self.report = report or ValidationReport((Violation(code, path, message),))


class UnknownBaseTheoryError(KeyError):
    def __init__(self, name: str):
        super().__init__(f"no base theory named {name!r} is registered")
        self.code = UNKNOWN_BASE_THEORY
        self.name = name


_TEMPLATE_KEYS = {"name", "consequentiality", "fixedPatientKinds", "mutability",
                  "defaultPrinciples", "freeFields"}


def _decode_template(path: Path) -> BaseTheoryTemplate:
    """Read and decode one template file. Unknown keys and mistyped values
    are rejected, as in scenario documents."""
    try:
        doc = path.read_bytes()
    except OSError as exc:  # a directory named *.json, or an unreadable file
        raise ValueError(f"cannot read base-theory template {path}: {exc}") from exc
    try:
        data = _object(json.loads(doc), _TEMPLATE_KEYS, "document")
        principles = []
        for i, raw in enumerate(_require(data, "defaultPrinciples", list, "document")):
            where = f"defaultPrinciples[{i}]"
            _object(raw, {"morality", "subject", "specification"}, where)
            principles.append(MoralPrinciple(
                morality=_require(raw, "morality", bool, where),
                subject=Subject(_require(raw, "subject", str, where)),
                specification=_require(raw, "specification", str, where)))
        if not principles:
            raise ValueError("document: key 'defaultPrinciples' is empty")
        fixed = _optional(data, "fixedPatientKinds", list, "document")
        free = _optional(data, "freeFields", list, "document",
                         BaseTheoryTemplate.freeFields)
        if not all(isinstance(field, str) for field in free):
            raise ValueError("document: key 'freeFields' must list only str")
        return BaseTheoryTemplate(
            name=_require(data, "name", str, "document"),
            consequentiality=_require(data, "consequentiality", bool, "document"),
            defaultPrinciples=tuple(principles),
            mutability=Mutability(_require(data, "mutability", str, "document")),
            fixedPatientKinds=None if fixed is None
            else frozenset(PatientKind(k) for k in fixed),
            freeFields=tuple(free))
    except (ValueError, RecursionError) as exc:  # also bad or too deep JSON, ScenarioError
        raise ValueError(f"malformed base-theory template {path}: {exc}") from exc


class Registry:
    """Immutable-after-load lookup of base-theory templates by name."""

    def __init__(self, templates: list[BaseTheoryTemplate]):
        self._by_name = {t.name: t for t in templates}

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def get(self, name: str) -> BaseTheoryTemplate:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownBaseTheoryError(name) from None


def load_registry(base_dir: Optional[Path] = None) -> Registry:
    """Load templates from a directory of ``*.json`` files.

    Defaults to the packaged builtin directory; the GENET_BASE_DIR
    environment variable overrides it (CLI contract).
    """
    if base_dir is None:
        base_dir = os.environ.get(BASE_DIR_ENV) or Path(__file__).parent / "data" / "bases"
    return Registry([_decode_template(p) for p in sorted(Path(base_dir).glob("*.json"))])


def _key(p: MoralPrinciple) -> tuple[str, str]:
    return (p.specification, p.subject.value)


def instantiate(base: BaseTheoryTemplate,
                agent: MoralAgent,
                thresholds: InfluenceThresholds,
                instanceName: Optional[str] = None,
                patientKinds: Optional[frozenset[PatientKind]] = None,
                edits: list[PrincipleEdit] = ()) -> EthicalTheoryInstance:
    """Derive a theory instance from a template under its constraints.

    Fixed fields are copied verbatim and may not be contradicted; edits
    are applied in order and must be legal for the template's mutability
    mode. The result always passes validate_instance.
    """
    if base.fixedPatientKinds is not None:
        if patientKinds is not None and frozenset(patientKinds) != base.fixedPatientKinds:
            raise InstantiationError(
                FIXED_FIELD_VIOLATION,
                f"{base.name} fixes patientKinds to "
                f"{sorted(k.value for k in base.fixedPatientKinds)}",
                path="patientKinds")
        kinds = base.fixedPatientKinds
    else:
        if patientKinds is None:
            raise InstantiationError(
                FIXED_FIELD_VIOLATION,
                f"{base.name} leaves patientKinds free; the instantiator must supply them",
                path="patientKinds")
        kinds = frozenset(patientKinds)

    may_add, may_remove = _EDITS[base.mutability]
    principles = list(base.defaultPrinciples)
    for edit in edits:
        if edit.adds:
            if not may_add:
                raise InstantiationError(
                    MUTABILITY_VIOLATION,
                    f"{base.name} (mutability={base.mutability.value}) "
                    f"forbids adding principles")
            if any(_key(p) == _key(edit.principle) for p in principles):
                raise InstantiationError(
                    DUPLICATE_PRINCIPLE,
                    f"principle {_key(edit.principle)} is already present")
            principles.append(edit.principle)
        else:
            if not may_remove:
                raise InstantiationError(
                    MUTABILITY_VIOLATION,
                    f"{base.name} (mutability={base.mutability.value}) "
                    f"forbids removing principles")
            matches = [p for p in principles if _key(p) == _key(edit.principle)]
            if not matches:
                raise InstantiationError(
                    UNKNOWN_REMOVAL,
                    f"no principle {_key(edit.principle)} to remove")
            principles.remove(matches[0])
    if not principles:
        raise InstantiationError(EMPTY_PRINCIPLES,
                                 "edits left the principle collection empty")

    instance = EthicalTheoryInstance(
        baseTheory=base.name,
        instanceName=instanceName,
        consequentiality=base.consequentiality,
        agent=agent,
        patientKinds=kinds,
        influenceThresholds=thresholds,
        principles=tuple(principles),
    )
    report = validate_instance(instance)
    if not report.ok:
        raise InstantiationError(INVALID_INSTANCE,
                                 f"instantiation produced an invalid instance: "
                                 f"{report.codes()}", report=report)
    return instance


def reachable(template: BaseTheoryTemplate,
              principles: tuple[MoralPrinciple, ...]) -> bool:
    """Whether a principle list can be produced from the template's
    defaults by some legal edit sequence."""
    if not principles:
        return False
    have = {_key(p): p for p in principles}
    if len(have) != len(principles):
        return False
    defaults = {_key(p): p for p in template.defaultPrinciples}
    added = [k for k in have if k not in defaults]
    removed = [k for k in defaults if k not in have]
    # A retained default with flipped morality counts as remove + add.
    for key in set(have) & set(defaults):
        if have[key] != defaults[key]:
            added.append(key)
            removed.append(key)
    may_add, may_remove = _EDITS[template.mutability]
    return (may_add or not added) and (may_remove or not removed)


def check_conformance(instance: EthicalTheoryInstance,
                      registry: Registry) -> ValidationReport:
    """Verify an instance against its registered template: fixed fields
    match and the principle list is reachable under the mutability mode.

    Raises UnknownBaseTheoryError when the base theory is not registered.
    """
    template = registry.get(instance.baseTheory)
    out: list[Violation] = []
    if instance.consequentiality != template.consequentiality:
        out.append(Violation(
            CONSEQUENTIALITY_MISMATCH, "consequentiality",
            f"{template.name} fixes consequentiality="
            f"{str(template.consequentiality).lower()}"))
    if (template.fixedPatientKinds is not None
            and instance.patientKinds != template.fixedPatientKinds):
        out.append(Violation(
            FIXED_FIELD_VIOLATION, "patientKinds",
            f"{template.name} fixes patientKinds to "
            f"{sorted(k.value for k in template.fixedPatientKinds)}"))
    if not reachable(template, instance.principles):
        out.append(Violation(
            NOT_REACHABLE, "principles",
            f"principle list is not reachable from {template.name} defaults "
            f"under mutability={template.mutability.value}"))
    return ValidationReport(tuple(out))
