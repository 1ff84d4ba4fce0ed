"""Base-theory templates and constraint-checked instantiation.

A template fixes consequentiality and (usually) the patient-kind set,
ships default principles, and declares how the principle collection may
be edited when a person or business instantiates it: ``add`` (append
only), ``remove`` (delete only), ``none`` (frozen), or ``all``.

Templates are plain JSON data files, one per base theory, so new
second-layer theories can be added without code changes. The builtin
four live in ``genet/data/bases/``; see the README for the key schema.
"""

import os
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional

from .model import (
    DUPLICATE_PRINCIPLE,
    EMPTY_PRINCIPLES,
    INVALID_INSTANCE,
    EthicalTheoryInstance,
    Field,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
    load_json,
    read_object,
    token,
    validate_instance,
)

BASE_DIR_ENV = "GENET_BASE_DIR"

# Instantiation / conformance codes.
MUTABILITY_VIOLATION = "MUTABILITY_VIOLATION"
FIXED_FIELD_VIOLATION = "FIXED_FIELD_VIOLATION"
UNKNOWN_REMOVAL = "UNKNOWN_REMOVAL"
UNKNOWN_BASE_THEORY = "UNKNOWN_BASE_THEORY"
# A template file or directory that cannot be read or decoded.
TEMPLATE_ERROR = "TEMPLATE_ERROR"
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


class BaseTheoryTemplate(NamedTuple):
    name: str
    consequentiality: bool
    defaultPrinciples: tuple[MoralPrinciple, ...]
    mutability: Mutability
    fixedPatientKinds: Optional[frozenset[PatientKind]] = None


class PrincipleEdit(NamedTuple):
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


_PRINCIPLE = {"morality": Field(bool),
              "subject": Field(str, lambda value, *_: Subject(value)),
              "specification": Field(str, token)}


def _key(p: MoralPrinciple) -> tuple[str, str]:
    return (p.specification, p.subject.value)


def _principles(raws: list) -> tuple[MoralPrinciple, ...]:
    principles: dict[tuple[str, str], MoralPrinciple] = {}
    for i, raw in enumerate(raws):
        p = MoralPrinciple(*read_object(raw, _PRINCIPLE, f"defaultPrinciples[{i}]"))
        if principles.setdefault(_key(p), p) is not p:
            raise ValueError(f"defaultPrinciples[{i}]: duplicate (specification, "
                             f"subject) pair ({p.specification!r}, {p.subject.value})")
    if not principles:
        raise ValueError("document: key 'defaultPrinciples' is empty")
    return tuple(principles.values())


def _non_empty(value: str, where: str, key: str) -> str:
    if not value:
        raise ValueError(f"{where}.{key}: must be non-empty")
    return value


def _patient_kinds(values: list, where: str, key: str) -> frozenset[PatientKind]:
    kinds = frozenset(map(PatientKind, values))
    if not kinds or len(kinds) < len(values):
        raise ValueError(f"{where}.{key}: must be a non-empty list of distinct "
                         f"patient kinds")
    return kinds


# A template document, its keys in the order they are checked, all of them
# before any default principle is read.
_TEMPLATE = {"defaultPrinciples": Field(list),
             "fixedPatientKinds": Field(list, _patient_kinds, default=None),
             "name": Field(str, _non_empty), "consequentiality": Field(bool),
             "mutability": Field(str, lambda value, *_: Mutability(value))}


def _decode_template(path: Path) -> BaseTheoryTemplate:
    """Read and decode one template file. Repeated and unknown keys and
    mistyped values are rejected, as in scenario documents."""
    try:
        raws, fixed, name, consequential, mutability = read_object(
            load_json(path.read_bytes()), _TEMPLATE, "document")
        return BaseTheoryTemplate(name, consequential, _principles(raws), mutability,
                                  fixed)
    except (OSError, ValueError, RecursionError) as exc:
        # An unreadable entry (such as a directory named *.json), or bad JSON.
        problem = "cannot read" if isinstance(exc, OSError) else "malformed"
        raise GenetError(TEMPLATE_ERROR, f"{problem} base-theory template {path}: {exc}",
                         str(path)) from exc


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
            raise GenetError(UNKNOWN_BASE_THEORY, f"no base theory named {name!r} "
                             f"is registered", "baseTheory") from None


def load_registry(base_dir: Optional[Path] = None) -> Registry:
    """Load templates from a directory of ``*.json`` files.

    Defaults to the packaged builtin directory; the GENET_BASE_DIR
    environment variable overrides it (CLI contract). Two files that give
    the same template name are an error.
    """
    base_dir = Path(base_dir or os.environ.get(BASE_DIR_ENV)
                    or Path(__file__).parent / "data" / "bases")
    if not base_dir.is_dir():
        raise GenetError(TEMPLATE_ERROR, f"not a base-theory template directory: "
                                         f"{base_dir}", str(base_dir))
    files: dict[str, Path] = {}
    templates = []
    for path in sorted(base_dir.glob("*.json")):
        template = _decode_template(path)
        if (first := files.setdefault(template.name, path)) != path:
            raise GenetError(TEMPLATE_ERROR, f"base-theory templates {first} and {path} "
                             f"both give the name {template.name!r}", str(path))
        templates.append(template)
    return Registry(templates)


def _fixes_patient_kinds(template: BaseTheoryTemplate) -> str:
    return (f"{template.name} fixes patientKinds to "
            f"{sorted(k.value for k in template.fixedPatientKinds)}")


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
    kinds = base.fixedPatientKinds if patientKinds is None else frozenset(patientKinds)
    if kinds is None:
        raise GenetError(
            FIXED_FIELD_VIOLATION,
            f"{base.name} leaves patientKinds free; the instantiator must supply them",
            "patientKinds")
    if base.fixedPatientKinds not in (None, kinds):
        raise GenetError(FIXED_FIELD_VIOLATION, _fixes_patient_kinds(base), "patientKinds")

    may_add, may_remove = _EDITS[base.mutability]
    principles = list(base.defaultPrinciples)
    for edit in edits:
        if not (may_add if edit.adds else may_remove):
            raise GenetError(
                MUTABILITY_VIOLATION,
                f"{base.name} (mutability={base.mutability.value}) forbids "
                f"{'adding' if edit.adds else 'removing'} principles", "principles")
        key = _key(edit.principle)
        present = next((p for p in principles if _key(p) == key), None)
        if edit.adds and present:
            raise GenetError(DUPLICATE_PRINCIPLE, f"principle {key} is already present",
                             "principles")
        if not (edit.adds or present):
            raise GenetError(UNKNOWN_REMOVAL, f"no principle {key} to remove", "principles")
        if edit.adds:
            principles.append(edit.principle)
        else:
            principles.remove(present)
    if not principles:
        raise GenetError(EMPTY_PRINCIPLES, "edits left the principle collection empty",
                         "principles")

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
        raise GenetError(INVALID_INSTANCE, f"instantiation produced an invalid "
                         f"instance: {report.codes()}", report=report)
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
    may_add, may_remove = _EDITS[template.mutability]
    # A default kept with flipped morality is an item of neither view, so it
    # counts as a remove and an add.
    return ((may_add or have.items() <= defaults.items())
            and (may_remove or defaults.items() <= have.items()))


def check_conformance(instance: EthicalTheoryInstance,
                      registry: Registry) -> ValidationReport:
    """Verify an instance against its registered template: fixed fields
    match and the principle list is reachable under the mutability mode.

    Raises GenetError(UNKNOWN_BASE_THEORY) when the base theory is not
    registered.
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
        out.append(Violation(FIXED_FIELD_VIOLATION, "patientKinds",
                             _fixes_patient_kinds(template)))
    if not reachable(template, instance.principles):
        out.append(Violation(
            NOT_REACHABLE, "principles",
            f"principle list is not reachable from {template.name} defaults "
            f"under mutability={template.mutability.value}"))
    return ValidationReport(tuple(out))
