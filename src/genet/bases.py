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
from typing import NamedTuple, Optional, Sequence

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
    """Load templates from the ``*.json`` entries of a directory, in name order.

    Defaults to the packaged builtin directory; the GENET_BASE_DIR
    environment variable overrides it (CLI contract). A directory that cannot
    be listed, and two files that give the same template name, are errors.
    """
    base_dir = Path(base_dir or os.environ.get(BASE_DIR_ENV)
                    or Path(__file__).parent / "data" / "bases")
    if not base_dir.is_dir():
        raise GenetError(TEMPLATE_ERROR, f"not a base-theory template directory: "
                                         f"{base_dir}", str(base_dir))
    try:
        names = sorted(name for name in os.listdir(base_dir) if name.endswith(".json"))
    except OSError as exc:
        raise GenetError(TEMPLATE_ERROR, f"cannot read base-theory template directory "
                                         f"{base_dir}: {exc}", str(base_dir)) from exc
    files: dict[str, Path] = {}
    templates = []
    for path in map(base_dir.joinpath, names):
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
                remove: Sequence[tuple[str, Subject]] = (),
                add: Sequence[MoralPrinciple] = ()) -> EthicalTheoryInstance:
    """Derive a theory instance from a template under its constraints.

    Fixed fields are copied verbatim and may not be contradicted. The
    (specification, subject) pairs in ``remove`` leave the defaults, then
    the principles in ``add`` are appended in order, each side only if the
    mutability mode allows it. The result always passes validate_instance.
    """
    kinds = base.fixedPatientKinds if patientKinds is None else frozenset(patientKinds)
    if kinds is None:
        raise GenetError(
            FIXED_FIELD_VIOLATION,
            f"{base.name} leaves patientKinds free; the instantiator must supply them",
            "patientKinds")
    if base.fixedPatientKinds not in (None, kinds):
        raise GenetError(FIXED_FIELD_VIOLATION, _fixes_patient_kinds(base), "patientKinds")

    for verb, edits, allowed in zip(("adding", "removing"), (add, remove),
                                    _EDITS[base.mutability]):
        if edits and not allowed:
            raise GenetError(MUTABILITY_VIOLATION, f"{base.name} (mutability="
                             f"{base.mutability.value}) forbids {verb} principles",
                             "principles")
    principles = list(base.defaultPrinciples)
    for specification, subject in remove:
        keys = [_key(p) for p in principles]
        if (key := (specification, subject.value)) not in keys:
            raise GenetError(UNKNOWN_REMOVAL, f"no principle {key} to remove", "principles")
        del principles[keys.index(key)]
    for principle in add:
        if (key := _key(principle)) in map(_key, principles):
            raise GenetError(DUPLICATE_PRINCIPLE, f"principle {key} is already present",
                             "principles")
        principles.append(principle)
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
    defaults by the edits that instantiate takes: removals, then additions,
    each side allowed by the mutability mode. The defaults kept stay in
    their order, before every addition."""
    if not principles or len(set(map(_key, principles))) != len(principles):
        return False
    defaults = template.defaultPrinciples
    may_add, may_remove = _EDITS[template.mutability]
    if not may_remove:
        return (tuple(principles[:len(defaults)]) == defaults
                and (may_add or len(principles) == len(defaults)))
    kept = iter(defaults)
    return may_add or all(p in kept for p in principles)


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
