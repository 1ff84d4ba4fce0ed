"""Scenario documents: the declarative situations the reasoner evaluates.

A scenario names the agent acted for, declares stakeholder groups and
candidate actions, and asserts each action's consequences (effects, for
consequentialist theories) and intrinsic features (deontic assertions,
for deontological theories). Consequence extrapolation is authoring
work, not inference: the file states what the author holds to follow
from each action.

File format: UTF-8 JSON with top-level keys ``scenario``, ``actingFor``,
``groups``, ``actions``, ``effects``, ``deontics``, and optional
``request``; extension ``.scenario.json``. See the README for the full
key schema.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .model import (
    EthicalTheoryInstance,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
)

#: Distinguished target meaning "the moral agent itself".
AGENT = "AGENT"

PARSE_ERROR = "PARSE_ERROR"
DANGLING_REFERENCE = "DANGLING_REFERENCE"
DUPLICATE_ID = "DUPLICATE_ID"
RANGE_ERROR = "RANGE_ERROR"
AGENT_MISMATCH = "AGENT_MISMATCH"
INERT_SPECIFICATION = "INERT_SPECIFICATION"
EXCLUDED_PATIENT_KIND = "EXCLUDED_PATIENT_KIND"

# "comment" carries authoring rationale and is ignored.
_DOCUMENT_KEYS = {"scenario", "actingFor", "groups", "actions", "effects", "deontics",
                  "request", "comment"}
_GROUP_KEYS = {"id", "kind", "patientKind", "cardinality"}
_ACTION_KEYS = {"id", "description"}
_EFFECT_KEYS = {"action", "specification", "direction", "target", "requestDerived"}
_DEONTIC_KEYS = {"action", "specification", "holds", "target"}
_REQUEST_KEYS = {"requester", "influenceKind", "influenceLevel", "requestedAction"}

_GROUP_KINDS = ("agentGroup", "patientGroup")
_DIRECTIONS = ("increase", "decrease")
_INFLUENCE_KINDS = ("substance", "external")
# Far above any real population, far below CPython's 4,300-digit limit on
# int/str conversion, which a score summed from cardinalities must stay under.
MAX_CARDINALITY = 10**12


class ScenarioError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class StakeholderGroup:
    id: str
    kind: str  # agentGroup | patientGroup
    patientKind: PatientKind
    cardinality: int


@dataclass(frozen=True)
class ActionOption:
    id: str
    description: Optional[str] = None


@dataclass(frozen=True)
class EffectAssertion:
    action: str
    specification: str
    direction: str  # increase | decrease
    target: str  # group id or AGENT
    requestDerived: bool = False


@dataclass(frozen=True)
class DeonticAssertion:
    action: str
    specification: str
    holds: bool
    target: str  # group id or AGENT


@dataclass(frozen=True)
class RequestContext:
    requester: str
    influenceKind: str  # substance | external
    influenceLevel: int
    requestedAction: str


@dataclass(frozen=True)
class Scenario:
    name: str
    actingFor: str
    groups: tuple[StakeholderGroup, ...]
    actions: tuple[ActionOption, ...]
    effects: tuple[EffectAssertion, ...]
    deontics: tuple[DeonticAssertion, ...]
    request: Optional[RequestContext] = None

    def action_ids(self) -> list[str]:
        return [a.id for a in self.actions]


def _object(raw, keys: set[str], where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(PARSE_ERROR, f"{where}: must be an object")
    if not raw.keys() <= keys:
        unknown = next(key for key in raw if key not in keys)
        raise ScenarioError(PARSE_ERROR, f"{where}: unknown key {unknown!r}")
    return raw


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ScenarioError(PARSE_ERROR, f"{where}: missing key {key!r}")
    value = data[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(PARSE_ERROR,
                            f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _optional(data: dict, key: str, kind, where: str, default=None):
    return _require(data, key, kind, where) if key in data else default


def _enum(value: str, allowed: tuple[str, ...], where: str) -> str:
    if value not in allowed:
        raise ScenarioError(PARSE_ERROR, f"{where}: {value!r} not one of {allowed}")
    return value


def _token(value: str, where: str) -> str:
    if not value or any(c.isspace() for c in value):
        raise ScenarioError(PARSE_ERROR,
                            f"{where}: must be a non-empty whitespace-free token")
    return value


def load_scenario(doc: bytes) -> Scenario:
    """Decode and fully validate a scenario document.

    Enforces unique action/group ids, referential integrity of every
    effect/deontic/request target, and all range bounds.
    """
    try:
        data = json.loads(doc)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and huge integers
        raise ScenarioError(PARSE_ERROR, f"not valid JSON: {exc}") from exc
    _object(data, _DOCUMENT_KEYS, "document")

    name = _require(data, "scenario", str, "document")
    acting_for = _require(data, "actingFor", str, "document")

    groups: list[StakeholderGroup] = []
    for i, raw in enumerate(_require(data, "groups", list, "document")):
        where = f"groups[{i}]"
        _object(raw, _GROUP_KEYS, where)
        cardinality = _require(raw, "cardinality", int, where)
        if not 1 <= cardinality <= MAX_CARDINALITY:
            raise ScenarioError(RANGE_ERROR, f"{where}: cardinality must be "
                                             f"between 1 and {MAX_CARDINALITY}")
        try:
            patient_kind = PatientKind(_require(raw, "patientKind", str, where))
        except ValueError as exc:
            raise ScenarioError(PARSE_ERROR, f"{where}: {exc}") from None
        groups.append(StakeholderGroup(
            id=_token(_require(raw, "id", str, where), f"{where}.id"),
            kind=_enum(_require(raw, "kind", str, where), _GROUP_KINDS, where),
            patientKind=patient_kind,
            cardinality=cardinality))

    actions: list[ActionOption] = []
    for i, raw in enumerate(_require(data, "actions", list, "document")):
        where = f"actions[{i}]"
        if isinstance(raw, str):
            actions.append(ActionOption(id=_token(raw, where)))
        elif isinstance(raw, dict):
            _object(raw, _ACTION_KEYS, where)
            actions.append(ActionOption(
                id=_token(_require(raw, "id", str, where), f"{where}.id"),
                description=_optional(raw, "description", str, where)))
        else:
            raise ScenarioError(PARSE_ERROR, f"{where}: must be an id or object")
    if len(actions) < 2:
        raise ScenarioError(RANGE_ERROR, "a scenario needs at least 2 actions")

    group_ids = [g.id for g in groups]
    action_ids = [a.id for a in actions]
    for label, ids in (("group", group_ids), ("action", action_ids)):
        if len(set(ids)) < len(ids):
            dupes = {x for x, n in Counter(ids).items() if n > 1}
            raise ScenarioError(DUPLICATE_ID,
                                f"duplicate {label} ids: {sorted(dupes)}")
    if AGENT in group_ids:
        raise ScenarioError(DUPLICATE_ID, f"group id {AGENT!r} is reserved")

    targets = set(group_ids) | {AGENT}
    known_actions = set(action_ids)

    def check_refs(action: str, target: str, where: str) -> None:
        if action not in known_actions:
            raise ScenarioError(DANGLING_REFERENCE,
                                f"{where}: unknown action {action!r}")
        if target not in targets:
            raise ScenarioError(DANGLING_REFERENCE,
                                f"{where}: unknown target {target!r}")

    effects: list[EffectAssertion] = []
    for i, raw in enumerate(_require(data, "effects", list, "document")):
        where = f"effects[{i}]"
        _object(raw, _EFFECT_KEYS, where)
        effect = EffectAssertion(
            action=_require(raw, "action", str, where),
            specification=_token(_require(raw, "specification", str, where),
                                 f"{where}.specification"),
            direction=_enum(_require(raw, "direction", str, where),
                            _DIRECTIONS, where),
            target=_require(raw, "target", str, where),
            requestDerived=_optional(raw, "requestDerived", bool, where, False))
        check_refs(effect.action, effect.target, where)
        effects.append(effect)

    deontics: list[DeonticAssertion] = []
    for i, raw in enumerate(_require(data, "deontics", list, "document")):
        where = f"deontics[{i}]"
        _object(raw, _DEONTIC_KEYS, where)
        assertion = DeonticAssertion(
            action=_require(raw, "action", str, where),
            specification=_token(_require(raw, "specification", str, where),
                                 f"{where}.specification"),
            holds=_require(raw, "holds", bool, where),
            target=_require(raw, "target", str, where))
        check_refs(assertion.action, assertion.target, where)
        deontics.append(assertion)

    request = None
    if data.get("request") is not None:
        raw = _object(data["request"], _REQUEST_KEYS, "request")
        level = _require(raw, "influenceLevel", int, "request")
        if not 0 <= level <= 100:
            raise ScenarioError(RANGE_ERROR,
                                f"request: influenceLevel {level} outside [0, 100]")
        request = RequestContext(
            requester=_require(raw, "requester", str, "request"),
            influenceKind=_enum(_require(raw, "influenceKind", str, "request"),
                                _INFLUENCE_KINDS, "request"),
            influenceLevel=level,
            requestedAction=_require(raw, "requestedAction", str, "request"))
        if request.requester not in targets:
            raise ScenarioError(DANGLING_REFERENCE,
                                f"request: unknown requester {request.requester!r}")
        if request.requestedAction not in known_actions:
            raise ScenarioError(DANGLING_REFERENCE,
                                f"request: unknown action {request.requestedAction!r}")

    return Scenario(name=name, actingFor=acting_for, groups=tuple(groups),
                    actions=tuple(actions), effects=tuple(effects),
                    deontics=tuple(deontics), request=request)


def emit_scenario(scenario: Scenario) -> bytes:
    """Canonical re-serialization; load(emit(load(doc))) == load(doc)."""
    data: dict = {
        "scenario": scenario.name,
        "actingFor": scenario.actingFor,
        "groups": [{"id": g.id, "kind": g.kind, "patientKind": g.patientKind.value,
                    "cardinality": g.cardinality} for g in scenario.groups],
        "actions": [{"id": a.id} if a.description is None
                    else {"id": a.id, "description": a.description}
                    for a in scenario.actions],
        "effects": [{"action": e.action, "specification": e.specification,
                     "direction": e.direction, "target": e.target,
                     "requestDerived": e.requestDerived} for e in scenario.effects],
        "deontics": [{"action": d.action, "specification": d.specification,
                      "holds": d.holds, "target": d.target}
                     for d in scenario.deontics],
    }
    if scenario.request is not None:
        r = scenario.request
        data["request"] = {"requester": r.requester, "influenceKind": r.influenceKind,
                           "influenceLevel": r.influenceLevel,
                           "requestedAction": r.requestedAction}
    return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def validate_scenario_against_theory(scenario: Scenario,
                                     theory: EthicalTheoryInstance) -> ValidationReport:
    """Cross-check a scenario against the theory it will be evaluated under.

    A mismatched agent name is a hard error; morally inert assertions
    (no matching principle, in the theory's own mode) and groups whose
    patient kind the theory excludes are warnings.
    """
    out: list[Violation] = []
    if scenario.actingFor != theory.agent.name:
        out.append(Violation(
            AGENT_MISMATCH, "actingFor",
            f"scenario acts for {scenario.actingFor!r} but the theory's agent "
            f"is {theory.agent.name!r}"))

    # Inertness is only meaningful in the theory's own mode, and under a
    # deontological theory unmatched assertions are the norm (evaluation
    # starts from the principles, not the assertions), so only effects
    # under a consequentialist theory are warned about.
    if theory.consequentiality:
        # The specifications covered for each target class.
        agent_specs, patient_specs = (
            {p.specification for p in theory.principles if p.subject.covers(cls)}
            for cls in (Subject.AGENT, Subject.PATIENTS))
        for i, e in enumerate(scenario.effects):
            if e.specification not in (agent_specs if e.target == AGENT
                                       else patient_specs):
                out.append(Violation(
                    INERT_SPECIFICATION, f"effects[{i}]",
                    f"effect {e.specification!r} on {e.target!r} matches no "
                    f"principle and will be morally inert"))

    for i, g in enumerate(scenario.groups):
        if g.patientKind not in theory.patientKinds:
            out.append(Violation(
                EXCLUDED_PATIENT_KIND, f"groups[{i}]",
                f"group {g.id!r} has patient kind {g.patientKind.value!r}, which "
                f"the theory excludes; its effects will carry weight 0"))
    return ValidationReport(tuple(out))
