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
from typing import NamedTuple, Optional

from .model import (
    PARSE_ERROR,
    EthicalTheoryInstance,
    GenetError,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
    expect_object,
    load_json,
    optional,
    require,
)

#: Distinguished target meaning "the moral agent itself".
AGENT = "AGENT"

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


class StakeholderGroup(NamedTuple):
    id: str
    kind: str  # agentGroup | patientGroup
    patientKind: PatientKind
    cardinality: int


class ActionOption(NamedTuple):
    id: str
    description: Optional[str] = None


class EffectAssertion(NamedTuple):
    action: str
    specification: str
    direction: str  # increase | decrease
    target: str  # group id or AGENT
    requestDerived: bool = False


class DeonticAssertion(NamedTuple):
    action: str
    specification: str
    holds: bool
    target: str  # group id or AGENT


class RequestContext(NamedTuple):
    requester: str
    influenceKind: str  # substance | external
    influenceLevel: int
    requestedAction: str


class Scenario(NamedTuple):
    name: str
    actingFor: str
    groups: tuple[StakeholderGroup, ...]
    actions: tuple[ActionOption, ...]
    effects: tuple[EffectAssertion, ...]
    deontics: tuple[DeonticAssertion, ...]
    request: Optional[RequestContext] = None

    def action_ids(self) -> list[str]:
        return [a.id for a in self.actions]


def _enum(value: str, allowed: tuple[str, ...], where: str) -> str:
    if value not in allowed:
        raise GenetError(PARSE_ERROR, f"{where}: {value!r} not one of {allowed}", where)
    return value


def _token(value: str, where: str) -> str:
    if not value or any(c.isspace() for c in value):
        raise GenetError(PARSE_ERROR,
                         f"{where}: must be a non-empty whitespace-free token", where)
    return value


def load_scenario(doc: bytes) -> Scenario:
    """Decode and fully validate a scenario document.

    Enforces unique action/group ids, referential integrity of every
    effect/deontic/request target, and all range bounds.
    """
    try:
        data = load_json(doc)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and huge integers
        raise GenetError(PARSE_ERROR, f"not valid JSON: {exc}", "document") from exc
    expect_object(data, _DOCUMENT_KEYS, "document")

    name = require(data, "scenario", str, "document")
    acting_for = require(data, "actingFor", str, "document")

    groups: list[StakeholderGroup] = []
    for i, raw in enumerate(require(data, "groups", list, "document")):
        where = f"groups[{i}]"
        expect_object(raw, _GROUP_KEYS, where)
        cardinality = require(raw, "cardinality", int, where)
        if not 1 <= cardinality <= MAX_CARDINALITY:
            raise GenetError(RANGE_ERROR, f"{where}: cardinality must be between "
                             f"1 and {MAX_CARDINALITY}", f"{where}.cardinality")
        kind = require(raw, "patientKind", str, where)
        try:
            patient_kind = PatientKind(kind)
        except ValueError as exc:
            raise GenetError(PARSE_ERROR, f"{where}: {exc}",
                             f"{where}.patientKind") from None
        groups.append(StakeholderGroup(
            id=_token(require(raw, "id", str, where), f"{where}.id"),
            kind=_enum(require(raw, "kind", str, where), _GROUP_KINDS, where),
            patientKind=patient_kind,
            cardinality=cardinality))

    actions: list[ActionOption] = []
    for i, raw in enumerate(require(data, "actions", list, "document")):
        where = f"actions[{i}]"
        if isinstance(raw, str):
            actions.append(ActionOption(id=_token(raw, where)))
        elif isinstance(raw, dict):
            expect_object(raw, _ACTION_KEYS, where)
            actions.append(ActionOption(
                id=_token(require(raw, "id", str, where), f"{where}.id"),
                description=optional(raw, "description", str, where)))
        else:
            raise GenetError(PARSE_ERROR, f"{where}: must be an id or object", where)
    if len(actions) < 2:
        raise GenetError(RANGE_ERROR, "a scenario needs at least 2 actions", "actions")

    group_ids = [g.id for g in groups]
    action_ids = [a.id for a in actions]
    for label, ids in (("group", group_ids), ("action", action_ids)):
        if len(set(ids)) < len(ids):
            dupes = {x for x, n in Counter(ids).items() if n > 1}
            raise GenetError(DUPLICATE_ID, f"duplicate {label} ids: {sorted(dupes)}",
                             f"{label}s")
    if AGENT in group_ids:
        raise GenetError(DUPLICATE_ID, f"group id {AGENT!r} is reserved", "groups")

    targets = set(group_ids) | {AGENT}
    known_actions = set(action_ids)

    def check_refs(action: str, target: str, where: str) -> None:
        if action not in known_actions:
            raise GenetError(DANGLING_REFERENCE, f"{where}: unknown action {action!r}",
                             f"{where}.action")
        if target not in targets:
            raise GenetError(DANGLING_REFERENCE, f"{where}: unknown target {target!r}",
                             f"{where}.target")

    effects: list[EffectAssertion] = []
    for i, raw in enumerate(require(data, "effects", list, "document")):
        where = f"effects[{i}]"
        expect_object(raw, _EFFECT_KEYS, where)
        effect = EffectAssertion(
            action=require(raw, "action", str, where),
            specification=_token(require(raw, "specification", str, where),
                                 f"{where}.specification"),
            direction=_enum(require(raw, "direction", str, where),
                            _DIRECTIONS, where),
            target=require(raw, "target", str, where),
            requestDerived=optional(raw, "requestDerived", bool, where, False))
        check_refs(effect.action, effect.target, where)
        effects.append(effect)

    deontics: list[DeonticAssertion] = []
    for i, raw in enumerate(require(data, "deontics", list, "document")):
        where = f"deontics[{i}]"
        expect_object(raw, _DEONTIC_KEYS, where)
        assertion = DeonticAssertion(
            action=require(raw, "action", str, where),
            specification=_token(require(raw, "specification", str, where),
                                 f"{where}.specification"),
            holds=require(raw, "holds", bool, where),
            target=require(raw, "target", str, where))
        check_refs(assertion.action, assertion.target, where)
        deontics.append(assertion)

    request = None
    if data.get("request") is not None:
        raw = expect_object(data["request"], _REQUEST_KEYS, "request")
        level = require(raw, "influenceLevel", int, "request")
        if not 0 <= level <= 100:
            raise GenetError(RANGE_ERROR, f"request: influenceLevel {level} outside "
                                          f"[0, 100]", "request.influenceLevel")
        request = RequestContext(
            requester=require(raw, "requester", str, "request"),
            influenceKind=_enum(require(raw, "influenceKind", str, "request"),
                                _INFLUENCE_KINDS, "request"),
            influenceLevel=level,
            requestedAction=require(raw, "requestedAction", str, "request"))
        if request.requester not in targets:
            raise GenetError(DANGLING_REFERENCE, f"request: unknown requester "
                             f"{request.requester!r}", "request.requester")
        if request.requestedAction not in known_actions:
            raise GenetError(DANGLING_REFERENCE, f"request: unknown action "
                             f"{request.requestedAction!r}", "request.requestedAction")

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
