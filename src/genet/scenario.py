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
key schema. A clean document is read on a straight path, ``_clean``; the
rows read only what it hands back, and report the finding. Unlike the theory
reader, this keeps two paths: the rows alone read synth-conseq documents at
1.4 times the cost (1,836 to 2,586 us each) and a paper-lib request at 1.06
times, and a guard fast enough to avoid that would restate every row, so
folding ``_clean`` into them would save no code.
"""

import json
from collections import Counter
from typing import NamedTuple, Optional

from .model import (
    PARSE_ERROR,
    PATIENT_KINDS,
    EthicalTheoryInstance,
    Field,
    GenetError,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
    load_json,
    read_object,
    token,
)

#: Distinguished target meaning "the moral agent itself".
AGENT = "AGENT"

DANGLING_REFERENCE = "DANGLING_REFERENCE"
DUPLICATE_ID = "DUPLICATE_ID"
RANGE_ERROR = "RANGE_ERROR"
AGENT_MISMATCH = "AGENT_MISMATCH"
INERT_SPECIFICATION = "INERT_SPECIFICATION"
EXCLUDED_PATIENT_KIND = "EXCLUDED_PATIENT_KIND"

# Far above any real population, far below CPython's 4,300-digit limit on
# int/str conversion, which a score summed from cardinalities must stay under.
MAX_CARDINALITY = 10**12
# The closed sets that the rows check with _one_of and _clean checks directly.
_GROUP_KINDS, _DIRECTIONS = ("agentGroup", "patientGroup"), ("increase", "decrease")
_INFLUENCE_KINDS = ("substance", "external")


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


def _one_of(*allowed: str):
    def check(value: str, where: str, key: str) -> str:
        if value not in allowed:
            raise GenetError(PARSE_ERROR, f"{where}: {value!r} not one of {allowed}",
                             f"{where}.{key}")
        return value
    return check


def _cardinality(value: int, where: str, key: str) -> int:
    if not 1 <= value <= MAX_CARDINALITY:
        raise GenetError(RANGE_ERROR, f"{where}: cardinality must be between "
                         f"1 and {MAX_CARDINALITY}", f"{where}.{key}")
    return value


def _patient_kind(value: str, where: str, key: str) -> PatientKind:
    if (kind := PATIENT_KINDS.get(value)) is None:
        raise GenetError(PARSE_ERROR, f"{where}: {value!r} is not a valid PatientKind",
                         f"{where}.{key}")
    return kind


def _percentage(value: int, where: str, key: str) -> int:
    if not 0 <= value <= 100:
        raise GenetError(RANGE_ERROR, f"{where}: {key} {value} outside [0, 100]",
                         f"{where}.{key}")
    return value


# The document and the objects it holds, one row each: every key in the
# order it is read, with its type, its check and, if it may be absent, its
# default. "comment" carries authoring rationale and is ignored.
_DOCUMENT = {"scenario": Field(str), "actingFor": Field(str), "groups": Field(list),
             "actions": Field(list), "effects": Field(list), "deontics": Field(list),
             "request": Field(dict, default=None), "comment": Field(object, default=None)}
_GROUP = {"cardinality": Field(int, _cardinality),
          "patientKind": Field(str, _patient_kind), "id": Field(str, token),
          "kind": Field(str, _one_of(*_GROUP_KINDS))}
_ACTION = {"id": Field(str, token), "description": Field(str, default=None)}
_EFFECT = {"action": Field(str), "specification": Field(str, token),
           "direction": Field(str, _one_of(*_DIRECTIONS)), "target": Field(str),
           "requestDerived": Field(bool, default=False)}
_DEONTIC = {"action": Field(str), "specification": Field(str, token),
            "holds": Field(bool), "target": Field(str)}
_REQUEST = {"influenceLevel": Field(int, _percentage), "requester": Field(str),
            "influenceKind": Field(str, _one_of(*_INFLUENCE_KINDS)),
            "requestedAction": Field(str)}


def _token(value) -> bool:
    return type(value) is str and value.split() == [value]


def _clean(data) -> Optional[Scenario]:
    """Read a document with nothing to report in one straight pass, with the rows'
    exact types and checks: the Scenario they would build, or None at the first
    thing not expected. It may hand back a clean document, which the rows then
    read, but must never accept one they reject."""
    if type(data) is not dict or not data.keys() <= _DOCUMENT.keys():
        return None
    (name, acting_for, raw_groups, raw_actions, raw_effects, raw_deontics,
     raw_request, _) = values = [data.get(key) for key in _DOCUMENT]
    if [type(value) for value in values[:6]] != [str, str, list, list, list, list]:
        return None
    # An object with the keys of its record builds it; the values are checked after.
    if not (all(type(raw) is dict and raw.keys() == _GROUP.keys()
                and type(raw["patientKind"]) is str for raw in raw_groups)
            and all(type(raw) is dict and raw.keys() <= _EFFECT.keys() for raw in raw_effects)
            and all(type(raw) is dict and raw.keys() == _DEONTIC.keys()
                    for raw in raw_deontics)):
        return None
    groups = [StakeholderGroup(**{**raw, "patientKind": PATIENT_KINDS.get(raw["patientKind"])})
              for raw in raw_groups]
    actions = [ActionOption(**raw) if type(raw) is dict and "id" in raw
               and raw.keys() <= _ACTION.keys() and type(raw.get("description", "")) is str
               else ActionOption(raw) for raw in raw_actions]
    if not (all(_token(g.id) and g.kind in _GROUP_KINDS and g.patientKind is not None
                and type(g.cardinality) is int and 1 <= g.cardinality <= MAX_CARDINALITY
                for g in groups) and all(_token(a.id) for a in actions)):
        return None
    group_ids, action_ids = {g.id for g in groups}, {a.id for a in actions}
    if (len(actions) < 2 or len(action_ids) < len(actions) or len(group_ids) < len(groups)
            or AGENT in group_ids):
        return None
    targets = group_ids | {AGENT}
    effects = [EffectAssertion(raw.get("action"), raw.get("specification"),
                               raw.get("direction"), raw.get("target"),
                               raw.get("requestDerived", False)) for raw in raw_effects]
    deontics = [DeonticAssertion(**raw) for raw in raw_deontics]
    if not (all(e.direction in _DIRECTIONS and type(e.requestDerived) is bool
                for e in effects) and all(type(d.holds) is bool for d in deontics)
            and all(type(item.action) is str and item.action in action_ids
                    and type(item.target) is str and item.target in targets
                    and _token(item.specification) for item in effects + deontics)):
        return None
    request = None
    if "request" in data:
        if type(raw_request) is not dict or raw_request.keys() != _REQUEST.keys():
            return None
        requester, kind, level, action = request = RequestContext(**raw_request)
        if not (type(requester) is str and requester in targets
                and kind in _INFLUENCE_KINDS and type(level) is int and 0 <= level <= 100
                and type(action) is str and action in action_ids):
            return None
    return Scenario(name, acting_for, tuple(groups), tuple(actions), tuple(effects),
                    tuple(deontics), request)


def load_scenario(doc: bytes) -> Scenario:
    """Decode and fully validate a scenario document.

    Enforces unique action/group ids, referential integrity of every
    effect/deontic/request target, and all range bounds.
    """
    try:
        data = load_json(doc)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and huge integers
        raise GenetError(PARSE_ERROR, f"not valid JSON: {exc}", "document") from exc
    if (scenario := _clean(data)) is not None:
        return scenario
    # Every top-level key is checked before any object it holds is read.
    (name, acting_for, raw_groups, raw_actions, raw_effects, raw_deontics,
     raw_request, _) = read_object(data, _DOCUMENT, "document")

    groups: list[StakeholderGroup] = []
    for i, raw in enumerate(raw_groups):
        cardinality, patient_kind, id_, kind = read_object(raw, _GROUP, f"groups[{i}]")
        groups.append(StakeholderGroup(id_, kind, patient_kind, cardinality))

    actions: list[ActionOption] = []
    for i, raw in enumerate(raw_actions):
        where = f"actions[{i}]"
        if isinstance(raw, str):
            actions.append(ActionOption(token(raw, where)))
        elif isinstance(raw, dict):
            actions.append(ActionOption(*read_object(raw, _ACTION, where)))
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

    effects: list[EffectAssertion] = []
    deontics: list[DeonticAssertion] = []
    for key, raws, row, make, items in (
            ("effects", raw_effects, _EFFECT, EffectAssertion, effects),
            ("deontics", raw_deontics, _DEONTIC, DeonticAssertion, deontics)):
        for i, raw in enumerate(raws):
            item = make(*read_object(raw, row, where := f"{key}[{i}]"))
            if item.action not in known_actions:
                raise GenetError(DANGLING_REFERENCE, f"{where}: unknown action "
                                 f"{item.action!r}", f"{where}.action")
            if item.target not in targets:
                raise GenetError(DANGLING_REFERENCE, f"{where}: unknown target "
                                 f"{item.target!r}", f"{where}.target")
            items.append(item)

    request = None
    if raw_request is not None:
        level, requester, kind, action = read_object(raw_request, _REQUEST, "request")
        request = RequestContext(requester, kind, level, action)
        if requester not in targets:
            raise GenetError(DANGLING_REFERENCE, f"request: unknown requester "
                             f"{requester!r}", "request.requester")
        if action not in known_actions:
            raise GenetError(DANGLING_REFERENCE, f"request: unknown action "
                             f"{action!r}", "request.requestedAction")

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
