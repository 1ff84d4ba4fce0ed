"""Moral evaluation of scenario actions under a theory instance.

Consequentialist theories score each action by summing signed, size-
weighted effect contributions; deontological theories check each
principle as a requirement or prohibition against the action's asserted
features. Either way the full premise / subconclusion / conclusion chain
is recorded as an argument trace, and the cross-action decision either
names a winner or reports the conflict honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .model import EthicalTheoryInstance, MoralPrinciple, Subject
from .scenario import AGENT, DeonticAssertion, EffectAssertion, RequestContext, Scenario

class MoralVerdict(Enum):
    OBLIGATORY_BEST = "obligatoryBest"
    PERMISSIBLE = "permissible"
    SUPEREROGATORY = "supererogatory"
    WRONG = "wrong"
    UNDECIDABLE = "undecidable"


class DecisionKind(Enum):
    DECIDED = "decided"
    MULTIPLE_PERMISSIBLE = "multiplePermissible"
    CONFLICT = "conflict"


@dataclass(frozen=True)
class TracePremise:
    id: str
    kind: str  # situationalFact | theoryPrinciple | thresholdFact
    text: str
    source: str


@dataclass(frozen=True)
class TraceInference:
    id: str
    fromIds: tuple[str, ...]
    text: str
    contribution: Optional[int] = None  # set only for counted score contributions


@dataclass(frozen=True)
class ArgumentTrace:
    premises: tuple[TracePremise, ...]
    inferences: tuple[TraceInference, ...]
    conclusion: str

    def counted_contributions(self) -> list[int]:
        return [i.contribution for i in self.inferences if i.contribution is not None]


@dataclass(frozen=True)
class ActionEvaluation:
    action: str
    verdict: MoralVerdict
    trace: ArgumentTrace
    score: Optional[int] = None  # present iff the theory is consequentialist
    supererogation: tuple[int, ...] = ()  # voided request-derived goods, score-inert


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    chosen: tuple[str, ...]  # singleton = decided; >1 = tied permissible; () = conflict
    evaluations: tuple[ActionEvaluation, ...]
    tied: tuple[str, ...] = ()  # the tied set, when kind is conflict


class _TraceBuilder:
    def __init__(self):
        self.premises: list[TracePremise] = []
        self.inferences: list[TraceInference] = []
        self._known: dict[tuple[str, str, str], str] = {}

    def premise(self, kind: str, text: str, source: str) -> str:
        key = (kind, text, source)
        if key in self._known:
            return self._known[key]
        pid = f"P{len(self.premises) + 1}"
        self.premises.append(TracePremise(pid, kind, text, source))
        self._known[key] = pid
        return pid

    def infer(self, from_ids: list[str], text: str,
              contribution: Optional[int] = None) -> str:
        iid = f"I{len(self.inferences) + 1}"
        self.inferences.append(TraceInference(iid, tuple(from_ids), text, contribution))
        return iid

    def done(self, conclusion: str) -> ArgumentTrace:
        return ArgumentTrace(tuple(self.premises), tuple(self.inferences), conclusion)


def influence_gate(theory: EthicalTheoryInstance, request: RequestContext) -> bool:
    """Whether the request's moral weight is voided.

    True iff the detected influence level strictly exceeds the matching
    threshold, so a threshold of 100 never voids and a threshold of 0
    voids any positive influence.
    """
    return request.influenceLevel > _threshold(theory, request)


def _threshold(theory: EthicalTheoryInstance, request: RequestContext) -> int:
    t = theory.influenceThresholds
    return t.substance if request.influenceKind == "substance" else t.external


_PremiseKey = tuple[str, str, str]  # (kind, text, source), as _TraceBuilder.premise


class _Tables:
    """Lookup tables for evaluating the actions of one scenario under one
    theory, built in one pass over each document."""

    def __init__(self, theory: EthicalTheoryInstance, scenario: Scenario):
        self.theory = theory
        self.request = scenario.request
        # One premise key per principle, in document order, each naming the
        # position of the principle's first occurrence. The text determines
        # the principle, and a string key hashes faster than the dataclass.
        first: dict[str, _PremiseKey] = {}
        self.premises: list[_PremiseKey] = []
        self.by_spec: dict[str, list[tuple[MoralPrinciple, _PremiseKey]]] = {}
        for index, principle in enumerate(theory.principles):
            quality = "good" if principle.morality else "bad"
            text = (f"{principle.specification} of {principle.subject.value} "
                    f"is morally {quality}")
            key = first.get(text)
            if key is None:
                key = first[text] = ("theoryPrinciple", text,
                                     f"theory:principles[{index}]")
            self.premises.append(key)
            self.by_spec.setdefault(principle.specification, []).append((principle, key))
        self.groups = {g.id: g for g in scenario.groups}
        self.effects: dict[str, list[tuple[int, EffectAssertion]]] = {}
        for index, effect in enumerate(scenario.effects):
            self.effects.setdefault(effect.action, []).append((index, effect))
        self.deontics: dict[tuple[str, str], list[tuple[int, DeonticAssertion]]] = {}
        for index, assertion in enumerate(scenario.deontics):
            self.deontics.setdefault((assertion.action, assertion.specification),
                                     []).append((index, assertion))


def _gate_subconclusion(builder: _TraceBuilder, theory: EthicalTheoryInstance,
                        request: RequestContext) -> tuple[bool, str]:
    threshold = _threshold(theory, request)
    p_threshold = builder.premise(
        "thresholdFact",
        f"the {request.influenceKind} influence threshold is {threshold}%",
        "theory:influenceThresholds")
    p_level = builder.premise(
        "thresholdFact",
        f"{request.requester} is {request.influenceLevel}% under "
        f"{request.influenceKind} influence",
        "scenario:request")
    voided = influence_gate(theory, request)
    if voided:
        text = (f"the request for {request.requestedAction} carries no weight "
                f"({request.influenceLevel} > {threshold})")
    else:
        text = (f"the request for {request.requestedAction} keeps its moral weight "
                f"({request.influenceLevel} <= {threshold})")
    return voided, builder.infer([p_threshold, p_level], text)


def evaluate(theory: EthicalTheoryInstance, scenario: Scenario,
             action_id: str) -> ActionEvaluation:
    """Evaluate one action in the theory's own mode: scored by its effects
    under a consequentialist theory, checked against each principle under
    a deontological one."""
    evaluator = _consequentialist if theory.consequentiality else _deontological
    return evaluator(_Tables(theory, scenario), action_id)


def _consequentialist(tables: _Tables, action_id: str) -> ActionEvaluation:
    """Score one action by its asserted effects.

    Each effect contributes direction (+1 increase / -1 decrease) times
    principle morality (+1 good / -1 bad) times target weight (group
    cardinality; the agent weighs 1). Effects on excluded patient kinds
    are recorded at weight 0; positive contributions of a voided request
    are diverted to the supererogation ledger instead of the score.
    """
    theory, request = tables.theory, tables.request
    effects = tables.effects.get(action_id, ())
    builder = _TraceBuilder()
    gate_voided = False
    gate_id: Optional[str] = None
    if request is not None and any(e.requestDerived for _, e in effects):
        gate_voided, gate_id = _gate_subconclusion(builder, theory, request)

    score = 0
    ledger: list[int] = []
    for index, effect in effects:
        if effect.target == AGENT:
            target_class = Subject.AGENT
            target_text = "the agent"
            weight, excluded = 1, False
        else:
            target_class = Subject.PATIENTS
            group = tables.groups[effect.target]
            target_text = f"{group.id} ({group.cardinality} {group.patientKind.value})"
            excluded = group.patientKind not in theory.patientKinds
            weight = 0 if excluded else group.cardinality
        verb = "increases" if effect.direction == "increase" else "decreases"
        fact = builder.premise(
            "situationalFact",
            f"{action_id} {verb} {effect.specification} for {target_text}",
            f"scenario:effects[{index}]")

        principles = [(p, key) for p, key in tables.by_spec.get(effect.specification, ())
                      if p.subject.covers(target_class)]
        if not principles:
            builder.infer([fact],
                          f"no principle covers {effect.specification} for "
                          f"{target_class.value}; the effect is morally inert")
            continue

        direction = 1 if effect.direction == "increase" else -1

        for principle, key in principles:
            p_id = builder.premise(*key)
            morality = 1 if principle.morality else -1
            value = direction * morality * weight
            if excluded:
                builder.infer(
                    [fact, p_id],
                    f"{target_text} is of an excluded patient kind; "
                    f"the effect carries weight 0",
                    contribution=0)
                continue
            if effect.requestDerived and gate_id is not None and gate_voided and value > 0:
                ledger.append(value)
                builder.infer(
                    [fact, p_id, gate_id],
                    f"the good of {effect.specification} (+{value}) stems from a "
                    f"voided request; diverted to the supererogation ledger")
                continue
            from_ids = [fact, p_id]
            note = ""
            if effect.requestDerived and gate_id is not None:
                from_ids.append(gate_id)
                if gate_voided:
                    note = " (wrongness is retained despite the voided request)"
            quality = "some moral good" if value > 0 else (
                "some moral wrong" if value < 0 else "no net moral weight")
            builder.infer(from_ids,
                          f"{action_id} carries {quality} of magnitude "
                          f"{abs(value)}{note}",
                          contribution=value)
            score += value

    if score < 0:
        verdict = MoralVerdict.WRONG
        conclusion = f"{action_id} should not be done"
    elif score > 0:
        verdict = MoralVerdict.OBLIGATORY_BEST
        conclusion = f"{action_id} is a good action"
    elif ledger:
        verdict = MoralVerdict.SUPEREROGATORY
        conclusion = f"{action_id} is supererogatory (good, but not obligatory)"
    else:
        verdict = MoralVerdict.PERMISSIBLE
        conclusion = f"{action_id} is permissible"
    counted = [i.id for i in builder.inferences if i.contribution is not None]
    if counted:
        builder.infer(counted, f"{action_id} scores {score:+d}")
    trace = builder.done(conclusion)
    return ActionEvaluation(action=action_id, verdict=verdict, trace=trace,
                            score=score, supererogation=tuple(ledger))


def _deontological(tables: _Tables, action_id: str) -> ActionEvaluation:
    """Check one action against every principle, requirement-fulfilment
    style: prohibitions are violated by an asserted occurrence, and
    requirements by an asserted non-occurrence. A missing assertion for
    a requirement passes with a recorded warning. Group sizes never
    affect the verdict.
    """
    builder = _TraceBuilder()
    violated = False
    for principle, key in zip(tables.theory.principles, tables.premises):
        p_id = builder.premise(*key)
        matches = [(index, assertion) for index, assertion
                   in tables.deontics.get((action_id, principle.specification), ())
                   if principle.subject.covers(Subject.AGENT if assertion.target == AGENT
                                               else Subject.PATIENTS)]

        if not matches:
            if principle.morality:
                builder.infer(
                    [p_id],
                    f"no assertion addresses {principle.specification} for "
                    f"{action_id}; the requirement passes with a warning")
            continue

        for index, assertion in matches:
            target_text = ("the agent" if assertion.target == AGENT
                           else assertion.target)
            state = "holds" if assertion.holds else "does not hold"
            fact = builder.premise(
                "situationalFact",
                f"{assertion.specification} {state} for {action_id} "
                f"toward {target_text}",
                f"scenario:deontics[{index}]")
            if principle.morality != assertion.holds:
                violated = True
                kind = "requirement" if principle.morality else "prohibition"
                builder.infer([p_id, fact],
                              f"{action_id} violates the "
                              f"{principle.specification} {kind}")
            else:
                builder.infer([p_id, fact],
                              f"{action_id} satisfies the "
                              f"{principle.specification} principle")

    if violated:
        verdict = MoralVerdict.WRONG
        conclusion = f"{action_id} is wrong"
    else:
        verdict = MoralVerdict.PERMISSIBLE
        conclusion = f"{action_id} is permissible"
    return ActionEvaluation(action=action_id, verdict=verdict,
                            trace=builder.done(conclusion), score=None)


def decide(theory: EthicalTheoryInstance, scenario: Scenario) -> Decision:
    """Evaluate every action and pick across them.

    Consequentialist: the strict-max score wins and becomes obligatory;
    a tie at score zero falls to a lone supererogatory action if there
    is one; any other tie is reported as a conflict, never broken
    arbitrarily. Deontological: the permissible actions are the answer,
    one, several, or none.
    """
    tables = _Tables(theory, scenario)
    if theory.consequentiality:
        evaluations = [_consequentialist(tables, a) for a in scenario.action_ids()]
        best = max(e.score for e in evaluations)
        tied = [e for e in evaluations if e.score == best]

        chosen: Optional[ActionEvaluation] = None
        if len(tied) == 1:
            chosen = tied[0]
        elif best == 0:
            # Supererogatory beats merely-permissible only when nothing
            # scores positive (which is the case whenever best == 0).
            sup = [e for e in tied if e.verdict is MoralVerdict.SUPEREROGATORY]
            if len(sup) == 1:
                chosen = sup[0]

        if chosen is not None:
            final = []
            for e in evaluations:
                if e.action == chosen.action:
                    final.append(replace(e, verdict=MoralVerdict.OBLIGATORY_BEST))
                elif e.verdict is MoralVerdict.OBLIGATORY_BEST:
                    final.append(replace(e, verdict=MoralVerdict.PERMISSIBLE))
                else:
                    final.append(e)
            return Decision(DecisionKind.DECIDED, (chosen.action,), tuple(final))

        tied_ids = tuple(e.action for e in tied)
        final = [replace(e, verdict=MoralVerdict.UNDECIDABLE)
                 if e.action in tied_ids else e for e in evaluations]
        return Decision(DecisionKind.CONFLICT, (), tuple(final), tied=tied_ids)

    evaluations = [_deontological(tables, a) for a in scenario.action_ids()]
    permissible = tuple(e.action for e in evaluations
                        if e.verdict is MoralVerdict.PERMISSIBLE)
    if len(permissible) == 1:
        return Decision(DecisionKind.DECIDED, permissible, tuple(evaluations))
    if len(permissible) > 1:
        return Decision(DecisionKind.MULTIPLE_PERMISSIBLE, permissible,
                        tuple(evaluations))
    return Decision(DecisionKind.CONFLICT, (), tuple(evaluations),
                    tied=tuple(e.action for e in evaluations))


def trace_to_dict(trace: ArgumentTrace) -> dict:
    """Structured trace form with stable ids, suitable for golden diffs."""
    return {
        "premises": [{"id": p.id, "kind": p.kind, "text": p.text,
                      "source": p.source} for p in trace.premises],
        "inferences": [
            {"id": i.id, "from": list(i.fromIds), "text": i.text,
             **({"contribution": i.contribution} if i.contribution is not None else {})}
            for i in trace.inferences],
        "conclusion": trace.conclusion,
    }


def evaluation_to_dict(evaluation: ActionEvaluation) -> dict:
    out: dict = {"action": evaluation.action, "verdict": evaluation.verdict.value}
    if evaluation.score is not None:
        out["score"] = evaluation.score
    if evaluation.supererogation:
        out["supererogation"] = list(evaluation.supererogation)
    out["trace"] = trace_to_dict(evaluation.trace)
    return out


def decision_to_dict(decision: Decision) -> dict:
    out: dict = {"kind": decision.kind.value, "chosen": list(decision.chosen)}
    if decision.kind is DecisionKind.CONFLICT:
        out["tied"] = list(decision.tied)
    out["evaluations"] = [evaluation_to_dict(e) for e in decision.evaluations]
    return out


def render_trace(trace: ArgumentTrace) -> str:
    lines = ["premises:"]
    for p in trace.premises:
        lines.append(f"  {p.id} [{p.kind}] {p.text}  ({p.source})")
    lines.append("inferences:")
    for i in trace.inferences:
        extra = f"  [contribution {i.contribution:+d}]" if i.contribution is not None else ""
        lines.append(f"  {i.id} <- {', '.join(i.fromIds)}: {i.text}{extra}")
    lines.append(f"conclusion: {trace.conclusion}")
    return "\n".join(lines)


def render_evaluation(evaluation: ActionEvaluation, explain: bool = False) -> str:
    head = f"{evaluation.action}: {evaluation.verdict.value}"
    if evaluation.score is not None:
        head += f" score={evaluation.score:+d}"
    if evaluation.supererogation:
        head += f" supererogation={list(evaluation.supererogation)}"
    if not explain:
        return head
    return head + "\n" + render_trace(evaluation.trace)


def render_decision(decision: Decision, explain: bool = False) -> str:
    lines = [f"{decision.kind.value}: "
             f"{' '.join(decision.chosen) if decision.chosen else '-'}"]
    if decision.kind is DecisionKind.CONFLICT:
        lines.append(f"tied: {' '.join(decision.tied)}")
    for e in decision.evaluations:
        lines.append(render_evaluation(e, explain=explain))
    return "\n".join(lines)
