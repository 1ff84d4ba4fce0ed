"""Moral evaluation of scenario actions under a theory instance.

Consequentialist theories score each action by summing signed, size-
weighted effect contributions; deontological theories check each
principle as a requirement or prohibition against the action's asserted
features. Either way the full premise / subconclusion / conclusion chain
is recorded as an argument trace, and the cross-action decision either
names a winner or reports the conflict honestly.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

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


class TracePremise(NamedTuple):
    id: str
    kind: str  # situationalFact | theoryPrinciple | thresholdFact
    text: str
    source: str


class TraceInference(NamedTuple):
    id: str
    fromIds: tuple[str, ...]
    text: str
    contribution: Optional[int] = None  # set only for counted score contributions


class ArgumentTrace(NamedTuple):
    premises: tuple[TracePremise, ...]
    inferences: tuple[TraceInference, ...]
    conclusion: str

    def counted_contributions(self) -> list[int]:
        return [i.contribution for i in self.inferences if i.contribution is not None]


class ActionEvaluation(NamedTuple):
    action: str
    verdict: MoralVerdict
    trace: ArgumentTrace
    score: Optional[int] = None  # present iff the theory is consequentialist
    supererogation: tuple[int, ...] = ()  # voided request-derived goods, score-inert


class Decision(NamedTuple):
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


def _principle_premises(theory: EthicalTheoryInstance
                        ) -> list[tuple[MoralPrinciple, tuple[str, str, str]]]:
    """Each principle in document order with its premise key (kind, text,
    source), the source naming the position of the principle's first
    occurrence. The text determines the principle, and a string caches its
    hash where a tuple does not."""
    first: dict[str, tuple[str, str, str]] = {}
    out = []
    for index, principle in enumerate(theory.principles):
        quality = "good" if principle.morality else "bad"
        text = f"{principle.specification} of {principle.subject.value} is morally {quality}"
        out.append((principle, first.setdefault(
            text, ("theoryPrinciple", text, f"theory:principles[{index}]"))))
    return out


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
    voided = request.influenceLevel > threshold  # as influence_gate
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
    return evaluator(theory, scenario, [action_id])[0]


def _consequentialist(theory: EthicalTheoryInstance, scenario: Scenario,
                      action_ids: list[str]) -> list[ActionEvaluation]:
    """Score each action by its asserted effects.

    Each effect contributes direction (+1 increase / -1 decrease) times
    principle morality (+1 good / -1 bad) times target weight (group
    cardinality; the agent weighs 1). Effects on excluded patient kinds
    are recorded at weight 0; positive contributions of a voided request
    are diverted to the supererogation ledger instead of the score.
    """
    by_spec: dict[str, list[tuple[MoralPrinciple, tuple[str, str, str]]]] = {}
    for principle, key in _principle_premises(theory):
        by_spec.setdefault(principle.specification, []).append((principle, key))
    groups = {g.id: g for g in scenario.groups}
    by_action: dict[str, list[tuple[int, EffectAssertion]]] = {}
    for index, effect in enumerate(scenario.effects):
        by_action.setdefault(effect.action, []).append((index, effect))
    request = scenario.request
    evaluations = []
    for action_id in action_ids:
        effects = by_action.get(action_id, ())
        builder = _TraceBuilder()
        gate_voided, gate_id = False, None
        if request is not None and any(e.requestDerived for _, e in effects):
            gate_voided, gate_id = _gate_subconclusion(builder, theory, request)

        score = 0
        ledger: list[int] = []
        counted: list[str] = []  # the inferences that carry a contribution
        for index, effect in effects:
            if effect.target == AGENT:
                target_class, target_text = Subject.AGENT, "the agent"
                weight, excluded = 1, False
            else:
                target_class = Subject.PATIENTS
                group = groups[effect.target]
                target_text = f"{group.id} ({group.cardinality} {group.patientKind.value})"
                excluded = group.patientKind not in theory.patientKinds
                weight = 0 if excluded else group.cardinality
            verb = "increases" if effect.direction == "increase" else "decreases"
            fact = builder.premise(
                "situationalFact",
                f"{action_id} {verb} {effect.specification} for {target_text}",
                f"scenario:effects[{index}]")

            principles = [(p, key) for p, key in by_spec.get(effect.specification, ())
                          if p.subject.covers(target_class)]
            if not principles:
                builder.infer([fact],
                              f"no principle covers {effect.specification} for "
                              f"{target_class.value}; the effect is morally inert")
                continue

            direction = 1 if effect.direction == "increase" else -1
            gated = effect.requestDerived and gate_id is not None
            for principle, key in principles:
                p_id = builder.premise(*key)
                value = direction * (1 if principle.morality else -1) * weight
                if excluded:
                    counted.append(builder.infer(
                        [fact, p_id],
                        f"{target_text} is of an excluded patient kind; "
                        f"the effect carries weight 0",
                        contribution=0))
                    continue
                if gated and gate_voided and value > 0:
                    ledger.append(value)
                    builder.infer(
                        [fact, p_id, gate_id],
                        f"the good of {effect.specification} (+{value}) stems from a "
                        f"voided request; diverted to the supererogation ledger")
                    continue
                from_ids = [fact, p_id, gate_id] if gated else [fact, p_id]
                note = (" (wrongness is retained despite the voided request)"
                        if gated and gate_voided else "")
                quality = "some moral good" if value > 0 else (
                    "some moral wrong" if value < 0 else "no net moral weight")
                counted.append(builder.infer(from_ids,
                                             f"{action_id} carries {quality} of magnitude "
                                             f"{abs(value)}{note}",
                                             contribution=value))
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
        if counted:
            builder.infer(counted, f"{action_id} scores {score:+d}")
        evaluations.append(ActionEvaluation(action_id, verdict, builder.done(conclusion),
                                            score, tuple(ledger)))
    return evaluations


def _deontological(theory: EthicalTheoryInstance, scenario: Scenario,
                   action_ids: list[str]) -> list[ActionEvaluation]:
    """Check each action against every principle, requirement-fulfilment
    style: prohibitions are violated by an asserted occurrence, and
    requirements by an asserted non-occurrence. A missing assertion for
    a requirement passes with a recorded warning. Group sizes never
    affect the verdict.
    """
    principles = _principle_premises(theory)
    deontics: dict[tuple[str, str], list[tuple[int, DeonticAssertion]]] = {}
    for index, assertion in enumerate(scenario.deontics):
        deontics.setdefault((assertion.action, assertion.specification),
                            []).append((index, assertion))
    evaluations = []
    for action_id in action_ids:
        builder = _TraceBuilder()
        violated = False
        for principle, key in principles:
            p_id = builder.premise(*key)
            matches = [(index, assertion) for index, assertion
                       in deontics.get((action_id, principle.specification), ())
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
                target_text = "the agent" if assertion.target == AGENT else assertion.target
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

        verdict = MoralVerdict.WRONG if violated else MoralVerdict.PERMISSIBLE
        evaluations.append(ActionEvaluation(
            action_id, verdict, builder.done(f"{action_id} is {verdict.value}")))
    return evaluations


def decide(theory: EthicalTheoryInstance, scenario: Scenario) -> Decision:
    """Evaluate every action and pick across them.

    Consequentialist: the strict-max score wins and becomes obligatory;
    a tie at score zero falls to a lone supererogatory action if there
    is one; any other tie is reported as a conflict, never broken
    arbitrarily. Deontological: the permissible actions are the answer,
    one, several, or none.
    """
    if theory.consequentiality:
        evaluations = _consequentialist(theory, scenario, scenario.action_ids())
        best = max(e.score for e in evaluations)
        tied = tuple(e.action for e in evaluations if e.score == best)
        # A zero tie falls to a lone supererogatory action: when nothing
        # scores positive, every supererogatory action ties.
        sup = tuple(e.action for e in evaluations
                    if e.verdict is MoralVerdict.SUPEREROGATORY)
        if best == 0 and len(sup) == 1:
            tied = sup
        decided = len(tied) == 1
        # A lone pick is obligatory and the other good actions merely
        # permissible; a tie is undecidable throughout.
        pick = MoralVerdict.OBLIGATORY_BEST if decided else MoralVerdict.UNDECIDABLE
        demoted = MoralVerdict.OBLIGATORY_BEST if decided else None
        final = tuple(e._replace(verdict=pick) if e.action in tied
                      else e._replace(verdict=MoralVerdict.PERMISSIBLE)
                      if e.verdict is demoted else e for e in evaluations)
        if decided:
            return Decision(DecisionKind.DECIDED, tied, final)
        return Decision(DecisionKind.CONFLICT, (), final, tied=tied)

    evaluations = tuple(_deontological(theory, scenario, scenario.action_ids()))
    permissible = tuple(e.action for e in evaluations
                        if e.verdict is MoralVerdict.PERMISSIBLE)
    if not permissible:
        return Decision(DecisionKind.CONFLICT, (), evaluations,
                        tied=tuple(e.action for e in evaluations))
    kind = (DecisionKind.DECIDED if len(permissible) == 1
            else DecisionKind.MULTIPLE_PERMISSIBLE)
    return Decision(kind, permissible, evaluations)


def evaluation_to_dict(evaluation: ActionEvaluation) -> dict:
    """Structured form, the trace with its stable ids, suitable for golden diffs."""
    out: dict = {"action": evaluation.action, "verdict": evaluation.verdict.value}
    if evaluation.score is not None:
        out["score"] = evaluation.score
    if evaluation.supererogation:
        out["supererogation"] = list(evaluation.supererogation)
    trace = evaluation.trace
    out["trace"] = {
        "premises": [{"id": p.id, "kind": p.kind, "text": p.text,
                      "source": p.source} for p in trace.premises],
        "inferences": [
            {"id": i.id, "from": list(i.fromIds), "text": i.text,
             **({"contribution": i.contribution} if i.contribution is not None else {})}
            for i in trace.inferences],
        "conclusion": trace.conclusion,
    }
    return out


def decision_to_dict(decision: Decision) -> dict:
    out: dict = {"kind": decision.kind.value, "chosen": list(decision.chosen)}
    if decision.kind is DecisionKind.CONFLICT:
        out["tied"] = list(decision.tied)
    out["evaluations"] = [evaluation_to_dict(e) for e in decision.evaluations]
    return out


def render_evaluation(evaluation: ActionEvaluation, explain: bool = False) -> str:
    head = f"{evaluation.action}: {evaluation.verdict.value}"
    if evaluation.score is not None:
        head += f" score={evaluation.score:+d}"
    if evaluation.supererogation:
        head += f" supererogation={list(evaluation.supererogation)}"
    if not explain:
        return head
    trace = evaluation.trace
    lines = [head, "premises:"]
    for p in trace.premises:
        lines.append(f"  {p.id} [{p.kind}] {p.text}  ({p.source})")
    lines.append("inferences:")
    for i in trace.inferences:
        extra = f"  [contribution {i.contribution:+d}]" if i.contribution is not None else ""
        lines.append(f"  {i.id} <- {', '.join(i.fromIds)}: {i.text}{extra}")
    lines.append(f"conclusion: {trace.conclusion}")
    return "\n".join(lines)


def render_decision(decision: Decision, explain: bool = False) -> str:
    lines = [f"{decision.kind.value}: "
             f"{' '.join(decision.chosen) if decision.chosen else '-'}"]
    if decision.kind is DecisionKind.CONFLICT:
        lines.append(f"tied: {' '.join(decision.tied)}")
    for e in decision.evaluations:
        lines.append(render_evaluation(e, explain=explain))
    return "\n".join(lines)
