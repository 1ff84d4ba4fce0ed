"""Moral evaluation of scenario actions under a theory instance.

Consequentialist theories score each action by summing signed, size-
weighted effect contributions; deontological theories check each
principle as a requirement or prohibition against the action's asserted
features. Either way the full premise / subconclusion / conclusion chain
is recorded as an argument trace, and the cross-action decision either
names a winner or reports the conflict honestly.
"""

from enum import Enum
from typing import NamedTuple, Optional

from .model import EthicalTheoryInstance, GenetError, MoralPrinciple, Subject
from .scenario import (AGENT, DANGLING_REFERENCE, DeonticAssertion, EffectAssertion,
                       RequestContext, Scenario)

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
    unaddressed: tuple[str, ...] = ()  # "spec of subject" of each unaddressed requirement


class Decision(NamedTuple):
    kind: DecisionKind
    chosen: tuple[str, ...]  # singleton = decided; >1 = tied permissible; () = conflict
    evaluations: tuple[ActionEvaluation, ...]
    tied: tuple[str, ...] = ()  # the tied set, when kind is conflict


_record = tuple.__new__  # builds a trace record without NamedTuple.__new__'s Python frame


class _TraceBuilder:
    def __init__(self):
        self.premises: list[TracePremise] = []
        self.inferences: list[TraceInference] = []
        self._known: dict[tuple[str, str, str], str] = {}

    def premise(self, key: tuple[str, str, str]) -> str:
        """The id of the premise (kind, text, source), added on first use."""
        pid = self._known.get(key)
        if pid is None:
            pid = self._known[key] = f"P{len(self.premises) + 1}"
            self.premises.append(_record(TracePremise, (pid, *key)))
        return pid

    def infer(self, from_ids: tuple[str, ...], text: str,
              contribution: Optional[int] = None) -> str:
        iid = f"I{len(self.inferences) + 1}"
        self.inferences.append(_record(TraceInference, (iid, from_ids, text, contribution)))
        return iid

    def done(self, conclusion: str) -> ArgumentTrace:
        return ArgumentTrace(tuple(self.premises), tuple(self.inferences), conclusion)


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


def _gate_subconclusion(theory: EthicalTheoryInstance, request: RequestContext
                        ) -> tuple[bool, tuple[tuple[str, str, str], ...], str]:
    """Whether the request is voided, its two threshold premise keys and the gate's text."""
    t, kind, level = theory.influenceThresholds, request.influenceKind, request.influenceLevel
    threshold = t.substance if kind == "substance" else t.external
    keys = (("thresholdFact", f"the {kind} influence threshold is {threshold}%",
             "theory:influenceThresholds"),
            ("thresholdFact", f"{request.requester} is {level}% under {kind} influence",
             "scenario:request"))
    # Strictly above: a threshold of 100 never voids, 0 voids any positive influence.
    voided = level > threshold
    verb = (f"carries no weight ({level} > {threshold})" if voided
            else f"keeps its moral weight ({level} <= {threshold})")
    return voided, keys, f"the request for {request.requestedAction} {verb}"


def evaluate(theory: EthicalTheoryInstance, scenario: Scenario,
             action_id: str) -> ActionEvaluation:
    """Evaluate one action in the theory's own mode: scored by its effects
    under a consequentialist theory, checked against each principle under
    a deontological one. An action the scenario does not declare is an error."""
    if action_id not in scenario.action_ids():
        raise GenetError(DANGLING_REFERENCE, f"no action {action_id!r} in scenario", "action")
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
    # The principles covering each (specification, target class), with the
    # premise key and sign of each; the target class, text, weight and
    # exclusion of each target id, the agent's row last so that it wins.
    covering: dict[tuple[str, str], list[tuple[tuple[str, str, str], int]]] = {}
    for principle, key in _principle_premises(theory):
        for target_class in (Subject.AGENT, Subject.PATIENTS):
            if principle.subject.covers(target_class):
                covering.setdefault((principle.specification, target_class.value), []).append(
                    (key, 1 if principle.morality else -1))
    targets: dict[str, tuple[str, str, int, bool]] = {}
    for group in scenario.groups:
        excluded = group.patientKind not in theory.patientKinds
        targets[group.id] = (
            Subject.PATIENTS.value,
            f"{group.id} ({group.cardinality} {group.patientKind.value})",
            0 if excluded else group.cardinality, excluded)
    targets[AGENT] = (Subject.AGENT.value, "the agent", 1, False)
    by_action: dict[str, list[tuple[int, EffectAssertion]]] = {}
    for index, effect in enumerate(scenario.effects):
        by_action.setdefault(effect.action, []).append((index, effect))
    request = scenario.request
    if request is not None:
        gate_voided, gate_keys, gate_text = _gate_subconclusion(theory, request)
    evaluations = []
    for action_id in action_ids:
        builder = _TraceBuilder()
        gate_id = None
        score = 0
        ledger: list[int] = []
        counted: list[str] = []  # the inferences that carry a contribution
        for index, effect in by_action.get(action_id, ()):
            target_class, target_text, weight, excluded = targets[effect.target]
            spec = effect.specification
            principles = covering.get((spec, target_class))
            # The gate enters just before the first effect whose inference cites it.
            gated = (effect.requestDerived and principles is not None and not excluded
                     and request is not None)
            if gated and gate_id is None:
                gate_id = builder.infer(tuple(map(builder.premise, gate_keys)), gate_text)
            increase = effect.direction == "increase"
            fact = builder.premise((
                "situationalFact",
                f"{action_id} {'increases' if increase else 'decreases'} {spec} "
                f"for {target_text}",
                f"scenario:effects[{index}]"))
            if principles is None:
                builder.infer((fact,), f"no principle covers {spec} for "
                                       f"{target_class}; the effect is morally inert")
                continue

            direction = 1 if increase else -1
            for key, sign in principles:
                p_id = builder.premise(key)
                value = direction * sign * weight
                if excluded:
                    counted.append(builder.infer(
                        (fact, p_id),
                        f"{target_text} is of an excluded patient kind; "
                        f"the effect carries weight 0",
                        contribution=0))
                    continue
                if gated and gate_voided and value > 0:
                    ledger.append(value)
                    builder.infer(
                        (fact, p_id, gate_id),
                        f"the good of {spec} (+{value}) stems from a "
                        f"voided request; diverted to the supererogation ledger")
                    continue
                from_ids = (fact, p_id, gate_id) if gated else (fact, p_id)
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
            builder.infer(tuple(counted), f"{action_id} scores {score:+d}")
        evaluations.append(ActionEvaluation(action_id, verdict, builder.done(conclusion),
                                            score, tuple(ledger)))
    return evaluations


def _deontological(theory: EthicalTheoryInstance, scenario: Scenario,
                   action_ids: list[str]) -> list[ActionEvaluation]:
    """Check each action against every principle, requirement-fulfilment
    style: prohibitions are violated by an asserted occurrence, and
    requirements by an asserted non-occurrence. A requirement that no
    assertion addresses passes, listed once in `unaddressed` as its warning,
    and adds nothing to the trace. Group sizes never affect the verdict.
    """
    # Each principle as a row, and the deontic assertions by action, then
    # specification, each with whether it targets the agent.
    rows = [(key, p.specification, p.morality, f"{p.specification} of {p.subject.value}",
             p.subject.covers(Subject.AGENT), p.subject.covers(Subject.PATIENTS))
            for p, key in _principle_premises(theory)]
    deontics: dict[str, dict[str, list[tuple[int, DeonticAssertion, bool]]]] = {}
    for index, assertion in enumerate(scenario.deontics):
        deontics.setdefault(assertion.action, {}).setdefault(
            assertion.specification, []).append((index, assertion, assertion.target == AGENT))
    evaluations = []
    for action_id in action_ids:
        asserted = deontics.get(action_id, {})
        builder = _TraceBuilder()
        violated = False
        unaddressed: dict[str, None] = {}  # in principle order, each once
        for key, spec, morality, phrase, covers_agent, covers_patients in rows:
            p_id = None  # the principle's premise, added when an inference first cites it
            for index, assertion, to_agent in asserted.get(spec, ()):
                if not (covers_agent if to_agent else covers_patients):
                    continue
                p_id = p_id or builder.premise(key)
                fact = builder.premise((
                    "situationalFact",
                    f"{spec} {'holds' if assertion.holds else 'does not hold'} for "
                    f"{action_id} toward {'the agent' if to_agent else assertion.target}",
                    f"scenario:deontics[{index}]"))
                if morality != assertion.holds:
                    violated = True
                    builder.infer((p_id, fact), f"{action_id} violates the {spec} "
                                  f"{'requirement' if morality else 'prohibition'}")
                else:
                    builder.infer((p_id, fact),
                                  f"{action_id} satisfies the {spec} principle")
            if p_id is None and morality:
                unaddressed[phrase] = None

        verdict = MoralVerdict.WRONG if violated else MoralVerdict.PERMISSIBLE
        evaluations.append(ActionEvaluation(
            action_id, verdict, builder.done(f"{action_id} is {verdict.value}"),
            unaddressed=tuple(unaddressed)))
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
    action, verdict, trace, score, ledger, unaddressed = evaluation
    out: dict = {"action": action, "verdict": verdict.value}
    if score is not None:
        out["score"] = score
    if ledger:
        out["supererogation"] = list(ledger)
    if unaddressed:
        out["unaddressed"] = list(unaddressed)
    out["trace"] = {
        "premises": [{"id": i, "kind": k, "text": t, "source": s}
                     for i, k, t, s in trace.premises],
        "inferences": [{"id": i, "from": list(f), "text": t} if c is None else
                       {"id": i, "from": list(f), "text": t, "contribution": c}
                       for i, f, t, c in trace.inferences],
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
    if evaluation.unaddressed:
        head += f" unaddressed={list(evaluation.unaddressed)}"
    if not explain:
        return head
    premises, inferences, conclusion = evaluation.trace
    lines = [head, "premises:"]
    lines += [f"  {i} [{k}] {t}  ({s})" for i, k, t, s in premises]
    lines.append("inferences:")
    lines += [f"  {i} <- {', '.join(f)}: {t}" if c is None else
              f"  {i} <- {', '.join(f)}: {t}  [contribution {c:+d}]"
              for i, f, t, c in inferences]
    lines.append(f"conclusion: {conclusion}")
    return "\n".join(lines)


def render_decision(decision: Decision, explain: bool = False) -> str:
    lines = [f"{decision.kind.value}: "
             f"{' '.join(decision.chosen) if decision.chosen else '-'}"]
    if decision.kind is DecisionKind.CONFLICT:
        lines.append(f"tied: {' '.join(decision.tied)}")
    for e in decision.evaluations:
        lines.append(render_evaluation(e, explain=explain))
    return "\n".join(lines)
