from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from genet.model import (
    EthicalTheoryInstance,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
)
from genet.reasoner import (
    DecisionKind,
    MoralVerdict,
    TraceInference,
    TracePremise,
    decide,
    decision_to_dict,
    evaluate,
    evaluation_to_dict,
    render_decision,
    render_evaluation,
)
from genet.scenario import (
    AGENT,
    DANGLING_REFERENCE,
    EXCLUDED_PATIENT_KIND,
    INERT_SPECIFICATION,
    ActionOption,
    DeonticAssertion,
    EffectAssertion,
    RequestContext,
    Scenario,
    StakeholderGroup,
    emit_scenario,
    load_scenario,
    validate_scenario_against_theory,
)
from genet.xmlio import emit_theory, parse_theory
from benchmarks import oracle
from .strategies import group_scenarios, theory_scenarios

# Verdicts expected for every (scenario, theory) pairing of the shipped
# fixtures; derived by hand from the effect/deontic listings before the
# reasoner existed.
EXPECTED_CHOICE = {
    ("trolley", "trainco-utilitarianism"): ("decided", ("T1",)),
    ("trolley", "trainco-egoism"): ("decided", ("T1",)),
    ("trolley", "trainco-dct"): ("decided", ("T2",)),
    ("trolley", "trainco-kantianism"): ("decided", ("T2",)),
    ("mia", "mia-utilitarianism"): ("decided", ("A2",)),
    ("mia", "mia-egoism"): ("decided", ("A2",)),
    ("mia", "mia-dct"): ("multiplePermissible", ("A1", "A2")),
    ("mia", "mia-kantianism"): ("decided", ("A1",)),
    ("marijuana", "doe-utilitarianism"): ("decided", ("M1",)),
    ("marijuana", "doe-egoism"): ("decided", ("M2",)),
    ("marijuana", "doe-dct"): ("decided", ("M1",)),
    ("marijuana", "doe-kantianism"): ("decided", ("M1",)),
}


def toy_theory(consequentiality=True, principles=None, kinds=None,
               thresholds=(50, 30)) -> EthicalTheoryInstance:
    if principles is None:
        principles = (MoralPrinciple(True, Subject.ALL, "good"),
                      MoralPrinciple(False, Subject.ALL, "bad"))
    return EthicalTheoryInstance(
        baseTheory="toy", instanceName=None, consequentiality=consequentiality,
        agent=MoralAgent("Agent"),
        patientKinds=kinds or frozenset({PatientKind.HUMAN}),
        influenceThresholds=InfluenceThresholds(*thresholds),
        principles=tuple(principles))


def request_scenario(effects, kind="substance", level=0, groups=()) -> Scenario:
    """A scenario in which the agent, under `kind` influence at `level`,
    requests the action a0."""
    return Scenario(
        name="x", actingFor="Agent", groups=groups,
        actions=(ActionOption("a0"), ActionOption("a1")),
        effects=effects, deontics=(),
        request=RequestContext(AGENT, kind, level, "a0"))


def gate_voided(thresholds: tuple[int, int], kind: str, level: int) -> bool:
    """Whether the influence gate voids a request, read from `evaluate` of
    the requested action a0, whose one effect is a request-derived good
    (+1). A voided request diverts the +1 to the supererogation ledger; a
    kept one counts it. `thresholds` is (external, substance)."""
    scenario = request_scenario(
        (EffectAssertion("a0", "good", "increase", AGENT, requestDerived=True),),
        kind, level)
    evaluation = evaluate(toy_theory(thresholds=thresholds), scenario, "a0")
    threshold = thresholds[1] if kind == "substance" else thresholds[0]
    gate = evaluation.trace.inferences[0].text  # the gate comes before the effect that cites it
    if evaluation.supererogation:
        assert (evaluation.score, evaluation.supererogation) == (0, (1,))
        assert gate == f"the request for a0 carries no weight ({level} > {threshold})"
        return True
    assert evaluation.score == 1
    assert gate == f"the request for a0 keeps its moral weight ({level} <= {threshold})"
    return False


class TestInfluenceGate:
    # Full boundary table: voided iff influenceLevel strictly exceeds
    # the threshold; 100 never voids, 0 voids any positive influence.
    TABLE = [
        (0, 0, False), (0, 1, True), (0, 50, True), (0, 51, True), (0, 100, True),
        (50, 0, False), (50, 1, False), (50, 50, False), (50, 51, True),
        (50, 100, True),
        (100, 0, False), (100, 1, False), (100, 50, False), (100, 51, False),
        (100, 100, False),
    ]

    @pytest.mark.parametrize("threshold,level,voided", TABLE)
    def test_boundary_table_substance(self, threshold, level, voided):
        assert gate_voided((0, threshold), "substance", level) is voided

    @pytest.mark.parametrize("threshold,level,voided", TABLE)
    def test_boundary_table_external(self, threshold, level, voided):
        assert gate_voided((threshold, 0), "external", level) is voided

    def test_kind_selects_the_matching_threshold(self):
        assert gate_voided((100, 0), "substance", 1)
        assert not gate_voided((100, 0), "external", 99)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_monotone_in_threshold(self, low, high, level):
        low, high = min(low, high), max(low, high)
        # Raising the threshold can only stop voiding, never start it.
        if not gate_voided((0, low), "substance", level):
            assert not gate_voided((0, high), "substance", level)

    def test_gate_enters_before_the_effect_that_cites_it(self):
        scenario = request_scenario((
            EffectAssertion("a0", "good", "increase", AGENT),
            EffectAssertion("a0", "good", "increase", AGENT, requestDerived=True)))
        trace = evaluate(toy_theory(), scenario, "a0").trace
        assert [(p.id, p.kind) for p in trace.premises] == [
            ("P1", "situationalFact"), ("P2", "theoryPrinciple"), ("P3", "thresholdFact"),
            ("P4", "thresholdFact"), ("P5", "situationalFact")]
        assert [(i.id, i.fromIds) for i in trace.inferences] == [
            ("I1", ("P1", "P2")), ("I2", ("P3", "P4")), ("I3", ("P5", "P2", "I2")),
            ("I4", ("I1", "I3"))]
        assert trace.inferences[1].text == "the request for a0 keeps its moral weight (0 <= 30)"

    # The request's only request-derived effect is inert, or is on a group
    # of a kind the theory excludes: no inference cites the gate.
    @pytest.mark.parametrize("spec,target,kinds", [
        ("other", AGENT, ["situationalFact"]),
        ("good", "trees", ["situationalFact", "theoryPrinciple"]),
    ])
    def test_no_gate_where_no_effect_cites_it(self, spec, target, kinds):
        scenario = request_scenario(
            (EffectAssertion("a0", spec, "increase", target, requestDerived=True),),
            level=85, groups=(StakeholderGroup("trees", "patientGroup", PatientKind.NATURE, 3),))
        evaluation = evaluate(toy_theory(), scenario, "a0")
        assert [p.kind for p in evaluation.trace.premises] == kinds
        assert not any(i.text.startswith("the request for") for i in evaluation.trace.inferences)
        assert (evaluation.score, evaluation.supererogation) == (0, ())


class TestEvaluateConsequentialist:
    def test_mia_a1_voided_request(self, theories, scenarios):
        evaluation = evaluate(theories["mia-egoism"], scenarios["mia"], "A1")
        assert evaluation.score == -1
        assert evaluation.verdict is MoralVerdict.WRONG
        assert evaluation.supererogation == (1,)
        assert "voided" in "\n".join(i.text for i in evaluation.trace.inferences)

    def test_mia_a2_permissible(self, theories, scenarios):
        evaluation = evaluate(theories["mia-egoism"], scenarios["mia"], "A2")
        assert evaluation.score == 0
        assert evaluation.verdict is MoralVerdict.PERMISSIBLE
        assert evaluation.supererogation == ()

    def test_trolley_utilitarian_scores(self, theories, scenarios):
        theory = theories["trainco-utilitarianism"]
        t1 = evaluate(theory, scenarios["trolley"], "T1")
        t2 = evaluate(theory, scenarios["trolley"], "T2")
        assert (t1.score, t2.score) == (-1, -5)

    def test_marijuana_utilitarian_scores(self, theories, scenarios):
        theory = theories["doe-utilitarianism"]
        m1 = evaluate(theory, scenarios["marijuana"], "M1")
        m2 = evaluate(theory, scenarios["marijuana"], "M2")
        assert m1.score == -4 + 10000
        assert m2.score == 1 + 1 - 10000

    def test_excluded_patient_kind_contributes_zero(self):
        theory = toy_theory(kinds=frozenset({PatientKind.HUMAN}))
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup("forest", "patientGroup",
                                     PatientKind.NATURE, 500),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(EffectAssertion("a0", "good", "increase", "forest"),),
            deontics=())
        evaluation = evaluate(theory, scenario, "a0")
        assert evaluation.score == 0
        assert 0 in evaluation.trace.counted_contributions()

    def test_voided_request_keeps_its_wrongness(self):
        # The substance threshold 0 voids a request made at level 85.
        theory = toy_theory(thresholds=(50, 0))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(EffectAssertion("a0", "bad", "increase", AGENT,
                                     requestDerived=True),),
            deontics=(),
            request=RequestContext(AGENT, "substance", 85, "a0"))
        evaluation = evaluate(theory, scenario, "a0")
        assert (evaluation.score, evaluation.supererogation) == (-1, ())
        assert [i.text for i in evaluation.trace.inferences
                if i.contribution is not None] == [
            "a0 carries some moral wrong of magnitude 1 "
            "(wrongness is retained despite the voided request)"]

    def test_agent_is_not_a_group_named_agent(self):
        # load_scenario refuses a group with the reserved id AGENT, but a
        # hand-built scenario can carry one; AGENT still names the agent.
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup(AGENT, "patientGroup", PatientKind.HUMAN, 5),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(EffectAssertion("a0", "good", "increase", AGENT),),
            deontics=())
        evaluation = evaluate(toy_theory(), scenario, "a0")
        assert evaluation.score == 1
        assert evaluation.trace.premises[0].text == "a0 increases good for the agent"

    def test_follows_the_theory_mode(self, theories, scenarios):
        # mia-egoism is consequentialist, so evaluate scores the action.
        assert isinstance(evaluate(theories["mia-egoism"], scenarios["mia"],
                                   "A1").score, int)

    @settings(deadline=None, max_examples=200)
    @given(group_scenarios())
    def test_agrees_with_naive_oracle(self, scenario):
        # Independent re-derivation: signed sum over effect x matching
        # principle, with excluded kinds at weight 0.
        theory = toy_theory(kinds=frozenset({PatientKind.HUMAN,
                                             PatientKind.OTHER_ANIMAL}))
        groups = {g.id: g for g in scenario.groups}
        for action in scenario.action_ids():
            expected = 0
            for e in scenario.effects:
                if e.action != action:
                    continue
                group = groups[e.target]
                if group.patientKind not in theory.patientKinds:
                    continue
                direction = 1 if e.direction == "increase" else -1
                morality = 1 if e.specification == "good" else -1
                expected += direction * morality * group.cardinality
            evaluation = evaluate(theory, scenario, action)
            assert evaluation.score == expected

    @settings(deadline=None)
    @given(group_scenarios())
    def test_score_is_the_sum_of_counted_contributions(self, scenario):
        theory = toy_theory()
        for action in scenario.action_ids():
            evaluation = evaluate(theory, scenario, action)
            assert evaluation.score == sum(evaluation.trace.counted_contributions())

    @settings(deadline=None, max_examples=100)
    @given(group_scenarios(), st.sampled_from([2, 10, 1000]))
    def test_argmax_is_scale_invariant(self, scenario, k):
        theory = toy_theory()
        scaled = scenario._replace(groups=tuple(
            g._replace(cardinality=g.cardinality * k) for g in scenario.groups))
        for action in scenario.action_ids():
            base = evaluate(theory, scenario, action)
            big = evaluate(theory, scaled, action)
            assert big.score == base.score * k
        assert decide(theory, scaled).chosen == decide(theory, scenario).chosen


class TestEvaluateDeontological:
    def test_trolley_t1_violates_kill(self, theories, scenarios):
        evaluation = evaluate(theories["trainco-dct"], scenarios["trolley"], "T1")
        assert evaluation.verdict is MoralVerdict.WRONG
        assert evaluation.score is None
        texts = [i.text for i in evaluation.trace.inferences]
        assert any("violates the kill prohibition" in t for t in texts)

    def test_trolley_t2_passes_with_warnings(self, theories, scenarios):
        evaluation = evaluate(theories["trainco-dct"], scenarios["trolley"], "T2")
        assert evaluation.verdict is MoralVerdict.PERMISSIBLE
        # The respectParents requirement has no assertion: listed as the
        # warning, not failed, and absent from the trace.
        assert evaluation.unaddressed == ("respectParents of patients",)
        assert not [p for p in evaluation.trace.premises if "respectParents" in p.text]
        assert not [i for i in evaluation.trace.inferences if "respectParents" in i.text]

    def test_mia_kantian_verdicts(self, theories, scenarios):
        theory = theories["mia-kantianism"]
        a1 = evaluate(theory, scenarios["mia"], "A1")
        a2 = evaluate(theory, scenarios["mia"], "A2")
        assert a1.verdict is MoralVerdict.PERMISSIBLE
        assert a2.verdict is MoralVerdict.WRONG

    def test_requirement_satisfied_by_true_assertion(self):
        theory = toy_theory(consequentiality=False,
                            principles=(MoralPrinciple(True, Subject.ALL, "keep"),))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "keep", True, AGENT),
                      DeonticAssertion("a1", "keep", False, AGENT)))
        assert evaluate(theory, scenario, "a0").verdict \
            is MoralVerdict.PERMISSIBLE
        assert evaluate(theory, scenario, "a1").verdict \
            is MoralVerdict.WRONG

    def test_subject_must_cover_the_target(self):
        theory = toy_theory(consequentiality=False,
                            principles=(MoralPrinciple(False, Subject.AGENT, "lie"),))
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup("g", "patientGroup", PatientKind.HUMAN, 1),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "lie", True, "g"),))
        # The prohibition only concerns the agent; lying toward the group
        # is outside its subject and cannot violate it.
        assert evaluate(theory, scenario, "a0").verdict \
            is MoralVerdict.PERMISSIBLE

    def test_assertions_are_cited_in_document_order(self):
        theory = toy_theory(consequentiality=False,
                            principles=(MoralPrinciple(False, Subject.ALL, "lie"),))
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup("g", "patientGroup", PatientKind.HUMAN, 1),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "lie", True, "g"),
                      DeonticAssertion("a1", "lie", True, "g"),
                      DeonticAssertion("a0", "lie", False, AGENT)))
        trace = evaluate(theory, scenario, "a0").trace
        assert [p.source for p in trace.premises if p.kind == "situationalFact"] == [
            "scenario:deontics[0]", "scenario:deontics[2]"]

    def test_repeated_principle_cites_its_first_position(self):
        lie = MoralPrinciple(False, Subject.ALL, "lie")
        theory = toy_theory(consequentiality=False,
                            principles=(lie, MoralPrinciple(True, Subject.ALL, "keep"), lie))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "lie", True, AGENT),))
        evaluation = evaluate(theory, scenario, "a0")
        trace = evaluation.trace
        assert [p.source for p in trace.premises if p.kind == "theoryPrinciple"] == [
            "theory:principles[0]"]
        violations = [i for i in trace.inferences if "violates" in i.text]
        assert len(violations) == 2
        assert violations[0].fromIds == violations[1].fromIds
        assert evaluation.unaddressed == ("keep of all",)

    def test_only_cited_principles_are_premises(self):
        # A principle that no assertion addresses leaves nothing in the
        # trace; a requirement with none is listed in `unaddressed` instead.
        theory = toy_theory(consequentiality=False, principles=(
            MoralPrinciple(False, Subject.ALL, "lie"),
            MoralPrinciple(True, Subject.ALL, "keep"),
            MoralPrinciple(False, Subject.ALL, "steal")))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(), actions=(ActionOption("a0"),),
            effects=(), deontics=(DeonticAssertion("a0", "steal", False, AGENT),))
        evaluation = evaluate(theory, scenario, "a0")
        premises, inferences, _ = evaluation.trace
        assert [(p.id, p.source) for p in premises] == [
            ("P1", "theory:principles[2]"), ("P2", "scenario:deontics[0]")]
        assert [i.fromIds for i in inferences] == [("P1", "P2")]
        assert evaluation.unaddressed == ("keep of all",)

    def test_prohibition_is_never_listed(self):
        theory = toy_theory(consequentiality=False, principles=(
            MoralPrinciple(False, Subject.ALL, "lie"),
            MoralPrinciple(False, Subject.AGENT, "steal")))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")), effects=(),
            deontics=(DeonticAssertion("a0", "lie", False, AGENT),))
        for action in ("a0", "a1"):
            evaluation = evaluate(theory, scenario, action)
            assert evaluation.unaddressed == ()
            assert "unaddressed" not in evaluation_to_dict(evaluation)

    def test_one_specification_two_subjects_are_listed_apart(self):
        # Only the agent's keep is addressed, so only the patients' is listed.
        theory = toy_theory(consequentiality=False, principles=(
            MoralPrinciple(True, Subject.AGENT, "keep"),
            MoralPrinciple(True, Subject.PATIENTS, "keep")))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")), effects=(),
            deontics=(DeonticAssertion("a0", "keep", True, AGENT),))
        assert evaluate(theory, scenario, "a0").unaddressed == ("keep of patients",)
        assert evaluate(theory, scenario, "a1").unaddressed == (
            "keep of agent", "keep of patients")

    def test_repeated_requirement_is_listed_once(self):
        keep = MoralPrinciple(True, Subject.ALL, "keep")
        theory = toy_theory(consequentiality=False, principles=(
            keep, MoralPrinciple(True, Subject.AGENT, "help"), keep))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")), effects=(), deontics=())
        evaluation = evaluate(theory, scenario, "a0")
        assert evaluation.unaddressed == ("keep of all", "help of agent")
        assert evaluation.trace.premises == evaluation.trace.inferences == ()
        assert evaluation_to_dict(evaluation)["unaddressed"] == ["keep of all",
                                                                 "help of agent"]
        assert render_evaluation(evaluation) == (
            "a0: permissible unaddressed=['keep of all', 'help of agent']")

    def test_consequentialist_evaluation_has_no_unaddressed(self, theories, scenarios):
        decision = decide(theories["trainco-utilitarianism"], scenarios["trolley"])
        for evaluation in decision.evaluations:
            assert evaluation.unaddressed == ()
            assert "unaddressed" not in evaluation_to_dict(evaluation)
            assert "unaddressed" not in render_evaluation(evaluation, explain=True)
        assert all("unaddressed" not in e for e in decision_to_dict(decision)["evaluations"])

    def test_evaluate_equals_the_evaluation_in_decide(self, theories, scenarios):
        # decide never rewrites a deontological verdict, so the whole
        # evaluation, its unaddressed list included, is the same.
        for name in ("trainco-dct", "trainco-kantianism", "mia-dct", "doe-dct"):
            for scenario in scenarios.values():
                decision = decide(theories[name], scenario)
                for evaluation in decision.evaluations:
                    assert evaluate(theories[name], scenario,
                                    evaluation.action) == evaluation

    def test_agent_is_not_a_group_named_agent(self):
        # As under a consequentialist theory: the agent-only prohibition
        # covers an assertion toward AGENT although a group bears that id.
        theory = toy_theory(consequentiality=False,
                            principles=(MoralPrinciple(False, Subject.AGENT, "lie"),))
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup(AGENT, "patientGroup", PatientKind.HUMAN, 5),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "lie", True, AGENT),))
        evaluation = evaluate(theory, scenario, "a0")
        assert evaluation.verdict is MoralVerdict.WRONG
        assert evaluation.trace.premises[1].text == "lie holds for a0 toward the agent"

    @given(cardinality=st.integers(1, 10 ** 6))
    def test_group_size_never_matters(self, theories, scenarios, cardinality):
        scaled = scenarios["trolley"]._replace(groups=tuple(
            g._replace(cardinality=cardinality) for g in scenarios["trolley"].groups))
        for action in ("T1", "T2"):
            assert evaluate(theories["trainco-dct"], scaled, action).verdict is \
                evaluate(theories["trainco-dct"], scenarios["trolley"], action).verdict

    def test_follows_the_theory_mode(self, theories, scenarios):
        # trainco-dct is deontological, so evaluate checks principles and
        # gives no score.
        assert evaluate(theories["trainco-dct"], scenarios["trolley"],
                        "T1").score is None


class TestDecide:
    @pytest.mark.parametrize("case,theory_name", sorted(EXPECTED_CHOICE))
    def test_fixture_matrix(self, case, theory_name, theories, scenarios):
        decision = decide(theories[theory_name], scenarios[case])
        kind, chosen = EXPECTED_CHOICE[(case, theory_name)]
        assert decision.kind.value == kind
        assert tuple(sorted(decision.chosen)) == chosen

    def test_winner_is_relabelled_obligatory(self, theories, scenarios):
        decision = decide(theories["doe-utilitarianism"], scenarios["marijuana"])
        by_action = {e.action: e.verdict for e in decision.evaluations}
        assert by_action["M1"] is MoralVerdict.OBLIGATORY_BEST
        assert by_action["M2"] is MoralVerdict.WRONG

    def test_supererogatory_breaks_a_zero_tie(self):
        theory = toy_theory(thresholds=(50, 0))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(EffectAssertion("a0", "good", "increase", AGENT,
                                     requestDerived=True),),
            deontics=(),
            request=RequestContext(AGENT, "substance", 85, "a0"))
        decision = decide(theory, scenario)
        assert decision.kind is DecisionKind.DECIDED
        assert decision.chosen == ("a0",)

    def test_symmetric_scores_are_a_conflict(self):
        theory = toy_theory()
        scenario = Scenario(
            name="x", actingFor="Agent",
            groups=(StakeholderGroup("g", "patientGroup", PatientKind.HUMAN, 3),),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(EffectAssertion("a0", "good", "increase", "g"),
                     EffectAssertion("a1", "good", "increase", "g")),
            deontics=())
        decision = decide(theory, scenario)
        assert decision.kind is DecisionKind.CONFLICT
        assert decision.chosen == ()
        assert sorted(decision.tied) == ["a0", "a1"]
        assert all(e.verdict is MoralVerdict.UNDECIDABLE
                   for e in decision.evaluations)
        assert render_decision(decision) == ("conflict: -\ntied: a0 a1\n"
                                             "a0: undecidable score=+3\n"
                                             "a1: undecidable score=+3")

    def test_actions_outside_a_tie_keep_their_verdict(self):
        # A +2 and B +2 tie; C +1 is not best, yet only the tied actions
        # become undecidable, as in benchmarks/oracle.py. Pinned on purpose:
        # a change to this rule changes the oracle first.
        theory = toy_theory(principles=(MoralPrinciple(True, Subject.AGENT, "good"),))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("A"), ActionOption("B"), ActionOption("C")),
            effects=tuple(EffectAssertion(action, "good", "increase", AGENT)
                          for action in ("A", "A", "B", "B", "C")),
            deontics=())
        decision = decide(theory, scenario)
        assert render_decision(decision) == ("conflict: -\ntied: A B\n"
                                             "A: undecidable score=+2\n"
                                             "B: undecidable score=+2\n"
                                             "C: obligatoryBest score=+1")
        tree = decision_to_dict(decision)
        assert (tree["kind"], tree["chosen"], tree["tied"]) == ("conflict", [], ["A", "B"])
        assert [(e["action"], e["verdict"], e["score"]) for e in tree["evaluations"]] == [
            ("A", "undecidable", 2), ("B", "undecidable", 2), ("C", "obligatoryBest", 1)]
        expected = oracle.decide(oracle.decode_theory_xml(emit_theory(theory)),
                                 json.loads(emit_scenario(scenario)))
        assert expected.verdicts == {"A": ("undecidable", 2), "B": ("undecidable", 2),
                                     "C": ("obligatoryBest", 1)}

    def test_all_wrong_deontological_is_a_conflict(self):
        theory = toy_theory(consequentiality=False,
                            principles=(MoralPrinciple(False, Subject.ALL, "lie"),))
        scenario = Scenario(
            name="x", actingFor="Agent", groups=(),
            actions=(ActionOption("a0"), ActionOption("a1")),
            effects=(),
            deontics=(DeonticAssertion("a0", "lie", True, AGENT),
                      DeonticAssertion("a1", "lie", True, AGENT)))
        decision = decide(theory, scenario)
        assert decision.kind is DecisionKind.CONFLICT
        assert sorted(decision.tied) == ["a0", "a1"]

    @settings(deadline=None)
    @given(group_scenarios())
    def test_deterministic(self, scenario):
        theory = toy_theory()
        assert decide(theory, scenario) == decide(theory, scenario)

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios())
    def test_agrees_with_evaluating_each_action(self, pair):
        # decide runs the theory's mode over every action and evaluate over
        # one, each indexing the documents for its own call. Both must give
        # the same trace, score, ledger and unaddressed list (decide may
        # rewrite the verdict).
        theory, scenario = pair
        decided = {e.action: e for e in decide(theory, scenario).evaluations}
        assert list(decided) == scenario.action_ids()
        for action in scenario.action_ids():
            alone = evaluate(theory, scenario, action)
            assert alone._replace(verdict=None) == decided[action]._replace(verdict=None)

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios(), st.data())
    def test_unaddressed_lists_each_requirement_no_assertion_addresses(self, pair, data):
        # Recomputed from the records alone: an assertion addresses a
        # principle when it names the action and the specification, and
        # the principle's subject covers its target. Some theories repeat
        # a principle, which valid_instances never draws.
        theory, scenario = pair
        if data.draw(st.booleans()):
            principles = list(theory.principles)
            principles.insert(data.draw(st.integers(0, len(principles))),
                              data.draw(st.sampled_from(principles)))
            theory = theory._replace(principles=tuple(principles))
        for evaluation in decide(theory, scenario).evaluations:
            expected: list[str] = []
            for p in [] if theory.consequentiality else theory.principles:
                phrase = f"{p.specification} of {p.subject.value}"
                addressed = any(
                    (d.action, d.specification) == (evaluation.action, p.specification)
                    and p.subject.value in ("all", "agent" if d.target == AGENT
                                            else "patients")
                    for d in scenario.deontics)
                if p.morality and not addressed and phrase not in expected:
                    expected.append(phrase)
            assert evaluation.unaddressed == tuple(expected)
            assert evaluation_to_dict(evaluation).get("unaddressed", []) == expected

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios())
    def test_each_mode_reads_only_its_own_assertions(self, pair):
        # A consequentialist theory reads effects, groups and the request;
        # a deontological one reads deontic assertions. Each mode indexes
        # only its own, so emptying the other's must not change the decision.
        theory, scenario = pair
        if theory.consequentiality:
            other = scenario._replace(deontics=())
        else:
            other = scenario._replace(effects=(), groups=(), request=None)
        assert decide(theory, other) == decide(theory, scenario)

    @settings(deadline=None, max_examples=150)
    @given(group_scenarios())
    def test_exclusion_equals_hand_removal(self, scenario):
        # Oracle: a theory that excludes a patient kind must agree with
        # evaluating a scenario whose effects on that kind were deleted.
        excluding = toy_theory(kinds=frozenset({PatientKind.HUMAN}))
        inclusive = toy_theory(kinds=frozenset(PatientKind))
        groups = {g.id: g for g in scenario.groups}
        kept = tuple(e for e in scenario.effects
                     if groups[e.target].patientKind is PatientKind.HUMAN)
        pruned = scenario._replace(effects=kept)
        for action in scenario.action_ids():
            assert evaluate(excluding, scenario, action).score \
                == evaluate(inclusive, pruned, action).score

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios())
    def test_agrees_with_the_independent_oracle(self, pair):
        # benchmarks/oracle.py decides from the emitted documents with plain
        # dicts, ElementTree and json alone; genet reads the same documents.
        theory_doc, scenario_doc = emit_theory(pair[0]), emit_scenario(pair[1])
        expected = oracle.decide(oracle.decode_theory_xml(theory_doc),
                                 json.loads(scenario_doc))
        theory, scenario = parse_theory(theory_doc), load_scenario(scenario_doc)
        decision = decide(theory, scenario)
        assert decision.kind.value == expected.kind
        assert tuple(sorted(decision.chosen)) == expected.chosen
        assert {e.action: (e.verdict.value, e.score)
                for e in decision.evaluations} == expected.verdicts
        codes = validate_scenario_against_theory(scenario, theory).codes()
        assert codes.count(INERT_SPECIFICATION) == expected.inert_effects
        assert codes.count(EXCLUDED_PATIENT_KIND) == expected.excluded_groups


def _assert_record_shapes(evaluation) -> None:
    """The trace records are built without the NamedTuple constructor, which
    would check their arity and fill in the default contribution."""
    premises, inferences, _ = evaluation.trace
    for premise in premises:
        assert type(premise) is TracePremise and len(premise) == 4
        assert all(type(field) is str for field in premise)
    contributions = []
    for inference in inferences:
        assert type(inference) is TraceInference and len(inference) == 4
        _, from_ids, _, contribution = inference
        assert type(from_ids) is tuple and from_ids
        assert all(type(i) is str for i in from_ids)
        if contribution is not None:
            contributions.append(contribution)
    assert evaluation.trace.counted_contributions() == contributions
    if evaluation.score is not None:
        assert sum(contributions) == evaluation.score


def _evaluations(theory, scenario):
    """Every evaluation of the pair, through decide and through evaluate."""
    yield from decide(theory, scenario).evaluations
    for action in scenario.action_ids():
        yield evaluate(theory, scenario, action)


class TestTraceRecords:
    def _check(self, theory, scenario):
        for evaluation in _evaluations(theory, scenario):
            _assert_record_shapes(evaluation)

    def test_fixtures(self, theories, scenarios):
        for theory in theories.values():
            for scenario in scenarios.values():
                self._check(theory, scenario)

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios())
    def test_generated(self, pair):
        self._check(*pair)


def _assert_premises_cited(evaluation) -> None:
    """Every premise is cited by an inference, premises are numbered in the
    order that inferences first cite them, and every gate is cited."""
    premises, inferences, _ = evaluation.trace
    ids = [p.id for p in premises]
    cited = dict.fromkeys(i for inference in inferences for i in inference.fromIds
                          if i.startswith("P"))
    assert list(cited) == ids
    thresholds = {p.id for p in premises if p.kind == "thresholdFact"}
    for n, inference in enumerate(inferences):
        if thresholds.intersection(inference.fromIds):  # a gate is cited by a later inference
            assert any(inference.id in later.fromIds for later in inferences[n + 1:])


class TestPremisesCited:
    def _check(self, theory, scenario):
        for evaluation in _evaluations(theory, scenario):
            _assert_premises_cited(evaluation)

    def test_fixtures(self, theories, scenarios):
        for theory in theories.values():
            for scenario in scenarios.values():
                self._check(theory, scenario)

    @settings(deadline=None, max_examples=200)
    @given(theory_scenarios())
    def test_generated(self, pair):
        self._check(*pair)


@pytest.mark.parametrize("theory_name", ["mia-egoism", "mia-dct"])
@pytest.mark.parametrize("action", ["Nope", ""])
def test_evaluate_rejects_an_undeclared_action(theories, scenarios, theory_name, action):
    with pytest.raises(GenetError) as caught:
        evaluate(theories[theory_name], scenarios["mia"], action)
    assert caught.value.code == DANGLING_REFERENCE
    assert str(caught.value) == f"no action {action!r} in scenario"


def _outcome(decision):
    """What a decision decides: its kind, its sets and each action's verdict,
    score, ledger multiset and unaddressed set."""
    return (decision.kind, set(decision.chosen), set(decision.tied),
            {e.action: (e.verdict, e.score, sorted(e.supererogation), set(e.unaddressed))
             for e in decision.evaluations})


class TestMetamorphic:
    """Relations between two runs, which hold whatever the right answer is."""

    @settings(deadline=None, max_examples=100)
    @given(theory_scenarios(), st.randoms(use_true_random=False))
    def test_document_order_decides_nothing(self, pair, random):
        # Principle order numbers the premises and orders traces and
        # unaddressed lists, never a verdict.
        theory, scenario = pair

        def shuffled(items):
            return tuple(random.sample(items, len(items)))

        other = decide(theory._replace(principles=shuffled(theory.principles)),
                       scenario._replace(groups=shuffled(scenario.groups),
                                         actions=shuffled(scenario.actions),
                                         effects=shuffled(scenario.effects),
                                         deontics=shuffled(scenario.deontics)))
        assert _outcome(other) == _outcome(decide(theory, scenario))

    @settings(deadline=None, max_examples=60)
    @given(theory_scenarios(), st.randoms(use_true_random=False))
    def test_renaming_ids_renames_the_outcome(self, pair, random):
        theory, scenario = pair
        ids = scenario.action_ids() + [g.id for g in scenario.groups]
        new = {**dict(zip(ids, random.sample([f"id{n}" for n in range(len(ids))], len(ids)))),
               AGENT: AGENT}
        request = scenario.request and scenario.request._replace(
            requester=new[scenario.request.requester],
            requestedAction=new[scenario.request.requestedAction])
        renamed = scenario._replace(
            groups=tuple(g._replace(id=new[g.id]) for g in scenario.groups),
            actions=tuple(a._replace(id=new[a.id]) for a in scenario.actions),
            effects=tuple(e._replace(action=new[e.action], target=new[e.target])
                          for e in scenario.effects),
            deontics=tuple(d._replace(action=new[d.action], target=new[d.target])
                           for d in scenario.deontics),
            request=request)
        kind, chosen, tied, actions = _outcome(decide(theory, scenario))
        assert _outcome(decide(theory, renamed)) == (
            kind, {new[a] for a in chosen}, {new[a] for a in tied},
            {new[a]: outcome for a, outcome in actions.items()})

    @settings(deadline=None, max_examples=60)
    @given(theory_scenarios(), st.randoms(use_true_random=False))
    def test_an_effect_no_principle_covers_decides_nothing(self, pair, random):
        theory, scenario = pair
        theory = theory._replace(consequentiality=True)
        # Specifications are drawn from letters, so no principle has this one.
        effect = EffectAssertion(random.choice(scenario.action_ids()), "no-principle",
                                 random.choice(["increase", "decrease"]),
                                 random.choice([AGENT, *[g.id for g in scenario.groups]]),
                                 random.random() < 0.5)
        more = scenario._replace(effects=(*scenario.effects, effect))
        assert _outcome(decide(theory, more)) == _outcome(decide(theory, scenario))
        codes = validate_scenario_against_theory(scenario, theory).codes()
        assert sorted(validate_scenario_against_theory(more, theory).codes()) \
            == sorted(codes + [INERT_SPECIFICATION])

    @settings(deadline=None, max_examples=60)
    @given(theory_scenarios())
    def test_negating_morality_and_direction_decides_nothing(self, pair):
        theory, scenario = pair
        theory = theory._replace(consequentiality=True)
        negated = theory._replace(principles=tuple(
            p._replace(morality=not p.morality) for p in theory.principles))
        flipped = scenario._replace(effects=tuple(
            e._replace(direction="decrease" if e.direction == "increase" else "increase")
            for e in scenario.effects))
        assert _outcome(decide(negated, flipped)) == _outcome(decide(theory, scenario))

    @settings(deadline=None, max_examples=50)
    @given(theory_scenarios())
    def test_writing_and_reading_the_documents_changes_no_output(self, pair):
        theory, scenario = pair
        again = decide(parse_theory(emit_theory(theory)),
                       load_scenario(emit_scenario(scenario)))
        assert decision_to_dict(again) == decision_to_dict(decide(theory, scenario))
