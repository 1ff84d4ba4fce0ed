from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from genet.model import (
    EthicalTheoryInstance,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
)
from genet.reasoner import (
    DecisionKind,
    MoralVerdict,
    decide,
    evaluate,
    influence_gate,
)
from genet.scenario import (
    AGENT,
    ActionOption,
    DeonticAssertion,
    EffectAssertion,
    RequestContext,
    Scenario,
    StakeholderGroup,
)
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
        theory = toy_theory(thresholds=(0, threshold))
        request = RequestContext("AGENT", "substance", level, "a0")
        assert influence_gate(theory, request) is voided

    @pytest.mark.parametrize("threshold,level,voided", TABLE)
    def test_boundary_table_external(self, threshold, level, voided):
        theory = toy_theory(thresholds=(threshold, 0))
        request = RequestContext("AGENT", "external", level, "a0")
        assert influence_gate(theory, request) is voided

    def test_kind_selects_the_matching_threshold(self):
        theory = toy_theory(thresholds=(100, 0))
        assert influence_gate(theory, RequestContext("AGENT", "substance", 1, "a"))
        assert not influence_gate(theory, RequestContext("AGENT", "external", 99, "a"))

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_monotone_in_threshold(self, low, high, level):
        low, high = min(low, high), max(low, high)
        request = RequestContext("AGENT", "substance", level, "a")
        # Raising the threshold can only stop voiding, never start it.
        if not influence_gate(toy_theory(thresholds=(0, low)), request):
            assert not influence_gate(toy_theory(thresholds=(0, high)), request)


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
        scaled = dataclasses.replace(
            scenario,
            groups=tuple(dataclasses.replace(g, cardinality=g.cardinality * k)
                         for g in scenario.groups))
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
        # The respectParents requirement has no assertion: warned, not failed.
        texts = [i.text for i in evaluation.trace.inferences]
        assert any("respectParents" in t and "warning" in t for t in texts)

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
        trace = evaluate(theory, scenario, "a0").trace
        assert [p.source for p in trace.premises if p.kind == "theoryPrinciple"] == [
            "theory:principles[0]", "theory:principles[1]"]
        violations = [i for i in trace.inferences if "violates" in i.text]
        assert len(violations) == 2
        assert violations[0].fromIds == violations[1].fromIds

    @given(cardinality=st.integers(1, 10 ** 6))
    def test_group_size_never_matters(self, theories, scenarios, cardinality):
        scaled = dataclasses.replace(
            scenarios["trolley"],
            groups=tuple(dataclasses.replace(g, cardinality=cardinality)
                         for g in scenarios["trolley"].groups))
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
        # decide evaluates every action from one set of lookup tables; each
        # evaluate call builds its own. Both must give the same trace,
        # score and ledger (decide may rewrite the verdict).
        theory, scenario = pair
        decided = {e.action: e for e in decide(theory, scenario).evaluations}
        assert list(decided) == scenario.action_ids()
        for action in scenario.action_ids():
            alone = evaluate(theory, scenario, action)
            assert (alone.trace, alone.score, alone.supererogation) == (
                decided[action].trace, decided[action].score,
                decided[action].supererogation)

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
        pruned = dataclasses.replace(scenario, effects=kept)
        for action in scenario.action_ids():
            assert evaluate(excluding, scenario, action).score \
                == evaluate(inclusive, pruned, action).score
