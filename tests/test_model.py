from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given

from genet.model import (
    EthicalTheoryInstance,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    validate_instance,
)
from .strategies import valid_instances


def mia_egoism() -> EthicalTheoryInstance:
    maslow = ["physiologySatisfaction", "safetySatisfaction", "loveSatisfaction",
              "esteemSatisfaction", "selfActualisationSatisfaction"]
    return EthicalTheoryInstance(
        baseTheory="egoism",
        instanceName="Mia's Egoism",
        consequentiality=True,
        agent=MoralAgent("Mia", "http://facebook.com/mia"),
        patientKinds=frozenset({PatientKind.HUMAN}),
        influenceThresholds=InfluenceThresholds(external=50, substance=30),
        principles=tuple(MoralPrinciple(True, Subject.AGENT, s) for s in maslow),
    )


class TestValidateInstance:
    def test_mia_egoism_is_valid(self):
        assert validate_instance(mia_egoism()).ok

    def test_empty_patient_kinds(self):
        broken = dataclasses.replace(mia_egoism(), patientKinds=frozenset())
        assert validate_instance(broken).codes() == ["EMPTY_PATIENT_KINDS"]

    def test_empty_principles(self):
        broken = dataclasses.replace(mia_egoism(), principles=())
        report = validate_instance(broken)
        assert [(v.code, v.path) for v in report.violations] == [
            ("EMPTY_PRINCIPLES", "principles")]

    def test_substance_threshold_out_of_range(self):
        broken = dataclasses.replace(
            mia_egoism(), influenceThresholds=InfluenceThresholds(50, 130))
        report = validate_instance(broken)
        assert report.codes() == ["PERCENT_OUT_OF_RANGE"]
        assert report.violations[0].path == "influenceThresholds.substance"

    def test_duplicate_principle_pair(self):
        theory = mia_egoism()
        broken = dataclasses.replace(
            theory, principles=theory.principles + (theory.principles[0],))
        assert "DUPLICATE_PRINCIPLE" in validate_instance(broken).codes()

    def test_same_pair_different_morality_still_duplicate(self):
        # Interpretation: one good and one bad principle for the same
        # (specification, subject) would have the reasoner double-count.
        theory = mia_egoism()
        flipped = dataclasses.replace(theory.principles[0], morality=False)
        broken = dataclasses.replace(theory,
                                     principles=theory.principles + (flipped,))
        assert "DUPLICATE_PRINCIPLE" in validate_instance(broken).codes()

    def test_whitespace_specification(self):
        theory = mia_egoism()
        bad = MoralPrinciple(True, Subject.ALL, "two words")
        broken = dataclasses.replace(theory, principles=theory.principles + (bad,))
        assert "SPECIFICATION_WHITESPACE" in validate_instance(broken).codes()

    def test_bad_agent_reference(self):
        broken = dataclasses.replace(mia_egoism(),
                                     agent=MoralAgent("Mia", "not a uri"))
        assert "BAD_URI" in validate_instance(broken).codes()

    def test_empty_instance_name_rejected_but_absent_ok(self):
        assert validate_instance(
            dataclasses.replace(mia_egoism(), instanceName=None)).ok
        assert not validate_instance(
            dataclasses.replace(mia_egoism(), instanceName="")).ok

    @given(valid_instances)
    def test_deterministic(self, theory):
        assert validate_instance(theory) == validate_instance(theory)

    @given(valid_instances)
    def test_generated_instances_have_unique_pairs(self, theory):
        assert validate_instance(theory).ok
        pairs = [(p.specification, p.subject) for p in theory.principles]
        assert len(pairs) == len(set(pairs))


class TestSubjectCovers:
    def test_all_is_not_a_target_class(self):
        with pytest.raises(ValueError):
            Subject.AGENT.covers(Subject.ALL)
