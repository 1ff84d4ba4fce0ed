from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from genet.model import PatientKind
from genet.scenario import (
    AGENT,
    AGENT_MISMATCH,
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    MAX_CARDINALITY,
    PARSE_ERROR,
    RANGE_ERROR,
    ScenarioError,
    emit_scenario,
    load_scenario,
    validate_scenario_against_theory,
)
from .conftest import CASE_THEORIES, SCENARIO_NAMES, scenario_bytes
from .strategies import group_scenarios


def doc(**overrides) -> bytes:
    data = {
        "scenario": "toy",
        "actingFor": "Mia",
        "groups": [{"id": "crowd", "kind": "patientGroup",
                    "patientKind": "human", "cardinality": 3}],
        "actions": ["A1", "A2"],
        "effects": [{"action": "A1", "specification": "safetySatisfaction",
                     "direction": "increase", "target": "crowd"}],
        "deontics": [{"action": "A2", "specification": "lie",
                      "holds": True, "target": AGENT}],
    }
    data.update(overrides)
    return json.dumps(data).encode("utf-8")


class TestLoadScenario:
    def test_trolley(self):
        s = load_scenario(scenario_bytes("trolley"))
        assert s.action_ids() == ["T1", "T2"]
        assert {g.id: g.cardinality for g in s.groups} == {
            "fiveOnTrack": 5, "worker": 1}
        assert all(g.patientKind is PatientKind.HUMAN for g in s.groups)
        assert s.request is None

    def test_mia_request(self):
        s = load_scenario(scenario_bytes("mia"))
        assert s.request is not None
        assert s.request.influenceKind == "substance"
        assert s.request.influenceLevel == 85
        assert s.request.requestedAction == "A1"
        derived = [e for e in s.effects if e.requestDerived]
        assert [e.action for e in derived] == ["A1"]

    def test_dangling_reference(self):
        broken = doc(effects=[{"action": "A1", "specification": "s",
                               "direction": "increase", "target": "ghost"}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == DANGLING_REFERENCE

    def test_dangling_action(self):
        broken = doc(deontics=[{"action": "A9", "specification": "lie",
                                "holds": False, "target": AGENT}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == DANGLING_REFERENCE

    def test_duplicate_action_id(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(actions=["A1", "A1"], effects=[], deontics=[]))
        assert err.value.code == DUPLICATE_ID

    def test_agent_is_a_reserved_group_id(self):
        broken = doc(groups=[{"id": AGENT, "kind": "patientGroup",
                              "patientKind": "human", "cardinality": 1}],
                     effects=[], deontics=[])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == DUPLICATE_ID

    def test_cardinality_below_one(self):
        broken = doc(groups=[{"id": "crowd", "kind": "patientGroup",
                              "patientKind": "human", "cardinality": 0}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == RANGE_ERROR

    @pytest.mark.parametrize("cardinality", [MAX_CARDINALITY + 1, int("9" * 4300)],
                             ids=["ceiling+1", "4300-nines"])
    def test_cardinality_above_the_ceiling(self, cardinality):
        # A score summed from 4,300-digit cardinalities cannot be printed.
        broken = doc(groups=[{"id": "crowd", "kind": "patientGroup",
                              "patientKind": "human", "cardinality": cardinality}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == RANGE_ERROR
        assert str(err.value) == (f"groups[0]: cardinality must be between 1 "
                                  f"and {MAX_CARDINALITY}")

    def test_cardinality_at_the_ceiling(self):
        group = {"id": "crowd", "kind": "patientGroup", "patientKind": "human",
                 "cardinality": MAX_CARDINALITY}
        assert load_scenario(doc(groups=[group])).groups[0].cardinality == MAX_CARDINALITY

    def test_influence_level_out_of_range(self):
        broken = doc(request={"requester": AGENT, "influenceKind": "substance",
                              "influenceLevel": 101, "requestedAction": "A1"})
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == RANGE_ERROR

    def test_fewer_than_two_actions(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(actions=["A1"], effects=[], deontics=[]))
        assert err.value.code == RANGE_ERROR

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(extra=1))
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == "document: unknown key 'extra'"

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(b"[]")
        assert (err.value.code, str(err.value)) == (PARSE_ERROR,
                                                    "document: must be an object")

    def test_comment_key_tolerated(self):
        assert load_scenario(doc(comment="authoring note")).name == "toy"

    def test_not_json(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(b"not json at all {")
        assert err.value.code == PARSE_ERROR

    @pytest.mark.parametrize("broken", [
        b"[" * 100_000,
        b'{"x": ' * 100_000,
        doc().replace(b'"cardinality": 3', b'"cardinality": ' + b"1" * 4400),
    ], ids=["deep-lists", "deep-objects", "4400-digit-integer"])
    def test_undecodable_depth_and_size_are_parse_errors(self, broken):
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == PARSE_ERROR
        assert str(err.value).startswith("not valid JSON: ")

    def test_misspelt_request_derived_is_rejected(self):
        data = json.loads(scenario_bytes("mia"))
        index = next(i for i, e in enumerate(data["effects"]) if e.get("requestDerived"))
        effect = data["effects"][index]
        effect["requestDerivd"] = effect.pop("requestDerived")
        with pytest.raises(ScenarioError) as err:
            load_scenario(json.dumps(data).encode("utf-8"))
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == f"effects[{index}]: unknown key 'requestDerivd'"

    @pytest.mark.parametrize("where, overrides", [
        ("groups[0]", {"groups": [{"id": "crowd", "kind": "patientGroup",
                                   "patientKind": "human", "cardinality": 3,
                                   "extra": 1}]}),
        ("actions[0]", {"actions": [{"id": "A1", "extra": 1}, "A2"]}),
        ("deontics[0]", {"deontics": [{"action": "A2", "specification": "lie",
                                       "holds": True, "target": AGENT, "extra": 1}]}),
        ("request", {"request": {"requester": AGENT, "influenceKind": "substance",
                                 "influenceLevel": 10, "requestedAction": "A1",
                                 "extra": 1}}),
    ], ids=["group", "action", "deontic", "request"])
    def test_unknown_nested_key(self, where, overrides):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(**overrides))
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == f"{where}: unknown key 'extra'"

    def test_request_derived_must_be_boolean(self):
        broken = doc(effects=[{"action": "A1", "specification": "s",
                               "direction": "increase", "target": "crowd",
                               "requestDerived": "false"}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == PARSE_ERROR

    def test_description_must_be_string(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc(actions=[{"id": "A1", "description": 5}, "A2"]))
        assert err.value.code == PARSE_ERROR

    def test_bad_direction(self):
        broken = doc(effects=[{"action": "A1", "specification": "s",
                               "direction": "sideways", "target": "crowd"}])
        with pytest.raises(ScenarioError) as err:
            load_scenario(broken)
        assert err.value.code == PARSE_ERROR


class TestEmitScenario:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_load_emit_idempotent(self, name):
        first = load_scenario(scenario_bytes(name))
        emitted = emit_scenario(first)
        assert load_scenario(emitted) == first
        assert emit_scenario(load_scenario(emitted)) == emitted

    def test_comment_dropped_on_emit(self):
        emitted = emit_scenario(load_scenario(doc(comment="gone")))
        assert b"comment" not in emitted

    @settings(deadline=None)
    @given(group_scenarios())
    def test_round_trip_generated(self, scenario):
        assert load_scenario(emit_scenario(scenario)) == scenario


class TestValidateAgainstTheory:
    def test_mia_egoism_warning_free(self, theories, scenarios):
        report = validate_scenario_against_theory(scenarios["mia"],
                                                  theories["mia-egoism"])
        assert report.ok

    def test_trolley_dct_clean(self, theories, scenarios):
        report = validate_scenario_against_theory(scenarios["trolley"],
                                                  theories["trainco-dct"])
        assert report.ok

    def test_agent_mismatch_is_an_error(self, theories, scenarios):
        import dataclasses
        other = dataclasses.replace(scenarios["mia"], actingFor="Bob")
        report = validate_scenario_against_theory(other, theories["mia-egoism"])
        assert AGENT_MISMATCH in report.codes()

    @pytest.mark.parametrize("case", SCENARIO_NAMES)
    def test_fixtures_have_no_errors_under_their_theories(self, case, theories,
                                                          scenarios):
        for theory_name in CASE_THEORIES[case]:
            report = validate_scenario_against_theory(scenarios[case],
                                                      theories[theory_name])
            assert AGENT_MISMATCH not in report.codes(), (case, theory_name)
