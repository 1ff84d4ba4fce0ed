from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings

from genet.model import GenetError, PatientKind
from genet.scenario import (
    AGENT,
    AGENT_MISMATCH,
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    EXCLUDED_PATIENT_KIND,
    MAX_CARDINALITY,
    PARSE_ERROR,
    RANGE_ERROR,
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
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == DANGLING_REFERENCE

    def test_dangling_action(self):
        broken = doc(deontics=[{"action": "A9", "specification": "lie",
                                "holds": False, "target": AGENT}])
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == DANGLING_REFERENCE

    @pytest.mark.parametrize("request_, message", [
        ({"requester": "ghost", "requestedAction": "A1"},
         "request: unknown requester 'ghost'"),
        ({"requester": AGENT, "requestedAction": "A9"}, "request: unknown action 'A9'"),
    ], ids=["requester", "requested-action"])
    def test_dangling_request(self, request_, message):
        broken = doc(request={"influenceKind": "substance", "influenceLevel": 10,
                              **request_})
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert (err.value.code, str(err.value)) == (DANGLING_REFERENCE, message)

    @pytest.mark.parametrize("value, message", [
        (None, "groups[0]: missing key 'patientKind'"),
        (5, "groups[0]: key 'patientKind' must be str"),
        ("robot", "groups[0]: 'robot' is not a valid PatientKind"),
    ], ids=["missing", "int", "robot"])
    def test_bad_group_patient_kind_names_its_group_once(self, value, message):
        data = json.loads(scenario_bytes("trolley"))
        if value is None:
            del data["groups"][0]["patientKind"]
        else:
            data["groups"][0]["patientKind"] = value
        with pytest.raises(GenetError) as err:
            load_scenario(json.dumps(data).encode("utf-8"))
        assert (err.value.code, str(err.value)) == (PARSE_ERROR, message)
        assert err.value.report.violations[0].path == "groups[0].patientKind"

    def test_duplicate_action_id(self):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(actions=["A1", "A1"], effects=[], deontics=[]))
        assert err.value.code == DUPLICATE_ID

    def test_agent_is_a_reserved_group_id(self):
        broken = doc(groups=[{"id": AGENT, "kind": "patientGroup",
                              "patientKind": "human", "cardinality": 1}],
                     effects=[], deontics=[])
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == DUPLICATE_ID

    def test_cardinality_below_one(self):
        broken = doc(groups=[{"id": "crowd", "kind": "patientGroup",
                              "patientKind": "human", "cardinality": 0}])
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == RANGE_ERROR

    @pytest.mark.parametrize("cardinality", [MAX_CARDINALITY + 1, int("9" * 4300)],
                             ids=["ceiling+1", "4300-nines"])
    def test_cardinality_above_the_ceiling(self, cardinality):
        # A score summed from 4,300-digit cardinalities cannot be printed.
        broken = doc(groups=[{"id": "crowd", "kind": "patientGroup",
                              "patientKind": "human", "cardinality": cardinality}])
        with pytest.raises(GenetError) as err:
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
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == RANGE_ERROR

    def test_fewer_than_two_actions(self):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(actions=["A1"], effects=[], deontics=[]))
        assert err.value.code == RANGE_ERROR

    @pytest.mark.parametrize("text, key", [
        (b'{"scenario": "a", "scenario": "b"}', "scenario"),
        (doc().replace(b'"cardinality": 3', b'"cardinality": 3, "cardinality": 4'),
         "cardinality"),
    ], ids=["document", "group"])
    def test_repeated_key_is_rejected(self, text, key):
        # json.loads alone would keep the last value.
        with pytest.raises(GenetError) as err:
            load_scenario(text)
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == f"not valid JSON: duplicate key {key!r}"

    def test_first_repeat_in_a_large_object_is_named_in_one_pass(self):
        # 200,000 keys, then k7 and k1 again: the earliest second occurrence
        # is named. Finding it used to take time quadratic in the key count.
        keys = [f'"k{i}": 0' for i in range(200_000)] + ['"k7": 0', '"k1": 0']
        start = time.perf_counter()
        with pytest.raises(GenetError) as err:
            load_scenario(("{" + ", ".join(keys) + "}").encode("utf-8"))
        assert time.perf_counter() - start < 5
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == "not valid JSON: duplicate key 'k7'"

    @pytest.mark.parametrize("where, overrides", [
        ("groups[0].id", lambda t: {"groups": [{"id": t, "kind": "patientGroup",
                                                "patientKind": "human",
                                                "cardinality": 3}],
                                    "effects": []}),
        ("actions[0]", lambda t: {"actions": [t, "A2"], "effects": []}),
        ("actions[0].id", lambda t: {"actions": [{"id": t}, "A2"], "effects": []}),
        ("effects[0].specification",
         lambda t: {"effects": [{"action": "A1", "specification": t,
                                 "direction": "increase", "target": "crowd"}]}),
        ("deontics[0].specification",
         lambda t: {"deontics": [{"action": "A2", "specification": t,
                                  "holds": True, "target": AGENT}]}),
    ], ids=["group-id", "action-id", "action-object-id", "effect-specification",
            "deontic-specification"])
    def test_whitespace_in_a_token_is_a_parse_error(self, where, overrides):
        # Every character str.isspace() accepts, leading, inner or trailing,
        # and the empty token; U+200B ZERO WIDTH SPACE is not whitespace. XML
        # cannot carry \x0b, \x0c or \x1c-\x1f, so the JSON reader rejects those.
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        for token in ([""] + [f"{c}a" for c in spaces] + [f"a{c}b" for c in spaces]
                      + [f"a{c}" for c in spaces]):
            with pytest.raises(GenetError) as err:
                load_scenario(doc(**overrides(token)))
            message = (f"{where}: must be a non-empty whitespace-free token"
                       if not set(token) & set("\x0b\x0c\x1c\x1d\x1e\x1f") else
                       f"not valid JSON: string {token!r} holds a character that XML 1.0 "
                       f"cannot carry")
            assert (err.value.code, str(err.value)) == (PARSE_ERROR, message)
        load_scenario(doc(**overrides("a\u200bb")))

    def test_unknown_top_level_key(self):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(extra=1))
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == "document: unknown key 'extra'"

    def test_top_level_must_be_an_object(self):
        with pytest.raises(GenetError) as err:
            load_scenario(b"[]")
        assert (err.value.code, str(err.value)) == (PARSE_ERROR,
                                                    "document: must be an object")

    def test_comment_key_tolerated(self):
        assert load_scenario(doc(comment="authoring note")).name == "toy"

    def test_not_json(self):
        with pytest.raises(GenetError) as err:
            load_scenario(b"not json at all {")
        assert err.value.code == PARSE_ERROR

    @pytest.mark.parametrize("broken", [
        b"[" * 100_000,
        b'{"x": ' * 100_000,
        doc().replace(b'"cardinality": 3', b'"cardinality": ' + b"1" * 4400),
    ], ids=["deep-lists", "deep-objects", "4400-digit-integer"])
    def test_undecodable_depth_and_size_are_parse_errors(self, broken):
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == PARSE_ERROR
        assert str(err.value).startswith("not valid JSON: ")

    def test_misspelt_request_derived_is_rejected(self):
        data = json.loads(scenario_bytes("mia"))
        index = next(i for i, e in enumerate(data["effects"]) if e.get("requestDerived"))
        effect = data["effects"][index]
        effect["requestDerivd"] = effect.pop("requestDerived")
        with pytest.raises(GenetError) as err:
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
        with pytest.raises(GenetError) as err:
            load_scenario(doc(**overrides))
        assert err.value.code == PARSE_ERROR
        assert str(err.value) == f"{where}: unknown key 'extra'"

    def test_request_derived_must_be_boolean(self):
        broken = doc(effects=[{"action": "A1", "specification": "s",
                               "direction": "increase", "target": "crowd",
                               "requestDerived": "false"}])
        with pytest.raises(GenetError) as err:
            load_scenario(broken)
        assert err.value.code == PARSE_ERROR

    def test_description_must_be_string(self):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(actions=[{"id": "A1", "description": 5}, "A2"]))
        assert err.value.code == PARSE_ERROR

    def test_bad_direction(self):
        broken = doc(effects=[{"action": "A1", "specification": "s",
                               "direction": "sideways", "target": "crowd"}])
        with pytest.raises(GenetError) as err:
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
        other = scenarios["mia"]._replace(actingFor="Bob")
        report = validate_scenario_against_theory(other, theories["mia-egoism"])
        assert AGENT_MISMATCH in report.codes()

    def test_excluded_patient_kind_is_a_warning(self, theories):
        data = json.loads(scenario_bytes("trolley"))
        data["groups"][1]["patientKind"] = "otherSentient"
        scenario = load_scenario(json.dumps(data).encode("utf-8"))
        report = validate_scenario_against_theory(scenario, theories["trainco-dct"])
        assert [(v.code, v.path, v.message) for v in report.violations] == [(
            EXCLUDED_PATIENT_KIND, "groups[1]",
            "group 'worker' has patient kind 'otherSentient', which the theory "
            "excludes; its effects will carry weight 0")]

    @pytest.mark.parametrize("case", SCENARIO_NAMES)
    def test_fixtures_have_no_errors_under_their_theories(self, case, theories,
                                                          scenarios):
        for theory_name in CASE_THEORIES[case]:
            report = validate_scenario_against_theory(scenarios[case],
                                                      theories[theory_name])
            assert AGENT_MISMATCH not in report.codes(), (case, theory_name)
