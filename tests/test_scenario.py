from __future__ import annotations

import hashlib
import json
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import genet.scenario
from genet.model import GenetError, PatientKind, load_json
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
from .conftest import CASE_THEORIES, SCENARIO_NAMES, load_synth, scenario_bytes
from .strategies import group_scenarios, theory_scenarios
from .test_mutations import mutants

MISSING = object()  # a key left out of the document


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

    @pytest.mark.parametrize("key, value, message", [
        *(pytest.param(key, MISSING, f"document: missing key {key!r}", id=f"{key}-missing")
          for key in ("scenario", "actingFor", "groups", "actions", "effects",
                      "deontics")),
        *(pytest.param(key, value, f"document: key {key!r} must be {kind}",
                       id=f"{key}-{value!r}")
          for key, value, kind in (("scenario", 5, "str"), ("actingFor", None, "str"),
                                   ("groups", {}, "list"), ("actions", "A1", "list"),
                                   ("effects", {}, "list"), ("deontics", None, "list"),
                                   ("request", None, "dict"), ("request", [], "dict"))),
    ])
    def test_top_level_keys_are_required_and_typed(self, key, value, message):
        data = json.loads(doc())
        if value is MISSING:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(GenetError) as err:
            load_scenario(json.dumps(data).encode("utf-8"))
        assert (err.value.code, str(err.value)) == (PARSE_ERROR, message)
        assert [v.path for v in err.value.report.violations] == [f"document.{key}"]

    def test_top_level_faults_come_before_nested_ones(self):
        broken = json.loads(doc(effects={}))
        del broken["groups"][0]["cardinality"]
        with pytest.raises(GenetError) as err:
            load_scenario(json.dumps(broken).encode("utf-8"))
        assert str(err.value) == "document: key 'effects' must be list"

    def test_comment_key_tolerated(self):
        # A comment of any JSON type is read past.
        for comment in ("authoring note", 5, 1.5, True, None, [1], {"a": 1}):
            assert load_scenario(doc(comment=comment)) == load_scenario(doc())

    def test_not_json(self):
        with pytest.raises(GenetError) as err:
            load_scenario(b"not json at all {")
        assert err.value.code == PARSE_ERROR

    @pytest.mark.parametrize("broken", [
        b"[" * 100_000,
        b'{"x": ' * 100_000,
        doc().replace(b'"cardinality": 3', b'"cardinality": ' + b"1" * 4400),
        # Python's decoder takes these, and reads a typed field as mistyped.
        doc().replace(b'"cardinality": 3', b'"cardinality": NaN'),
        doc(comment=[float("inf"), float("-inf")]),
    ], ids=["deep-lists", "deep-objects", "4400-digit-integer", "nan-cardinality",
            "infinite-comment"])
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
        assert err.value.report.violations[0].path == "effects[0].direction"

    @pytest.mark.parametrize("overrides, path", [
        ({"groups": [{"id": "crowd", "kind": "bystanders", "patientKind": "human",
                      "cardinality": 3}]}, "groups[0].kind"),
        ({"request": {"requester": "Bob", "influenceKind": "bribe",
                      "influenceLevel": 10, "requestedAction": "A1"}},
         "request.influenceKind"),
    ], ids=["group-kind", "influence-kind"])
    def test_value_outside_its_set_is_reported_at_the_value(self, overrides, path):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(**overrides))
        assert [(v.code, v.path) for v in err.value.report.violations] == [
            (PARSE_ERROR, path)]


class TestEmitScenario:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_load_emit_idempotent(self, name):
        first = load_scenario(scenario_bytes(name))
        emitted = emit_scenario(first)
        assert load_scenario(emitted) == first
        assert emit_scenario(load_scenario(emitted)) == emitted

    @pytest.mark.parametrize("name, digest", [
        ("marijuana", "6d6aa6f4a30c3ba851f0d86c3aa2aefe7580a206be0921bb6278fb177468f849"),
        ("mia", "804d01b00e5dec40f1cdf27828867d19c0d048c94644d4f87e7301ed15021c13"),
        ("trolley", "ffd60e33202ae9c1af8a8e31eb0a7259c080ee317fc4f5fde1f92d9107d96813"),
    ], ids=["marijuana", "mia", "trolley"])
    def test_emitted_bytes_are_pinned(self, name, digest):
        # The round trips hold for any fixed key order; this pins the order.
        emitted = emit_scenario(load_scenario(scenario_bytes(name)))
        assert hashlib.sha256(emitted).hexdigest() == digest

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


def _outcome(doc: bytes):
    """What load_scenario gives: the Scenario, or the code and findings of the
    GenetError it raises. As a repr, which tells True from 1."""
    try:
        return repr(load_scenario(doc))
    except GenetError as exc:
        return repr((exc.code, str(exc), exc.report))


def _straight_path(doc: bytes) -> bool:
    """Whether ``_bulk`` reads a document's effects and deontics and the document
    loads. Checks its one rule on the way: load_scenario's outcome is that of the
    rows alone, and ``_bulk`` gives up or gives exactly the lists the rows build."""
    bulk, read = genet.scenario._bulk, []
    with mock.patch.object(genet.scenario, "_bulk", lambda *args: None):
        rows = _outcome(doc)
    with mock.patch.object(genet.scenario, "_bulk",
                           lambda *args: read.append(bulk(*args)) or read[0]):
        assert _outcome(doc) == rows, doc
    if not read or read[0] is None:
        return False
    data, loads = load_json(doc), rows.startswith("Scenario(")
    if not loads:  # only the request is read after effects and deontics
        data.pop("request")
    with mock.patch.object(genet.scenario, "_bulk", lambda *args: None):
        built = load_scenario(json.dumps(data).encode("utf-8"))
    assert repr(read[0]) == repr((list(built.effects), list(built.deontics))), doc
    return loads


def _group(**overrides) -> dict:
    return {"id": "crowd", "kind": "patientGroup", "patientKind": "human",
            "cardinality": 3, **overrides}


def _effect(**overrides) -> dict:
    return {"action": "A1", "specification": "safetySatisfaction",
            "direction": "increase", "target": "crowd", **overrides}


def _deontic(**overrides) -> dict:
    return {"action": "A2", "specification": "lie", "holds": True, "target": AGENT,
            **overrides}


def _request(**overrides) -> dict:
    return {"requester": AGENT, "influenceKind": "substance", "influenceLevel": 10,
            "requestedAction": "A1", **overrides}


# Each a document that the rows accept or reject, by name: a value of the
# wrong type or outside its set, a null where a key may only be left out, a
# duplicate, reserved or dangling id, and values that cannot be hashed.
HAND_CASES = {
    "valid": {},
    "request-null": {"request": None},
    "request-valid": {"request": _request()},
    "description-null": {"actions": [{"id": "A1", "description": None}, "A2"]},
    "description": {"actions": [{"id": "A1", "description": "go"}, {"id": "A2"}]},
    "action-no-id": {"actions": [{"description": "go"}, "A2"]},
    "action-extra-key": {"actions": [{"id": "A1", "extra": 1}, "A2"]},
    "action-int": {"actions": [1, "A2"]},
    "one-action": {"actions": ["A1"], "effects": [], "deontics": []},
    "cardinality-true": {"groups": [_group(cardinality=True)]},
    "cardinality-false": {"groups": [_group(cardinality=False)]},
    "cardinality-zero": {"groups": [_group(cardinality=0)]},
    "cardinality-ceiling": {"groups": [_group(cardinality=MAX_CARDINALITY)]},
    "cardinality-over": {"groups": [_group(cardinality=MAX_CARDINALITY + 1)]},
    "cardinality-float": {"groups": [_group(cardinality=3.0)]},
    "patient-kind-robot": {"groups": [_group(patientKind="robot")]},
    "patient-kind-list": {"groups": [_group(patientKind=["human"])]},
    "group-kind": {"groups": [_group(kind="bystanders")]},
    "group-kind-list": {"groups": [_group(kind=[])]},
    "duplicate-group": {"groups": [_group(), _group()]},
    "duplicate-action": {"actions": ["A1", "A1"], "effects": [], "deontics": []},
    "duplicate-action-object": {"actions": ["A1", {"id": "A1"}, "A2"]},
    "reserved-group": {"groups": [_group(id=AGENT)], "effects": []},
    "group-id-space": {"groups": [_group(id="a crowd")], "effects": []},
    "action-id-empty": {"actions": ["", "A2"], "effects": []},
    "action-id-tab": {"actions": [{"id": "A1\t"}, "A2"], "effects": []},
    "effect-spec-space": {"effects": [_effect(specification="two words")]},
    "deontic-spec-empty": {"deontics": [_deontic(specification="")]},
    "effect-target-unknown": {"effects": [_effect(target="ghost")]},
    "effect-target-agent": {"effects": [_effect(target=AGENT)]},
    "effect-target-list": {"effects": [_effect(target=["crowd"])]},
    "effect-action-unknown": {"effects": [_effect(action="A9")]},
    "effect-action-dict": {"effects": [_effect(action={})]},
    "effect-direction": {"effects": [_effect(direction="sideways")]},
    "effect-derived": {"effects": [_effect(requestDerived=True)]},
    "effect-derived-null": {"effects": [_effect(requestDerived=None)]},
    "effect-derived-string": {"effects": [_effect(requestDerived="false")]},
    "effect-missing-target": {"effects": [{"action": "A1", "specification": "s",
                                           "direction": "increase"}]},
    "effect-extra-key": {"effects": [_effect(extra=1)]},
    "deontic-holds-int": {"deontics": [_deontic(holds=1)]},
    "deontic-target-unknown": {"deontics": [_deontic(target="ghost")]},
    "deontic-action-unknown": {"deontics": [_deontic(action="A9")]},
    "deontic-missing-holds": {"deontics": [{"action": "A2", "specification": "lie",
                                            "target": AGENT}]},
    "deontic-list": {"deontics": [["A2"]]},
    "request-requester-group": {"request": _request(requester="crowd")},
    "request-requester-unknown": {"request": _request(requester="ghost")},
    "request-requester-list": {"request": _request(requester=[])},
    "request-action-unknown": {"request": _request(requestedAction="A9")},
    "request-kind": {"request": _request(influenceKind="bribe")},
    "request-level-true": {"request": _request(influenceLevel=True)},
    "request-level-over": {"request": _request(influenceLevel=101)},
    "request-level-under": {"request": _request(influenceLevel=-1)},
    "request-missing-key": {"request": {"requester": AGENT, "influenceKind": "substance",
                                        "influenceLevel": 10}},
    "name-int": {"scenario": 5},
    "acting-for-null": {"actingFor": None},
    "groups-dict": {"groups": {}},
    "unknown-key": {"extra": 1},
    **{f"comment-{json.dumps(value)}": {"comment": value}
       for value in ("note", 5, 1.5, True, None, [1], {"a": 1})},
}


class TestStraightPath:
    """``_bulk`` reads the effects and deontics of scenario documents with nothing
    to report; the rows are the reference it must never contradict."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_paper_documents(self, name):
        assert _straight_path(scenario_bytes(name))
        assert _straight_path(emit_scenario(load_scenario(scenario_bytes(name))))

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(SCENARIO_NAMES).flatmap(
        lambda name: mutants(scenario_bytes(name))))
    def test_mutants(self, doc):
        _straight_path(doc)

    @settings(deadline=None, derandomize=True)
    @given(theory_scenarios())
    def test_generated_documents(self, pair):
        assert _straight_path(emit_scenario(pair[1]))

    @pytest.mark.parametrize("name", HAND_CASES)
    def test_hand_cases(self, name):
        # On these, the straight path takes every document the rows accept.
        text = doc(**HAND_CASES[name])
        try:
            load_scenario(text)
        except GenetError:
            assert not _straight_path(text)
        else:
            assert _straight_path(text)

    def test_top_level_must_be_an_object(self):
        for text in (b"[]", b"null", b"5", b'"x"'):
            assert not _straight_path(text)

    @pytest.mark.parametrize("mode", ["conseq", "deon"])
    def test_synthetic_benchmark_documents(self, mode):
        requests = load_synth().make_requests(mode, 1, 20)
        assert [r.name for r in requests if not _straight_path(r.scenario_doc)] == []


# The finding each rejected hand case gives: its code and its path.
HAND_CASE_FINDINGS = {
    "request-null": (PARSE_ERROR, "document.request"),
    "description-null": (PARSE_ERROR, "actions[0].description"),
    "action-no-id": (PARSE_ERROR, "actions[0].id"),
    "action-extra-key": (PARSE_ERROR, "actions[0]"),
    "action-int": (PARSE_ERROR, "actions[0]"),
    "one-action": (RANGE_ERROR, "actions"),
    "cardinality-true": (PARSE_ERROR, "groups[0].cardinality"),
    "cardinality-false": (PARSE_ERROR, "groups[0].cardinality"),
    "cardinality-zero": (RANGE_ERROR, "groups[0].cardinality"),
    "cardinality-over": (RANGE_ERROR, "groups[0].cardinality"),
    "cardinality-float": (PARSE_ERROR, "groups[0].cardinality"),
    "patient-kind-robot": (PARSE_ERROR, "groups[0].patientKind"),
    "patient-kind-list": (PARSE_ERROR, "groups[0].patientKind"),
    "group-kind": (PARSE_ERROR, "groups[0].kind"),
    "group-kind-list": (PARSE_ERROR, "groups[0].kind"),
    "duplicate-group": (DUPLICATE_ID, "groups"),
    "duplicate-action": (DUPLICATE_ID, "actions"),
    "duplicate-action-object": (DUPLICATE_ID, "actions"),
    "reserved-group": (DUPLICATE_ID, "groups"),
    "group-id-space": (PARSE_ERROR, "groups[0].id"),
    "action-id-empty": (PARSE_ERROR, "actions[0]"),
    "action-id-tab": (PARSE_ERROR, "actions[0].id"),
    "effect-spec-space": (PARSE_ERROR, "effects[0].specification"),
    "deontic-spec-empty": (PARSE_ERROR, "deontics[0].specification"),
    "effect-target-unknown": (DANGLING_REFERENCE, "effects[0].target"),
    "effect-target-list": (PARSE_ERROR, "effects[0].target"),
    "effect-action-unknown": (DANGLING_REFERENCE, "effects[0].action"),
    "effect-action-dict": (PARSE_ERROR, "effects[0].action"),
    "effect-direction": (PARSE_ERROR, "effects[0].direction"),
    "effect-derived-null": (PARSE_ERROR, "effects[0].requestDerived"),
    "effect-derived-string": (PARSE_ERROR, "effects[0].requestDerived"),
    "effect-missing-target": (PARSE_ERROR, "effects[0].target"),
    "effect-extra-key": (PARSE_ERROR, "effects[0]"),
    "deontic-holds-int": (PARSE_ERROR, "deontics[0].holds"),
    "deontic-target-unknown": (DANGLING_REFERENCE, "deontics[0].target"),
    "deontic-action-unknown": (DANGLING_REFERENCE, "deontics[0].action"),
    "deontic-missing-holds": (PARSE_ERROR, "deontics[0].holds"),
    "deontic-list": (PARSE_ERROR, "deontics[0]"),
    "request-requester-unknown": (DANGLING_REFERENCE, "request.requester"),
    "request-requester-list": (PARSE_ERROR, "request.requester"),
    "request-action-unknown": (DANGLING_REFERENCE, "request.requestedAction"),
    "request-kind": (PARSE_ERROR, "request.influenceKind"),
    "request-level-true": (PARSE_ERROR, "request.influenceLevel"),
    "request-level-over": (RANGE_ERROR, "request.influenceLevel"),
    "request-level-under": (RANGE_ERROR, "request.influenceLevel"),
    "request-missing-key": (PARSE_ERROR, "request.requestedAction"),
    "name-int": (PARSE_ERROR, "document.scenario"),
    "acting-for-null": (PARSE_ERROR, "document.actingFor"),
    "groups-dict": (PARSE_ERROR, "document.groups"),
    "unknown-key": (PARSE_ERROR, "document"),
}


class TestWhichFindingIsReported:
    """A document with more than one fault reports the first in the rows'
    order: see README, "Scenario JSON format"."""

    @pytest.mark.parametrize("name", HAND_CASES)
    def test_hand_cases(self, name):
        try:
            load_scenario(doc(**HAND_CASES[name]))
        except GenetError as err:
            assert [(v.code, v.path) for v in err.report.violations] == [
                HAND_CASE_FINDINGS[name]]
        else:
            assert name not in HAND_CASE_FINDINGS

    @pytest.mark.parametrize("overrides, finding", [
        ({"request": _request(requester="ghost", requestedAction="A9")},
         (DANGLING_REFERENCE, "request.requester", "request: unknown requester 'ghost'")),
        ({"actions": ["A1"], "groups": [_group(), _group()]},
         (RANGE_ERROR, "actions", "a scenario needs at least 2 actions")),
        ({"effects": [_effect(action="A9", target="ghost")]},
         (DANGLING_REFERENCE, "effects[0].action", "effects[0]: unknown action 'A9'")),
        ({"effects": [_effect(target="ghost"), _effect(direction="sideways")]},
         (DANGLING_REFERENCE, "effects[0].target", "effects[0]: unknown target 'ghost'")),
        ({"effects": [_effect(direction="sideways"), _effect(target="ghost")]},
         (PARSE_ERROR, "effects[0].direction",
          "effects[0]: 'sideways' not one of ('increase', 'decrease')")),
        ({"actions": ["A1", "A1", "A2"], "effects": [_effect(target="ghost")]},
         (DUPLICATE_ID, "actions", "duplicate action ids: ['A1']")),
        ({"groups": [_group(kind="x", cardinality=0)]},
         (RANGE_ERROR, "groups[0].cardinality",
          f"groups[0]: cardinality must be between 1 and {MAX_CARDINALITY}")),
        ({"effects": [_effect(target="ghost")], "request": _request(requester="ghost")},
         (DANGLING_REFERENCE, "effects[0].target", "effects[0]: unknown target 'ghost'")),
        ({"deontics": [_deontic(target="ghost")], "request": _request(requester="ghost")},
         (DANGLING_REFERENCE, "deontics[0].target",
          "deontics[0]: unknown target 'ghost'")),
    ], ids=["requester-before-requested-action", "action-count-before-duplicates",
            "action-before-target", "target-before-a-later-effect",
            "fields-before-a-later-target", "duplicates-before-effects",
            "cardinality-before-kind", "effects-before-request",
            "deontics-before-request"])
    def test_two_faults(self, overrides, finding):
        with pytest.raises(GenetError) as err:
            load_scenario(doc(**overrides))
        code, path, message = finding
        assert (err.value.code, str(err.value)) == (code, message)
        assert [(v.code, v.path) for v in err.value.report.violations] == [(code, path)]
