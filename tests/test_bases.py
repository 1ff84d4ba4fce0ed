from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import genet
from genet.bases import (
    BASE_DIR_ENV,
    BaseTheoryTemplate,
    InstantiationError,
    Mutability,
    PrincipleEdit,
    UnknownBaseTheoryError,
    check_conformance,
    instantiate,
    load_registry,
    reachable,
)
from genet.model import (
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    validate_instance,
)
from genet.xmlio import parse_theory
from .conftest import theory_bytes

MASLOW = ["physiologySatisfaction", "safetySatisfaction", "loveSatisfaction",
          "esteemSatisfaction", "selfActualisationSatisfaction"]
DOE = MoralAgent("Doe Family", "http://thedoes.fam")
THRESH = InfluenceThresholds(external=50, substance=30)
BUILTIN_DIR = Path(genet.__file__).parent / "data" / "bases"


def base(registry, name):
    return registry.get(name)


class TestBuiltinBases:
    def test_exactly_four(self):
        assert load_registry().names() == [
            "ChristianDivineCommandTheory", "Kantianism", "egoism",
            "utilitarianism"]

    def test_utilitarianism(self, registry):
        util = base(registry, "utilitarianism")
        assert util.consequentiality is True
        assert util.fixedPatientKinds == frozenset({PatientKind.HUMAN})
        assert util.mutability is Mutability.REMOVE
        assert [p.specification for p in util.defaultPrinciples] == MASLOW
        assert all(p.morality and p.subject is Subject.ALL
                   for p in util.defaultPrinciples)

    def test_egoism(self, registry):
        ego = base(registry, "egoism")
        assert ego.consequentiality is True
        assert ego.mutability is Mutability.ALL
        assert [p.specification for p in ego.defaultPrinciples] == MASLOW
        assert all(p.subject is Subject.AGENT for p in ego.defaultPrinciples)

    def test_dct(self, registry):
        dct = base(registry, "ChristianDivineCommandTheory")
        assert dct.consequentiality is False
        assert dct.fixedPatientKinds == frozenset(
            {PatientKind.HUMAN, PatientKind.OTHER_ANIMAL, PatientKind.NATURE})
        assert dct.mutability is Mutability.ADD
        by_spec = {p.specification: p for p in dct.defaultPrinciples}
        assert set(by_spec) == {"blasphemy", "respectParents", "kill",
                                "adultery", "theft", "lie"}
        assert by_spec["respectParents"].morality is True
        # The commandment listing has kill addressed to patients.
        assert by_spec["kill"].subject is Subject.PATIENTS
        assert by_spec["kill"].morality is False

    def test_kantianism(self, registry):
        kant = base(registry, "Kantianism")
        assert kant.consequentiality is False
        assert kant.mutability is Mutability.NONE
        assert [(p.specification, p.morality, p.subject)
                for p in kant.defaultPrinciples] == [
            ("universallyWillable", True, Subject.ALL),
            ("mereMeans", False, Subject.ALL)]

    def test_free_fields(self, registry):
        for name in ("utilitarianism", "egoism", "Kantianism",
                     "ChristianDivineCommandTheory"):
            assert set(base(registry, name).freeFields) >= {
                "agent", "influenceThresholds", "instanceName"}


class TestLoadRegistry:
    def test_base_dir_argument(self, tmp_path):
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)
        assert load_registry(base_dir=tmp_path).names() == ["egoism"]

    def test_base_dir_environment_variable(self, tmp_path, monkeypatch):
        shutil.copy(BUILTIN_DIR / "Kantianism.json", tmp_path)
        monkeypatch.setenv(BASE_DIR_ENV, str(tmp_path))
        assert load_registry().names() == ["Kantianism"]

    @pytest.mark.parametrize("via_env", [False, True])
    def test_malformed_template_names_its_file(self, tmp_path, monkeypatch, via_env):
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)
        (tmp_path / "broken.json").write_text('{"name": "broken"}')
        if via_env:
            monkeypatch.setenv(BASE_DIR_ENV, str(tmp_path))
        with pytest.raises(ValueError, match="broken.json"):
            load_registry(None if via_env else tmp_path)

    @pytest.mark.parametrize("field", ["morality", "consequentiality"])
    def test_booleans_are_not_coerced(self, tmp_path, field):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        owner = data["defaultPrinciples"][0] if field == "morality" else data
        owner[field] = "false"
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="malformed base-theory template"):
            load_registry(base_dir=tmp_path)


    def test_invalid_json_names_its_file(self, tmp_path):
        (tmp_path / "broken.json").write_text('{"name": ')
        with pytest.raises(ValueError, match=r"malformed base-theory template "
                                             r".*broken\.json: "):
            load_registry(base_dir=tmp_path)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"name": ' * 100_000],
                             ids=["deep-lists", "deep-objects"])
    def test_deep_nesting_names_its_file(self, tmp_path, text):
        (tmp_path / "deep.json").write_text(text)
        with pytest.raises(ValueError, match=r"malformed base-theory template "
                                             r".*deep\.json: "):
            load_registry(base_dir=tmp_path)

    def test_directory_entry_names_itself(self, tmp_path):
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(ValueError, match=r"cannot read base-theory template "
                                             r".*dir\.json: ") as err:
            load_registry(base_dir=tmp_path)
        assert type(err.value) is ValueError

    def test_misspelt_key_is_rejected(self, tmp_path):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        data["fixedPatientKind"] = data.pop("fixedPatientKinds")
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown key 'fixedPatientKind'"):
            load_registry(base_dir=tmp_path)

    @pytest.mark.parametrize("path, value", [
        (("name",), 5), (("mutability",), True), (("fixedPatientKinds",), "human"),
        (("fixedPatientKinds",), None), (("freeFields",), "agent"),
        (("freeFields",), [5]), (("defaultPrinciples",), {}),
        (("defaultPrinciples",), []),
        (("defaultPrinciples", 0), "x"), (("defaultPrinciples", 0, "subject"), 5),
        (("defaultPrinciples", 0, "specification"), 5),
        (("defaultPrinciples", 0, "weight"), 1)],
        ids=lambda arg: ".".join(map(str, arg)) if isinstance(arg, tuple) else repr(arg))
    def test_values_are_type_checked(self, tmp_path, path, value):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match="malformed base-theory template"):
            load_registry(base_dir=tmp_path)


class TestInstantiate:
    def test_doe_utilitarianism_matches_listing(self, registry):
        instance = instantiate(base(registry, "utilitarianism"), agent=DOE,
                               thresholds=THRESH,
                               instanceName="Doe family's utilitarianism")
        assert instance == parse_theory(theory_bytes("doe-utilitarianism"))

    def test_remove_love(self, registry):
        instance = instantiate(
            base(registry, "utilitarianism"), agent=DOE, thresholds=THRESH,
            instanceName="loveless utilitarianism",
            edits=[PrincipleEdit.remove(
                MoralPrinciple(True, Subject.ALL, "loveSatisfaction"))])
        assert len(instance.principles) == 4
        assert validate_instance(instance).ok
        assert "loveSatisfaction" not in {p.specification
                                          for p in instance.principles}

    def test_kantianism_rejects_any_edit(self, registry):
        kant = base(registry, "Kantianism")
        for edit in (PrincipleEdit.add(MoralPrinciple(True, Subject.ALL, "foo")),
                     PrincipleEdit.remove(
                         MoralPrinciple(False, Subject.ALL, "mereMeans"))):
            with pytest.raises(InstantiationError) as err:
                instantiate(kant, agent=DOE, thresholds=THRESH, edits=[edit])
            assert err.value.code == "MUTABILITY_VIOLATION"

    def test_utilitarianism_rejects_add(self, registry):
        with pytest.raises(InstantiationError) as err:
            instantiate(base(registry, "utilitarianism"), agent=DOE,
                        thresholds=THRESH,
                        edits=[PrincipleEdit.add(
                            MoralPrinciple(True, Subject.ALL, "thrift"))])
        assert err.value.code == "MUTABILITY_VIOLATION"

    def test_dct_rejects_remove_accepts_add(self, registry):
        dct = base(registry, "ChristianDivineCommandTheory")
        added = instantiate(dct, agent=DOE, thresholds=THRESH,
                            edits=[PrincipleEdit.add(
                                MoralPrinciple(False, Subject.PATIENTS, "usury"))])
        assert len(added.principles) == 7
        with pytest.raises(InstantiationError) as err:
            instantiate(dct, agent=DOE, thresholds=THRESH,
                        edits=[PrincipleEdit.remove(
                            MoralPrinciple(False, Subject.PATIENTS, "kill"))])
        assert err.value.code == "MUTABILITY_VIOLATION"

    def test_removing_everything_is_rejected(self, registry):
        util = base(registry, "utilitarianism")
        edits = [PrincipleEdit.remove(MoralPrinciple(True, Subject.ALL, s))
                 for s in MASLOW]
        with pytest.raises(InstantiationError) as err:
            instantiate(util, agent=DOE, thresholds=THRESH, edits=edits)
        assert err.value.code == "EMPTY_PRINCIPLES"

    def test_unknown_removal(self, registry):
        with pytest.raises(InstantiationError) as err:
            instantiate(base(registry, "utilitarianism"), agent=DOE,
                        thresholds=THRESH,
                        edits=[PrincipleEdit.remove(
                            MoralPrinciple(True, Subject.ALL, "nosuch"))])
        assert err.value.code == "UNKNOWN_REMOVAL"

    def test_fixed_patient_kinds_enforced(self, registry):
        with pytest.raises(InstantiationError) as err:
            instantiate(base(registry, "utilitarianism"), agent=DOE,
                        thresholds=THRESH,
                        patientKinds=frozenset({PatientKind.NATURE}))
        assert err.value.code == "FIXED_FIELD_VIOLATION"

    def test_business_egoism_replacement(self, registry):
        # Egoism for a business: replace the personal-preference defaults
        # with the triple bottom line wholesale.
        ego = base(registry, "egoism")
        edits = [PrincipleEdit.remove(MoralPrinciple(True, Subject.AGENT, s))
                 for s in MASLOW]
        edits += [PrincipleEdit.add(MoralPrinciple(True, Subject.AGENT, s))
                  for s in ("socialWelfare", "environmentalProtection",
                            "profitPerpetuation")]
        instance = instantiate(ego, agent=MoralAgent("Train Company"),
                               thresholds=InfluenceThresholds(0, 50),
                               instanceName="Train Company's egoism",
                               edits=edits)
        assert [p.specification for p in instance.principles] == [
            "socialWelfare", "environmentalProtection", "profitPerpetuation"]
        assert check_conformance(instance, registry).conformant

    def test_base_fields_copied_verbatim(self, registry):
        for template in map(registry.get, registry.names()):
            instance = instantiate(template, agent=DOE, thresholds=THRESH)
            assert instance.baseTheory == template.name
            assert instance.consequentiality == template.consequentiality
            assert instance.patientKinds == template.fixedPatientKinds


class TestCheckConformance:
    def test_mia_kantianism_listing(self, registry):
        instance = parse_theory(theory_bytes("mia-kantianism"))
        assert check_conformance(instance, registry).conformant

    def test_all_shipped_theories_conform(self, registry):
        from .conftest import THEORY_NAMES
        for name in THEORY_NAMES:
            report = check_conformance(parse_theory(theory_bytes(name)), registry)
            assert report.conformant, (name, report.codes())

    def test_kantianism_with_extra_principle(self, registry):
        instance = parse_theory(theory_bytes("mia-kantianism"))
        extra = dataclasses.replace(
            instance,
            principles=instance.principles
            + (MoralPrinciple(True, Subject.ALL, "charity"),))
        assert check_conformance(extra, registry).codes() == ["NOT_REACHABLE"]

    def test_dct_missing_kill(self, registry):
        instance = parse_theory(theory_bytes("trainco-dct"))
        pruned = dataclasses.replace(
            instance,
            principles=tuple(p for p in instance.principles
                             if p.specification != "kill"))
        assert check_conformance(pruned, registry).codes() == ["NOT_REACHABLE"]

    def test_unknown_base_theory(self, registry):
        instance = dataclasses.replace(
            parse_theory(theory_bytes("mia-kantianism")),
            baseTheory="Contractualism")
        with pytest.raises(UnknownBaseTheoryError):
            check_conformance(instance, registry)

    def test_consequentiality_mismatch(self, registry):
        instance = dataclasses.replace(
            parse_theory(theory_bytes("mia-kantianism")), consequentiality=True)
        assert "CONSEQUENTIALITY_MISMATCH" in \
            check_conformance(instance, registry).codes()

    def test_none_templates_admit_one_list(self, registry):
        kant = base(registry, "Kantianism")
        assert reachable(kant, kant.defaultPrinciples)
        flipped = (dataclasses.replace(kant.defaultPrinciples[0], morality=False),
                   kant.defaultPrinciples[1])
        assert not reachable(kant, flipped)


# --- reachability properties -------------------------------------------------

EXTRA_POOL = [MoralPrinciple(m, s, spec)
              for spec in ("alpha", "beta")
              for s in (Subject.ALL, Subject.AGENT)
              for m in (True, False)][:6]


@st.composite
def legal_edit_lists(draw, registry):
    name = draw(st.sampled_from(["utilitarianism", "egoism", "Kantianism",
                                 "ChristianDivineCommandTheory"]))
    template = registry.get(name)
    edits: list[PrincipleEdit] = []
    current = list(template.defaultPrinciples)
    may_add = template.mutability in (Mutability.ADD, Mutability.ALL)
    may_remove = template.mutability in (Mutability.REMOVE, Mutability.ALL)
    for _ in range(draw(st.integers(0, 6))):
        keys = {(p.specification, p.subject) for p in current}
        addable = [p for p in EXTRA_POOL
                   if (p.specification, p.subject) not in keys] if may_add else []
        removable = list(current) if may_remove and len(current) > 1 else []
        options = ([("add", p) for p in addable]
                   + [("remove", p) for p in removable])
        if not options:
            break
        kind, principle = draw(st.sampled_from(options))
        if kind == "add":
            edits.append(PrincipleEdit.add(principle))
            current.append(principle)
        else:
            edits.append(PrincipleEdit.remove(principle))
            current.remove(principle)
    return template, edits


class TestReachability:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_accepted_edit_lists_conform(self, registry, data):
        template, edits = data.draw(legal_edit_lists(registry))
        instance = instantiate(template, agent=DOE, thresholds=THRESH,
                               edits=edits)
        assert check_conformance(instance, registry).conformant

    @pytest.mark.parametrize("mutability", list(Mutability))
    def test_agrees_with_brute_force_up_to_eight(self, mutability):
        # Independent oracle: breadth-first search over every legal
        # single-edit step within a small closed principle universe.
        universe = tuple(MoralPrinciple(True, Subject.ALL, f"p{i}")
                         for i in range(5))
        defaults = universe[:3]
        template = BaseTheoryTemplate(
            name="toy", consequentiality=True, defaultPrinciples=defaults,
            mutability=mutability,
            fixedPatientKinds=frozenset({PatientKind.HUMAN}))

        may_add = mutability in (Mutability.ADD, Mutability.ALL)
        may_remove = mutability in (Mutability.REMOVE, Mutability.ALL)
        start = frozenset(defaults)
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            steps = []
            if may_add:
                steps += [state | {p} for p in universe if p not in state]
            if may_remove:
                steps += [state - {p} for p in state]
            for nxt in steps:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        brute_reachable = {s for s in seen if s}

        for size in range(0, len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                expected = frozenset(combo) in brute_reachable
                assert reachable(template, combo) == expected, (mutability, combo)
