from __future__ import annotations

import itertools
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import genet
from genet.bases import (
    BASE_DIR_ENV,
    TEMPLATE_ERROR,
    BaseTheoryTemplate,
    Mutability,
    check_conformance,
    instantiate,
    load_registry,
    reachable,
)
from genet.cli import main
from genet.model import (
    GenetError,
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
MISSING = object()  # a key left out of the document


def base(registry, name):
    return registry.get(name)


def refusal(err) -> list[tuple[str, str, str]]:
    """The (code, path, message) findings of a refused instantiation."""
    return [(v.code, v.path, v.message) for v in err.value.report.violations]


# `genet bases show egoism`, whole.
EGOISM_SHOW = """\
name: egoism
consequentiality: true
fixedPatientKinds: human
mutability: all
defaultPrinciples:
  morality=true subject=agent specification=physiologySatisfaction
  morality=true subject=agent specification=safetySatisfaction
  morality=true subject=agent specification=loveSatisfaction
  morality=true subject=agent specification=esteemSatisfaction
  morality=true subject=agent specification=selfActualisationSatisfaction
freeFields: agent influenceThresholds instanceName
"""


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

    def test_show_egoism(self, capsys):
        assert main(["bases", "show", "egoism"]) == 0
        assert capsys.readouterr().out == EGOISM_SHOW

    def test_free_fields(self, capsys):
        # Derived, not declared: each shipped template fixes its patient kinds.
        assert "freeFields" not in BaseTheoryTemplate._fields
        for name in ("utilitarianism", "egoism", "Kantianism",
                     "ChristianDivineCommandTheory"):
            assert main(["bases", "show", name]) == 0
            assert capsys.readouterr().out.endswith(
                "\nfreeFields: agent influenceThresholds instanceName\n")


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
        with pytest.raises(GenetError, match="broken.json"):
            load_registry(None if via_env else tmp_path)

    @pytest.mark.parametrize("field", ["morality", "consequentiality"])
    def test_booleans_are_not_coerced(self, tmp_path, field):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        owner = data["defaultPrinciples"][0] if field == "morality" else data
        owner[field] = "false"
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError, match="malformed base-theory template"):
            load_registry(base_dir=tmp_path)


    def test_invalid_json_names_its_file(self, tmp_path):
        (tmp_path / "broken.json").write_text('{"name": ')
        with pytest.raises(GenetError, match=r"malformed base-theory template "
                                             r".*broken\.json: "):
            load_registry(base_dir=tmp_path)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"name": ' * 100_000],
                             ids=["deep-lists", "deep-objects"])
    def test_deep_nesting_names_its_file(self, tmp_path, text):
        (tmp_path / "deep.json").write_text(text)
        with pytest.raises(GenetError, match=r"malformed base-theory template "
                                             r".*deep\.json: "):
            load_registry(base_dir=tmp_path)

    @pytest.mark.parametrize("old, new, constant", [
        ('"consequentiality": true', '"consequentiality": NaN', "NaN"),
        ('["human"]', '["human", Infinity, -Infinity]', "Infinity"),
    ], ids=["nan-consequentiality", "infinite-patient-kinds"])
    def test_non_json_constants_are_malformed(self, tmp_path, old, new, constant):
        # Python's decoder takes them, and reads a typed field as mistyped.
        text = (BUILTIN_DIR / "egoism.json").read_text("utf-8").replace(old, new)
        (tmp_path / "egoism.json").write_text(text)
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"malformed base-theory template "
                                  f"{tmp_path / 'egoism.json'}: {constant} is not a "
                                  f"JSON number")
        assert err.value.code == TEMPLATE_ERROR

    def test_directory_entry_names_itself(self, tmp_path):
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(GenetError, match=r"cannot read base-theory template "
                                             r".*dir\.json: ") as err:
            load_registry(base_dir=tmp_path)
        assert type(err.value) is GenetError
        assert err.value.code == TEMPLATE_ERROR

    def test_repeated_template_name_names_both_files(self, tmp_path):
        # Without the check, b.json would silently replace a.json.
        for name in ("a.json", "b.json"):
            shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path / name)
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"base-theory templates {tmp_path / 'a.json'} and "
                                  f"{tmp_path / 'b.json'} both give the name 'egoism'")
        assert err.value.report.codes() == [TEMPLATE_ERROR]

    @pytest.mark.parametrize("missing", ["absent", "a-file"])
    def test_base_dir_must_be_a_directory(self, tmp_path, monkeypatch, missing):
        base_dir = tmp_path / "bases"
        if missing == "a-file":
            shutil.copy(BUILTIN_DIR / "egoism.json", base_dir)
        monkeypatch.setenv(BASE_DIR_ENV, str(base_dir))
        with pytest.raises(GenetError) as err:
            load_registry()
        assert str(err.value) == f"not a base-theory template directory: {base_dir}"
        assert err.value.report.codes() == [TEMPLATE_ERROR]

    def test_unreadable_file_names_itself(self, tmp_path, monkeypatch):
        # A mode-000 file; the suite may run as root, which reads any file.
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(Path, "read_bytes", refuse)
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        path = tmp_path / "egoism.json"
        assert str(err.value) == (f"cannot read base-theory template {path}: "
                                  f"[Errno 13] Permission denied: '{path}'")
        assert err.value.code == TEMPLATE_ERROR

    def test_unreadable_directory_names_itself(self, tmp_path, monkeypatch):
        # A mode-000 directory; the suite may run as root, which lists any.
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path)

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(os, "listdir", refuse)
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"cannot read base-theory template directory "
                                  f"{tmp_path}: [Errno 13] Permission denied: "
                                  f"'{tmp_path}'")
        assert err.value.report.codes() == [TEMPLATE_ERROR]

    def test_every_json_name_loads_in_name_order(self, tmp_path):
        """Every entry whose name ends in ``.json`` is read, a hidden one too,
        in name order; other names, subdirectories' files included, are not."""
        for name in ("UPPER.JSON", "x.json.bak", "notes.txt", "json"):
            (tmp_path / name).write_text('{"name": ')
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "inner.json").write_text('{"name": ')
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path / ".hidden.json")
        shutil.copy(BUILTIN_DIR / "Kantianism.json", tmp_path / "Z.json")
        assert load_registry(base_dir=tmp_path).names() == ["Kantianism", "egoism"]
        # The first of two files that give one name, in name order, is named first.
        shutil.copy(BUILTIN_DIR / "egoism.json", tmp_path / "a.json")
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"base-theory templates {tmp_path / '.hidden.json'} "
                                  f"and {tmp_path / 'a.json'} both give the name "
                                  f"'egoism'")

    def test_free_patient_kinds_are_a_free_field(self, tmp_path, monkeypatch, capsys):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        del data["fixedPatientKinds"]
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        assert load_registry(base_dir=tmp_path).get("egoism").fixedPatientKinds is None
        monkeypatch.setenv(BASE_DIR_ENV, str(tmp_path))
        assert main(["bases", "show", "egoism"]) == 0
        assert capsys.readouterr().out == EGOISM_SHOW.replace(
            "fixedPatientKinds: human\n", "").replace(
            "instanceName\n", "instanceName patientKinds\n")

    def test_repeated_key_is_rejected(self, tmp_path):
        # json.loads alone would keep the last value, true.
        text = (BUILTIN_DIR / "egoism.json").read_text("utf-8").replace(
            '"consequentiality": true',
            '"consequentiality": false, "consequentiality": true')
        (tmp_path / "egoism.json").write_text(text)
        with pytest.raises(GenetError, match=r"malformed base-theory template "
                                             r".*egoism\.json: duplicate key "
                                             r"'consequentiality'$"):
            load_registry(base_dir=tmp_path)

    def test_misspelt_key_is_rejected(self, tmp_path):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        data["fixedPatientKind"] = data.pop("fixedPatientKinds")
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError, match="unknown key 'fixedPatientKind'"):
            load_registry(base_dir=tmp_path)

    @pytest.mark.parametrize("path, value", [
        (("name",), 5), (("mutability",), True), (("fixedPatientKinds",), "human"),
        (("fixedPatientKinds",), None), (("freeFields",), "agent"),
        (("freeFields",), [5]), (("defaultPrinciples",), {}),
        (("defaultPrinciples",), []),
        (("defaultPrinciples", 0), "x"), (("defaultPrinciples", 0, "subject"), 5),
        (("defaultPrinciples", 0, "specification"), 5),
        (("defaultPrinciples", 0, "weight"), 1), (("consequentiality",), 1),
        *(((key,), MISSING) for key in ("name", "consequentiality", "mutability",
                                         "defaultPrinciples"))],
        ids=lambda arg: ".".join(map(str, arg)) if isinstance(arg, tuple)
        else "missing" if arg is MISSING else repr(arg))
    def test_values_are_type_checked(self, tmp_path, path, value):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        if value is MISSING:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        # The finding names the object at fault.
        where = "document" if len(path) == 1 else f"defaultPrinciples[{path[1]}]"
        assert str(err.value).startswith(
            f"malformed base-theory template {tmp_path / 'egoism.json'}: {where}: ")

    @pytest.mark.parametrize("index, principle, problem", [
        (0, {"specification": ""},
         "defaultPrinciples[0].specification: must be a non-empty whitespace-free token"),
        (0, {"specification": "self Actualisation"},
         "defaultPrinciples[0].specification: must be a non-empty whitespace-free token"),
        (1, {"specification": "physiologySatisfaction", "morality": False},
         "defaultPrinciples[1]: duplicate (specification, subject) pair "
         "('physiologySatisfaction', agent)"),
    ], ids=["empty-specification", "whitespace-specification", "duplicate-pair"])
    def test_default_principles_keep_the_theory_invariants(self, tmp_path, index,
                                                           principle, problem):
        # No instance could be made from such defaults.
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        data["defaultPrinciples"][index].update(principle)
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"malformed base-theory template "
                                  f"{tmp_path / 'egoism.json'}: {problem}")
        assert err.value.code == TEMPLATE_ERROR

    @pytest.mark.parametrize("key, value, problem", [
        ("name", "", "must be non-empty"),
        ("fixedPatientKinds", [], "must be a non-empty list of distinct patient kinds"),
        ("fixedPatientKinds", ["human", "human"],
         "must be a non-empty list of distinct patient kinds"),
    ], ids=["empty-name", "no-patient-kinds", "repeated-patient-kind"])
    def test_top_level_values_admit_an_instance(self, tmp_path, key, value, problem):
        # No instance could be made from an empty name or kind list, and a
        # repeated kind, as in theory XML, would be lost to the set.
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        data[key] = value
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value) == (f"malformed base-theory template "
                                  f"{tmp_path / 'egoism.json'}: document.{key}: {problem}")
        assert err.value.code == TEMPLATE_ERROR

    def test_top_level_faults_come_before_principle_faults(self, tmp_path):
        data = json.loads((BUILTIN_DIR / "egoism.json").read_text("utf-8"))
        data["defaultPrinciples"][0]["weight"] = 1
        data["mutability"] = "sometimes"
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        with pytest.raises(GenetError) as err:
            load_registry(base_dir=tmp_path)
        assert str(err.value).endswith(": 'sometimes' is not a valid Mutability")


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
            remove=[("loveSatisfaction", Subject.ALL)])
        assert len(instance.principles) == 4
        assert validate_instance(instance).ok
        assert "loveSatisfaction" not in {p.specification
                                          for p in instance.principles}

    def test_kantianism_rejects_any_edit(self, registry):
        kant = base(registry, "Kantianism")
        for edit, verb in (
                ({"add": [MoralPrinciple(True, Subject.ALL, "foo")]}, "adding"),
                ({"remove": [("mereMeans", Subject.ALL)]}, "removing")):
            with pytest.raises(GenetError) as err:
                instantiate(kant, agent=DOE, thresholds=THRESH, **edit)
            assert refusal(err) == [
                ("MUTABILITY_VIOLATION", "principles",
                 f"Kantianism (mutability=none) forbids {verb} principles")]

    def test_utilitarianism_rejects_add(self, registry):
        # Forbidden even for a principle already present: the mode is checked first.
        for specification in ("thrift", "loveSatisfaction"):
            with pytest.raises(GenetError) as err:
                instantiate(base(registry, "utilitarianism"), agent=DOE,
                            thresholds=THRESH,
                            add=[MoralPrinciple(True, Subject.ALL, specification)])
            assert refusal(err) == [
                ("MUTABILITY_VIOLATION", "principles",
                 "utilitarianism (mutability=remove) forbids adding principles")]

    def test_dct_rejects_remove_accepts_add(self, registry):
        dct = base(registry, "ChristianDivineCommandTheory")
        added = instantiate(dct, agent=DOE, thresholds=THRESH,
                            add=[MoralPrinciple(False, Subject.PATIENTS, "usury")])
        assert len(added.principles) == 7
        with pytest.raises(GenetError) as err:
            instantiate(dct, agent=DOE, thresholds=THRESH,
                        remove=[("kill", Subject.PATIENTS)])
        assert refusal(err) == [
            ("MUTABILITY_VIOLATION", "principles",
             "ChristianDivineCommandTheory (mutability=add) forbids removing principles")]

    def test_removing_everything_is_rejected(self, registry):
        util = base(registry, "utilitarianism")
        with pytest.raises(GenetError) as err:
            instantiate(util, agent=DOE, thresholds=THRESH,
                        remove=[(s, Subject.ALL) for s in MASLOW])
        assert err.value.code == "EMPTY_PRINCIPLES"

    def test_unknown_removal(self, registry):
        # A principle never present, and one removed twice over.
        for name, specifications, key in (
                ("utilitarianism", ["nosuch"], "('nosuch', 'all')"),
                ("egoism", ["loveSatisfaction"] * 2, "('loveSatisfaction', 'agent')")):
            template = base(registry, name)
            subject = template.defaultPrinciples[0].subject
            with pytest.raises(GenetError) as err:
                instantiate(template, agent=DOE, thresholds=THRESH,
                            remove=[(s, subject) for s in specifications])
            assert refusal(err) == [
                ("UNKNOWN_REMOVAL", "principles", f"no principle {key} to remove")]

    def test_fixed_patient_kinds_enforced(self, registry):
        for kinds in ({PatientKind.NATURE}, {PatientKind.HUMAN, PatientKind.NATURE}):
            with pytest.raises(GenetError) as err:
                instantiate(base(registry, "utilitarianism"), agent=DOE,
                            thresholds=THRESH, patientKinds=frozenset(kinds),
                            add=[MoralPrinciple(True, Subject.ALL, "x")])
            # Found before the forbidden edit.
            assert refusal(err) == [("FIXED_FIELD_VIOLATION", "patientKinds",
                                     "utilitarianism fixes patientKinds to ['human']")]

    def test_free_patient_kinds_must_be_supplied(self, registry):
        free = base(registry, "egoism")._replace(fixedPatientKinds=None)
        with pytest.raises(GenetError) as err:
            instantiate(free, agent=DOE, thresholds=THRESH)
        assert refusal(err) == [
            ("FIXED_FIELD_VIOLATION", "patientKinds",
             "egoism leaves patientKinds free; the instantiator must supply them")]

    def test_free_patient_kinds_are_taken_as_given(self, registry):
        free = base(registry, "egoism")._replace(fixedPatientKinds=None)
        kinds = frozenset({PatientKind.HUMAN, PatientKind.NATURE})
        instance = instantiate(free, agent=DOE, thresholds=THRESH, patientKinds=kinds)
        assert instance.patientKinds == kinds

    def test_adding_a_present_principle_is_rejected(self, registry):
        dct = base(registry, "ChristianDivineCommandTheory")
        present = dct.defaultPrinciples[0]
        key = (present.specification, present.subject.value)
        # The pair decides, whatever the morality.
        for principle in (present, present._replace(morality=not present.morality)):
            with pytest.raises(GenetError) as err:
                instantiate(dct, agent=DOE, thresholds=THRESH, add=[principle])
            assert refusal(err) == [("DUPLICATE_PRINCIPLE", "principles",
                                     f"principle {key} is already present")]

    def test_a_default_removed_and_added_back_comes_last(self, registry):
        # With its morality kept or flipped: a flip is a removal and an addition.
        ego = base(registry, "egoism")
        first, *rest = ego.defaultPrinciples
        for back in (first, first._replace(morality=not first.morality)):
            instance = instantiate(ego, agent=DOE, thresholds=THRESH,
                                   remove=[(first.specification, first.subject)], add=[back])
            assert instance.principles == (*rest, back)
            assert check_conformance(instance, registry).conformant

    @pytest.mark.parametrize("name, finding", [
        ("Kantianism", "Kantianism (mutability=none) forbids adding principles"),
        ("utilitarianism", "utilitarianism (mutability=remove) forbids adding principles"),
        ("ChristianDivineCommandTheory",
         "ChristianDivineCommandTheory (mutability=add) forbids removing principles"),
    ])
    def test_the_mode_is_checked_before_any_edit(self, registry, name, finding):
        # Each edit would fail on its own: the pair to remove is absent and the
        # one to add is present. A forbidden addition is named before a removal.
        template = base(registry, name)
        present = template.defaultPrinciples[0]
        with pytest.raises(GenetError) as err:
            instantiate(template, agent=DOE, thresholds=THRESH,
                        remove=[("nosuch", Subject.ALL)], add=[present])
        assert refusal(err) == [("MUTABILITY_VIOLATION", "principles", finding)]

    def test_removals_apply_before_additions(self, registry):
        ego = base(registry, "egoism")
        new = MoralPrinciple(True, Subject.AGENT, "thrift")
        # An added pair cannot be removed in the same call, and an absent
        # removal is found before a present addition.
        for add in ([new], [ego.defaultPrinciples[0]]):
            with pytest.raises(GenetError) as err:
                instantiate(ego, agent=DOE, thresholds=THRESH,
                            remove=[("thrift", Subject.AGENT)], add=add)
            assert refusal(err) == [("UNKNOWN_REMOVAL", "principles",
                                     "no principle ('thrift', 'agent') to remove")]

    def test_repeated_default_pair_is_an_invalid_instance(self, registry):
        # A template built in code skips the loader's check; the repeat is
        # kept and refused, not merged into one principle.
        ego = base(registry, "egoism")
        first = ego.defaultPrinciples[0]
        doubled = ego._replace(defaultPrinciples=ego.defaultPrinciples
                               + (first._replace(morality=not first.morality),))
        with pytest.raises(GenetError) as err:
            instantiate(doubled, agent=DOE, thresholds=THRESH)
        assert err.value.code == "INVALID_INSTANCE"
        assert err.value.report.codes() == ["DUPLICATE_PRINCIPLE"]

    def test_business_egoism_replacement(self, registry):
        # Egoism for a business: replace the personal-preference defaults
        # with the triple bottom line wholesale.
        ego = base(registry, "egoism")
        instance = instantiate(ego, agent=MoralAgent("Train Company"),
                               thresholds=InfluenceThresholds(0, 50),
                               instanceName="Train Company's egoism",
                               remove=[(s, Subject.AGENT) for s in MASLOW],
                               add=[MoralPrinciple(True, Subject.AGENT, s)
                                    for s in ("socialWelfare", "environmentalProtection",
                                              "profitPerpetuation")])
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
        extra = instance._replace(principles=instance.principles
                                  + (MoralPrinciple(True, Subject.ALL, "charity"),))
        assert check_conformance(extra, registry).codes() == ["NOT_REACHABLE"]

    def test_dct_missing_kill(self, registry):
        instance = parse_theory(theory_bytes("trainco-dct"))
        pruned = instance._replace(principles=tuple(
            p for p in instance.principles if p.specification != "kill"))
        assert check_conformance(pruned, registry).codes() == ["NOT_REACHABLE"]

    def test_unknown_base_theory(self, registry):
        instance = parse_theory(theory_bytes("mia-kantianism"))._replace(
            baseTheory="Contractualism")
        with pytest.raises(GenetError):
            check_conformance(instance, registry)

    def test_patient_kinds_other_than_the_fixed_ones(self, registry):
        instance = parse_theory(theory_bytes("mia-kantianism"))._replace(
            patientKinds=frozenset({PatientKind.NATURE}))
        report = check_conformance(instance, registry)
        assert [(v.code, v.path, v.message) for v in report.violations] == [
            ("FIXED_FIELD_VIOLATION", "patientKinds",
             "Kantianism fixes patientKinds to ['human']")]

    def test_consequentiality_mismatch(self, registry):
        instance = parse_theory(theory_bytes("mia-kantianism"))._replace(
            consequentiality=True)
        assert "CONSEQUENTIALITY_MISMATCH" in \
            check_conformance(instance, registry).codes()

    def test_repeated_principle_is_not_reachable(self, registry):
        util = base(registry, "utilitarianism")
        assert reachable(util, util.defaultPrinciples)
        assert not reachable(util, util.defaultPrinciples + util.defaultPrinciples[:1])

    def test_none_templates_admit_one_list(self, registry):
        kant = base(registry, "Kantianism")
        assert reachable(kant, kant.defaultPrinciples)
        flipped = (kant.defaultPrinciples[0]._replace(morality=False),
                   kant.defaultPrinciples[1])
        assert not reachable(kant, flipped)


# --- reachability properties -------------------------------------------------

EXTRA_POOL = [MoralPrinciple(m, s, spec)
              for spec in ("alpha", "beta")
              for s in (Subject.ALL, Subject.AGENT)
              for m in (True, False)][:6]


@st.composite
def legal_edit_lists(draw, registry):
    """A template, a set of its defaults to remove and a list of principles
    to add that its mode allows, with the principle list they should give.
    An addition may put back a removed pair with either morality."""
    name = draw(st.sampled_from(["utilitarianism", "egoism", "Kantianism",
                                 "ChristianDivineCommandTheory"]))
    template = registry.get(name)
    defaults = list(template.defaultPrinciples)
    may_add = template.mutability in (Mutability.ADD, Mutability.ALL)
    may_remove = template.mutability in (Mutability.REMOVE, Mutability.ALL)
    removed = draw(st.lists(st.sampled_from(defaults), unique=True,
                            max_size=len(defaults) - (not may_add))) if may_remove else []
    kept = [p for p in defaults if p not in removed]
    pool = EXTRA_POOL + [p._replace(morality=m) for p in removed for m in (True, False)]
    added = draw(st.lists(st.sampled_from(pool), min_size=0 if kept else 1, max_size=4,
                          unique_by=lambda p: (p.specification, p.subject))
                 ) if may_add else []
    return template, removed, added, kept + added


class TestReachability:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_accepted_edit_lists_conform(self, registry, data):
        template, removed, added, expected = data.draw(legal_edit_lists(registry))
        instance = instantiate(template, agent=DOE, thresholds=THRESH,
                               remove=[(p.specification, p.subject) for p in removed],
                               add=added)
        assert instance.principles == tuple(expected)
        assert reachable(template, instance.principles)
        assert check_conformance(instance, registry).conformant

    @pytest.mark.parametrize("mutability", list(Mutability))
    def test_agrees_with_instantiate_over_a_small_scope(self, mutability):
        # Oracle: the lists instantiate makes from every removal set and every
        # ordered addition list, against every ordered list of distinct
        # principles up to the scope's size. The first scope is a closed
        # universe of five, so each subset in universe order is a candidate;
        # the second draws from a pool with both moralities of each pair.
        def lists(items, most):
            return (a for k in range(most + 1) for a in itertools.permutations(items, k))

        universe = tuple(MoralPrinciple(True, Subject.ALL, f"p{i}") for i in range(5))
        pool = tuple(MoralPrinciple(m, s, spec) for spec in ("a", "b", "c")
                     for s in (Subject.AGENT, Subject.PATIENTS) for m in (True, False))
        scopes = [(universe, universe[:3], 5)] + [
            (pool, tuple(pool[i] for i in picks), 3)
            for picks in ((0,), (2, 5), (9, 0, 4), (6, 3, 11))]
        for candidates, defaults, size in scopes:
            template = BaseTheoryTemplate("toy", True, defaults, mutability,
                                          frozenset({PatientKind.HUMAN}))
            made = set()
            for n in range(len(defaults) + 1):
                for removed in itertools.combinations(defaults, n):
                    # Only lists of at most `size` principles are candidates.
                    for added in lists(candidates, size - len(defaults) + n):
                        try:
                            made.add(instantiate(
                                template, agent=DOE, thresholds=THRESH,
                                remove=[(p.specification, p.subject) for p in removed],
                                add=added).principles)
                        except GenetError:
                            pass
            for principles in lists(candidates, size):
                assert reachable(template, principles) == (principles in made), (
                    defaults, principles)
