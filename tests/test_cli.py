from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import genet
from genet.cli import main
from genet.fixtures import scenario_path, theory_path
from genet.model import MoralPrinciple, PatientKind, Subject
from genet.xmlio import emit_theory, parse_theory
from .conftest import scenario_bytes, theory_bytes

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = Path(genet.__file__).resolve().parent.parent


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_good_theory(self, capsys):
        code, out, _ = run(capsys, "validate",
                           str(theory_path("doe-utilitarianism")))
        assert code == 0
        assert out == ""

    def test_out_of_range_threshold(self, capsys, tmp_path):
        doc = theory_bytes("doe-utilitarianism").replace(
            b'external="50"', b'external="101"')
        path = tmp_path / "bad.xml"
        path.write_bytes(doc)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PERCENT_OUT_OF_RANGE\t")

    def test_model_invalid_document(self, capsys, tmp_path):
        """A schema-clean document that breaks a model invariant is a
        finding, not a traceback."""
        path = tmp_path / "nameless.xml"
        path.write_bytes(theory_bytes("mia-egoism").replace(b'name="Mia"', b'name=""'))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert out == "EMPTY_AGENT_NAME\tagent.name\tagent name must be non-empty\n"

    def test_reference_urlparse_cannot_split(self, capsys, tmp_path):
        path = tmp_path / "bracket.xml"
        path.write_bytes(theory_bytes("mia-egoism").replace(
            b'"http://facebook.com/mia"', b'"http://[oops"'))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "BAD_URI\tagent.reference\tnot syntactically "
                                       "a URI: 'http://[oops'\n", "")

    def test_threshold_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.xml"
        path.write_bytes(theory_bytes("doe-utilitarianism").replace(
            b'external="50"', b'external="' + b"1" * 4400 + b'"'))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert out.startswith("PERCENT_OUT_OF_RANGE\t/ethicalTheory/influenceThresholds"
                              "@external\tpercentage 1111")

    @pytest.mark.parametrize("theory, old, new, finding", [
        ("mia-egoism", b'consequentiality="true"', b'consequentiality="false"',
         "CONSEQUENTIALITY_MISMATCH\tconsequentiality\tegoism fixes "
         "consequentiality=true"),
        ("doe-kantianism", b"</patientKinds>",
         b"<patientKind>nature</patientKind></patientKinds>",
         "FIXED_FIELD_VIOLATION\tpatientKinds\tKantianism fixes patientKinds to "
         "['human']"),
        ("doe-kantianism", b"</principles>",
         b'<principle morality="true" subject="agent" specification="charity"/>'
         b"</principles>",
         "NOT_REACHABLE\tprinciples\tprinciple list is not reachable from "
         "Kantianism defaults under mutability=none"),
    ], ids=["consequentiality", "fixed-field", "not-reachable"])
    def test_base_template_findings(self, capsys, tmp_path, theory, old, new, finding):
        """A schema-clean, valid document that its base template does not admit."""
        path = tmp_path / "nonconforming.xml"
        path.write_bytes(theory_bytes(theory).replace(old, new))
        assert run(capsys, "validate", str(path)) == (1, finding + "\n", "")

    def test_unregistered_base_is_a_note(self, capsys, tmp_path):
        path = tmp_path / "stoic.xml"
        path.write_bytes(theory_bytes("mia-egoism").replace(b'"egoism"', b'"stoicism"'))
        assert run(capsys, "validate", str(path)) == (
            0, "", "UNKNOWN_BASE_THEORY\tbaseTheory\tno base theory named 'stoicism' "
                   "is registered\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/theory.xml")
        assert code == 3
        assert "cannot read" in err

    def test_no_subcommand_is_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 3


class TestInstantiate:
    def test_kantianism_matches_listing(self, capsys, tmp_path):
        out_path = tmp_path / "kant.xml"
        code, _, _ = run(capsys, "instantiate", "--base", "Kantianism",
                         "--agent", "Mia", "--agent-ref", "http://facebook.com/mia",
                         "--external", "0", "--substance", "50",
                         "--name", "Mia's Kantianism", "--out", str(out_path))
        assert code == 0
        canonical = emit_theory(parse_theory(theory_bytes("mia-kantianism")))
        assert out_path.read_bytes() == canonical

    def test_doe_kantianism_writes_the_fixture_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "kant.xml"
        code, _, _ = run(capsys, "instantiate", "--base", "Kantianism",
                         "--agent", "Doe Family", "--agent-ref", "http://thedoes.fam",
                         "--external", "0", "--substance", "50",
                         "--name", "Doe family's Kantianism", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == theory_bytes("doe-kantianism")

    def test_add_under_kantianism_rejected(self, capsys, tmp_path):
        code, out, _ = run(capsys, "instantiate", "--base", "Kantianism",
                           "--agent", "Mia", "--external", "50",
                           "--substance", "30", "--name", "x",
                           "--add", "charity,all,true",
                           "--out", str(tmp_path / "x.xml"))
        assert code == 1
        assert out.startswith("MUTABILITY_VIOLATION\t")
        assert not (tmp_path / "x.xml").exists()

    def test_remove_love_from_utilitarianism(self, capsys, tmp_path):
        out_path = tmp_path / "u.xml"
        code, _, _ = run(capsys, "instantiate", "--base", "utilitarianism",
                         "--agent", "Doe Family", "--external", "50",
                         "--substance", "30", "--name", "loveless",
                         "--remove", "loveSatisfaction,all",
                         "--out", str(out_path))
        assert code == 0
        instance = parse_theory(out_path.read_bytes())
        assert len(instance.principles) == 4
        assert "loveSatisfaction" not in {p.specification
                                          for p in instance.principles}

    @pytest.mark.parametrize("out", ["missing/x.xml", "."],
                             ids=["missing-parent", "directory"])
    def test_unwritable_out_is_usage(self, capsys, tmp_path, out):
        out_path = tmp_path / out
        code, stdout, err = run(capsys, "instantiate", "--base", "egoism",
                                "--agent", "A", "--external", "0",
                                "--substance", "0", "--name", "x",
                                "--out", str(out_path))
        assert code == 3
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out_path}: ")

    @pytest.mark.parametrize("options, finding", [
        (["--external", "150"], "PERCENT_OUT_OF_RANGE\tinfluenceThresholds.external\t"
                                "external threshold 150 outside [0, 100]"),
        (["--substance", "-1"], "PERCENT_OUT_OF_RANGE\tinfluenceThresholds.substance\t"
                                "substance threshold -1 outside [0, 100]"),
        (["--agent", ""], "EMPTY_AGENT_NAME\tagent.name\tagent name must be non-empty"),
        (["--agent-ref", "not a uri"],
         "BAD_URI\tagent.reference\tnot syntactically a URI: 'not a uri'"),
        (["--agent-ref", "http://[x"],
         "BAD_URI\tagent.reference\tnot syntactically a URI: 'http://[x'"),
        # An undecodable byte in a command-line argument arrives as a lone surrogate.
        (["--agent", "\udcff"], "NON_XML_CHARACTER\tagent.name\tagent.name holds a "
                                "character that XML 1.0 cannot carry: '\\udcff'"),
        (["--agent", "a\x01b"], "NON_XML_CHARACTER\tagent.name\tagent.name holds a "
                                "character that XML 1.0 cannot carry: 'a\\x01b'"),
    ], ids=["external-150", "substance-minus-1", "empty-agent", "bad-agent-ref",
            "unsplittable-agent-ref", "surrogate-agent", "control-agent"])
    def test_invalid_instance_prints_its_violations(self, capsys, tmp_path, options,
                                                    finding):
        out_path = tmp_path / "x.xml"
        # The last of a repeated option wins.
        code, out, err = run(capsys, *INSTANTIATE, *options, "--out", str(out_path))
        assert (code, out, err) == (1, finding + "\n", "")
        assert not out_path.exists()

    @pytest.fixture
    def free_egoism(self, tmp_path, monkeypatch):
        """The builtin egoism with its patient kinds left free, as the only template."""
        data = json.loads((BUILTIN_BASES / "egoism.json").read_text("utf-8"))
        del data["fixedPatientKinds"]
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        monkeypatch.setenv("GENET_BASE_DIR", str(tmp_path))

    def test_free_patient_kinds_are_reported_at_patient_kinds(self, capsys, tmp_path,
                                                              free_egoism):
        code, out, _ = run(capsys, *INSTANTIATE, "--out", str(tmp_path / "x.xml"))
        assert (code, out) == (1, "FIXED_FIELD_VIOLATION\tpatientKinds\tegoism leaves "
                                  "patientKinds free; the instantiator must supply them\n")

    def test_free_patient_kinds_are_taken_from_the_option(self, capsys, tmp_path,
                                                          free_egoism):
        out_path = tmp_path / "x.xml"
        code, out, err = run(capsys, *INSTANTIATE, "--patient-kind", "nature",
                             "--patient-kind", "human", "--patient-kind", "nature",
                             "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert parse_theory(out_path.read_bytes()).patientKinds == {
            PatientKind.HUMAN, PatientKind.NATURE}
        assert run(capsys, "validate", str(out_path)) == (0, "", "")

    def test_patient_kind_contradicting_a_fixed_set(self, capsys, tmp_path):
        out_path = tmp_path / "x.xml"
        code, out, err = run(capsys, *INSTANTIATE, "--patient-kind", "nature",
                             "--out", str(out_path))
        assert (code, out, err) == (1, "FIXED_FIELD_VIOLATION\tpatientKinds\tegoism "
                                       "fixes patientKinds to ['human']\n", "")
        assert not out_path.exists()

    def test_unknown_patient_kind_is_usage(self, capsys, tmp_path):
        out_path = tmp_path / "x.xml"
        code, out, err = run(capsys, *INSTANTIATE, "--patient-kind", "robot",
                             "--out", str(out_path))
        assert (code, out) == (3, "")
        assert "argument --patient-kind: invalid choice: 'robot'" in err
        assert not out_path.exists()

    def test_specification_holding_a_comma(self, capsys, tmp_path):
        # A specification is a whitespace-free token, so it may hold a comma;
        # subject and morality, split off from the right, never do.
        added, both = tmp_path / "added.xml", tmp_path / "both.xml"
        assert run(capsys, *INSTANTIATE, "--add", "tell,truth,agent,true",
                   "--out", str(added)) == (0, "", "")
        principle = MoralPrinciple(True, Subject.AGENT, "tell,truth")
        assert parse_theory(added.read_bytes()).principles[-1] == principle
        assert run(capsys, *INSTANTIATE, "--add", "tell,truth,agent,true",
                   "--remove", "tell,truth,agent", "--out", str(both)) == (0, "", "")
        assert principle not in parse_theory(both.read_bytes()).principles

    def test_unknown_base(self, capsys, tmp_path):
        code, _, err = run(capsys, "instantiate", "--base", "nosuch",
                           "--agent", "A", "--external", "0", "--substance", "0",
                           "--name", "x", "--out", str(tmp_path / "x.xml"))
        assert code == 3
        assert "nosuch" in err

    def test_malformed_add_value(self, capsys, tmp_path):
        code, _, err = run(capsys, "instantiate", "--base", "egoism",
                           "--agent", "A", "--external", "0", "--substance", "0",
                           "--name", "x", "--add", "onlyonefield",
                           "--out", str(tmp_path / "x.xml"))
        assert code == 3
        assert "bad --add/--remove" in err

    # int() reads the first four as 10, but an xs:integer has ASCII digits only;
    # the last is past the 4,300 digits int() converts.
    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0660", "\uff11\u0660",
                                       "\uff11\uff10", "1" * 5000],
                             ids=["underscore", "arabic-indic", "mixed", "fullwidth",
                                  "5000-digits"])
    @pytest.mark.parametrize("option", ["--external", "--substance"])
    def test_threshold_outside_the_xsd_integer_grammar_is_usage(self, capsys, tmp_path,
                                                                option, value):
        out_path = tmp_path / "x.xml"
        code, out, err = run(capsys, *INSTANTIATE, option, value, "--out", str(out_path))
        assert (code, out) == (3, "")
        assert err.endswith(f"error: argument {option}: invalid integer value: "
                            f"{value!r}\n")
        assert not out_path.exists()

    def test_non_boolean_morality_is_usage(self, capsys, tmp_path):
        out_path = tmp_path / "x.xml"
        code, out, err = run(capsys, *INSTANTIATE, "--add", "x,all,maybe",
                             "--out", str(out_path))
        assert (code, out, err) == (3, "", "error: bad --add/--remove value: "
                                           "not a boolean: 'maybe'\n")
        assert not out_path.exists()


class TestReason:
    def test_trolley_dct_decides_t2(self, capsys):
        code, out, _ = run(capsys, "reason",
                           "--theory", str(theory_path("trainco-dct")),
                           "--scenario", str(scenario_path("trolley")))
        assert code == 0
        assert out.splitlines()[0] == "decided: T2"

    def test_mia_dct_multiple_permissible_exits_2(self, capsys):
        code, out, _ = run(capsys, "reason",
                           "--theory", str(theory_path("mia-dct")),
                           "--scenario", str(scenario_path("mia")))
        assert code == 2
        assert out.startswith("multiplePermissible: A1 A2")

    def test_single_action_explain(self, capsys):
        code, out, _ = run(capsys, "reason",
                           "--theory", str(theory_path("doe-utilitarianism")),
                           "--scenario", str(scenario_path("marijuana")),
                           "--action", "M1", "--explain")
        assert code == 0
        assert out.rstrip().endswith("conclusion: M1 is a good action")
        assert "premises:" in out and "inferences:" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "reason",
                           "--theory", str(theory_path("mia-egoism")),
                           "--scenario", str(scenario_path("mia")),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "decided"
        assert data["chosen"] == ["A2"]
        by_action = {e["action"]: e for e in data["evaluations"]}
        assert by_action["A1"]["score"] == -1
        assert by_action["A1"]["supererogation"] == [1]

    def test_agent_mismatch_exits_1(self, capsys):
        code, out, _ = run(capsys, "reason",
                           "--theory", str(theory_path("trainco-dct")),
                           "--scenario", str(scenario_path("mia")))
        assert code == 1
        assert out.startswith("AGENT_MISMATCH\t")

    def test_unknown_action_is_usage(self, capsys):
        code, _, err = run(capsys, "reason",
                           "--theory", str(theory_path("trainco-dct")),
                           "--scenario", str(scenario_path("trolley")),
                           "--action", "T9")
        assert code == 3
        assert "T9" in err

    def test_empty_action_id_is_usage(self, capsys):
        # An empty --action names no action; it does not mean "every action".
        code, out, err = run(capsys, "reason",
                             "--theory", str(theory_path("trainco-dct")),
                             "--scenario", str(scenario_path("trolley")),
                             "--action", "")
        assert (code, out, err) == (3, "", "error: no action '' in scenario\n")

    def test_invalid_theory_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_bytes(b"<ethicalTheory>")
        code, _, err = run(capsys, "reason", "--theory", str(path),
                           "--scenario", str(scenario_path("trolley")))
        assert code == 1
        assert err.startswith("WELL_FORMEDNESS\t")

    @pytest.mark.parametrize("name", ["deep", "huge-integer", "huge-cardinality",
                                      "lone-surrogate"])
    def test_undecodable_or_oversized_scenario_exits_1(self, capsys, tmp_path, name):
        data = json.loads(scenario_bytes("trolley"))
        data["groups"][1]["cardinality"] = int("9" * 4300)
        # Two goods on the huge group: their summed score has 4,301 digits.
        data["effects"] += [{"action": "T2", "specification": "physiologySatisfaction",
                             "direction": "increase", "target": "worker"}] * 2
        text = {"deep": "[" * 100_000,
                "huge-integer": json.dumps(data).replace("9" * 4300, "1" * 4400),
                "huge-cardinality": json.dumps(data),
                "lone-surrogate": json.dumps(data).replace('"T1"', '"T\\ud800"')}[name]
        path = tmp_path / "broken.scenario.json"
        path.write_text(text)
        code, out, err = run(capsys, "reason", "--theory",
                             str(theory_path("trainco-utilitarianism")),
                             "--scenario", str(path))
        assert (code, out) == (1, "")
        code_text = "RANGE_ERROR" if name == "huge-cardinality" else "PARSE_ERROR"
        assert err.startswith(f"{code_text}\t{path}\t")

    def test_output_is_deterministic(self, capsys):
        argv = ("reason", "--theory", str(theory_path("doe-utilitarianism")),
                "--scenario", str(scenario_path("marijuana")), "--explain")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestBases:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "bases", "list")
        assert code == 0
        assert sorted(out.split()) == ["ChristianDivineCommandTheory",
                                       "Kantianism", "egoism", "utilitarianism"]

    def test_show_kantianism(self, capsys):
        code, out, _ = run(capsys, "bases", "show", "Kantianism")
        assert code == 0
        assert "mutability: none" in out
        assert "specification=mereMeans" in out

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "bases", "show", "nosuch")
        assert code == 3
        assert "nosuch" in err

    def test_show_without_name_is_usage(self, capsys):
        code, _, _ = run(capsys, "bases", "show")
        assert code == 3

    def test_list_with_a_name_is_usage(self, capsys):
        code, out, err = run(capsys, "bases", "list", "Kantianism")
        assert (code, out) == (3, "")
        assert "error: bases list takes no name" in err


BUILTIN_BASES = PACKAGE_ROOT / "genet" / "data" / "bases"
INSTANTIATE = ["instantiate", "--base", "egoism", "--agent", "A", "--external", "0",
               "--substance", "0", "--name", "x"]
# The commands that load the base-template registry.
TEMPLATE_COMMANDS = pytest.mark.parametrize(
    "command", [["bases", "list"], ["bases", "show", "egoism"], INSTANTIATE,
                ["validate", str(theory_path("mia-egoism"))]],
    ids=["list", "show", "instantiate", "validate"])
# Top-level template values that type-check but admit no instance, and the
# freeFields key, which the format no longer has: bases show derives that line.
TEMPLATE_FAULTS = {"empty-name": {"name": ""},
                   "no-patient-kinds": {"fixedPatientKinds": []},
                   "repeated-patient-kind": {"fixedPatientKinds": ["human", "human"]},
                   "free-fields": {"freeFields": ["agent", "influenceThresholds",
                                                  "instanceName"]}}


@TEMPLATE_COMMANDS
@pytest.mark.parametrize("broken", ["invalid-json", "specification-5", "deep-nesting",
                                    "lone-surrogate", *TEMPLATE_FAULTS])
def test_malformed_template_is_usage(capsys, tmp_path, monkeypatch, command, broken):
    text = (BUILTIN_BASES / "egoism.json").read_text("utf-8")
    if broken == "invalid-json":
        text = text[:len(text) // 2]
    elif broken == "deep-nesting":
        text = "[" * 100_000
    elif broken in TEMPLATE_FAULTS:
        text = json.dumps({**json.loads(text), **TEMPLATE_FAULTS[broken]})
    else:
        data = json.loads(text)
        data["defaultPrinciples"][0]["specification"] = (
            5 if broken == "specification-5" else "x\ud800")
        text = json.dumps(data)
    (tmp_path / "bases").mkdir()
    (tmp_path / "bases" / "egoism.json").write_text(text)
    monkeypatch.setenv("GENET_BASE_DIR", str(tmp_path / "bases"))
    out = tmp_path / "x.xml"
    code, stdout, err = run(capsys, *command,
                            *(["--out", str(out)] if command == INSTANTIATE else []))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: malformed base-theory template ")
    assert "egoism.json" in err
    assert not out.exists()


@TEMPLATE_COMMANDS
def test_directory_entry_in_base_dir_is_usage(capsys, tmp_path, monkeypatch, command):
    (tmp_path / "bases").mkdir()
    shutil.copy(BUILTIN_BASES / "egoism.json", tmp_path / "bases")
    (tmp_path / "bases" / "dir.json").mkdir()
    monkeypatch.setenv("GENET_BASE_DIR", str(tmp_path / "bases"))
    out = tmp_path / "x.xml"
    code, stdout, err = run(capsys, *command,
                            *(["--out", str(out)] if command == INSTANTIATE else []))
    assert (code, stdout) == (3, "")
    assert err.startswith(f"error: cannot read base-theory template "
                          f"{tmp_path / 'bases' / 'dir.json'}: ")
    assert not out.exists()


@TEMPLATE_COMMANDS
def test_repeated_template_name_is_usage(capsys, tmp_path, monkeypatch, command):
    base_dir = tmp_path / "bases"
    base_dir.mkdir()
    for name in ("a.json", "b.json"):
        shutil.copy(BUILTIN_BASES / "egoism.json", base_dir / name)
    monkeypatch.setenv("GENET_BASE_DIR", str(base_dir))
    out = tmp_path / "x.xml"
    code, stdout, err = run(capsys, *command,
                            *(["--out", str(out)] if command == INSTANTIATE else []))
    assert (code, stdout, err) == (
        3, "", f"error: base-theory templates {base_dir / 'a.json'} and "
               f"{base_dir / 'b.json'} both give the name 'egoism'\n")
    assert not out.exists()


@TEMPLATE_COMMANDS
def test_missing_base_dir_is_usage(capsys, tmp_path, monkeypatch, command):
    # A misspelt GENET_BASE_DIR must not read as an empty registry.
    base_dir = tmp_path / "nonexistent"
    monkeypatch.setenv("GENET_BASE_DIR", str(base_dir))
    out = tmp_path / "x.xml"
    code, stdout, err = run(capsys, *command,
                            *(["--out", str(out)] if command == INSTANTIATE else []))
    assert (code, stdout, err) == (
        3, "", f"error: not a base-theory template directory: {base_dir}\n")
    assert not out.exists()


def _this_tree_env(**extra):
    """The environment with the directory of the imported `genet` package
    first on PYTHONPATH, so a subprocess runs this tree's code."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


def test_console_script_entry_point():
    """`python -m genet.cli` runs through the module's `__main__` guard; the
    console-script entry itself is checked by `test_installed_script`."""
    result = subprocess.run([sys.executable, "-m", "genet.cli", "bases", "list"],
                            capture_output=True, text=True, env=_this_tree_env())
    assert result.returncode == 0
    assert "utilitarianism" in result.stdout


def test_python_dash_m_genet():
    """`python -m genet` runs the CLI through `genet/__main__.py`."""
    result = subprocess.run([sys.executable, "-m", "genet", "bases", "list"],
                            capture_output=True, text=True, env=_this_tree_env())
    assert result.returncode == 0
    assert "Kantianism" in result.stdout


def test_import_stays_clear_of_the_network_and_email_stack():
    """`import genet.cli` loads none of the modules that
    `xml.sax.saxutils` pulls in, nor `dataclasses` and the `inspect` it
    imports, nor `genet.bases`, which only `instantiate` and `bases` use;
    each would add milliseconds to every command. Nor does it load
    `__future__`: genet's annotations are evaluated, so that each record
    field needs no compile() at import. `-S` keeps `.pth` hooks of
    site-packages out of the result."""
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, genet.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)))
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "genet.cli" in loaded
    assert loaded.isdisjoint({"urllib.request", "http.client", "email", "ssl",
                              "socket", "xml.sax", "dataclasses", "inspect",
                              "genet.bases", "__future__"})


MODULES_PROBE = """
import sys
{code}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "genet")))
"""
CLI_CODE = "from genet.cli import main; assert main(sys.argv[1:]) == 0"


@pytest.mark.parametrize("code, argv, modules", [
    ("import genet", [], {"genet"}),
    ("import genet; genet.bases.load_registry()", [],
     {"genet", "genet.model", "genet.bases"}),
    (CLI_CODE, ["validate", str(theory_path("doe-utilitarianism"))],
     {"genet", "genet.cli", "genet.model", "genet.xmlio", "genet.bases"}),
    (CLI_CODE, ["bases", "show", "egoism"],
     {"genet", "genet.cli", "genet.model", "genet.bases"}),
    (CLI_CODE, [*INSTANTIATE, "--out", "x.xml"],
     {"genet", "genet.cli", "genet.model", "genet.bases", "genet.xmlio"}),
    (CLI_CODE, ["reason", "--theory", str(theory_path("doe-utilitarianism")),
                "--scenario", str(scenario_path("marijuana"))],
     {"genet", "genet.cli", "genet.model", "genet.xmlio", "genet.scenario",
      "genet.reasoner"}),
], ids=["import", "load_registry", "validate", "bases-show", "instantiate", "reason"])
def test_each_entry_point_loads_only_its_layers(tmp_path, code, argv, modules):
    """Each layer loads on first use, so an entry point loads exactly the
    genet modules it runs; an eager import added later shows up here. `-S`
    keeps `.pth` hooks of site-packages out of the result."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_PROBE.format(code=code), *argv],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)))
    assert (result.returncode, result.stderr) == (0, "")
    assert set(result.stdout.splitlines()[-1].split()) == modules


LAZY_BASES_PROBE = """
import sys, genet
assert "genet.bases" not in sys.modules
assert "egoism" in genet.bases.load_registry().names()
from genet import (BaseTheoryTemplate, Mutability, PrincipleEdit, Registry,
                   check_conformance, instantiate, load_registry)
assert Registry is genet.bases.Registry
try:
    genet.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_bases_loads_on_first_use():
    """`genet.bases` and its re-exports load when first named, as
    `import genet; genet.bases.load_registry()` and `from genet import
    Registry` do; any other missing name is still an AttributeError."""
    result = subprocess.run([sys.executable, "-c", LAZY_BASES_PROBE],
                            capture_output=True, text=True, env=_this_tree_env())
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "module 'genet' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("argv, modules", [
    (["-c", "import genet; genet.bases.load_registry()"], {"genet.bases"}),
    (["-m", "genet.cli", "reason", "--theory", str(theory_path("mia-egoism")),
      "--scenario", str(scenario_path("mia"))],
     {"genet.xmlio", "genet.scenario", "genet.reasoner"}),
], ids=["load_registry", "reason"])
def test_importtime_lists_each_first_use_load(argv, modules):
    """A layer loaded on first use goes through the import statement, so
    `python -X importtime` gives it a line of its own; only the lines are
    checked, never their times."""
    result = subprocess.run([sys.executable, "-X", "importtime", *argv],
                            capture_output=True, text=True, env=_this_tree_env())
    assert result.returncode == 0, result.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    assert modules <= listed


def test_instantiate_in_a_fresh_process(tmp_path):
    out = tmp_path / "x.xml"
    result = subprocess.run([sys.executable, "-m", "genet", *INSTANTIATE,
                             "--out", str(out)],
                            capture_output=True, text=True, env=_this_tree_env())
    assert (result.returncode, result.stderr) == (0, "")
    assert parse_theory(out.read_bytes()).baseTheory == "egoism"


def _run_ascii_stdout(*argv, **env):
    return subprocess.run([sys.executable, "-m", "genet", *argv],
                          capture_output=True, text=True,
                          env=_this_tree_env(PYTHONIOENCODING="ascii", **env))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdout_that_cannot_encode_the_output(tmp_path, fmt):
    """Text output that stdout's encoding cannot carry is a usage error,
    not a traceback with exit 1; JSON escapes to ASCII and still works."""
    path = tmp_path / "te.scenario.json"
    path.write_bytes(scenario_bytes("trolley").replace(b'"T1"', '"Té"'.encode()))
    result = _run_ascii_stdout("reason", "--theory",
                               str(theory_path("trainco-utilitarianism")),
                               "--scenario", str(path), "--format", fmt)
    assert "Traceback" not in result.stderr
    if fmt == "json":
        assert result.returncode == 0
        assert json.loads(result.stdout)["chosen"] == ["Té"]
    else:
        assert result.returncode == 3
        assert result.stderr.splitlines()[-1].startswith(
            "error: cannot write the output to stdout: 'ascii' codec can't "
            "encode character '\\xe9'")


@pytest.mark.parametrize("command", [["bases", "list"], ["bases", "show", "égoïsme"]],
                         ids=["list", "show"])
def test_non_ascii_template_name_on_ascii_stdout(tmp_path, command):
    data = json.loads((BUILTIN_BASES / "egoism.json").read_text("utf-8"))
    data["name"] = "égoïsme"
    (tmp_path / "egoism.json").write_text(json.dumps(data), "utf-8")
    result = _run_ascii_stdout(*command, GENET_BASE_DIR=str(tmp_path))
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: cannot write the output to stdout: ")


def test_lone_surrogate_in_scenario_is_a_finding(tmp_path):
    """A lone surrogate cannot be written to stdout, so `reason` rejects the
    scenario that holds one, in a process as from a shell."""
    path = tmp_path / "surrogate.scenario.json"
    path.write_bytes(scenario_bytes("trolley").replace(b'"T1"', b'"T\\ud800"'))
    result = subprocess.run(
        [sys.executable, "-m", "genet", "reason", "--theory",
         str(theory_path("trainco-utilitarianism")), "--scenario", str(path)],
        capture_output=True, text=True, env=_this_tree_env())
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (f"PARSE_ERROR\t{path}\tnot valid JSON: string "
                             f"'T\\ud800' holds a character that XML 1.0 cannot carry\n")


def test_closed_stdout_is_usage(tmp_path):
    """A reader that stops early, as `genet reason … | head -c 100` does,
    ends the command with exit 3 and no traceback."""
    data = json.loads(scenario_bytes("trolley"))
    # A deontological request whose JSON output (about 0.6 MB) passes the
    # 64 KiB pipe buffer, so the write itself meets the closed pipe.
    data["actions"] = [f"A{i}" for i in range(300)]
    data["effects"] = []
    data["deontics"] = [{"action": f"A{i}", "specification": "kill", "holds": True,
                         "target": "worker"} for i in range(300)]
    path = tmp_path / "big.scenario.json"
    path.write_text(json.dumps(data))
    proc = subprocess.Popen(
        [sys.executable, "-m", "genet", "reason", "--theory",
         str(theory_path("trainco-dct")), "--scenario", str(path), "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_this_tree_env())
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (3, "")


def test_installed_script(tmp_path):
    """The `[project.scripts]` entry `genet` in pyproject.toml, run as the
    command `genet`, lists the bases.

    The suite runs from an uninstalled source tree, and a `genet` found on
    PATH may belong to another checkout. So the test writes the launcher that
    an installer writes for the entry, and runs it with this tree's package
    first on PYTHONPATH.
    """
    tomllib = pytest.importorskip(
        "tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    entry = EntryPoint("genet", scripts["genet"], group="console_scripts")
    # pip's (distlib's) console-script launcher template.
    launcher = tmp_path / "genet"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({entry.attr}())\n")
    launcher.chmod(0o755)
    env = _this_tree_env(
        PATH=os.pathsep.join(filter(None, [str(tmp_path),
                                           os.environ.get("PATH")])))
    result = subprocess.run(["genet", "bases", "list"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "Kantianism" in result.stdout.split()


def test_version_matches_pyproject():
    """`genet.__version__` and the `version` in pyproject.toml state one fact."""
    text = (REPO_ROOT / "pyproject.toml").read_text("utf-8")
    if sys.version_info >= (3, 11):
        import tomllib
        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]*)"$', text, flags=re.MULTILINE)[1]
    assert genet.__version__ == version
