from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import genet
from genet.cli import main
from genet.fixtures import scenario_path, theory_path
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

    def test_threshold_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.xml"
        path.write_bytes(theory_bytes("doe-utilitarianism").replace(
            b'external="50"', b'external="' + b"1" * 4400 + b'"'))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert out.startswith("PERCENT_OUT_OF_RANGE\t/ethicalTheory/influenceThresholds"
                              "@external\tpercentage 1111")

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
        (["--agent", ""], "EMPTY_AGENT_NAME\tagent.name\tagent name must be non-empty"),
        (["--agent-ref", "not a uri"],
         "BAD_URI\tagent.reference\tnot syntactically a URI: 'not a uri'"),
    ], ids=["external-150", "empty-agent", "bad-agent-ref"])
    def test_invalid_instance_prints_its_violations(self, capsys, tmp_path, options,
                                                    finding):
        out_path = tmp_path / "x.xml"
        # The last of a repeated option wins.
        code, out, err = run(capsys, *INSTANTIATE, *options, "--out", str(out_path))
        assert (code, out, err) == (1, finding + "\n", "")
        assert not out_path.exists()

    def test_free_patient_kinds_are_reported_at_patient_kinds(self, capsys, tmp_path,
                                                              monkeypatch):
        data = json.loads((BUILTIN_BASES / "egoism.json").read_text("utf-8"))
        del data["fixedPatientKinds"]
        (tmp_path / "egoism.json").write_text(json.dumps(data))
        monkeypatch.setenv("GENET_BASE_DIR", str(tmp_path))
        code, out, _ = run(capsys, *INSTANTIATE, "--out", str(tmp_path / "x.xml"))
        assert (code, out) == (1, "FIXED_FIELD_VIOLATION\tpatientKinds\tegoism leaves "
                                  "patientKinds free; the instantiator must supply them\n")

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

    def test_invalid_theory_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_bytes(b"<ethicalTheory>")
        code, _, err = run(capsys, "reason", "--theory", str(path),
                           "--scenario", str(scenario_path("trolley")))
        assert code == 1
        assert err.startswith("WELL_FORMEDNESS\t")

    @pytest.mark.parametrize("name", ["deep", "huge-integer", "huge-cardinality"])
    def test_undecodable_or_oversized_scenario_exits_1(self, capsys, tmp_path, name):
        data = json.loads(scenario_bytes("trolley"))
        data["groups"][1]["cardinality"] = int("9" * 4300)
        # Two goods on the huge group: their summed score has 4,301 digits.
        data["effects"] += [{"action": "T2", "specification": "physiologySatisfaction",
                             "direction": "increase", "target": "worker"}] * 2
        text = {"deep": "[" * 100_000,
                "huge-integer": json.dumps(data).replace("9" * 4300, "1" * 4400),
                "huge-cardinality": json.dumps(data)}[name]
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


BUILTIN_BASES = PACKAGE_ROOT / "genet" / "data" / "bases"
INSTANTIATE = ["instantiate", "--base", "egoism", "--agent", "A", "--external", "0",
               "--substance", "0", "--name", "x"]


@pytest.mark.parametrize("command", [["bases", "list"], ["bases", "show", "egoism"],
                                     INSTANTIATE], ids=["list", "show", "instantiate"])
@pytest.mark.parametrize("broken", ["invalid-json", "specification-5", "deep-nesting"])
def test_malformed_template_is_usage(capsys, tmp_path, monkeypatch, command, broken):
    text = (BUILTIN_BASES / "egoism.json").read_text("utf-8")
    if broken == "invalid-json":
        text = text[:len(text) // 2]
    elif broken == "deep-nesting":
        text = "[" * 100_000
    else:
        data = json.loads(text)
        data["defaultPrinciples"][0]["specification"] = 5
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


@pytest.mark.parametrize("command", [["bases", "list"], ["bases", "show", "egoism"],
                                     INSTANTIATE], ids=["list", "show", "instantiate"])
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
