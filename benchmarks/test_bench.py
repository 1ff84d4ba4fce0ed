"""Tests of the benchmark itself: generator determinism, the oracle
against the paper's table and against genet, and the output checks.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import synth

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "genet" / "data" / "fixtures"


def fixture_pair(case: str, theory_name: str) -> tuple[bytes, bytes]:
    return ((FIXTURES / "theories" / f"{theory_name}.xml").read_bytes(),
            (FIXTURES / "scenarios" / f"{case}.scenario.json").read_bytes())


@pytest.mark.parametrize("mode", ["conseq", "deon"])
def test_generator_is_deterministic(mode):
    first = synth.make_requests(mode, 7, 5)
    again = synth.make_requests(mode, 7, 5)
    other = synth.make_requests(mode, 8, 5)
    assert [(r.theory_doc, r.scenario_doc) for r in first] == \
           [(r.theory_doc, r.scenario_doc) for r in again]
    assert [r.scenario_doc for r in first] != [r.scenario_doc for r in other]


@pytest.mark.parametrize("mode", ["conseq", "deon"])
def test_generator_covers_the_size_ranges(mode):
    requests = synth.make_requests(mode, 3, 20)
    key = "effects" if mode == "conseq" else "deontics"
    assertions = sorted(len(r.scenario[key]) for r in requests)
    assert 100 <= assertions[0] < 120 and 1300 < assertions[-1] <= 1600
    for r in requests:
        assert 4 <= len(r.scenario["actions"]) <= 16
        assert 4 <= len(r.scenario["groups"]) <= 16
        assert 50 <= len(r.theory["principles"]) <= 200


@pytest.mark.parametrize("case,theory_name", sorted(oracle.PAPER_TABLE))
def test_oracle_reproduces_the_paper_table(case, theory_name):
    theory_doc, scenario_doc = fixture_pair(case, theory_name)
    expected = oracle.decide(oracle.decode_theory_xml(theory_doc), json.loads(scenario_doc))
    assert (expected.kind, expected.chosen) == oracle.PAPER_TABLE[(case, theory_name)]
    assert expected.exit_code == (2 if (case, theory_name) == ("mia", "mia-dct") else 0)


@pytest.mark.parametrize("mode", ["conseq", "deon"])
def test_oracle_agrees_with_genet_on_synthetic_requests(mode):
    from genet import decide, load_scenario, parse_theory
    for request in synth.make_requests(mode, 11, 6):
        expected = oracle.decide(request.theory, request.scenario)
        decision = decide(parse_theory(request.theory_doc),
                          load_scenario(request.scenario_doc))
        assert decision.kind.value == expected.kind
        assert tuple(sorted(decision.chosen)) == expected.chosen
        assert {e.action: (e.verdict.value, e.score)
                for e in decision.evaluations} == expected.verdicts


def test_output_checks_catch_a_wrong_verdict():
    import harness
    from genet import bases
    checkout = harness.Checkout(ROOT)
    request = next(r for r in harness.paper_requests(checkout)
                   if r.name == "trolleyxtrainco-utilitarianism")
    out = harness.serve_lib(request, bases.load_registry())
    assert harness.check_lib(out, request.expected) is None
    wrong = replace(request.expected, chosen=("T2",))
    assert harness.check_lib(out, wrong) is not None
    assert harness.check_text(out.text, wrong) is not None
    assert harness.check_tree(json.loads(out.json_text), wrong) is not None


def test_run_prints_the_result_line_last():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "paper-lib",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert sorted(result["metrics"]) == ["peak_rss_mb", "request_ms_p50", "request_ms_p90",
                                         "requests_per_s", "setup_s"]


def test_run_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                           "--workload", "paper-lib", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
