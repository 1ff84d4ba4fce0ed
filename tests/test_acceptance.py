"""End-to-end acceptance suite.

Each criterion is one test that prints a single ``criterion N: PASS``
or ``criterion N: FAIL`` line (run with ``pytest -s`` to see them live;
they also appear in captured output).
"""

from __future__ import annotations

import functools
import random
import time

from genet.bases import (
    PrincipleEdit,
    check_conformance,
    instantiate,
    load_registry,
)
from genet.model import (
    EthicalTheoryInstance,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    validate_instance,
)
from genet.reasoner import DecisionKind, decide, evaluate
from genet.scenario import (
    ActionOption,
    EffectAssertion,
    Scenario,
    StakeholderGroup,
    load_scenario,
)
from genet.xmlio import emit_theory, parse_theory, schema_check
from .conftest import scenario_bytes, theory_bytes, VERBATIM_THEORIES
from . import test_reasoner
from .test_reasoner import EXPECTED_CHOICE, gate_voided, toy_theory


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL — {description}")
                raise
            print(f"criterion {number}: PASS — {description}")
        return run
    return wrap


@criterion(1, "full case-study outcome matrix reproduced in under 1 second")
def test_criterion_1_outcome_matrix(theories, scenarios):
    started = time.perf_counter()
    for (case, theory_name), (kind, chosen) in EXPECTED_CHOICE.items():
        decision = decide(theories[theory_name], scenarios[case])
        assert decision.kind.value == kind, (case, theory_name)
        assert tuple(sorted(decision.chosen)) == chosen, (case, theory_name)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"matrix took {elapsed:.3f}s"


@criterion(2, "the four shipped verbatim theory documents validate, parse, "
              "and conform to their base templates")
def test_criterion_2_verbatim_listings(registry):
    for name in VERBATIM_THEORIES:
        doc = theory_bytes(name)
        assert schema_check(doc).ok, name
        instance = parse_theory(doc)
        assert validate_instance(instance).ok, name
        assert check_conformance(instance, registry).conformant, name


def _random_instance(rng: random.Random) -> EthicalTheoryInstance:
    pool = "abcdefghijklmnopqrstuvwxyz"
    spicy = "é&<>\"'¡ñ你 "

    def token(n=8):
        return "".join(rng.choice(pool) for _ in range(rng.randint(1, n)))

    def text(n=12):
        return "".join(rng.choice(pool + spicy)
                       for _ in range(rng.randint(1, n))).strip() or "x"

    pairs = set()
    principles = []
    for _ in range(rng.randint(1, 8)):
        key = (token(), rng.choice(list(Subject)))
        if key in pairs:
            continue
        pairs.add(key)
        principles.append(MoralPrinciple(rng.random() < 0.5, key[1], key[0]))
    kinds = frozenset(rng.sample(list(PatientKind),
                                 rng.randint(1, len(PatientKind))))
    return EthicalTheoryInstance(
        baseTheory=token(),
        instanceName=rng.choice([None, text()]),
        consequentiality=rng.random() < 0.5,
        agent=MoralAgent(text(), rng.choice([None, f"http://example.org/{token()}"])),
        patientKinds=kinds,
        influenceThresholds=InfluenceThresholds(rng.randint(0, 100),
                                                rng.randint(0, 100)),
        principles=tuple(principles))


@criterion(3, "1000 generated theory instances survive an emit/parse round "
              "trip bit-for-bit at the model level")
def test_criterion_3_round_trips():
    rng = random.Random(3)
    for _ in range(1000):
        instance = _random_instance(rng)
        assert parse_theory(emit_theory(instance)) == instance


@criterion(4, "all eight mutability cases (allowed and forbidden edits for "
              "each base template) behave as specified")
def test_criterion_4_mutability(registry):
    agent = MoralAgent("A")
    thresholds = InfluenceThresholds(50, 30)
    add = PrincipleEdit.add(MoralPrinciple(True, Subject.ALL, "extraPrinciple"))
    cases = [
        # (template, edits, should_succeed)
        ("utilitarianism",
         [PrincipleEdit.remove(MoralPrinciple(True, Subject.ALL,
                                              "loveSatisfaction"))], True),
        ("utilitarianism", [add], False),
        ("ChristianDivineCommandTheory", [add], True),
        ("ChristianDivineCommandTheory",
         [PrincipleEdit.remove(MoralPrinciple(False, Subject.PATIENTS,
                                              "kill"))], False),
        ("egoism", [add], True),
        ("egoism",
         [PrincipleEdit.remove(MoralPrinciple(True, Subject.AGENT,
                                              "esteemSatisfaction"))], True),
        ("Kantianism", [add], False),
        ("Kantianism",
         [PrincipleEdit.remove(MoralPrinciple(False, Subject.ALL,
                                              "mereMeans"))], False),
    ]
    assert len(cases) == 8
    for base_name, edits, should_succeed in cases:
        template = registry.get(base_name)
        if should_succeed:
            instance = instantiate(template, agent=agent, thresholds=thresholds,
                                   edits=edits)
            assert check_conformance(instance, registry).conformant, base_name
        else:
            try:
                instantiate(template, agent=agent, thresholds=thresholds,
                            edits=edits)
            except GenetError as exc:
                assert exc.code == "MUTABILITY_VIOLATION", base_name
            else:
                raise AssertionError(f"{base_name}: forbidden edit accepted")


@criterion(5, "the influence gate matches the full 15-cell hand-derived "
              "boundary table for both influence kinds")
def test_criterion_5_gate_boundary_table():
    for threshold, level, voided in test_reasoner.TestInfluenceGate.TABLE:
        assert gate_voided((0, threshold), "substance", level) is voided, (threshold, level)
        assert gate_voided((threshold, 0), "external", level) is voided, (threshold, level)


def _random_group_scenario(rng: random.Random) -> Scenario:
    groups = tuple(
        StakeholderGroup(f"g{i}", "patientGroup", PatientKind.HUMAN,
                         rng.randint(1, 50))
        for i in range(rng.randint(1, 3)))
    actions = tuple(ActionOption(f"a{i}") for i in range(rng.randint(2, 4)))
    effects = tuple(
        EffectAssertion(rng.choice(actions).id, rng.choice(["good", "bad"]),
                        rng.choice(["increase", "decrease"]),
                        rng.choice(groups).id)
        for _ in range(rng.randint(0, 10)))
    return Scenario("generated", "Agent", groups, actions, effects, ())


def _scaled(scenario: Scenario, k: int) -> Scenario:
    return scenario._replace(groups=tuple(g._replace(cardinality=g.cardinality * k)
                                          for g in scenario.groups))


@criterion(6, "consequentialist scores scale linearly and decisions are "
              "invariant under group scaling (200 + 200 random fixtures, "
              "k in {2, 10, 1000})")
def test_criterion_6_scale_invariance():
    theory = toy_theory()
    rng = random.Random(6)
    for _ in range(200):  # batch 1: per-action score linearity
        scenario = _random_group_scenario(rng)
        for k in (2, 10, 1000):
            scaled = _scaled(scenario, k)
            for action in scenario.action_ids():
                assert evaluate(theory, scaled, action).score \
                    == evaluate(theory, scenario, action).score * k
    for _ in range(200):  # batch 2: cross-action decision invariance
        scenario = _random_group_scenario(rng)
        base = decide(theory, scenario)
        for k in (2, 10, 1000):
            big = decide(theory, _scaled(scenario, k))
            assert big.kind is base.kind
            assert big.chosen == base.chosen
            assert big.tied == base.tied


@criterion(7, "the recreational-use verdict is robust to the size of the "
              "public group (5, 10, 100, and 1,000,000 members)")
def test_criterion_7_public_size_robustness(theories):
    theory = theories["doe-utilitarianism"]
    scenario = load_scenario(scenario_bytes("marijuana"))
    assert {g.id: g.cardinality for g in scenario.groups}["family"] == 4
    for size in (5, 10, 100, 10 ** 6):
        resized = scenario._replace(groups=tuple(
            g._replace(cardinality=size) if g.id == "public" else g
            for g in scenario.groups))
        decision = decide(theory, resized)
        assert decision.kind is DecisionKind.DECIDED, size
        assert decision.chosen == ("M1",), size


@criterion(8, "100 randomized symmetric two-action fixtures all end in an "
              "honestly reported conflict, never an arbitrary winner")
def test_criterion_8_conflict_honesty():
    theory = toy_theory()
    rng = random.Random(8)
    for _ in range(100):
        groups = tuple(
            StakeholderGroup(f"g{i}", "patientGroup", PatientKind.HUMAN,
                             rng.randint(1, 50))
            for i in range(rng.randint(1, 3)))
        template = [
            (rng.choice(["good", "bad"]), rng.choice(["increase", "decrease"]),
             rng.choice(groups).id)
            for _ in range(rng.randint(0, 6))]
        effects = tuple(
            EffectAssertion(action, spec, direction, target)
            for action in ("a0", "a1")
            for spec, direction, target in template)
        scenario = Scenario("sym", "Agent", groups,
                            (ActionOption("a0"), ActionOption("a1")),
                            effects, ())
        decision = decide(theory, scenario)
        assert decision.kind is DecisionKind.CONFLICT
        assert decision.chosen == ()
        assert sorted(decision.tied) == ["a0", "a1"]


@criterion(9, "a 13-document rejection corpus is refused with 13 distinct "
              "schema violation codes")
def test_criterion_9_rejection_corpus():
    good = theory_bytes("mia-egoism")

    def edit(old: bytes, new: bytes) -> bytes:
        assert old in good
        return good.replace(old, new, 1)

    corpus = [
        (good[:40], "WELL_FORMEDNESS"),
        (edit(b'xmlns="http://genet.cs.uct.ac.za"',
              b'xmlns="http://example.org/nope"'), "NAMESPACE_MISMATCH"),
        (edit(b' consequentiality="true"', b''), "MISSING_ATTRIBUTE"),
        (edit(b'baseTheory="egoism"',
              b'baseTheory="egoism" vintage="1789"'), "UNEXPECTED_ATTRIBUTE"),
        (edit(b'<influenceThresholds external="50" substance="30" />', b''),
         "MISSING_ELEMENT"),
        (edit(b'</principles>', b'</principles><appendix/>'),
         "UNEXPECTED_ELEMENT"),
        (edit(b'</principles>', b'loose prose</principles>'), "UNEXPECTED_TEXT"),
        (edit(b'consequentiality="true"', b'consequentiality="maybe"'),
         "BAD_BOOLEAN"),
        (edit(b'substance="30"', b'substance="thirty"'), "BAD_INTEGER"),
        (edit(b'external="50"', b'external="101"'), "PERCENT_OUT_OF_RANGE"),
        (edit(b'<patientKind>human</patientKind>',
              b'<patientKind>robot</patientKind>'), "ENUM_VIOLATION"),
        (edit(b'<patientKind>human</patientKind>', b''), "MIN_OCCURS"),
        (edit(b'<patientKind>human</patientKind>',
              b'<patientKind>human</patientKind>'
              b'<patientKind>human</patientKind>'), "DUPLICATE_PATIENT_KIND"),
    ]
    assert len(corpus) >= 12
    seen_codes = []
    for doc, expected_code in corpus:
        report = schema_check(doc)
        assert not report.ok, expected_code
        assert expected_code in report.codes(), (expected_code, report.codes())
        seen_codes.append(expected_code)
    assert len(set(seen_codes)) == len(seen_codes)
