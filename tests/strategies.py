"""Hypothesis strategies for generated theory instances and scenarios."""

from __future__ import annotations

from hypothesis import strategies as st

from genet.model import (
    EthicalTheoryInstance,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
)
from genet.scenario import (
    AGENT,
    ActionOption,
    DeonticAssertion,
    EffectAssertion,
    RequestContext,
    Scenario,
    StakeholderGroup,
)

# XML cannot carry control characters or surrogates at all.
xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1, max_size=30)

tokens = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
                 min_size=1, max_size=20)

percentages = st.integers(min_value=0, max_value=100)

principles = st.builds(MoralPrinciple,
                       morality=st.booleans(),
                       subject=st.sampled_from(list(Subject)),
                       specification=tokens)


@st.composite
def principle_lists(draw, min_size=1, max_size=8):
    """Ordered principle lists with unique (specification, subject) pairs."""
    drawn = draw(st.lists(principles, min_size=min_size, max_size=max_size * 2))
    seen, out = set(), []
    for p in drawn:
        key = (p.specification, p.subject)
        if key not in seen:
            seen.add(key)
            out.append(p)
    if not out:
        out = [draw(principles)]
    return tuple(out[:max_size])


valid_instances = st.builds(
    EthicalTheoryInstance,
    baseTheory=tokens,
    instanceName=st.one_of(st.none(), xml_text),
    consequentiality=st.booleans(),
    agent=st.builds(MoralAgent,
                    name=xml_text,
                    reference=st.one_of(st.none(),
                                        tokens.map(lambda t: f"http://example.org/{t}"))),
    patientKinds=st.frozensets(st.sampled_from(list(PatientKind)), min_size=1),
    influenceThresholds=st.builds(InfluenceThresholds,
                                  external=percentages, substance=percentages),
    principles=principle_lists(),
)


@st.composite
def group_scenarios(draw, specs=("good", "bad"), n_actions=(2, 4)):
    """Consequentialist scenarios whose effects all target groups.

    Used for the scale-invariance property, where the agent's fixed
    weight of 1 would be the one non-scaling term.
    """
    n_groups = draw(st.integers(1, 3))
    groups = tuple(
        StakeholderGroup(id=f"g{i}", kind="patientGroup",
                         patientKind=draw(st.sampled_from(list(PatientKind))),
                         cardinality=draw(st.integers(1, 50)))
        for i in range(n_groups))
    count = draw(st.integers(*n_actions))
    actions = tuple(ActionOption(id=f"a{i}") for i in range(count))
    effects = tuple(
        EffectAssertion(action=draw(st.sampled_from([a.id for a in actions])),
                        specification=draw(st.sampled_from(list(specs))),
                        direction=draw(st.sampled_from(["increase", "decrease"])),
                        target=draw(st.sampled_from([g.id for g in groups])))
        for _ in range(draw(st.integers(0, 10))))
    return Scenario(name="generated", actingFor="Agent", groups=groups,
                    actions=actions, effects=effects, deontics=())


@st.composite
def theory_scenarios(draw):
    """A theory instance of either mode and a scenario whose effects and
    deontic assertions name its principles' specifications (plus one that
    no principle covers), target groups and the agent, and may carry a
    request."""
    theory = draw(valid_instances)
    specs = sorted({p.specification for p in theory.principles}) + ["unmatched"]
    n_groups = draw(st.integers(0, 3))
    groups = tuple(
        StakeholderGroup(id=f"g{i}", kind="patientGroup",
                         patientKind=draw(st.sampled_from(list(PatientKind))),
                         cardinality=draw(st.integers(1, 50)))
        for i in range(n_groups))
    action_ids = [f"a{i}" for i in range(draw(st.integers(2, 4)))]
    targets = [g.id for g in groups] + [AGENT]
    effects = tuple(
        EffectAssertion(action=draw(st.sampled_from(action_ids)),
                        specification=draw(st.sampled_from(specs)),
                        direction=draw(st.sampled_from(["increase", "decrease"])),
                        target=draw(st.sampled_from(targets)),
                        requestDerived=draw(st.booleans()))
        for _ in range(draw(st.integers(0, 10))))
    deontics = tuple(
        DeonticAssertion(action=draw(st.sampled_from(action_ids)),
                         specification=draw(st.sampled_from(specs)),
                         holds=draw(st.booleans()),
                         target=draw(st.sampled_from(targets)))
        for _ in range(draw(st.integers(0, 10))))
    request = draw(st.one_of(st.none(), st.builds(
        RequestContext,
        requester=st.sampled_from(targets),
        influenceKind=st.sampled_from(["substance", "external"]),
        influenceLevel=percentages,
        requestedAction=st.sampled_from(action_ids))))
    scenario = Scenario(name="generated", actingFor=theory.agent.name, groups=groups,
                        actions=tuple(ActionOption(id=a) for a in action_ids),
                        effects=effects, deontics=deontics, request=request)
    return theory, scenario
