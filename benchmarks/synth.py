"""Seeded synthetic requests: one theory XML document and one scenario
JSON document per request, plus the plain-dict forms the oracle reads.

The same (mode, seed, count) always gives the same bytes. The sizes
of the ``count`` requests follow a fixed low-discrepancy plan: request
i takes the i-th of ``count`` equal strata of the assertion count, and
its other sizes follow additive recurrences (i times an irrational,
modulo 1). The seed moves each size only within a 1/count cell of its
plan point, and draws every document's content and the request order.
So the cost profile of a run is the same for every seed, and
run-to-run spread measures the program and the machine, not the luck
of the size mix.

Size ranges (per request): 4-16 actions, 4-16 groups, 50-200
principles, and 100-1600 effects (``conseq``) or deontic assertions
(``deon``), log-uniform.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

AGENT = "AGENT"
SUBJECTS = ("agent", "patients", "all")

# Base templates the generated theories conform to: egoism allows any
# principle edit and fixes patient kinds to human; the divine command
# theory allows additions to its six defaults.
EGOISM_KINDS = ("human",)
DCT_KINDS = ("human", "otherAnimal", "nature")
DCT_DEFAULTS = ((False, "patients", "blasphemy"), (True, "patients", "respectParents"),
                (False, "patients", "kill"), (False, "patients", "adultery"),
                (False, "patients", "theft"), (False, "patients", "lie"))


@dataclass(frozen=True)
class SynthRequest:
    name: str
    theory: dict
    scenario: dict
    theory_doc: bytes
    scenario_doc: bytes


# Fractional parts of the golden ratio, sqrt 2 and sqrt 3: steps of
# additive recurrences that spread points evenly over [0, 1).
STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


def _sizes(rng: random.Random, count: int) -> list[tuple[float, ...]]:
    """``count`` points of [0, 1)^4, spread evenly, in seeded order."""
    points = [((i + rng.random()) / count,
               *((i * step + rng.random() / count) % 1.0 for step in STEPS))
              for i in range(count)]
    rng.shuffle(points)
    return points


def _linear(u: float, low: int, high: int) -> int:
    return min(high, low + int(u * (high - low + 1)))


def _log(u: float, low: int, high: int) -> int:
    return min(high, int(low * math.exp(u * math.log(high / low))))


def theory_xml(theory: dict) -> bytes:
    """Serialise a theory dict as a schema-valid genet theory document."""
    def flag(value: bool) -> str:
        return "true" if value else "false"

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<ethicalTheory xmlns="http://genet.cs.uct.ac.za" '
             f'baseTheory={quoteattr(theory["baseTheory"])} '
             f'instanceName={quoteattr(theory["instanceName"])} '
             f'consequentiality="{flag(theory["consequentiality"])}">',
             f'  <agent name={quoteattr(theory["agent"])}/>',
             '  <patientKinds>']
    lines += [f'    <patientKind>{k}</patientKind>' for k in theory["patientKinds"]]
    lines += ['  </patientKinds>',
              f'  <influenceThresholds external="{theory["thresholds"]["external"]}" '
              f'substance="{theory["thresholds"]["substance"]}"/>',
              '  <principles>']
    lines += [f'    <principle morality="{flag(m)}" subject="{s}" specification="{spec}"/>'
              for m, s, spec in theory["principles"]]
    lines += ['  </principles>', '</ethicalTheory>', '']
    return "\n".join(lines).encode("utf-8")


def _principles(rng: random.Random, count: int, defaults=(), shared=False) -> list[tuple]:
    """``count`` principles with unique (specification, subject) pairs.

    With ``shared``, there are fewer specifications than principles, so
    some specifications carry one principle per subject and an effect can
    engage two principles. Otherwise each specification has one principle.
    """
    principles = list(defaults)
    seen = {(spec, subject) for _, subject, spec in principles}
    vocabulary = max(1, int(count * 0.8)) if shared else count
    while len(principles) < count:
        spec = f"s{rng.randrange(vocabulary) if shared else len(principles)}"
        subject = rng.choice(SUBJECTS)
        if (spec, subject) not in seen:
            seen.add((spec, subject))
            principles.append((rng.random() < 0.75, subject, spec))
    return principles


def _groups(rng: random.Random, count: int, excluded_kinds: tuple) -> list[dict]:
    groups = []
    for i in range(count):
        # About one group in five is of a patient kind the theory excludes.
        if rng.random() < 0.2:
            kind = rng.choice(excluded_kinds)
        else:
            kind = "human"
        groups.append({"id": f"g{i}", "kind": rng.choice(("agentGroup", "patientGroup")),
                       "patientKind": kind, "cardinality": _log(rng.random(), 1, 10000)})
    return groups


def _target(rng: random.Random, groups: list[dict]) -> str:
    return AGENT if rng.random() < 0.2 else rng.choice(groups)["id"]


def conseq_request(rng, name, seed, actions, groups, principles, effects) -> tuple:
    agent = f"Agent {seed}"
    theory = {"baseTheory": "egoism", "instanceName": name, "consequentiality": True,
              "agent": agent, "patientKinds": list(EGOISM_KINDS),
              "thresholds": {"external": rng.randrange(101), "substance": rng.randrange(101)},
              "principles": _principles(rng, principles, shared=True)}
    action_ids = [f"a{i}" for i in range(actions)]
    group_list = _groups(rng, groups, ("otherAnimal", "nature", "otherSentient"))
    specs = sorted({spec for _, _, spec in theory["principles"]})
    effect_list = []
    for _ in range(effects):
        # About one effect in ten names a specification no principle has.
        spec = f"inert{rng.randrange(20)}" if rng.random() < 0.1 else rng.choice(specs)
        effect = {"action": rng.choice(action_ids), "specification": spec,
                  "direction": rng.choice(("increase", "decrease")),
                  "target": _target(rng, group_list)}
        if rng.random() < 0.1:
            effect["requestDerived"] = True
        effect_list.append(effect)
    scenario = {"scenario": name, "actingFor": agent, "groups": group_list,
                "actions": action_ids, "effects": effect_list, "deontics": [],
                "request": {"requester": _target(rng, group_list),
                            "influenceKind": rng.choice(("substance", "external")),
                            "influenceLevel": rng.randrange(101),
                            "requestedAction": rng.choice(action_ids)}}
    return theory, scenario


def deon_request(rng, name, seed, actions, groups, principles, deontics) -> tuple:
    agent = f"Agent {seed}"
    theory = {"baseTheory": "ChristianDivineCommandTheory", "instanceName": name,
              "consequentiality": False, "agent": agent, "patientKinds": list(DCT_KINDS),
              "thresholds": {"external": rng.randrange(101), "substance": rng.randrange(101)},
              "principles": _principles(rng, principles, DCT_DEFAULTS)}
    action_ids = [f"a{i}" for i in range(actions)]
    group_list = _groups(rng, groups, ("otherSentient",))
    # A few actions assert only what their principles ask; the others
    # slip now and then, so most of them are wrong and decisions come out
    # decided, several permissible, or in conflict.
    clean = set(rng.sample(action_ids, rng.choice((0, 1, 1, 1, 2, 3))))
    slip = {a: 0.0 if a in clean else 0.3 for a in action_ids}
    assertions = []
    for _ in range(deontics):
        action = rng.choice(action_ids)
        morality, _, spec = rng.choice(theory["principles"])
        if rng.random() < 0.1:
            spec, morality = f"unmatched{rng.randrange(20)}", rng.random() < 0.5
        holds = morality != (rng.random() < slip[action])
        assertions.append({"action": action, "specification": spec, "holds": holds,
                           "target": _target(rng, group_list)})
    scenario = {"scenario": name, "actingFor": agent, "groups": group_list,
                "actions": action_ids, "effects": [], "deontics": assertions}
    return theory, scenario


def make_requests(mode: str, seed: int, count: int) -> list[SynthRequest]:
    """``count`` requests for ``mode`` (``conseq`` or ``deon``)."""
    if mode not in ("conseq", "deon"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(f"genet-{mode}-{seed}")
    build = conseq_request if mode == "conseq" else deon_request
    out = []
    for i, (u_n, u_a, u_g, u_p) in enumerate(_sizes(rng, count)):
        name = f"{mode}-{seed}-{i}"
        theory, scenario = build(rng, name, seed, _linear(u_a, 4, 16), _linear(u_g, 4, 16),
                                 _linear(u_p, 50, 200), _log(u_n, 100, 1600))
        out.append(SynthRequest(name, theory, scenario, theory_xml(theory),
                                json.dumps(scenario).encode("utf-8")))
    return out
