"""Reference verdicts for the benchmark, computed without genet.

Theories and scenarios are plain dicts here: a theory is
``{"baseTheory", "consequentiality", "agent", "patientKinds",
"thresholds", "principles"}`` with principles as
``(morality, subject, specification)`` triples, and a scenario is the
decoded scenario JSON object. ``decode_theory_xml`` reads the shipped
fixture documents into that form with ElementTree alone, so neither the
oracle nor its inputs depend on the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.etree import ElementTree

NS = "{http://genet.cs.uct.ac.za}"
AGENT = "AGENT"

# The paper's case-study outcome matrix, copied by hand from the case
# studies: (case, theory fixture) -> (decision kind, chosen actions, sorted).
PAPER_TABLE = {
    ("trolley", "trainco-utilitarianism"): ("decided", ("T1",)),
    ("trolley", "trainco-egoism"): ("decided", ("T1",)),
    ("trolley", "trainco-dct"): ("decided", ("T2",)),
    ("trolley", "trainco-kantianism"): ("decided", ("T2",)),
    ("mia", "mia-utilitarianism"): ("decided", ("A2",)),
    ("mia", "mia-egoism"): ("decided", ("A2",)),
    ("mia", "mia-dct"): ("multiplePermissible", ("A1", "A2")),
    ("mia", "mia-kantianism"): ("decided", ("A1",)),
    ("marijuana", "doe-utilitarianism"): ("decided", ("M1",)),
    ("marijuana", "doe-egoism"): ("decided", ("M2",)),
    ("marijuana", "doe-dct"): ("decided", ("M1",)),
    ("marijuana", "doe-kantianism"): ("decided", ("M1",)),
}

# `genet reason` exit codes: 0 when decided, 2 for a conflict or several
# permissible actions (so mia x mia-dct exits 2).
EXIT_CODES = {"decided": 0, "multiplePermissible": 2, "conflict": 2}


@dataclass(frozen=True)
class Expected:
    kind: str
    chosen: tuple[str, ...]  # sorted
    verdicts: dict  # action -> (verdict, score or None)
    inert_effects: int  # cross-check INERT_SPECIFICATION warnings
    excluded_groups: int  # cross-check EXCLUDED_PATIENT_KIND warnings

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.kind]


def decode_theory_xml(doc: bytes) -> dict:
    root = ElementTree.fromstring(doc)
    agent = root.find(f"{NS}agent")
    thresholds = root.find(f"{NS}influenceThresholds")
    return {
        "baseTheory": root.get("baseTheory"),
        "consequentiality": root.get("consequentiality") in ("true", "1"),
        "agent": agent.get("name"),
        "patientKinds": [k.text.strip() for k in root.iter(f"{NS}patientKind")],
        "thresholds": {"external": int(thresholds.get("external")),
                       "substance": int(thresholds.get("substance"))},
        "principles": [(p.get("morality") in ("true", "1"), p.get("subject"),
                        p.get("specification"))
                       for p in root.iter(f"{NS}principle")],
    }


def _covers(subject: str, target: str) -> bool:
    return subject == "all" or subject == ("agent" if target == AGENT else "patients")


def _matches(theory: dict, specification: str, target: str) -> list[bool]:
    """Moralities of the principles an assertion on ``target`` engages."""
    return [morality for morality, subject, spec in theory["principles"]
            if spec == specification and _covers(subject, target)]


def _action_ids(scenario: dict) -> list[str]:
    return [a if isinstance(a, str) else a["id"] for a in scenario["actions"]]


def _voided(theory: dict, request: dict | None) -> bool:
    if request is None:
        return False
    return request["influenceLevel"] > theory["thresholds"][request["influenceKind"]]


def _consequentialist(theory: dict, scenario: dict) -> tuple[str, tuple, dict]:
    groups = {g["id"]: g for g in scenario["groups"]}
    kinds = set(theory["patientKinds"])
    voided = _voided(theory, scenario.get("request"))
    scores = {a: 0 for a in _action_ids(scenario)}
    ledgers = {a: 0 for a in scores}
    for effect in scenario["effects"]:
        target = effect["target"]
        if target == AGENT:
            weight = 1
        else:
            group = groups[target]
            weight = group["cardinality"] if group["patientKind"] in kinds else 0
        direction = 1 if effect["direction"] == "increase" else -1
        for morality in _matches(theory, effect["specification"], target):
            value = direction * (1 if morality else -1) * weight
            if effect.get("requestDerived", False) and voided and value > 0:
                ledgers[effect["action"]] += 1
            else:
                scores[effect["action"]] += value

    def verdict(action: str) -> str:
        score = scores[action]
        if score:
            return "wrong" if score < 0 else "obligatoryBest"
        return "supererogatory" if ledgers[action] else "permissible"

    verdicts = {a: verdict(a) for a in scores}
    best = max(scores.values())
    tied = [a for a in scores if scores[a] == best]
    if len(tied) > 1 and best == 0:
        supererogatory = [a for a in tied if verdicts[a] == "supererogatory"]
        if len(supererogatory) == 1:
            tied = supererogatory
    if len(tied) == 1:
        for a in verdicts:
            if a == tied[0]:
                verdicts[a] = "obligatoryBest"
            elif verdicts[a] == "obligatoryBest":
                verdicts[a] = "permissible"
        kind, chosen = "decided", tuple(tied)
    else:
        for a in tied:
            verdicts[a] = "undecidable"
        kind, chosen = "conflict", ()
    return kind, chosen, {a: (verdicts[a], scores[a]) for a in scores}


def _deontological(theory: dict, scenario: dict) -> tuple[str, tuple, dict]:
    wrong = set()
    for assertion in scenario["deontics"]:
        for morality in _matches(theory, assertion["specification"], assertion["target"]):
            if morality != assertion["holds"]:
                wrong.add(assertion["action"])
    actions = _action_ids(scenario)
    permissible = tuple(sorted(a for a in actions if a not in wrong))
    kind = ("decided" if len(permissible) == 1 else
            "multiplePermissible" if permissible else "conflict")
    verdicts = {a: ("wrong" if a in wrong else "permissible", None) for a in actions}
    return kind, permissible, verdicts


def decide(theory: dict, scenario: dict) -> Expected:
    """The decision genet must reach for this theory and scenario."""
    if theory["consequentiality"]:
        kind, chosen, verdicts = _consequentialist(theory, scenario)
        inert = sum(1 for e in scenario["effects"]
                    if not _matches(theory, e["specification"], e["target"]))
    else:
        kind, chosen, verdicts = _deontological(theory, scenario)
        inert = 0
    kinds = set(theory["patientKinds"])
    excluded = sum(1 for g in scenario["groups"] if g["patientKind"] not in kinds)
    return Expected(kind, tuple(sorted(chosen)), verdicts, inert, excluded)
