"""Machine-readable normative ethical theories: model, serialize,
instantiate, and reason with argument traces."""

__version__ = "0.1.0"

# Each layer loads on first use (PEP 562): naming a submodule or one of its
# public names imports that submodule and binds its names here, so later
# lookups skip __getattr__ and a command pays only for the layers it runs.
_NAMES = {
    "model": ("EthicalTheoryInstance", "GenetError", "InfluenceThresholds",
              "MoralAgent", "MoralPrinciple", "PatientKind", "Subject",
              "ValidationReport", "Violation", "validate_instance"),
    "xmlio": ("emit_theory", "parse_theory", "schema_check"),
    "scenario": ("AGENT", "ActionOption", "DeonticAssertion", "EffectAssertion",
                 "RequestContext", "Scenario", "StakeholderGroup", "emit_scenario",
                 "load_scenario", "validate_scenario_against_theory"),
    "reasoner": ("ActionEvaluation", "ArgumentTrace", "Decision", "DecisionKind",
                 "MoralVerdict", "decide", "decision_to_dict", "evaluate",
                 "render_decision", "render_evaluation"),
    "bases": ("BaseTheoryTemplate", "Mutability", "Registry",
              "check_conformance", "instantiate", "load_registry"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = name if name in _NAMES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # binds the submodule here
    module = globals()[home]
    globals().update((public, getattr(module, public)) for public in _NAMES[home])
    return module if name == home else globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
