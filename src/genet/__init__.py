"""Machine-readable normative ethical theories: model, serialize,
instantiate, and reason with argument traces."""

from .model import (
    EthicalTheoryInstance,
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    ValidationReport,
    Violation,
    validate_instance,
)
from .xmlio import (
    emit_theory,
    parse_theory,
    schema_check,
)
from .scenario import (
    AGENT,
    ActionOption,
    DeonticAssertion,
    EffectAssertion,
    RequestContext,
    Scenario,
    StakeholderGroup,
    emit_scenario,
    load_scenario,
    validate_scenario_against_theory,
)
from .reasoner import (
    ActionEvaluation,
    ArgumentTrace,
    Decision,
    DecisionKind,
    MoralVerdict,
    decide,
    decision_to_dict,
    evaluate,
    influence_gate,
    render_decision,
    render_evaluation,
)

__version__ = "0.1.0"

# genet.bases and its names load on first use, so that `reason` and
# `validate` never pay for them (PEP 562).
_BASES_NAMES = frozenset({"BaseTheoryTemplate", "Mutability", "PrincipleEdit",
                          "Registry", "check_conformance", "instantiate",
                          "load_registry"})


def __getattr__(name: str):
    if name != "bases" and name not in _BASES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import bases`: that would look the name up
    # here again before the submodule is bound, and recurse without end.
    from importlib import import_module

    bases = import_module(".bases", __name__)
    return bases if name == "bases" else getattr(bases, name)
