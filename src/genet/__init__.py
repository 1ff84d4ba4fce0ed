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
from .bases import (
    BaseTheoryTemplate,
    Mutability,
    PrincipleEdit,
    Registry,
    check_conformance,
    instantiate,
    load_registry,
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
    render_trace,
    trace_to_dict,
)

__version__ = "0.1.0"
