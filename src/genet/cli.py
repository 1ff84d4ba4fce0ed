"""Command-line interface: validate, instantiate, bases, reason.

Exit codes: 0 success/decided, 1 validation or conformance failure,
2 conflict or multiple-permissible outcome, 3 usage error (including an
unreadable input, an unwritable output file, a closed stdout, a stdout
whose encoding cannot carry the output, an unknown base theory named
on the command line, a base-template file or directory that cannot be
read or is malformed, or two template files that give one name). Reports
go to stdout, diagnostics to stderr. GENET_BASE_DIR overrides the packaged
base-template directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Each command imports the layers it runs, so that `validate` and `bases`
# never load the reasoner.
from .model import (
    GenetError,
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    PatientKind,
    Subject,
    Violation,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFLICT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 3, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print_report(violations, file=None) -> None:
    for v in violations:
        print(f"{v.code}\t{v.path}\t{v.message}", file=file)


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_validate(args) -> int:
    import genet.bases as bases_mod, genet.xmlio as xmlio

    try:
        theory = xmlio.parse_theory(_read_file(args.path))
    except GenetError as exc:
        # Schema findings, or the model invariants of a schema-clean document.
        _print_report(exc.report.violations)
        return EXIT_VIOLATION
    registry = bases_mod.load_registry()
    try:
        report = bases_mod.check_conformance(theory, registry)
    except GenetError as exc:
        # An unregistered base is no fault of the document: a note, not a finding.
        _print_report(exc.report.violations, sys.stderr)
        return EXIT_OK
    _print_report(report.violations)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_instantiate(args) -> int:
    import genet.bases as bases_mod, genet.xmlio as xmlio

    base = bases_mod.load_registry().get(args.base)
    edits: list[bases_mod.PrincipleEdit] = []
    try:
        for spec in args.add:
            # Subject and morality never hold a comma; a specification may.
            specification, subject, morality = spec.rsplit(",", 2)
            if (value := xmlio.parse_boolean(morality)) is None:
                raise ValueError(f"not a boolean: {morality!r}")
            edits.append(bases_mod.PrincipleEdit.add(MoralPrinciple(
                morality=value, subject=Subject(subject),
                specification=specification)))
        for spec in args.remove:
            specification, subject = spec.rsplit(",", 1)
            edits.append(bases_mod.PrincipleEdit.remove(MoralPrinciple(
                morality=True, subject=Subject(subject),
                specification=specification)))
    except ValueError as exc:
        print(f"error: bad --add/--remove value: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        instance = bases_mod.instantiate(
            base, MoralAgent(args.agent, args.agent_ref),
            InfluenceThresholds(args.external, args.substance),
            instanceName=args.name, edits=edits, patientKinds=args.patient_kind
            and frozenset(map(PatientKind, args.patient_kind)))
    except GenetError as exc:
        _print_report(exc.report.violations)
        return EXIT_VIOLATION

    try:
        Path(args.out).write_bytes(xmlio.emit_theory(instance))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_bases(args) -> int:
    import genet.bases as bases_mod

    registry = bases_mod.load_registry()
    if args.action == "list":
        for name in registry.names():
            print(name)
        return EXIT_OK
    base = registry.get(args.name)
    print(f"name: {base.name}")
    print(f"consequentiality: {str(base.consequentiality).lower()}")
    if base.fixedPatientKinds is not None:
        print("fixedPatientKinds:", *sorted(k.value for k in base.fixedPatientKinds))
    print(f"mutability: {base.mutability.value}")
    print("defaultPrinciples:")
    for p in base.defaultPrinciples:
        print(f"  morality={str(p.morality).lower()} subject={p.subject.value} "
              f"specification={p.specification}")
    print("freeFields: agent influenceThresholds instanceName"
          + (" patientKinds" if base.fixedPatientKinds is None else ""))
    return EXIT_OK


def cmd_reason(args) -> int:
    import genet.reasoner as reasoner, genet.scenario as scenario_mod, genet.xmlio as xmlio

    theory_doc = _read_file(args.theory)
    scenario_doc = _read_file(args.scenario)
    path = args.theory  # the file a decoding finding names
    try:
        theory = xmlio.parse_theory(theory_doc)
        path = args.scenario
        scn = scenario_mod.load_scenario(scenario_doc)
    except GenetError as exc:
        _print_report([Violation(exc.code, path, str(exc))], sys.stderr)
        return EXIT_VIOLATION

    cross = scenario_mod.validate_scenario_against_theory(scn, theory).violations
    errors = [v for v in cross if v.code == scenario_mod.AGENT_MISMATCH]
    _print_report(errors)
    _print_report(cross[len(errors):], sys.stderr)  # warnings; the error comes first
    if errors:
        return EXIT_VIOLATION

    if args.action is None:
        result = reasoner.decide(theory, scn)
        to_dict, render = reasoner.decision_to_dict, reasoner.render_decision
        code = (EXIT_OK if result.kind is reasoner.DecisionKind.DECIDED
                else EXIT_CONFLICT)
    elif args.action in scn.action_ids():
        result = reasoner.evaluate(theory, scn, args.action)
        to_dict, render = reasoner.evaluation_to_dict, reasoner.render_evaluation
        code = EXIT_OK
    else:
        print(f"error: no action {args.action!r} in scenario", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(to_dict(result), indent=2))
    else:
        print(render(result, explain=args.explain))
    return code


def build_parser() -> argparse.ArgumentParser:
    def integer(text: str) -> int:
        # The xs:integer of <influenceThresholds>; int() also takes "1_0" and non-ASCII
        # digits. argparse turns the ValueError into a usage error.
        import genet.xmlio as xmlio
        if (digits := xmlio.parse_integer(text)) is None:
            raise ValueError(text)
        return int(digits)  # also a ValueError past 4,300 digits

    parser = _Parser(prog="genet",
                     description="Model, validate, and reason with machine-"
                                 "readable normative ethical theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-check and validate a theory file "
                                        "and check it against its base template")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("instantiate",
                       help="derive a theory instance from a base template")
    p.add_argument("--base", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--agent-ref", default=None)
    p.add_argument("--external", type=integer, required=True)
    p.add_argument("--substance", type=integer, required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--patient-kind", action="append",
                   choices=[kind.value for kind in PatientKind])
    p.add_argument("--add", action="append", default=[],
                   metavar="SPEC,SUBJ,MORALITY")
    p.add_argument("--remove", action="append", default=[], metavar="SPEC,SUBJ")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("reason", help="evaluate a scenario under a theory")
    p.add_argument("--theory", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--action", default=None)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_reason)

    p = sub.add_parser("bases", help="list or show base-theory templates")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_bases)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bases" and (args.action == "show") != (args.name is not None):
        parser.error("bases show requires a name" if args.name is None
                     else "bases list takes no name")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except GenetError as exc:  # a template that cannot be loaded, or no such template
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeEncodeError as exc:
        # Document text that stdout's encoding cannot carry, such as an
        # action id "Té" under PYTHONIOENCODING=ascii. stderr escapes it.
        print(f"error: cannot write the output to stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, as Python's docs
        # advise, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
