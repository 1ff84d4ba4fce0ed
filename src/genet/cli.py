"""Command-line interface: validate, instantiate, bases, reason.

Exit codes: 0 success/decided, 1 validation or conformance failure,
2 conflict or multiple-permissible outcome, 3 usage error (including an
unreadable input, an unwritable output file, a closed stdout, or an
unreadable or malformed base-template file). Reports go to stdout,
diagnostics to stderr. GENET_BASE_DIR overrides the packaged base-template
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bases as bases_mod
from . import reasoner, scenario as scenario_mod, xmlio
from .model import (
    InfluenceThresholds,
    MoralAgent,
    MoralPrinciple,
    Subject,
    ValidationReport,
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


def _print_report(report: ValidationReport) -> None:
    for v in report.violations:
        print(f"{v.code}\t{v.path}\t{v.message}")


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_validate(args) -> int:
    try:
        xmlio.parse_theory(_read_file(args.path))
    except xmlio.TheoryParseError as exc:
        # Schema findings, or the model invariants of a schema-clean document.
        _print_report(exc.report)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_instantiate(args) -> int:
    try:
        base = bases_mod.load_registry().get(args.base)
    except (ValueError, bases_mod.UnknownBaseTheoryError) as exc:
        # A malformed template file, or no template of that name.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    edits: list[bases_mod.PrincipleEdit] = []
    try:
        for spec in args.add:
            specification, subject, morality = spec.split(",")
            value = xmlio.parse_boolean(morality)
            if value is None:
                raise ValueError(f"not a boolean: {morality!r}")
            edits.append(bases_mod.PrincipleEdit.add(MoralPrinciple(
                morality=value, subject=Subject(subject),
                specification=specification)))
        for spec in args.remove:
            specification, subject = spec.split(",")
            edits.append(bases_mod.PrincipleEdit.remove(MoralPrinciple(
                morality=True, subject=Subject(subject),
                specification=specification)))
    except ValueError as exc:
        print(f"error: bad --add/--remove value: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        instance = bases_mod.instantiate(
            base,
            agent=MoralAgent(name=args.agent, reference=args.agent_ref),
            thresholds=InfluenceThresholds(external=args.external,
                                           substance=args.substance),
            instanceName=args.name,
            edits=edits)
    except bases_mod.InstantiationError as exc:
        _print_report(exc.report)
        return EXIT_VIOLATION

    try:
        Path(args.out).write_bytes(xmlio.emit_theory(instance))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_bases(args) -> int:
    try:
        registry = bases_mod.load_registry()
        base = registry.get(args.name) if args.action == "show" else None
    except (ValueError, bases_mod.UnknownBaseTheoryError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if base is None:
        for name in registry.names():
            print(name)
        return EXIT_OK
    print(f"name: {base.name}")
    print(f"consequentiality: {str(base.consequentiality).lower()}")
    if base.fixedPatientKinds is not None:
        kinds = sorted(k.value for k in base.fixedPatientKinds)
        print(f"fixedPatientKinds: {' '.join(kinds)}")
    print(f"mutability: {base.mutability.value}")
    print("defaultPrinciples:")
    for p in base.defaultPrinciples:
        print(f"  morality={str(p.morality).lower()} subject={p.subject.value} "
              f"specification={p.specification}")
    print(f"freeFields: {' '.join(base.freeFields)}")
    return EXIT_OK


def cmd_reason(args) -> int:
    theory_doc = _read_file(args.theory)
    scenario_doc = _read_file(args.scenario)
    try:
        theory = xmlio.parse_theory(theory_doc)
    except xmlio.TheoryParseError as exc:
        print(f"{exc.code}\t{args.theory}\t{exc}", file=sys.stderr)
        return EXIT_VIOLATION
    try:
        scn = scenario_mod.load_scenario(scenario_doc)
    except scenario_mod.ScenarioError as exc:
        print(f"{exc.code}\t{args.scenario}\t{exc}", file=sys.stderr)
        return EXIT_VIOLATION

    cross = scenario_mod.validate_scenario_against_theory(scn, theory)
    errors = [v for v in cross.violations if v.code == scenario_mod.AGENT_MISMATCH]
    for v in cross.violations:
        stream = sys.stdout if v in errors else sys.stderr
        print(f"{v.code}\t{v.path}\t{v.message}", file=stream)
    if errors:
        return EXIT_VIOLATION

    if args.action:
        if args.action not in scn.action_ids():
            print(f"error: no action {args.action!r} in scenario", file=sys.stderr)
            return EXIT_USAGE
        evaluation = reasoner.evaluate(theory, scn, args.action)
        if args.format == "json":
            print(json.dumps(reasoner.evaluation_to_dict(evaluation), indent=2))
        else:
            print(reasoner.render_evaluation(evaluation, explain=args.explain))
        return EXIT_OK

    decision = reasoner.decide(theory, scn)
    if args.format == "json":
        print(json.dumps(reasoner.decision_to_dict(decision), indent=2))
    else:
        print(reasoner.render_decision(decision, explain=args.explain))
    if decision.kind is reasoner.DecisionKind.DECIDED:
        return EXIT_OK
    return EXIT_CONFLICT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genet",
                     description="Model, validate, and reason with machine-"
                                 "readable normative ethical theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-check and validate a theory file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("instantiate",
                       help="derive a theory instance from a base template")
    p.add_argument("--base", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--agent-ref", default=None)
    p.add_argument("--external", type=int, required=True)
    p.add_argument("--substance", type=int, required=True)
    p.add_argument("--name", required=True)
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
    if args.command == "bases" and args.action == "show" and not args.name:
        parser.error("bases show requires a name")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, as Python's docs
        # advise, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
