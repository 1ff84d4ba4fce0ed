"""Command-line interface: validate, instantiate, bases, reason.

Exit codes: 0 success/decided, 1 validation or conformance failure,
2 conflict or multiple-permissible outcome, 3 usage error (including an
unreadable input, an unwritable output file, a stdout that cannot be
written or whose encoding cannot carry the output, an unknown base
theory named on the command line, a base-template file or directory that
cannot be read or is malformed, or two template files that give one
name). Reports go to stdout, diagnostics to stderr; a diagnostic that
stderr cannot take is dropped, never sent to stdout.
GENET_BASE_DIR overrides the packaged base-template directory.
"""

import argparse
import gc
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
        _warn(f"{self.format_usage()}error: {message}")
        raise SystemExit(EXIT_USAGE)

    def print_help(self, file=None):
        # argparse drops help that stdout refuses; raise, so that main exits 3.
        print(self.format_help(), end="", file=file, flush=True)


def _drop(stream) -> None:
    # A stream whose write failed goes to devnull; later writes and the exit flush pass.
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _warn(line: str) -> None:
    try:  # a line that stderr cannot take is dropped, as argparse drops its own
        print(line, file=sys.stderr)
    except OSError:
        _drop(sys.stderr)


def _print_report(violations, write=print) -> None:
    for v in violations:
        write(f"{v.code}\t{v.path}\t{v.message}")


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _warn(f"error: cannot read {path}: {exc}")
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
        _print_report(exc.report.violations, _warn)
        return EXIT_OK
    _print_report(report.violations)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_instantiate(args) -> int:
    import genet.bases as bases_mod, genet.xmlio as xmlio

    base = bases_mod.load_registry().get(args.base)
    add: list[MoralPrinciple] = []
    try:
        for spec in args.add:
            # Subject and morality never hold a comma; a specification may.
            specification, subject, morality = spec.rsplit(",", 2)
            if (value := xmlio.parse_boolean(morality)) is None:
                raise ValueError(f"not a boolean: {morality!r}")
            add.append(MoralPrinciple(morality=value, subject=Subject(subject),
                                      specification=specification))
        remove = [(specification, Subject(subject)) for specification, subject
                  in (spec.rsplit(",", 1) for spec in args.remove)]
    except ValueError as exc:
        _warn(f"error: bad --add/--remove value: {exc}")
        return EXIT_USAGE

    try:
        instance = bases_mod.instantiate(
            base, MoralAgent(args.agent, args.agent_ref),
            InfluenceThresholds(args.external, args.substance),
            instanceName=args.name, patientKinds=args.patient_kind
            and frozenset(map(PatientKind, args.patient_kind)), remove=remove, add=add)
    except GenetError as exc:
        _print_report(exc.report.violations)
        return EXIT_VIOLATION

    try:
        Path(args.out).write_bytes(xmlio.emit_theory(instance))
    except OSError as exc:
        _warn(f"error: cannot write {args.out}: {exc}")
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
        _print_report([Violation(exc.code, path, str(exc))], _warn)
        return EXIT_VIOLATION

    cross = scenario_mod.validate_scenario_against_theory(scn, theory).violations
    errors = [v for v in cross if v.code == scenario_mod.AGENT_MISMATCH]
    _print_report(errors)
    _print_report(cross[len(errors):], _warn)  # warnings; the error comes first
    if errors:
        return EXIT_VIOLATION

    if args.action is None:
        result = reasoner.decide(theory, scn)
        to_dict, render = reasoner.decision_to_dict, reasoner.render_decision
        code = (EXIT_OK if result.kind is reasoner.DecisionKind.DECIDED
                else EXIT_CONFLICT)
    else:
        result = reasoner.evaluate(theory, scn, args.action)
        to_dict, render = reasoner.evaluation_to_dict, reasoner.render_evaluation
        code = EXIT_OK
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
    try:
        args = parser.parse_args(argv)
        if args.command == "bases" and (args.action == "show") != (args.name is not None):
            parser.error("bases show requires a name" if args.name is None
                         else "bases list takes no name")
        code = args.func(args)
        sys.stdout.flush()
    except GenetError as exc:  # a template that cannot be loaded, no such template or action
        _warn(f"error: {exc}")
        return EXIT_USAGE
    except UnicodeEncodeError as exc:
        # Document text that stdout's encoding cannot carry, such as an
        # action id "Té" under PYTHONIOENCODING=ascii. stderr escapes it.
        _warn(f"error: cannot write the output to stdout: {exc}")
        return EXIT_USAGE
    except OSError:  # stdout is a closed pipe, a full device or a read-only fd
        _drop(sys.stdout)
        return EXIT_USAGE
    return code


def run() -> None:
    """`main` as a `genet` process, which exits with its code. The objects left are
    frozen, so that the interpreter's final collections skip them."""
    sys.stderr = sys.stderr or open(os.devnull, "w")  # fd 2 closed: never to stdout
    sys.stdout = sys.stdout or open(os.devnull)  # fd 1 closed: as 1</dev/null, exit 3
    try:
        code = main()
    finally:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
