"""Workloads, the closed loop, tracing and metrics of the genet benchmark.

Imported by ``run.py`` once ``src`` is on ``sys.path``. See ``run.py``
for how to run it and what each workload is for.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from xml.etree import ElementTree

from genet import bases, cli, reasoner, scenario, xmlio

import oracle
import synth

# A run holds at least this many requests, so p90 has ten samples beyond it,
# unless the timed loop has already run for MAX_LOOP_SECONDS.
MIN_REQUESTS = 100
MAX_LOOP_SECONDS = 120
SYNTH_REQUESTS = 100
WARMUP_REQUESTS = 4
# Fresh processes per set-up measurement and per interpreter probe.
SETUP_REPEATS = 9
PROBE_REPEATS = 5
# Requests replayed through the in-process `genet.cli.main` in a traced run.
CLI_MAIN_SAMPLES = 8
LOAD_REGISTRY_REPEATS = 50
IMPORTTIME_TOP = 8

SETUP_CODE = ("import time; t = time.perf_counter(); import genet; "
              "genet.bases.load_registry(); print(time.perf_counter() - t)")

# The layer calls of one in-process request, in order, and the unit each
# one's median is reported in.
LAYERS = (
    ("xmlio.schema_check", "us"),
    ("xmlio.parse_theory", "us"),
    ("bases.check_conformance", "us"),
    ("xmlio.emit_theory", "us"),
    ("xmlio.reparse_theory", "us"),
    ("scenario.load_scenario", "ms"),
    ("scenario.cross_check", "ms"),
    ("reasoner.decide", "ms"),
    ("reasoner.to_dict", "ms"),
    ("output.json", "ms"),
    ("reasoner.render", "ms"),
)
COUNTS = ("scenario.assertions", "theory.principles", "reasoner.premises",
          "reasoner.inferences", "reasoner.contributions", "output.json_bytes",
          "output.text_bytes")
SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}  # from nanoseconds


class Checkout:
    """Paths of the genet checkout the benchmark runs in."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.fixtures = self.src / "genet" / "data" / "fixtures"
        self.out = root / ".bench_out"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}

    def python(self, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True,
                              env=self.env, cwd=self.root, timeout=timeout)


@dataclass(frozen=True)
class Request:
    name: str
    theory_doc: bytes
    scenario_doc: bytes
    expected: oracle.Expected
    theory_path: Optional[Path] = None  # set for the paper fixtures
    scenario_path: Optional[Path] = None
    cli_args: tuple = ()  # output options of a `genet reason` request


# ---------------------------------------------------------------- inputs

def paper_requests(checkout: Checkout) -> list[Request]:
    """The 12 matched theory x case fixture pairs, checked against both
    the oracle and the paper's table."""
    out = []
    for (case, theory_name), (kind, chosen) in oracle.PAPER_TABLE.items():
        theory_path = checkout.fixtures / "theories" / f"{theory_name}.xml"
        scenario_path = checkout.fixtures / "scenarios" / f"{case}.scenario.json"
        theory_doc = theory_path.read_bytes()
        scenario_doc = scenario_path.read_bytes()
        expected = oracle.decide(oracle.decode_theory_xml(theory_doc),
                                 json.loads(scenario_doc))
        if (expected.kind, expected.chosen) != (kind, chosen):
            raise RuntimeError(f"oracle disagrees with the paper table on "
                               f"{case} x {theory_name}")
        out.append(Request(f"{case}x{theory_name}", theory_doc, scenario_doc,
                           expected, theory_path, scenario_path))
    return out


def synth_requests(mode: str, seed: int) -> list[Request]:
    return [Request(r.name, r.theory_doc, r.scenario_doc,
                    oracle.decide(r.theory, r.scenario))
            for r in synth.make_requests(mode, seed, SYNTH_REQUESTS)]


def make_requests(workload: str, seed: int, checkout: Checkout) -> list[Request]:
    """The requests of one pass, in the order the seed gives."""
    if workload == "paper-cli":
        pairs = paper_requests(checkout)
        requests = [dataclasses.replace(r, name=f"{r.name}:{'-'.join(args)}",
                                        cli_args=args)
                    for r in pairs for args in (("--explain",), ("--format", "json"))]
    elif workload == "paper-lib":
        requests = paper_requests(checkout)
    else:
        return synth_requests(workload.removeprefix("synth-"), seed)
    random.Random(f"genet-{workload}-{seed}").shuffle(requests)
    return requests


# --------------------------------------------------------------- tracing

class Tracer:
    """Spans of a traced run: (request, name, parent, start_ns, end_ns).

    Kept in memory and written out when the run ends.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict] = {}
        self.request = 0

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.request, name, "request", start,
                               time.perf_counter_ns()))


class Untraced:
    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = Untraced()


# -------------------------------------------------------------- requests

@dataclass
class LibOutcome:
    report: object
    theory: object
    conformance: object
    reparsed: object
    scenario: object
    cross: object
    decision: object
    json_text: str
    text: str


def serve_lib(req: Request, registry, t=UNTRACED) -> LibOutcome:
    """One in-process request: decode and check both documents, write the
    theory back and read it again, decide, and produce both outputs."""
    report = t.call("xmlio.schema_check", xmlio.schema_check, req.theory_doc)
    theory = t.call("xmlio.parse_theory", xmlio.parse_theory, req.theory_doc)
    conformance = t.call("bases.check_conformance", bases.check_conformance,
                         theory, registry)
    emitted = t.call("xmlio.emit_theory", xmlio.emit_theory, theory)
    reparsed = t.call("xmlio.reparse_theory", xmlio.parse_theory, emitted)
    scn = t.call("scenario.load_scenario", scenario.load_scenario, req.scenario_doc)
    cross = t.call("scenario.cross_check", scenario.validate_scenario_against_theory,
                   scn, theory)
    decision = t.call("reasoner.decide", reasoner.decide, theory, scn)
    tree = t.call("reasoner.to_dict", reasoner.decision_to_dict, decision)
    json_text = t.call("output.json", json.dumps, tree, indent=2)
    text = t.call("reasoner.render", reasoner.render_decision, decision, explain=True)
    return LibOutcome(report, theory, conformance, reparsed, scn, cross, decision,
                      json_text, text)


def serve_cli(req: Request, checkout: Checkout) -> subprocess.CompletedProcess:
    """One `genet reason` run in a fresh interpreter."""
    return checkout.python("-m", "genet.cli", "reason", "--theory", str(req.theory_path),
                           "--scenario", str(req.scenario_path), *req.cli_args)


# ----------------------------------------------------------- correctness

def _verdicts_of_tree(tree: dict) -> dict:
    return {e["action"]: (e["verdict"], e.get("score")) for e in tree["evaluations"]}


def check_tree(tree: dict, expected: oracle.Expected) -> Optional[str]:
    """Mismatch between a `decision_to_dict` tree and the reference."""
    if tree["kind"] != expected.kind or tuple(sorted(tree["chosen"])) != expected.chosen:
        return f"decision {tree['kind']} {tree['chosen']}, expected {expected.kind} " \
               f"{list(expected.chosen)}"
    if _verdicts_of_tree(tree) != expected.verdicts:
        return "per-action verdicts or scores differ from the reference"
    return None


def check_text(text: str, expected: oracle.Expected) -> Optional[str]:
    """Mismatch between `render_decision` text and the reference."""
    lines = text.split("\n")
    kind, _, chosen = lines[0].partition(": ")
    chosen_ids = () if chosen == "-" else tuple(sorted(chosen.split()))
    if (kind, chosen_ids) != (expected.kind, expected.chosen):
        return f"text head {lines[0]!r}, expected {expected.kind} {list(expected.chosen)}"
    verdicts = {}
    for line in lines[1:]:
        if line.startswith((" ", "tied:", "premises:", "inferences:", "conclusion:")):
            continue
        action, _, rest = line.partition(": ")
        fields = rest.split()
        score = next((int(f[6:]) for f in fields if f.startswith("score=")), None)
        verdicts[action] = (fields[0], score)
    if verdicts != expected.verdicts:
        return "text per-action verdicts or scores differ from the reference"
    return None


def check_lib(out: LibOutcome, expected: oracle.Expected) -> Optional[str]:
    if not out.report.ok:
        return f"schema_check reported {out.report.codes()}"
    if not out.conformance.conformant:
        return f"check_conformance reported {out.conformance.codes()}"
    if out.reparsed != out.theory:
        return "parse(emit(theory)) differs from the parsed theory"
    codes = Counter(out.cross.codes())
    if (codes[scenario.AGENT_MISMATCH], codes[scenario.INERT_SPECIFICATION],
            codes[scenario.EXCLUDED_PATIENT_KIND]) != (0, expected.inert_effects,
                                                       expected.excluded_groups):
        return f"cross-check warnings {dict(codes)} differ from the reference"
    tree = {"kind": out.decision.kind.value, "chosen": list(out.decision.chosen),
            "evaluations": [{"action": e.action, "verdict": e.verdict.value,
                             "score": e.score} for e in out.decision.evaluations]}
    return (check_tree(tree, expected) or check_tree(json.loads(out.json_text), expected)
            or check_text(out.text, expected))


def check_cli(proc: subprocess.CompletedProcess, req: Request) -> Optional[str]:
    if proc.returncode != req.expected.exit_code:
        return f"exit code {proc.returncode}, expected {req.expected.exit_code}"
    stdout = proc.stdout.decode("utf-8")
    if "--format" in req.cli_args:
        return check_tree(json.loads(stdout), req.expected)
    return check_text(stdout.rstrip("\n"), req.expected)


def lib_counts(out: LibOutcome) -> dict:
    """Work counted at the layer boundaries of one in-process request."""
    evaluations = out.decision.evaluations
    return {
        "scenario.assertions": len(out.scenario.effects) + len(out.scenario.deontics),
        "theory.principles": len(out.theory.principles),
        "reasoner.premises": sum(len(e.trace.premises) for e in evaluations),
        "reasoner.inferences": sum(len(e.trace.inferences) for e in evaluations),
        "reasoner.contributions": sum(len(e.trace.counted_contributions())
                                      for e in evaluations),
        "output.json_bytes": len(out.json_text.encode("utf-8")),
        "output.text_bytes": len(out.text.encode("utf-8")),
    }


# ------------------------------------------------------------ closed loop

@dataclass
class Sample:
    request: str
    ns: int
    error: Optional[str]
    traced: bool
    scale: float  # reference over the calibrations just before and after

    @property
    def scaled_ns(self) -> float:
        return self.ns * self.scale


class Calibration:
    """Fixed pieces of work that do not use genet, timed between requests.

    On a shared machine the speed this process gets can change by half
    or more within a second. Each timed request is therefore scaled by a
    reference time over the mean of the calibration times just before and
    just after it: the result is its time on a machine where the
    calibration takes the reference time. An in-process request is
    calibrated by ``in_process``, a mix of what such a request does:
    pure-Python dict and list work (the oracle), JSON encoding and
    decoding, and XML parsing. A request or set-up that starts a fresh
    interpreter is calibrated by ``fresh_process``, a bare interpreter run;
    the in-process work does not track a child's speed.
    """

    IN_PROCESS_NS = 250_000
    FRESH_PROCESS_NS = 75_000_000

    def __init__(self, checkout: Checkout):
        self.checkout = checkout
        self.theory, self.scenario = synth.conseq_request(
            random.Random("calibration"), "calibration", 0, actions=4, groups=4,
            principles=24, effects=16)
        self.theory_doc = synth.theory_xml(self.theory)
        for _ in range(10):
            self.in_process()

    def _work(self) -> None:
        oracle.decide(self.theory, self.scenario)
        json.loads(json.dumps(self.scenario, indent=2))
        ElementTree.fromstring(self.theory_doc)

    def in_process(self) -> int:
        # The first run after a request finds caches full of the request's
        # data and runs up to twice as slow; it warms them and is not timed.
        self._work()
        start = time.perf_counter_ns()
        self._work()
        return time.perf_counter_ns() - start

    def fresh_process(self) -> int:
        return probe_ns(self.checkout, "-c", "pass")


class Runner:
    """Runs one workload's requests as a closed loop: one client, each
    request sent only after the previous one has finished and been checked."""

    def __init__(self, workload: str, checkout: Checkout):
        self.workload = workload
        self.checkout = checkout
        self.cli = workload == "paper-cli"
        self.registry = bases.load_registry()
        self.calibration = Calibration(checkout)

    def once(self, req: Request, tracer: Optional[Tracer] = None) -> tuple[int, Optional[str]]:
        """Serve one request; returns its wall time and any mismatch.

        Only the request itself is timed; checking comes after the clock
        stops. Traced, an in-process request records a span per layer call;
        a CLI request is followed by an untimed in-process replay of the
        same documents whose spans stand for the layers' share of it.
        """
        t = tracer if tracer is not None and not self.cli else UNTRACED
        start = time.perf_counter_ns()
        try:
            out = serve_cli(req, self.checkout) if self.cli else serve_lib(req, self.registry, t)
        except Exception as exc:  # a failed request is counted, not fatal
            if tracer is not None:
                tracer.request += 1
            return time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.spans.append((tracer.request, "request", None, start, end))
            if self.cli:
                out_lib = serve_lib(req, self.registry, tracer)
            else:
                out_lib = out
            tracer.counts[tracer.request] = lib_counts(out_lib)
            tracer.request += 1
        try:
            error = check_cli(out, req) if self.cli else check_lib(out, req.expected)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        return end - start, error

    def loop(self, requests: list[Request], seconds: float,
             tracer: Optional[Tracer] = None) -> list[Sample]:
        """Whole passes over ``requests`` until ``seconds`` have gone by and
        at least MIN_REQUESTS were timed, each request scaled by the
        calibrations around it. Traced, every request runs both untraced and
        traced, in alternating order, so the two can be compared."""
        for req in requests[:WARMUP_REQUESTS]:
            self.once(req)
        samples: list[Sample] = []
        started = time.perf_counter()
        passes = 0
        if self.cli:
            measure, reference = self.calibration.fresh_process, Calibration.FRESH_PROCESS_NS
        else:
            measure, reference = self.calibration.in_process, Calibration.IN_PROCESS_NS
        before = measure()
        while (time.perf_counter() - started < seconds
               or sum(not s.traced for s in samples) < MIN_REQUESTS):
            for req in requests:
                if time.perf_counter() - started > MAX_LOOP_SECONDS:
                    return samples
                order = (None, tracer) if passes % 2 == 0 else (tracer, None)
                for t in order if tracer is not None else (None,):
                    ns, error = self.once(req, t)
                    after = measure()
                    samples.append(Sample(req.name, ns, error, t is not None,
                                          2 * reference / (before + after)))
                    before = after
            passes += 1
        return samples

    def cli_main(self, requests: list[Request]) -> tuple[list[int], list[str]]:
        """Time in-process `genet.cli.main` on a sample of the requests."""
        docs = self.checkout.out / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        times, errors = [], []
        for i, req in enumerate(requests[:CLI_MAIN_SAMPLES]):
            theory_path, scenario_path = req.theory_path, req.scenario_path
            if theory_path is None:
                theory_path = docs / f"{i}.xml"
                scenario_path = docs / f"{i}.scenario.json"
                theory_path.write_bytes(req.theory_doc)
                scenario_path.write_bytes(req.scenario_doc)
            argv = ["reason", "--theory", str(theory_path), "--scenario",
                    str(scenario_path), *(req.cli_args or ("--format", "json"))]
            sink = io.StringIO()
            start = time.perf_counter_ns()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            times.append(time.perf_counter_ns() - start)
            if code != req.expected.exit_code:
                errors.append(f"{req.name}: cli.main exit code {code}, "
                              f"expected {req.expected.exit_code}")
        return times, errors


# ----------------------------------------------------------- measurements

def probe_ns(checkout: Checkout, *args: str) -> int:
    """Wall time of one fresh interpreter running ``args``."""
    start = time.perf_counter_ns()
    checkout.python(*args).check_returncode()
    return time.perf_counter_ns() - start


def median_probe(checkout: Checkout, *args: str) -> float:
    """Median wall seconds of PROBE_REPEATS fresh interpreters running ``args``."""
    return statistics.median(probe_ns(checkout, *args) for _ in range(PROBE_REPEATS)) * 1e-9


def setup_seconds(checkout: Checkout, calibration: Calibration) -> list[tuple[float, float]]:
    """`import genet` plus `load_registry()` in fresh processes, each
    timed from inside the process: (seconds, seconds scaled like a request)."""
    out = []
    before = calibration.fresh_process()
    for _ in range(SETUP_REPEATS):
        seconds = float(checkout.python("-c", SETUP_CODE).stdout)
        after = calibration.fresh_process()
        out.append((seconds, seconds * 2 * Calibration.FRESH_PROCESS_NS / (before + after)))
        before = after
    return out


def importtime(checkout: Checkout) -> dict:
    """`python -X importtime -c "import genet"`: genet's modules, and the
    heaviest other imports they pull in (self time, microseconds)."""
    proc = checkout.python("-X", "importtime", "-c", "import genet")
    rows = []
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        rows.append((name.strip(), int(self_us), int(cumulative_us)))
    genet_rows = {name: {"self_us": s, "cumulative_us": c}
                  for name, s, c in rows if name.split(".")[0] == "genet"}
    others = sorted((r for r in rows if r[0].split(".")[0] != "genet"),
                    key=lambda r: -r[1])[:IMPORTTIME_TOP]
    return {"genet": genet_rows,
            "heaviest_other": {name: {"self_us": s, "cumulative_us": c}
                               for name, s, c in others}}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def layer_metrics(tracer: Tracer, samples: list[Sample]) -> dict:
    """Per-layer figures from the spans and counts of a traced run."""
    per_request: dict[int, dict] = {}
    for request, name, _, start, end in tracer.spans:
        per_request.setdefault(request, {}).setdefault(name, 0)
        per_request[request][name] += end - start
    requests = [per_request[i] for i in sorted(per_request) if "request" in per_request[i]]
    request_total = sum(r["request"] for r in requests)
    metrics = {}
    for name, unit in LAYERS:
        durations = [r[name] for r in requests if name in r]
        metrics[f"{name}_{unit}"] = (statistics.median(durations) * SCALE[unit], unit)
        metrics[f"{name}.share"] = (sum(durations) / request_total, "fraction")
    glue = [r["request"] - sum(v for k, v in r.items() if k != "request") for r in requests]
    metrics["request.glue_ms"] = (statistics.median(glue) * SCALE["ms"], "ms")
    untraced = [s.scaled_ns for s in samples if not s.traced]
    traced = [s.scaled_ns for s in samples if s.traced]
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced)
                                      - 1, "fraction")
    counts = [tracer.counts[i] for i in sorted(tracer.counts)]
    for name in COUNTS:
        metrics[name] = (statistics.fmean(c[name] for c in counts), "count")
    nodes = [c["reasoner.premises"] + c["reasoner.inferences"] for c in counts]
    decide_ns = [r["reasoner.decide"] for r in requests]
    metrics["reasoner.decide_us_per_node"] = (sum(decide_ns) * SCALE["us"] / sum(nodes),
                                              "us/node")
    sizes = [c["scenario.assertions"] + c["theory.principles"] + n
             for c, n in zip(counts, nodes)]
    metrics["reasoner.decide_size_slope"] = (
        slope([math.log(s) for s in sizes], [math.log(d) for d in decide_ns]), "ratio")
    return metrics


def end_to_end_metrics(samples: list[Sample], setups: list[float], peak_rss_kb: int,
                       scaled: bool = True) -> dict:
    """The end-to-end figures; times scaled by the calibration, or raw."""
    times = [s.scaled_ns if scaled else s.ns for s in samples]
    return {
        "request_ms_p50": (statistics.median(times) * SCALE["ms"], "ms"),
        "request_ms_p90": (quantile(times, 90) * SCALE["ms"], "ms"),
        "requests_per_s": (len(times) / (sum(times) * SCALE["s"]), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def metadata(checkout: Checkout, workload: str, seed: int, seconds: int, trace: int,
             interp_s: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((checkout.src / "genet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(checkout.src)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (checkout.root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              cwd=checkout.root)
        commit = proc.stdout.decode().strip() or None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine(),
            "loadavg": loadavg, "cli.interp_ms": interp_s * 1e3,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# -------------------------------------------------------------------- run

def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """Run one workload; returns its record, whose ``result`` is the
    result object, and writes the record, with spans when traced, under
    ``.bench_out``."""
    checkout = Checkout(root)
    checkout.out.mkdir(exist_ok=True)
    requests = make_requests(workload, seed, checkout)
    runner = Runner(workload, checkout)

    # Warm the bytecode cache before anything fresh processes time.
    checkout.python("-c", "import genet.cli").check_returncode()
    interp_s = median_probe(checkout, "-c", "pass")
    meta = metadata(checkout, workload, seed, seconds, int(trace), interp_s)
    record: dict = {"meta": meta}

    tracer = Tracer() if trace else None
    setups = [] if trace else setup_seconds(checkout, runner.calibration)
    samples = runner.loop(requests, seconds, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if runner.cli
                                     else resource.RUSAGE_SELF).ru_maxrss
    errors = [f"{s.request}: {s.error}" for s in samples if s.error is not None]
    timed = [s for s in samples if s.error is None and not s.traced]

    if trace:
        import_s = median_probe(checkout, "-c", "import genet") - interp_s
        main_ns, main_errors = runner.cli_main(requests)
        errors += main_errors
        registry_ns = []
        for _ in range(LOAD_REGISTRY_REPEATS):
            start = time.perf_counter_ns()
            bases.load_registry()
            registry_ns.append(time.perf_counter_ns() - start)
        imports = importtime(checkout)
        metrics = {
            "cli.interp_ms": (interp_s * 1e3, "ms"),
            "cli.import_ms": (import_s * 1e3, "ms"),
            "cli.main_ms": (statistics.median(main_ns) * SCALE["ms"], "ms"),
            "cli.importtime_genet_us": (float(imports["genet"]["genet"]["cumulative_us"]),
                                        "us"),
            "bases.load_registry_us": (statistics.median(registry_ns) * SCALE["us"], "us"),
            **layer_metrics(tracer, [s for s in samples if s.error is None]),
        }
        record["importtime"] = imports
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    else:
        metrics = end_to_end_metrics(timed, [scaled for _, scaled in setups], peak_rss_kb)
        raw = end_to_end_metrics(timed, [seconds for seconds, _ in setups], peak_rss_kb,
                                 scaled=False)
        record["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
        record["setup_s"] = setups
        record["scale_p50"] = statistics.median(s.scale for s in timed)

    attempted = len(samples) + (min(len(requests), CLI_MAIN_SAMPLES) if trace else 0)
    record["samples"] = {"timed": len(timed), "traced": sum(s.traced for s in samples),
                         "failed": len(errors), "errors": errors[:20]}
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    path = checkout.out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    return record
