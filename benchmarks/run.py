"""Closed-loop benchmark of genet: one client in one process, no threads,
each request sent only after the previous one has finished.

Run it from the root of a genet checkout; the program is imported from
``./src`` and nothing needs installing:

    python3 benchmarks/run.py --workload paper-lib --seed 1 --seconds 20 --trace 0

One request is one theory document plus one scenario document in, and
the verdict output out. Every output is checked against references that
do not use genet (``oracle.py``); a mismatch counts as a failed request.

Workloads, each the only one where its layer dominates:

  paper-cli     The paper's 12 theory x case fixture pairs, each run as
                ``reason --explain`` and as ``reason --format json`` in a
                fresh ``python -m genet.cli`` process. What a CLI user pays:
                interpreter start and ``import genet``.
  paper-lib     The same 12 pairs in-process and warm, through schema
                check, parse, conformance, emit and re-parse, scenario
                load, cross-check, decide, JSON and text output. Small
                real documents, where decoding, checking and output work
                dominate.
  synth-conseq  100 seeded consequentialist requests (``synth.py``):
                per-action effect rescans, group and principle lookups,
                in evaluation and in the cross-check.
  synth-deon    100 seeded deontological requests: the
                actions x principles x deontics evaluation loop.

``--trace 0`` prints the end-to-end metrics: request latency p50 and p90,
requests per second of request time, ``setup_s`` (median, over fresh
processes, of ``import genet`` plus ``load_registry()``) and peak RSS (of
this process, or of the largest child for paper-cli). Times are scaled
by calibration work timed between requests (see ``harness.Calibration``),
because the speed of a shared machine drifts by half or more within
seconds; the unscaled figures are printed beside them as ``raw``.

``--trace 1`` times every layer call from here, around genet's public
functions, and prints the per-layer metrics, unscaled. On paper-cli the
layer figures come from an in-process replay of each request's documents,
and shares are of the CLI request's time.

Where each layer should show (a change to the layer on the left should
move the end-to-end metric on the right):

  cli.interp_ms, cli.import_ms, cli.main_ms   p50 on paper-cli; setup_s
  bases.load_registry_us                      setup_s
  xmlio.*, bases.check_conformance_us         p50 on paper-lib only
  scenario.load_scenario_ms                   p50 on paper-lib, synth-*
  scenario.cross_check_ms                     synth-conseq (about 0 on deon)
  reasoner.decide_ms                          p90 and requests_per_s on
                                              synth-deon, then synth-conseq
  reasoner.to_dict_ms, output.json_ms,        latency on synth-conseq and
  reasoner.render_ms                          paper-lib
  counts (assertions, principles, trace       peak_rss_mb and output times
  nodes, output bytes)

``reasoner.decide_size_slope`` is the least-squares slope of log decide
time against log(assertions + principles + trace nodes) over a run's
requests: about 1 when cost grows with input plus trace size, more when
it grows with their product.

The full record of a run (metadata, raw figures, spans when traced) is
written to ``.bench_out/``. The last line of stdout is the result as one
JSON object: {"correct", "attempted", "failed", "metrics"}. A request
that raises, exits with the wrong code or gives a wrong verdict counts in
``failed``, and ``error_frac`` = failed / attempted is printed above it.

The benchmark's own tests: ``PYTHONPATH=src python -m pytest benchmarks``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("paper-cli", "paper-lib", "synth-conseq", "synth-deon")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "genet" / "__init__.py").is_file():
        print("error: run from the root of a genet checkout (no src/genet here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    result = record["result"]
    print(f"# {json.dumps(record['meta'])}")
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:.6g} {metric['unit']}")
    for name, value in record.get("raw_metrics", {}).items():
        print(f"{'raw ' + name:34} {value:.6g}")
    samples = record["samples"]
    print(f"{'samples':34} {samples['timed']} timed, {samples['traced']} traced requests")
    print(f"{'error_frac':34} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    for error in samples["errors"]:
        print(f"error: {error}")
    for group, rows in record.get("importtime", {}).items():
        for module, row in rows.items():
            print(f"importtime {group:14} {module:40} self {row['self_us']:>7} us  "
                  f"cumulative {row['cumulative_us']:>7} us")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
