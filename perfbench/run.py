"""The repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload fig9-bench --seed 1 --seconds 15 --trace 0

Runs one workload named in BENCHMARK.json from a seed, measures it for
about ``--seconds``, checks its outputs, and prints as the last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
untraced window runs as before and the workload then runs once more under
tracing, and the metrics are the per-layer ones.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import parity
    import workload_fig9
    import workload_serve

    traced = bool(args.trace)
    report = harness.Report()
    if args.workload == "fig9-bench":
        workload_fig9.run(report, args.seed, args.seconds, traced)
    else:
        workload_serve.run(report, args.workload, args.seed, args.seconds, traced)
    parity.check(report)

    drift = harness.Ledger().drift(report.ledger_key, report.counters)
    report.check(
        "counters.deterministic", not drift,
        "; ".join(drift) if drift
        else f"{len(report.counters)} counters equal to earlier runs of this code",
    )
    report.metrics["counters.drifted"] = float(len(drift))
    report.metrics["success_ratio"] = (
        (report.attempted - report.failed) / report.attempted if report.attempted else 0.0
    )

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(report.metrics) - known)
    if unknown:
        raise SystemExit(f"perfbench: metrics not declared in BENCHMARK.json: {unknown}")
    # The result line carries exactly value and unit per metric; a metric
    # this workload does not measure reads 0 there and is flagged on its
    # text line above it.
    metrics = {
        m["name"]: {"value": report.metrics.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    absent = {m["name"] for m in declared
              if m["name"] not in report.metrics or m["name"] in report.absent}

    for line in report.notes:
        print(line)
    for name, value in sorted(report.counters.items()):
        print(f"counter {name} = {value}")
    for name, ok, detail in report.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    for name, entry in metrics.items():
        flag = "  (absent)" if name in absent else ""
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}{flag}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
