"""Serving-stack SLO benchmark (``repro servebench``): BENCH_serve.json.

Where ``perfbench/`` measures the Fig-9 sweep and the engine layer by
layer, this benchmark measures the **service wrapped around it**: the
``repro serve`` tiered cache answering a duplicate-heavy what-if query
stream over the Fig-9 workload mix.  Two phases, same seeded stream
(:func:`repro.fuzz.loadgen.generate_stream`):

* **cold** -- a fresh server on an empty persistent store.  Every unique
  digest must be computed; duplicates exercise the in-flight dedup and
  memory tiers.
* **warm** -- a *new* server process state (empty memory tier, cold trace
  caches) pointed at the store the cold phase filled.  Unique digests now
  answer from disk; nothing is simulated.

The SLO gates assert the properties the serving layer exists for:

* ``divergence == 0`` -- every served answer is snapshot-equal to a
  direct :func:`repro.serve.query.execute_query` run (soundness);
* ``dedup_ratio > 1`` on the cold phase -- in-flight coalescing works;
* ``warm_speedup >= --min-speedup`` (default 3x) -- the persistent store
  actually buys end-to-end time on the Fig-9 mix;
* warm-phase store hits > 0 and warm p95 under ``--p95-ceiling``.

``--gate FILE`` additionally diffs against a committed
``BENCH_serve.json`` through :mod:`repro.obs.regress` (warm speedup,
cold dedup ratio and warm p95 must stay within their spec tolerances
when the scale matches; cross-scale only the sanity floors apply).
``--smoke`` shrinks the stream and workload mix for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from typing import Dict, List, Optional

from repro.fuzz.loadgen import generate_stream, run_stream, verify_responses
from repro.obs import regress as obs_regress
from repro.obs.manifest import build_manifest
from repro.serve.server import ServerThread

__all__ = ["SERVEBENCH_SCHEMA", "run_servebench", "check_gate", "main"]

SERVEBENCH_SCHEMA = "repro-servebench-v1"

#: Cross-machine sanity floor used when no same-scale gate value exists:
#: a warm store that is not even this much faster than cold simulation is
#: broken regardless of hardware.  Kept equal to the ``warm_speedup``
#: spec's floor in :data:`repro.obs.regress.SERVE_SPECS` (that spec is
#: what ``check_gate`` actually evaluates).
CROSS_SCALE_SPEEDUP_FLOOR = 1.5


def _phase_summary(report: Dict) -> Dict:
    """The part of a loadgen report worth committing (no raw responses).

    ``latency_s``/``tiers_latency_s`` are the client-observed quantile
    ladders; ``server_latency``/``server_slo`` are the server's own
    histogram summaries and SLO burn-rate evaluation for the phase.
    """
    return {
        "queries": report["queries"],
        "unique_digests": report["unique_digests"],
        "wall_s": report["wall_s"],
        "throughput_qps": report["throughput_qps"],
        "latency_s": report["latency_s"],
        "tiers_latency_s": report.get("tiers_latency_s", {}),
        "tiers": report["tiers"],
        "tier_hit_rate": report["tier_hit_rate"],
        "dedup_ratio": report["dedup_ratio"],
        "store": report["store"],
        "server_latency": report.get("server_latency"),
        "server_slo": report.get("server_slo"),
    }


def run_servebench(
    queries: int = 200,
    seed: int = 0,
    smoke: bool = False,
    workers: int = 2,
    dup_fraction: float = 0.5,
    verify: bool = True,
    min_speedup: float = 3.0,
    p95_ceiling_s: float = 1.0,
    store_root: Optional[str] = None,
) -> Dict:
    """Run the cold/warm phases and return the full report with SLO results."""
    stream = generate_stream(
        seed,
        queries,
        mix="workloads",
        dup_fraction=dup_fraction,
        smoke=smoke,
    )
    own_store = store_root is None
    store_dir = store_root or tempfile.mkdtemp(prefix="servebench_store_")
    try:
        with ServerThread(workers=workers, store_dir=store_dir) as st:
            cold = run_stream(st.host, st.port, stream, seed=seed)
        cold_responses = cold.pop("responses")

        with ServerThread(workers=workers, store_dir=store_dir) as st:
            warm = run_stream(st.host, st.port, stream, seed=seed)
        warm_responses = warm.pop("responses")
    finally:
        if own_store:
            import shutil

            shutil.rmtree(store_dir, ignore_errors=True)

    verify_doc = None
    if verify:
        verify_doc = verify_responses(stream, cold_responses)
        # The warm phase must serve the exact same payloads from disk.
        warm_mismatch = sum(
            1
            for c, w in zip(cold_responses, warm_responses)
            if c["result"] != w["result"] or c["digest"] != w["digest"]
        )
        verify_doc["warm_payload_mismatch"] = warm_mismatch

    warm_speedup = cold["wall_s"] / warm["wall_s"] if warm["wall_s"] > 0 else 0.0
    warm_store_hits = (warm.get("store") or {}).get("hits", 0)

    failures: List[str] = []
    if verify_doc is not None:
        if verify_doc["divergence"]:
            failures.append(
                f"divergence {verify_doc['divergence']} != 0 vs direct execution"
            )
        if verify_doc["warm_payload_mismatch"]:
            failures.append(
                f"{verify_doc['warm_payload_mismatch']} warm payloads differ "
                "from cold phase"
            )
    cold_dedup = cold.get("dedup_ratio") or 0.0
    if cold_dedup <= 1.0:
        failures.append(f"cold dedup ratio {cold_dedup:.2f} not > 1.0")
    if warm_speedup < min_speedup:
        failures.append(
            f"warm speedup {warm_speedup:.2f}x below SLO {min_speedup:.1f}x"
        )
    if warm_store_hits <= 0:
        failures.append("warm phase had zero persistent-store hits")
    if warm["latency_s"]["p95"] > p95_ceiling_s:
        failures.append(
            f"warm p95 {warm['latency_s']['p95']:.3f}s above ceiling "
            f"{p95_ceiling_s:.3f}s"
        )

    return {
        "schema": SERVEBENCH_SCHEMA,
        "meta": {
            "smoke": smoke,
            "queries": queries,
            "seed": seed,
            "workers": workers,
            "dup_fraction": dup_fraction,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "manifest": build_manifest(
                extra={"queries": queries, "smoke": smoke, "seed": seed}
            ),
        },
        "cold": _phase_summary(cold),
        "warm": _phase_summary(warm),
        "warm_speedup": warm_speedup,
        "verify": verify_doc,
        "slo": {
            "min_speedup": min_speedup,
            "p95_ceiling_s": p95_ceiling_s,
            "failures": failures,
        },
    }


def check_gate(report: Dict, gate_path: str) -> List[str]:
    """Compare against a committed BENCH_serve.json; returns failures.

    Delegates the baseline diff to :mod:`repro.obs.regress`: same-scale
    runs (same ``smoke`` flag) must keep every :data:`SERVE_SPECS` metric
    within its tolerance of the committed value; cross-scale runs only
    face the absolute sanity floors.  SLO failures in the fresh report
    always fail.
    """
    with open(gate_path) as fh:
        gate = json.load(fh)
    failures = list(report["slo"]["failures"])
    findings = obs_regress.compare_reports(
        report,
        gate,
        obs_regress.SERVE_SPECS,
        same_scale=obs_regress.reports_same_scale(report, gate),
    )
    failures.extend(obs_regress.gate_failures(findings))
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro servebench",
        description="serving-stack SLO benchmark (cold vs warm store)",
    )
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--dup-fraction", type=float, default=0.5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="cheap CI variant (smoke workload mix, 60 queries)",
    )
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--p95-ceiling", type=float, default=1.0)
    parser.add_argument(
        "--no-verify", action="store_true", help="skip the direct-parity sweep"
    )
    parser.add_argument("--json", default=None, metavar="FILE")
    parser.add_argument(
        "--gate",
        default=None,
        metavar="FILE",
        help="committed BENCH_serve.json to gate against (exit 1 on failure)",
    )
    args = parser.parse_args(argv)
    queries = min(args.queries, 60) if args.smoke else args.queries

    report = run_servebench(
        queries=queries,
        seed=args.seed,
        smoke=args.smoke,
        workers=args.workers,
        dup_fraction=args.dup_fraction,
        verify=not args.no_verify,
        min_speedup=args.min_speedup,
        p95_ceiling_s=args.p95_ceiling,
    )

    cold, warm = report["cold"], report["warm"]
    print(
        f"servebench: {cold['queries']} queries "
        f"({cold['unique_digests']} unique), workers={args.workers}"
    )
    print(
        f"  cold: {cold['wall_s']:.2f}s "
        f"p95={cold['latency_s']['p95'] * 1e3:.0f}ms tiers={cold['tiers']}"
    )
    print(
        f"  warm: {warm['wall_s']:.2f}s "
        f"p95={warm['latency_s']['p95'] * 1e3:.0f}ms tiers={warm['tiers']}"
    )
    print(
        f"  warm speedup: {report['warm_speedup']:.2f}x "
        f"(SLO >= {args.min_speedup:.1f}x), "
        f"cold dedup ratio: {cold['dedup_ratio']}"
    )
    if report["verify"] is not None:
        print(
            f"  verify: {report['verify']['unique']} unique, "
            f"divergence={report['verify']['divergence']}, "
            f"warm mismatch={report['verify']['warm_payload_mismatch']}"
        )
    failures = (
        check_gate(report, args.gate) if args.gate else report["slo"]["failures"]
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"  wrote {args.json}")
    if failures:
        for f in failures:
            print(f"  SLO FAIL: {f}", file=sys.stderr)
        return 1
    print("  SLO: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
