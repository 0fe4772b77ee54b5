"""Load generator for the query server (``repro loadgen``).

Replays a **seeded query stream** against a running ``repro serve``
endpoint with an **open-loop** arrival process: send times are drawn up
front from the seed (exponential inter-arrivals at ``--rate`` qps) and
queries fire on schedule whether or not earlier ones have finished, so
measured latency includes any queueing the server actually causes.  A
rate of ``0`` means closed-loop-as-fast-as-possible with bounded
concurrency.

Streams mix suite workloads (the Fig-9 mix) with fuzzer-generated
programs (:mod:`repro.fuzz.genprog`) and are deliberately
duplicate-heavy: a seeded Zipf-ish choice over a small hot set produces
the repeated what-if queries the tiered cache exists for.  Everything is
derived from ``--seed``; two runs of the same seed issue byte-identical
query docs in the same order at the same offsets.

The report carries client-side p50/p95/p99/p99.9 latency, a per-tier
latency breakdown (log-bucketed histograms split by which cache tier
answered), throughput, per-tier answer counts, the in-flight dedup ratio
and the server's own latency/SLO view (from the ``stats`` op), and -- under ``--verify`` -- a **parity sweep**: every unique digest
in the stream is re-executed directly through
:func:`repro.serve.query.execute_query` and compared snapshot-equal to
the served payload.  ``divergence`` must be 0; anything else is a
soundness bug, not a perf problem.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import LogHistogram, summarize_histogram
from repro.serve.client import AsyncServeClient
from repro.serve.query import Query, execute_query, query_digest

__all__ = [
    "LoadgenError",
    "generate_stream",
    "run_stream",
    "verify_responses",
    "main",
]

#: A Fig-9 workload mix: dense GEMM-shaped layers, recurrent cells, a
#: streaming reduction and a transpose.
WORKLOAD_MIX = [
    "conv",
    "lstm1",
    "lstm2",
    "alexnet_fc2",
    "vggnet_fc2",
    "resnet50_fc",
    "scalarprod",
    "tra",
]

#: Cheap subset for smoke streams (CI, tests).
SMOKE_MIX = ["conv", "scalarprod", "tra"]

STRATEGY_MIX = [
    "Batch+FT",
    "H-CODA",
    "LADM",
    "LASP+RTWICE",
    "LASP+RONCE",
    "Monolithic",
]


class LoadgenError(ReproError):
    """Raised for malformed load-generator configurations."""


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------
def _fuzz_query(rng: random.Random, index: int) -> Query:
    from repro.fuzz.genprog import generate_spec, spec_to_json

    spec = generate_spec(rng, name=f"lg{index}", scale="tiny")
    return Query(
        program={"spec": spec_to_json(spec)},
        strategy=rng.choice(STRATEGY_MIX),
    )


def _workload_query(rng: random.Random, mix: List[str]) -> Query:
    return Query(
        program={"workload": rng.choice(mix)},
        strategy=rng.choice(STRATEGY_MIX),
    )


def generate_stream(
    seed: int,
    count: int,
    mix: str = "mixed",
    dup_fraction: float = 0.5,
    hot_set: int = 8,
    smoke: bool = False,
) -> List[Query]:
    """A deterministic, duplicate-heavy query stream.

    ``mix`` is ``workloads`` (suite programs only), ``fuzz`` (generated
    specs only) or ``mixed`` (70/30 workloads/specs).  With probability
    ``dup_fraction`` a query repeats one of the last ``hot_set`` distinct
    queries instead of drawing a fresh one -- the stream a caching server
    is for.  Same ``(seed, args)`` => byte-identical stream.
    """
    if not 0.0 <= dup_fraction <= 1.0:
        raise LoadgenError(f"dup_fraction {dup_fraction} not in [0, 1]")
    if mix not in ("workloads", "fuzz", "mixed"):
        raise LoadgenError(f"unknown mix {mix!r}")
    rng = random.Random(seed)
    workload_mix = SMOKE_MIX if smoke else WORKLOAD_MIX
    stream: List[Query] = []
    hot: List[Query] = []
    for i in range(count):
        if hot and rng.random() < dup_fraction:
            stream.append(rng.choice(hot))
            continue
        if mix == "workloads":
            fresh = _workload_query(rng, workload_mix)
        elif mix == "fuzz":
            fresh = _fuzz_query(rng, i)
        else:
            fresh = (
                _workload_query(rng, workload_mix)
                if rng.random() < 0.7
                else _fuzz_query(rng, i)
            )
        stream.append(fresh)
        hot.append(fresh)
        if len(hot) > hot_set:
            hot.pop(0)
    return stream


def arrival_offsets(seed: int, count: int, rate_qps: float) -> List[float]:
    """Open-loop send offsets: seeded exponential inter-arrivals."""
    rng = random.Random(seed ^ 0x5EED)
    offsets, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate_qps)
        offsets.append(t)
    return offsets


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _percentile(sorted_vals: List[float], p: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, round(p * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


async def _replay(
    host: str,
    port: int,
    stream: List[Query],
    rate_qps: float,
    seed: int,
    concurrency: int,
) -> Tuple[List[Dict], List[float], float, Dict]:
    responses: List[Optional[Dict]] = [None] * len(stream)
    latencies: List[float] = [0.0] * len(stream)
    sem = asyncio.Semaphore(concurrency)

    async with AsyncServeClient(host, port) as client:

        async def one(i: int, query: Query, offset: Optional[float], t0: float):
            if offset is not None:
                delay = t0 + offset - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
            async with sem:
                sent = time.monotonic()
                responses[i] = await client.query(query)
                latencies[i] = time.monotonic() - sent

        t0 = time.monotonic()
        offsets = (
            arrival_offsets(seed, len(stream), rate_qps)
            if rate_qps > 0
            else [None] * len(stream)
        )
        await asyncio.gather(
            *(one(i, q, offsets[i], t0) for i, q in enumerate(stream))
        )
        wall_s = time.monotonic() - t0
        server_stats = await client.stats()
    return responses, latencies, wall_s, server_stats


def run_stream(
    host: str,
    port: int,
    stream: List[Query],
    rate_qps: float = 0.0,
    seed: int = 0,
    concurrency: int = 64,
) -> Dict:
    """Replay ``stream`` and return the report (responses included)."""
    responses, latencies, wall_s, server_stats = asyncio.run(
        _replay(host, port, stream, rate_qps, seed, concurrency)
    )
    lat = sorted(latencies)
    tiers = server_stats.get("tiers", {})
    # Per-tier client-side latency breakdown through the same log-bucketed
    # histograms the server records into -- the client-observed view of
    # which cache tier the time went to.
    tier_hists: Dict[str, LogHistogram] = {}
    for response, latency in zip(responses, latencies):
        tier = response.get("tier", "unknown")
        tier_hists.setdefault(tier, LogHistogram()).record(latency)
    return {
        "queries": len(stream),
        "unique_digests": len({r["digest"] for r in responses}),
        "rate_qps": rate_qps,
        "wall_s": wall_s,
        "throughput_qps": len(stream) / wall_s if wall_s > 0 else 0.0,
        "latency_s": {
            "p50": _percentile(lat, 0.50),
            "p95": _percentile(lat, 0.95),
            "p99": _percentile(lat, 0.99),
            "p999": _percentile(lat, 0.999),
            "max": lat[-1] if lat else 0.0,
        },
        "tiers_latency_s": {
            tier: summarize_histogram(h.snapshot())
            for tier, h in sorted(tier_hists.items())
        },
        "tiers": tiers,
        "tier_hit_rate": server_stats.get("tier_hit_rate", 0.0),
        "dedup_ratio": server_stats.get("dedup_ratio"),
        "store": server_stats.get("store"),
        "server_latency": server_stats.get("latency"),
        "server_slo": server_stats.get("slo"),
        "responses": responses,
    }


# ----------------------------------------------------------------------
# Verification: served results vs direct execution
# ----------------------------------------------------------------------
def verify_responses(stream: List[Query], responses: List[Dict]) -> Dict:
    """Re-execute every unique digest directly; count divergences.

    The direct path is :func:`execute_query` -- the very code the server's
    workers run -- so equality here proves every cache tier (memory,
    dedup, store) replayed bit-exact answers, not merely that the server
    is internally consistent.
    """
    from repro.engine.resultio import run_from_doc

    checked: Dict[str, bool] = {}
    divergences: List[str] = []
    for query, response in zip(stream, responses):
        digest = response["digest"]
        if digest in checked:
            continue
        expect = query_digest(query)
        if digest != expect:
            checked[digest] = False
            divergences.append(f"{digest}: server digest != client digest {expect}")
            continue
        direct = execute_query(query)
        served = run_from_doc(response["result"])
        ok = served.snapshot() == direct.snapshot()
        checked[digest] = ok
        if not ok:
            divergences.append(f"{digest}: served result != direct execution")
    return {
        "unique": len(checked),
        "divergence": len(divergences),
        "divergences": divergences[:20],
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="replay a seeded query stream against a repro serve endpoint",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="open-loop arrival rate in qps (0 = closed loop, max speed)",
    )
    parser.add_argument(
        "--mix", choices=["workloads", "fuzz", "mixed"], default="mixed"
    )
    parser.add_argument("--dup-fraction", type=float, default=0.5)
    parser.add_argument("--hot-set", type=int, default=8)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="restrict workloads to the cheap smoke subset",
    )
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-execute unique queries directly and require zero divergence",
    )
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    stream = generate_stream(
        args.seed,
        args.queries,
        mix=args.mix,
        dup_fraction=args.dup_fraction,
        hot_set=args.hot_set,
        smoke=args.smoke,
    )
    report = run_stream(
        args.host,
        args.port,
        stream,
        rate_qps=args.rate,
        seed=args.seed,
        concurrency=args.concurrency,
    )
    responses = report.pop("responses")
    if args.verify:
        report["verify"] = verify_responses(stream, responses)

    lat = report["latency_s"]
    print(
        f"loadgen: {report['queries']} queries "
        f"({report['unique_digests']} unique) in {report['wall_s']:.2f}s "
        f"= {report['throughput_qps']:.1f} qps"
    )
    print(
        f"  latency p50={lat['p50'] * 1e3:.1f}ms p95={lat['p95'] * 1e3:.1f}ms "
        f"p99={lat['p99'] * 1e3:.1f}ms p99.9={lat['p999'] * 1e3:.1f}ms"
    )
    for tier, summary in report["tiers_latency_s"].items():
        print(
            f"    {tier:<9} n={summary['count']:<5} "
            f"p50={summary['p50'] * 1e3:.1f}ms p95={summary['p95'] * 1e3:.1f}ms "
            f"p99={summary['p99'] * 1e3:.1f}ms max={summary['max'] * 1e3:.1f}ms"
        )
    print(
        f"  tiers={report['tiers']} hit_rate={report['tier_hit_rate']:.2f} "
        f"dedup_ratio={report['dedup_ratio']}"
    )
    slo = report.get("server_slo") or {}
    if slo:
        print(f"  server slo: {slo.get('state', '?')}")
    if args.verify:
        v = report["verify"]
        print(f"  verify: {v['unique']} unique, divergence={v['divergence']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"  wrote {args.json}")
    if args.verify and report["verify"]["divergence"]:
        for line in report["verify"]["divergences"]:
            print(f"  DIVERGENT: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
