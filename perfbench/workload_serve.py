"""serve-cold and serve-warm: closed-loop ``repro serve`` queries.

Both run an in-process ``ServerThread(workers=2)`` and two callers, each
on its own connection, each sending its next query only when the last
one answered.  Queries go out in passes; a pass ends when both callers
are idle, so every pass carries the same mix and whole passes are timed.

* serve-cold: a pass is every Fig-9 (workload, strategy) pair at TEST
  scale, shuffled by the seed, each with a builder seed of its own, so
  every query is a new digest.  Every pass runs against a server started
  on an empty store (its pool forked before the pass is timed), so every
  query is computed and the pool workers hold one pass's work.
* serve-warm: a pass is one loadgen ``generate_stream(mix="mixed",
  dup_fraction=0.5)`` stream from the seed.  Set-up fills a store with its
  unique queries; every pass runs against a server restarted on that
  store, so every answer comes from the memory or store tier and nothing
  is computed.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import harness

IMPORTS = [
    "repro.serve.server",
    "repro.serve.client",
    "repro.serve.query",
    "repro.fuzz.loadgen",
]

CALLERS = 2
WORKERS = 2
#: Queries in one serve-warm pass (a sixth or so are distinct).
WARM_STREAM = 1000
#: serve-warm sets up fewer times: each set-up fills a store (about 3 s).
WARM_SETUP_REPEATS = 3
#: Served payloads re-executed directly after the window.
VERIFY_SAMPLE = {"serve-cold": 5, "serve-warm": 8}
#: Client span tracks sit far above the server's per-request track ids.
CLIENT_TRACK_BASE = 1 << 40


def _builder_seed(*parts) -> int:
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big") >> 1


def cold_pass(seed: int, index: int):
    """Pass ``index``: every Fig-9 pair once, each with its own builder seed."""
    from repro.experiments.fig9 import FIG9_STRATEGIES
    from repro.serve.query import Query
    from repro.workloads.suite import workload_names

    pairs = [(w, s) for w in workload_names() for s in FIG9_STRATEGIES]
    random.Random(_builder_seed("order", seed, index)).shuffle(pairs)
    return [
        Query(program={"workload": w}, strategy=s,
              seed=_builder_seed("cold", seed, index, i))
        for i, (w, s) in enumerate(pairs)
    ]


def warm_stream(seed: int):
    from repro.fuzz.loadgen import generate_stream

    return generate_stream(seed, WARM_STREAM, mix="mixed", dup_fraction=0.5)


class Phase:
    """Whole passes of closed-loop queries, and what the servers counted."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        #: per pass: client latencies (s) and failed queries
        self.pass_latencies: List[List[float]] = []
        self.pass_failed: List[int] = []
        self.pass_computed: List[int] = []
        #: (client latency s, tier, server_s) per answered query
        self.answers: List[Tuple[float, str, float]] = []
        #: first (query, response) per digest, for the verification sample
        self.by_digest: Dict[str, tuple] = {}
        self.errors: List[str] = []
        #: server-side counter deltas over the timed passes
        self.tiers: Dict[str, int] = {}
        self.batch_dispatches = 0
        self.batch_queries = 0
        self.store_bytes = 0
        #: span events each server recorded during its pass
        self.server_events: List[list] = []

    @property
    def attempted(self) -> int:
        return len(self.answers) + len(self.errors)

    def passes(self) -> List[Tuple[float, List[float], int]]:
        return list(zip(self.walls, self.pass_latencies, self.pass_failed))

    def count(self, before: Dict, after: Dict) -> None:
        """Add one pass's server ``stats`` deltas."""
        for tier, n in after["tiers"].items():
            self.tiers[tier] = self.tiers.get(tier, 0) + n - before["tiers"][tier]
        self.pass_computed.append(after["tiers"]["computed"] - before["tiers"]["computed"])

        def delta(key: str) -> int:
            return after["counters"].get(key, 0) - before["counters"].get(key, 0)

        self.batch_dispatches += delta("serve.batch.dispatches")
        self.batch_queries += delta("serve.batch.queries")
        self.store_bytes = after["store"]["bytes"]


async def _one_pass(host, port, queries: list, phase: Phase, tracer=None) -> None:
    """Two closed-loop callers, one connection each, until ``queries`` run out."""
    from repro.serve.client import AsyncServeClient, ServeError

    clients = [AsyncServeClient(host, port) for _ in range(CALLERS)]
    for client in clients:
        await client.connect()
    todo = iter(queries)
    latencies: List[float] = []
    errors_before = len(phase.errors)

    async def caller(k: int, client) -> None:
        if tracer is not None:
            tracer.begin_task(track=CLIENT_TRACK_BASE + k)
        for query in todo:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    response = await client.query(query)
                else:
                    with tracer.span("bench.query", cat="bench") as span:
                        response = await client.query(query)
                        span.args["trace_id"] = response.get("trace_id")
            except ServeError as exc:
                phase.errors.append(f"{query.program_name}/{query.strategy}: {exc}")
                continue
            latency = time.perf_counter() - t0
            latencies.append(latency)
            phase.answers.append((latency, response["tier"], response["server_s"]))
            phase.by_digest.setdefault(response["digest"], (query, response))

    try:
        t_pass = time.perf_counter()
        await asyncio.gather(*(caller(k, c) for k, c in enumerate(clients)))
        phase.walls.append(time.perf_counter() - t_pass)
        phase.pass_latencies.append(latencies)
        phase.pass_failed.append(len(phase.errors) - errors_before)
    finally:
        for client in clients:
            await client.close()


async def _stats(host, port) -> Dict:
    from repro.serve.client import AsyncServeClient

    async with AsyncServeClient(host, port) as client:
        return await client.stats()


def stats(st) -> Dict:
    return asyncio.run(_stats(st.host, st.port))


class Workload:
    """Set-up, timed window, checks and traced run of one serve workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=str(harness.state_dir()))
        self.servers: List = []
        self.warm_store: Optional[str] = None

    def close(self) -> None:
        for st in self.servers:
            st.stop()
        self.servers.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _start(self, store: str, **kwargs):
        from repro.serve.server import ServerThread

        st = ServerThread(workers=WORKERS, store_dir=store, **kwargs)
        self.servers.append(st)
        return st.start()

    def _stop(self, st) -> None:
        st.stop()
        self.servers.remove(st)

    def _store(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"store-{tag}-", dir=self.tmp)

    def _send(self, st, queries: list) -> None:
        asyncio.run(_one_pass(st.host, st.port, queries, Phase()))

    # -- set-up ------------------------------------------------------------
    def start_cold(self, tag: str, **kwargs):
        """A server on an empty store with both pool workers forked.

        Two warm-up queries (builder seeds outside every timed pass) make
        the pool fork its two workers before timing starts.
        """
        from repro.serve.query import Query

        st = self._start(self._store(tag), **kwargs)
        self._send(st, [
            Query(program={"workload": "vecadd"}, strategy="H-CODA",
                  seed=_builder_seed("warmup", self.seed, tag, k))
            for k in range(WORKERS)
        ])
        return st

    def start_warm(self, tag: str, **kwargs):
        """Fill a fresh store with the stream's unique queries, then restart.

        Later passes restart on the same store (:meth:`fresh`).
        """
        from repro.serve.query import query_digest

        store = self._store(tag)
        filler = self._start(store)
        self._send(filler, list({query_digest(q): q for q in warm_stream(self.seed)}.values()))
        self._stop(filler)
        self.warm_store = store
        return self._start(store, **kwargs)

    def fresh(self, tag: str, **kwargs):
        """The server for one pass: serve-cold starts on an empty store with
        its pool forked; serve-warm restarts on the filled store."""
        if self.name == "serve-cold":
            return self.start_cold(tag, **kwargs)
        return self._start(self.warm_store, **kwargs)

    def setup(self) -> Tuple[object, List[float]]:
        start = self.start_cold if self.name == "serve-cold" else self.start_warm
        times, live = [], None
        repeats = harness.SETUP_REPEATS if self.name == "serve-cold" else WARM_SETUP_REPEATS
        for rep in range(repeats):
            imports = harness.import_wall_s(IMPORTS)
            t0 = time.perf_counter()
            st = start(f"setup{rep}")
            times.append(imports + time.perf_counter() - t0)
            if live is not None:
                self._stop(live)
            live = st
        return live, times

    # -- the timed passes --------------------------------------------------
    def window(self, st, seconds: float, passes: Optional[int] = None,
               tracer=None, **server_kwargs) -> Phase:
        """Whole passes until ``seconds`` have passed (or exactly ``passes``
        of them), the first on server ``st`` if one is given.

        Every pass runs on a fresh server (:meth:`fresh`, started outside
        the pass's time), so every pass starts from the same state and has
        the same tier mix, and memory is that of one pass however many the
        window holds.  Servers are stopped on return.
        """
        stream = warm_stream(self.seed) if self.name == "serve-warm" else None
        phase = Phase()
        window0 = time.perf_counter()
        index = 0
        try:
            while True:
                if st is None:
                    st = self.fresh(f"pass{index}", **server_kwargs)
                queries = stream if stream is not None else cold_pass(self.seed, index)
                before = stats(st)
                skip = len(st.server.session.tracer)
                asyncio.run(_one_pass(st.host, st.port, queries, phase, tracer))
                phase.count(before, stats(st))
                if tracer is not None:
                    phase.server_events.append(st.server.session.tracer.events()[skip:])
                self._stop(st)
                st = None
                index += 1
                if passes is not None:
                    if index >= passes:
                        break
                elif time.perf_counter() - window0 >= seconds:
                    break
        finally:
            if st is not None:
                self._stop(st)
        return phase


def run(report: "harness.Report", name: str, seed: int, seconds: float, traced: bool) -> None:
    wl = Workload(name, seed)
    try:
        _run(report, wl, seconds, traced)
    finally:
        wl.close()


def _run(report, wl: Workload, seconds, traced) -> None:
    from repro.fuzz.loadgen import verify_responses

    st, setups = wl.setup()
    report.metrics["setup_s"] = harness.median(setups)
    report.note(
        "setup_s: median of %d set-ups (fresh-interpreter import + server "
        "start%s) %s"
        % (len(setups),
           " + pool fork" if wl.name == "serve-cold" else " + store fill + restart",
           ["%.3f" % s for s in setups])
    )
    phase = wl.window(st, seconds)
    harness.record_peak_rss(report)

    harness.record_passes(report, phase.passes())
    sent = len(phase.answers)
    for err in phase.errors[:5]:
        report.note("failed query: " + err)

    tiers = phase.tiers
    if wl.name == "serve-cold":
        report.check("serve.cold_all_computed", tiers["computed"] == sent,
                     f"computed {tiers['computed']} of {sent} sent")
    else:
        report.check("serve.warm_nothing_computed", tiers["computed"] == 0,
                     f"computed {tiers['computed']} of {sent} sent")
    report.check("serve.no_failed_queries", not phase.errors,
                 f"{len(phase.errors)} failed of {phase.attempted}")

    # Seeded sample of served payloads against direct execution.
    by_digest = phase.by_digest
    rng = random.Random(wl.seed)
    sample = rng.sample(sorted(by_digest), min(VERIFY_SAMPLE[wl.name], len(by_digest)))
    verdict = verify_responses(
        [by_digest[d][0] for d in sample], [by_digest[d][1] for d in sample]
    )
    report.check(
        "serve.payloads_match_direct", verdict["divergence"] == 0 and verdict["unique"] > 0,
        f"{verdict['unique']} sampled digests, divergence {verdict['divergence']}",
    )
    report.note("tiers in the window: %s" % tiers)
    # Which tier answers a warm duplicate depends on timing; the computed
    # count and the number of queries of a pass do not.  Counters are per
    # pass, so they do not depend on how many passes the window held.
    report.ledger_key = f"{wl.name}|seed={wl.seed}"
    report.counters["serve.pass_queries"] = len(phase.pass_latencies[0])
    report.counters["serve.pass_computed"] = phase.pass_computed[0]

    if traced:
        _traced(report, wl, harness.median(phase.walls))


def _traced(report, wl: Workload, untraced_wall: float) -> None:
    """The window's first pass again with every query traced through the
    server.

    The server samples every query (``trace_sample=1``), its pool workers
    ship their spans home under the query's trace id, and the benchmark
    hangs the server's spans of each query under its own client span.
    Sampled workers enable their counter registry, which makes
    single-launch walk-memo lookups ineligible; those launches are counted
    as ``engine.memo_ineligible``.
    """
    from repro.obs.tracer import SpanTracer

    import spantree

    client = SpanTracer(enabled=True)
    phase = wl.window(None, 0.0, passes=1, tracer=client, trace_sample=1)

    events = client.events()
    for server_events in phase.server_events:
        events += spantree.prefixed(server_events, ("bench.query",))
    layers = spantree.Layers(events)
    spantree.check_nesting(report, layers)
    queries = report.counters["serve.pass_queries"]
    report.check(
        "trace.same_queries_as_untraced", phase.attempted == queries,
        f"traced {phase.attempted} queries, untraced {queries} per pass",
    )
    orphans = layers.count.get(("serve.query",), 0)
    report.check("trace.queries_stitched", orphans == 0,
                 f"{orphans} server query spans without a client parent")

    spantree.engine_layer_metrics(report, layers)
    report.metrics["bench.unattributed_s"] = layers.self_s("bench.query")
    report.metrics["trace.overhead_s"] = phase.walls[0] - untraced_wall

    tiers = phase.tiers
    answered = sum(tiers.values())
    for t, v in tiers.items():
        report.metrics[f"serve.tier_{t}"] = float(v)
    report.span_metric(
        "serve.tier_hit_ratio",
        (answered - tiers["computed"]) / answered if answered else 0.0, answered > 0,
    )
    for t in tiers:
        server_s = sorted(a[2] for a in phase.answers if a[1] == t)
        report.span_metric(
            f"serve.server_ms.{t}",
            harness.nearest_rank(server_s, 0.5) * 1e3 if server_s else 0.0, bool(server_s),
        )
    transport = sorted(a[0] - a[2] for a in phase.answers)
    report.span_metric("serve.transport_ms",
                       harness.nearest_rank(transport, 0.5) * 1e3, True)
    dispatches = phase.batch_dispatches
    report.span_metric("serve.batch_size",
                       phase.batch_queries / dispatches if dispatches else 0.0, dispatches > 0)
    computes = layers.n("serve.compute")
    report.span_metric(
        "serve.compute_self_ms",
        layers.self_s("serve.compute") * 1e3 / computes if computes else 0.0, computes > 0,
    )
    for op in ("get", "put"):
        durs = sorted(
            ev["dur_ns"] for ev in layers.spans("store.io") if ev["args"].get("op") == op
        )
        report.span_metric(
            f"result_store.{op}_ms",
            harness.nearest_rank(durs, 0.5) / 1e6 if durs else 0.0, bool(durs),
        )
    report.metrics["result_store.bytes"] = float(phase.store_bytes)
    report.counters.update(spantree.engine_counters(layers))
    report.note(
        "tracing overhead: traced pass %.3f s - untraced median pass %.3f s = %+.3f s "
        "(traced memo hits %d, memo-ineligible launches %d)"
        % (phase.walls[0], untraced_wall, phase.walls[0] - untraced_wall,
           report.metrics["engine.memo_hits"], report.metrics["engine.memo_ineligible"])
    )
    report.note("span tree (totals; each level's unattributed remainder as its own row):")
    for line in layers.tree_lines():
        report.note("  " + line)
