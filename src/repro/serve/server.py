"""The asyncio what-if query server (``repro serve``).

Protocol: newline-delimited JSON over TCP.  Requests carry an ``op`` and a
client-chosen ``id`` echoed in the response::

    {"op": "query", "id": 1, "query": {"program": {"workload": "conv"},
                                        "strategy": "LADM", "scale": "test"}}
    {"op": "stats", "id": 2}
    {"op": "health", "id": 3}
    {"op": "trace", "id": 4, "trace_id": "q7-ab12..."}   # trace_id optional
    {"op": "ping", "id": 5}
    {"op": "shutdown", "id": 6}

A ``query`` response is ``{"id": 1, "ok": true, "digest": ..., "tier":
"memory"|"dedup"|"store"|"computed", "result": <repro-result-v1 doc>,
"server_s": <service time>}``.  Errors answer ``{"ok": false, "error":
...}`` without killing the connection.

Answer path (the tiered cache; see ``docs/serving.md``):

1. **memory** -- a bounded LRU of result docs in the server process;
2. **dedup** -- identical in-flight digests await one shared future;
3. **store** -- the persistent :class:`~repro.engine.result_store.ResultStore`
   (cross-process, survives restarts), read/written off-loop in threads;
4. **compute** -- queries that miss everything are micro-batched by
   :func:`~repro.serve.query.batch_digest` (same program+scale+seed+engine,
   any strategy) for up to ``batch_window_s`` and dispatched as one job to
   a fork process pool, where they share a trace cache and walk memo
   exactly like one ``run_matrix`` worker.

Every tier decision lands in the server's own (always-enabled) obs session
as ``serve.*`` / ``store.*`` counters, exported by the ``stats`` op and by
``repro serve --counters FILE`` on shutdown.

**Live telemetry** (see ``docs/observability.md``): every answer records
into ``serve.latency{tier=...}`` -- a cumulative histogram that reconciles
exactly with the ``serve.tier`` counters at shutdown, plus a sliding
window feeding SLO burn rates (:mod:`repro.obs.slo`).  The ``stats`` op
returns per-tier latency summaries and the SLO state; ``health`` is the
cheap probe variant.  With ``--trace-sample N`` every Nth query gets a
request-scoped **trace id** threaded through the tier walk and into the
pool worker that computes it; workers ship their span buffers back
re-parented under the dispatching server span, so ``--trace FILE`` (or
the ``trace`` op) yields one connected cross-process Perfetto tree per
sampled query.  ``--telemetry-every S`` emits a structured JSON line of
the same state on a timer (``repro top`` renders it live over ``stats``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import sys
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engine.result_store import ResultStore
from repro.engine.resultio import run_to_doc
from repro.obs import slo as obs_slo
from repro.obs.metrics import summarize_histogram
from repro.obs.tracer import trace_context
from repro.serve.query import Query, batch_digest, execute_query, query_digest

__all__ = ["QueryServer", "ServerThread", "validate_stats", "main"]

_MEMORY_TIER_ENTRIES = int(os.environ.get("REPRO_SERVE_CACHE_ENTRIES", "512"))

TELEMETRY_SCHEMA = "repro-serve-telemetry-v1"

#: The four answer tiers, in probe order.
TIERS = ("memory", "dedup", "store", "computed")


# ----------------------------------------------------------------------
# Pool worker (module level: must pickle by reference under fork)
# ----------------------------------------------------------------------
def _worker_run_batch(
    items: List[Tuple[str, Dict, Optional[Dict]]],
    epoch_ns: Optional[int] = None,
) -> Dict:
    """Execute one compatible batch: (digest, query_doc, trace?) -> docs.

    All items share a batch digest, so the program is built and compiled
    once and strategies share one trace cache and one walk memo, both
    private to the batch.  Every entry of those caches and of the
    predictor store (cleared here) keys on this batch's own program or
    trace objects, so nothing could hit across batches; dropping them with
    the batch keeps a long-lived worker's memory at one batch's working
    set.  Per-item failures are returned as error strings -- one bad query
    must not poison its batchmates.

    ``trace`` (per item) is ``{"trace_id", "parent_path"}`` for sampled
    queries: the worker installs an enabled obs session (timestamped
    against the parent's ``epoch_ns`` so both processes share one time
    axis), records the walk under the trace id, re-parents its span paths
    under the server's dispatching span and ships the buffer home in the
    ``spans`` field of the return doc.
    """
    from repro.compiler.passes import compile_program
    from repro.engine.spec_predictor import default_spec_store
    from repro.engine.trace_cache import TraceCache
    from repro.engine.walk_memo import WalkMemo, memo_enabled
    from repro.serve.query import build_query_program

    default_spec_store().clear()
    trace_cache = TraceCache()
    # None defers to the process-wide memo, which REPRO_WALK_MEMO=0 disables.
    walk_memo = WalkMemo() if memo_enabled() else None
    traced = any(trace for _, _, trace in items)
    previous = obs.current()
    session = None
    if traced:
        session = obs.ObsSession(enabled=True, epoch_ns=epoch_ns)
        obs.install(session)
    out: List[Tuple[str, Dict, Optional[str]]] = []
    compiled = None
    try:
        for digest, qdoc, trace in items:
            try:
                query = Query.from_doc(qdoc)
                if compiled is None:
                    compiled = compile_program(build_query_program(query))
                if trace and session is not None:
                    with trace_context(trace["trace_id"]):
                        with session.tracer.span(
                            "serve.worker.execute",
                            cat="serve",
                            digest=digest,
                            strategy=query.strategy,
                        ):
                            run = execute_query(
                                query, compiled, trace_cache, walk_memo
                            )
                else:
                    run = execute_query(query, compiled, trace_cache, walk_memo)
                out.append((digest, run_to_doc(run), None))
            except Exception as exc:  # noqa: BLE001 - reported to the client
                out.append((digest, {}, f"{type(exc).__name__}: {exc}"))
    finally:
        if traced:
            obs.install(previous)
    spans: List[Dict] = []
    if session is not None:
        parents = {
            trace["trace_id"]: tuple(trace.get("parent_path") or ())
            for _, _, trace in items
            if trace
        }
        for ev in session.tracer.events():
            parent = parents.get(ev.get("trace_id"))
            if parent is None:
                continue  # untraced engine spans would merge as orphan roots
            ev = dict(ev)
            ev["path"] = parent + tuple(ev["path"])
            spans.append(ev)
    return {"results": out, "spans": spans}


class _PendingItem:
    __slots__ = ("digest", "doc", "future", "trace")

    def __init__(
        self,
        digest: str,
        doc: Dict,
        future: "asyncio.Future",
        trace: Optional[Dict] = None,
    ):
        self.digest = digest
        self.doc = doc
        self.future = future
        self.trace = trace


class QueryServer:
    """One serving endpoint: TCP listener + tiered cache + worker pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        store_dir: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
        batch_window_s: float = 0.005,
        memory_entries: int = _MEMORY_TIER_ENTRIES,
        trace_sample: int = 0,
        slo_specs: Optional[List[obs_slo.SLOSpec]] = None,
        telemetry_every_s: float = 0.0,
        telemetry_file: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.workers = workers
        self.batch_window_s = batch_window_s
        #: 0 disables request tracing; N samples every Nth query (the
        #: first query is always sampled so one probe suffices in tests).
        self.trace_sample = int(trace_sample)
        self.slo_specs = (
            obs_slo.default_serve_slos() if slo_specs is None else list(slo_specs)
        )
        self.telemetry_every_s = telemetry_every_s
        self.telemetry_file = telemetry_file
        self.session = obs.ObsSession(enabled=True)
        self.store = (
            ResultStore(store_dir, max_bytes=store_max_bytes, session=self.session)
            if store_dir
            else None
        )
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        self._memory_entries = memory_entries
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: Dict[str, List[_PendingItem]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = None
        self._started = 0.0
        self._stopping = asyncio.Event()
        self._qseq = 0
        self._track_seq = 0
        self._telemetry_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start the pool, return the (host, port) actually bound."""
        if self.workers > 0:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._started = time.monotonic()
        if self.telemetry_every_s > 0:
            self._telemetry_task = asyncio.get_running_loop().create_task(
                self._telemetry_loop()
            )
        return self.host, self.port

    async def stop(self) -> None:
        self._stopping.set()
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                tasks.append(
                    asyncio.ensure_future(
                        self._handle_line(line, writer, write_lock)
                    )
                )
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            # CancelledError: server stop during readline; nothing to flush.
            pass
        finally:
            # Server shutdown cancels this handler; every await below can
            # re-raise CancelledError -- absorb it so the task finishes
            # cleanly instead of logging a spurious traceback.
            try:
                for t in tasks:
                    if not t.done():
                        await t
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (UnicodeDecodeError, ValueError) as exc:
            await self._send(
                writer, write_lock, {"ok": False, "error": f"bad request: {exc}"}
            )
            return
        rid = request.get("id")
        op = request.get("op")
        self.session.counters.inc("serve.requests", op=str(op))
        # Each request line is its own asyncio task: give it a private span
        # stack and a virtual track so interleaved queries nest correctly.
        self._track_seq += 1
        self.session.tracer.begin_task(track=self._track_seq)
        try:
            if op == "ping":
                response = {"id": rid, "ok": True, "pong": True}
            elif op == "stats":
                response = {"id": rid, "ok": True, "stats": self.describe()}
            elif op == "health":
                response = {"id": rid, "ok": True, "health": self.health()}
            elif op == "trace":
                response = {
                    "id": rid,
                    "ok": True,
                    "trace": self.trace_doc(request.get("trace_id")),
                }
            elif op == "shutdown":
                response = {"id": rid, "ok": True, "stopping": True}
                self._stopping.set()
            elif op == "query":
                response = await self._answer(request.get("query") or {})
                response["id"] = rid
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - protocol error boundary
            self.session.counters.inc("serve.errors")
            response = {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        await self._send(writer, write_lock, response)

    @staticmethod
    async def _send(writer, write_lock, doc: Dict) -> None:
        data = json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # The tiered answer path
    # ------------------------------------------------------------------
    async def _answer(self, qdoc: Dict) -> Dict:
        t0 = time.perf_counter()
        query = Query.from_doc(qdoc)
        digest = query_digest(query)
        self._qseq += 1
        trace_id = None
        if self.trace_sample > 0 and (self._qseq - 1) % self.trace_sample == 0:
            trace_id = f"q{self._qseq}-{digest[:10]}"
            self.session.counters.inc("serve.trace.sampled")
        with trace_context(trace_id):
            with self.session.tracer.span(
                "serve.query", cat="serve", program=query.program_name, digest=digest
            ):
                tier, result = await self._resolve(query, digest)
        elapsed = time.perf_counter() - t0
        self.session.counters.inc("serve.tier", tier=tier)
        self.session.metrics.observe("serve.latency", elapsed, tier=tier)
        self.session.metrics.mark("serve.rate", tier=tier)
        response = {
            "ok": True,
            "digest": digest,
            "tier": tier,
            "result": result,
            "server_s": elapsed,
        }
        if trace_id is not None:
            response["trace_id"] = trace_id
        return response

    async def _resolve(self, query: Query, digest: str) -> Tuple[str, Dict]:
        tracer = self.session.tracer
        # Tier 1: in-process memory LRU.
        with tracer.span("serve.memory", cat="serve"):
            cached = self._memory.get(digest)
        if cached is not None:
            self._memory.move_to_end(digest)
            return "memory", cached

        # Tier 2: identical in-flight queries join one future.
        inflight = self._inflight.get(digest)
        if inflight is not None:
            self.session.counters.inc("serve.dedup.joined")
            with tracer.span("serve.dedup", cat="serve"):
                return "dedup", await asyncio.shield(inflight)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        try:
            # Tier 3: the persistent cross-process store (thread off-loop).
            if self.store is not None:
                with tracer.span("serve.store", cat="serve"):
                    payload = await loop.run_in_executor(
                        None, self.store.get, digest
                    )
                if payload is not None:
                    self._remember(digest, payload)
                    future.set_result(payload)
                    return "store", payload

            # Tier 4: compute (micro-batched per compatible program group).
            payload = await self._enqueue_compute(query, digest, future)
            return "computed", payload
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Dedup joiners re-raise; mark retrieved to avoid warnings.
                future.exception()
            raise
        finally:
            self._inflight.pop(digest, None)

    async def _enqueue_compute(
        self, query: Query, digest: str, future: asyncio.Future
    ) -> Dict:
        from repro.obs.tracer import current_trace_id

        group = batch_digest(query)
        items = self._pending.setdefault(group, [])
        with self.session.tracer.span("serve.compute", cat="serve"):
            trace = None
            trace_id = current_trace_id()
            if trace_id is not None:
                # Worker spans for this query re-parent under this very
                # serve.compute span: its path is the current stack top.
                trace = {
                    "trace_id": trace_id,
                    "parent_path": list(self.session.tracer.current_path()),
                }
            items.append(_PendingItem(digest, query.to_doc(), future, trace))
            if len(items) == 1:
                asyncio.get_running_loop().create_task(self._flush_group(group))
            return await asyncio.shield(future)

    async def _flush_group(self, group: str) -> None:
        await asyncio.sleep(self.batch_window_s)
        items = self._pending.pop(group, [])
        if not items:
            return
        batch = [(it.digest, it.doc, it.trace) for it in items]
        self.session.counters.inc("serve.batch.dispatches")
        self.session.counters.inc("serve.batch.queries", len(batch))
        loop = asyncio.get_running_loop()
        # The flush task inherits some request's context: detach the span
        # stack AND the trace id so the batch span roots its own untagged
        # track instead of injecting a second root into that request's
        # sampled trace (per-item ids travel in the batch payload).
        self._track_seq += 1
        self.session.tracer.begin_task(track=self._track_seq)
        epoch = self.session.tracer.epoch_ns
        try:
            with trace_context(None), self.session.tracer.span(
                "serve.batch.run", cat="serve", queries=len(batch)
            ):
                if self._pool is not None:
                    outcome = await loop.run_in_executor(
                        self._pool, _worker_run_batch, batch, epoch
                    )
                else:
                    # workers=0: compute in the default thread pool (tests,
                    # single-tenant CLIs); numpy releases the GIL enough to
                    # keep the loop responsive.
                    outcome = await loop.run_in_executor(
                        None, _worker_run_batch, batch, epoch
                    )
        except BaseException as exc:  # pool death, cancellation
            for it in items:
                if not it.future.done():
                    it.future.set_exception(
                        RuntimeError(f"batch execution failed: {exc}")
                    )
                    it.future.exception()
            return
        if outcome["spans"]:
            self.session.tracer.merge(outcome["spans"])
            self.session.counters.inc(
                "serve.trace.worker_spans", len(outcome["spans"])
            )
        by_digest = {digest: (doc, err) for digest, doc, err in outcome["results"]}
        for it in items:
            doc, err = by_digest.get(it.digest, ({}, "no result returned"))
            if err is not None:
                self.session.counters.inc("serve.compute.errors")
                if not it.future.done():
                    it.future.set_exception(RuntimeError(err))
                    it.future.exception()
                continue
            self._remember(it.digest, doc)
            if self.store is not None:
                await loop.run_in_executor(None, self.store.put, it.digest, doc)
            if not it.future.done():
                it.future.set_result(doc)

    # ------------------------------------------------------------------
    def _remember(self, digest: str, payload: Dict) -> None:
        self._memory[digest] = payload
        self._memory.move_to_end(digest)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def describe(self) -> Dict:
        """The ``stats`` op payload: counters, latency histograms, SLO state.

        ``latency`` carries per-tier summaries of both the cumulative
        histogram (``total`` -- its counts reconcile exactly with the
        ``serve.tier`` counters) and the sliding window (``window`` --
        what the SLO burn rates are computed over).  ``metrics`` is the
        raw registry snapshot for tooling that wants the buckets.
        """
        counters = self.session.counters.snapshot()
        tiers = {
            t: counters.get(f"serve.tier{{tier={t}}}", 0) for t in TIERS
        }
        answered = sum(tiers.values())
        computed = tiers["computed"]
        metrics = self.session.metrics.snapshot()
        latency = {}
        for tier in TIERS:
            key = f"serve.latency{{tier={tier}}}"
            doc = metrics["histograms"].get(key)
            if doc is None:
                continue
            latency[tier] = {
                "total": summarize_histogram(doc["total"]),
                "window": summarize_histogram(doc["window"]),
            }
        stats = {
            "uptime_s": time.monotonic() - self._started if self._started else 0.0,
            "workers": self.workers,
            "batch_window_s": self.batch_window_s,
            "answered": answered,
            "tiers": tiers,
            "tier_hit_rate": (answered - computed) / answered if answered else 0.0,
            "dedup_ratio": answered / computed if computed else None,
            "memory_entries": len(self._memory),
            "store": self.store.stats() if self.store is not None else None,
            "counters": counters,
            "latency": latency,
            "rates_qps": metrics["rates"],
            "metrics": metrics,
        }
        stats["slo"] = obs_slo.evaluate(self.slo_specs, metrics, stats)
        return stats

    def health(self) -> Dict:
        """The ``health`` op payload: SLO state only, cheap to poll."""
        metrics = self.session.metrics.snapshot()
        counters = self.session.counters.snapshot()
        tiers = {t: counters.get(f"serve.tier{{tier={t}}}", 0) for t in TIERS}
        answered = sum(tiers.values())
        computed = tiers["computed"]
        stats = {
            "tiers": tiers,
            "tier_hit_rate": (answered - computed) / answered if answered else 0.0,
            "dedup_ratio": answered / computed if computed else None,
            "store": self.store.stats() if self.store is not None else None,
        }
        doc = obs_slo.evaluate(self.slo_specs, metrics, stats)
        doc["uptime_s"] = (
            time.monotonic() - self._started if self._started else 0.0
        )
        doc["answered"] = answered
        return doc

    def trace_doc(self, trace_id: Optional[str] = None) -> Dict:
        """Chrome-trace JSON of the session's spans (one id, or all).

        Worker span buffers are merged in as batches complete, so a
        sampled query's doc contains both the server-side tier spans and
        the worker-side walk spans under one trace id.
        """
        from repro.obs.export import events_to_chrome_trace, spans_for_trace

        events = self.session.tracer.events()
        if trace_id is not None:
            events = spans_for_trace(events, trace_id)
        return events_to_chrome_trace(events)

    def telemetry_doc(self) -> Dict:
        """One structured telemetry record (the periodic log line body)."""
        stats = self.describe()
        return {
            "schema": TELEMETRY_SCHEMA,
            "uptime_s": stats["uptime_s"],
            "answered": stats["answered"],
            "tiers": stats["tiers"],
            "tier_hit_rate": stats["tier_hit_rate"],
            "dedup_ratio": stats["dedup_ratio"],
            "rates_qps": stats["rates_qps"],
            "latency": {
                tier: doc["window"] for tier, doc in stats["latency"].items()
            },
            "slo": stats["slo"],
        }

    async def _telemetry_loop(self) -> None:
        fh = open(self.telemetry_file, "a") if self.telemetry_file else sys.stdout
        try:
            while not self._stopping.is_set():
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._stopping.wait()),
                        timeout=self.telemetry_every_s,
                    )
                    break
                except asyncio.TimeoutError:
                    pass
                print(
                    json.dumps(self.telemetry_doc(), separators=(",", ":")),
                    file=fh,
                    flush=True,
                )
        finally:
            if self.telemetry_file:
                fh.close()


class ServerThread:
    """A :class:`QueryServer` on a background event-loop thread.

    For synchronous callers (servebench, tests, the load generator's own
    harness) that need a live endpoint next to blocking client code::

        with ServerThread(workers=2, store_dir=d) as st:
            report = run_stream(st.host, st.port, stream)
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self.server: Optional[QueryServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> "ServerThread":
        import threading

        ready = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            async def body() -> None:
                self._loop = asyncio.get_running_loop()
                server = QueryServer(**self._kwargs)
                try:
                    await server.start()
                except BaseException as exc:  # surface bind errors to start()
                    failure.append(exc)
                    ready.set()
                    return
                self.server = server
                self.host, self.port = server.host, server.port
                ready.set()
                await server.wait_stopped()
                await server.stop()

            asyncio.run(body())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        ready.wait(timeout=30)
        if failure:
            raise failure[0]
        if self.server is None:
            raise RuntimeError("server thread failed to start")
        return self

    def stop(self) -> None:
        if self.server is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(self.server._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def describe(self) -> Dict:
        return self.server.describe() if self.server is not None else {}

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Stats schema validation (CI telemetry-smoke, tests)
# ----------------------------------------------------------------------
def validate_stats(doc: Dict) -> List[str]:
    """Schema errors of one ``stats`` op payload ([] when valid).

    Checks structure *and* the reconciliation invariant: each tier's
    cumulative latency-histogram count must equal its ``serve.tier``
    counter -- the two are incremented at the same site, so any drift
    means a recording path was skipped.
    """
    from repro.obs.metrics import validate_histogram

    errors: List[str] = []
    for field in ("uptime_s", "answered", "tiers", "counters", "latency", "slo"):
        if field not in doc:
            errors.append(f"stats missing {field!r}")
    tiers = doc.get("tiers")
    if not isinstance(tiers, dict) or set(tiers) != set(TIERS):
        errors.append(f"tiers keys {sorted(tiers or {})} != {sorted(TIERS)}")
        tiers = {}
    latency = doc.get("latency", {})
    if not isinstance(latency, dict):
        return errors + ["latency not an object"]
    for tier, entry in latency.items():
        if tier not in TIERS:
            errors.append(f"latency tier {tier!r} unknown")
        for part in ("total", "window"):
            if part not in entry:
                errors.append(f"latency[{tier}] missing {part!r}")
    metrics = doc.get("metrics", {})
    for key, hdoc in metrics.get("histograms", {}).items():
        for part in ("total", "window"):
            for err in validate_histogram(hdoc.get(part, {})):
                errors.append(f"metrics[{key}].{part}: {err}")
    # Reconciliation: cumulative histogram counts == serve.tier counters.
    for tier, count in tiers.items():
        key = f"serve.latency{{tier={tier}}}"
        hdoc = metrics.get("histograms", {}).get(key)
        hist_count = int(hdoc["total"].get("count", 0)) if hdoc else 0
        if hist_count != int(count):
            errors.append(
                f"latency histogram count {hist_count} != serve.tier "
                f"counter {count} for tier {tier!r}"
            )
    slo = doc.get("slo", {})
    if slo.get("state") not in ("ok", "warn", "breach"):
        errors.append(f"slo state {slo.get('state')!r} invalid")
    return errors


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _default_workers() -> int:
    return max(1, min(4, (os.cpu_count() or 2) - 1))


async def _serve(args) -> None:
    server = QueryServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=args.store,
        store_max_bytes=args.store_mb * 1024 * 1024 if args.store_mb else None,
        batch_window_s=args.batch_window_ms / 1000.0,
        trace_sample=args.trace_sample,
        slo_specs=obs_slo.default_serve_slos(
            p95_ceiling_s=args.slo_p95, p99_ceiling_s=args.slo_p99
        ),
        telemetry_every_s=args.telemetry_every,
        telemetry_file=args.telemetry_file,
    )
    host, port = await server.start()
    print(
        f"repro serve: listening on {host}:{port} "
        f"(workers={server.workers}, store={args.store or 'off'})",
        flush=True,
    )
    try:
        await server.wait_stopped()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if args.counters:
            with open(args.counters, "w") as fh:
                json.dump(server.describe(), fh, indent=2)
            print(f"repro serve: wrote counters to {args.counters}", flush=True)
        if args.trace:
            from repro.obs.export import stitch_summary

            with open(args.trace, "w") as fh:
                json.dump(server.trace_doc(), fh, indent=1)
            stitched = stitch_summary(server.session.tracer.events())
            print(
                f"repro serve: wrote trace to {args.trace} "
                f"({len(stitched)} sampled queries, "
                f"{sum(1 for s in stitched.values() if s['connected'])} "
                "connected)",
                flush=True,
            )
        await server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="async what-if query server with a tiered result cache",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument(
        "--workers",
        type=int,
        default=_default_workers(),
        help="process-pool size (0 = compute inline in threads)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result-store directory (omit to disable the tier)",
    )
    parser.add_argument(
        "--store-mb", type=int, default=None, help="store byte budget in MiB"
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="micro-batching window for compatible compute-tier queries",
    )
    parser.add_argument(
        "--counters",
        default=None,
        metavar="FILE",
        help="write serve.*/store.* counters JSON on shutdown",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the stitched cross-process Perfetto trace on shutdown",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="trace every Nth query end-to-end across processes (0 = off)",
    )
    parser.add_argument(
        "--slo-p95",
        type=float,
        default=2.0,
        help="computed-tier p95 latency ceiling in seconds",
    )
    parser.add_argument(
        "--slo-p99",
        type=float,
        default=5.0,
        help="computed-tier p99 latency ceiling in seconds",
    )
    parser.add_argument(
        "--telemetry-every",
        type=float,
        default=0.0,
        metavar="SECS",
        help="emit a structured telemetry JSON line on this period (0 = off)",
    )
    parser.add_argument(
        "--telemetry-file",
        default=None,
        metavar="FILE",
        help="append telemetry lines here instead of stdout",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
