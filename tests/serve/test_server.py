"""End-to-end server behaviour: tiers, dedup, parity, restart, errors."""

import asyncio

import pytest

from repro.engine.resultio import run_from_doc
from repro.serve.client import AsyncServeClient, ServeClient, ServeError
from repro.serve.query import Query, execute_query
from repro.serve.server import QueryServer, ServerThread

CONV = Query(program={"workload": "conv"}, strategy="LADM")
CODA = Query(program={"workload": "conv"}, strategy="H-CODA")
MONO = Query(program={"workload": "conv"}, strategy="Monolithic")


def _sync(coro):
    return asyncio.run(coro)


class TestTiers:
    def test_computed_then_memory(self, tmp_path):
        async def body():
            async with QueryServer(workers=0, batch_window_s=0.001) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    first = await client.query(CONV)
                    second = await client.query(CONV)
            return first, second

        first, second = _sync(body())
        assert first["tier"] == "computed"
        assert second["tier"] == "memory"
        assert first["result"] == second["result"]
        assert first["digest"] == second["digest"]

    def test_inflight_dedup(self):
        async def body():
            async with QueryServer(workers=0, batch_window_s=0.001) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    return await asyncio.gather(
                        client.query(CONV), client.query(CONV), client.query(CONV)
                    )

        responses = _sync(body())
        tiers = sorted(r["tier"] for r in responses)
        assert tiers == ["computed", "dedup", "dedup"]
        assert len({r["result"] is not None for r in responses}) == 1
        payloads = [r["result"] for r in responses]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_store_tier_survives_restart(self, tmp_path):
        store = str(tmp_path / "store")

        async def phase():
            async with QueryServer(workers=0, store_dir=store) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    return await client.query(CONV)

        cold = _sync(phase())
        warm = _sync(phase())
        assert cold["tier"] == "computed"
        assert warm["tier"] == "store"
        assert warm["result"] == cold["result"]

    def test_batchmates_share_a_dispatch(self):
        async def body():
            async with QueryServer(workers=0, batch_window_s=0.02) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    responses = await asyncio.gather(
                        client.query(CONV), client.query(CODA), client.query(MONO)
                    )
                    stats = await client.stats()
            return responses, stats

        responses, stats = _sync(body())
        assert all(r["tier"] == "computed" for r in responses)
        counters = stats["counters"]
        assert counters.get("serve.batch.dispatches") == 1
        assert counters.get("serve.batch.queries") == 3


class TestWorkerCaches:
    def test_batches_leave_nothing_behind(self):
        """Trace cache and walk memo live and die with their batch, and the
        predictor store holds only the latest batch's entries: every key
        names a batch's own program or trace, so nothing could hit later."""
        from repro.engine.spec_predictor import default_spec_store
        from repro.engine.trace_cache import default_trace_cache
        from repro.engine.walk_memo import default_walk_memo
        from repro.serve.query import query_digest
        from repro.serve.server import _worker_run_batch

        def batch(workload):
            queries = [
                Query(program={"workload": workload}, strategy=s)
                for s in ("LADM", "H-CODA")
            ]
            return [(query_digest(q), q.to_doc(), None) for q in queries]

        traces, memo = default_trace_cache(), default_walk_memo()
        store = default_spec_store()
        traces_before, memo_before = len(traces), len(memo)
        first = _worker_run_batch(batch("lstm1"))
        first_keys = list(store._entries)
        assert first_keys, "the first batch taught the predictor nothing"
        second = _worker_run_batch(batch("conv"))
        assert all(err is None for _, _, err in first["results"] + second["results"])
        assert (len(traces), len(memo)) == (traces_before, memo_before)
        assert not any(key in store._entries for key in first_keys)


class TestParity:
    """The serving-layer bar: served == direct execution, bit-exact."""

    @pytest.mark.parametrize("query", [CONV, CODA, MONO], ids=lambda q: q.strategy)
    def test_served_equals_direct(self, query):
        async def body():
            async with QueryServer(workers=0) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    return await client.query(query)

        response = _sync(body())
        served = run_from_doc(response["result"])
        assert served.snapshot() == execute_query(query).snapshot()

    def test_process_pool_matches_inline(self):
        async def body(workers):
            async with QueryServer(workers=workers) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    return await client.query(CONV)

        pooled = _sync(body(2))
        inline = _sync(body(0))
        assert pooled["result"] == inline["result"]


class TestProtocol:
    def test_error_does_not_kill_the_connection(self):
        async def body():
            async with QueryServer(workers=0) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    with pytest.raises(ServeError, match="unknown workload"):
                        await client.query(Query(program={"workload": "nope"}))
                    return await client.ping()

        assert _sync(body())

    def test_unknown_op_rejected(self):
        async def body():
            async with QueryServer(workers=0) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    with pytest.raises(ServeError, match="unknown op"):
                        await client.request("frobnicate")

        _sync(body())

    def test_stats_shape(self):
        async def body():
            async with QueryServer(workers=0) as server:
                async with AsyncServeClient(server.host, server.port) as client:
                    await client.query(CONV)
                    await client.query(CONV)
                    return await client.stats()

        stats = _sync(body())
        assert stats["answered"] == 2
        assert stats["tiers"]["computed"] == 1
        assert stats["tiers"]["memory"] == 1
        assert 0.0 < stats["tier_hit_rate"] <= 1.0
        assert "serve.requests{op=query}" in stats["counters"]


class TestServerThread:
    def test_blocking_client_round_trip(self, tmp_path):
        with ServerThread(workers=0, store_dir=str(tmp_path / "s")) as thread:
            with ServeClient(thread.host, thread.port) as client:
                assert client.ping()
                response = client.query(CONV)
                assert response["tier"] == "computed"
                assert client.query(CONV)["tier"] == "memory"
                stats = client.stats()
                assert stats["store"]["puts"] == 1

    def test_memory_lru_bounded(self):
        with ServerThread(workers=0, memory_entries=1) as thread:
            with ServeClient(thread.host, thread.port) as client:
                client.query(CONV)
                client.query(CODA)  # evicts CONV from the memory tier
                assert client.query(CONV)["tier"] == "computed"
