"""The per-launch trace cache and the vectorised L1 survivor filter."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import trace_cache as trace_cache_mod
from repro.engine.simulator import Simulator, simulate
from repro.engine.trace_cache import LaunchTrace, TraceCache, _lru_filter_misses
from repro.experiments.runner import strategy_by_name
from repro.kir.kernel import Dim2, IndirectAccess, Kernel, data_var
from repro.kir.program import Program
from repro.topology.config import bench_hierarchical

from tests.conftest import make_gemm_program


class TestTraceCacheSharing:
    def test_strategies_share_one_trace(self):
        """Sweeping strategies over one program traces each launch once."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()
        for sname in ("H-CODA", "LADM", "Batch+FT"):
            simulate(
                prog, strategy_by_name(sname), cfg,
                engine="vector", trace_cache=cache,
            )
        stats = cache.stats()
        assert stats["builds"] == 1  # one launch, traced once
        assert stats["hits"] == 2  # replayed by the other two strategies
        assert stats["misses"] == 1

    def test_replay_is_deterministic(self):
        """A cache hit reproduces the cold-trace result exactly."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()

        def run():
            return simulate(
                prog, strategy_by_name("LADM"), cfg,
                engine="vector", trace_cache=cache,
            )

        assert run().snapshot() == run().snapshot()

    def test_identical_programs_keyed_by_identity(self):
        """Equal-looking but distinct programs never share an entry.

        The key holds the program *object*, not ``id(program)``: a bare id
        can be recycled by the allocator after the program is collected,
        which once replayed a stale trace against an unrelated program.
        """
        cache = TraceCache()
        cfg = bench_hierarchical()
        for _ in range(2):
            simulate(make_gemm_program(side=64), strategy_by_name("LADM"),
                     cfg, engine="vector", trace_cache=cache)
        assert cache.stats()["builds"] == 2
        assert len(cache) == 2
        # the cached key keeps each program alive, so ids cannot recycle
        for (launch_key, _, _) in cache._entries:
            assert launch_key[0].launches  # a live Program, not an int

    def test_distinct_geometry_distinct_entry(self):
        """sector_bytes/page_size are part of the key, not clobbered."""
        prog = make_gemm_program(side=64)
        cache = TraceCache()
        cfg = bench_hierarchical()
        simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                 trace_cache=cache)
        l2 = replace(bench_hierarchical().l2, sector_bytes=64)
        cfg2 = replace(bench_hierarchical(), l2=l2)
        simulate(prog, strategy_by_name("LADM"), cfg2, engine="vector",
                 trace_cache=cache)
        assert cache.stats()["builds"] == 2
        assert len(cache) == 2


class TestEvictionAndOptOut:
    def test_oversized_trace_not_cached(self):
        """A trace bigger than the whole budget bypasses the cache."""
        cache = TraceCache(max_bytes=1)
        simulate(make_gemm_program(side=32), strategy_by_name("LADM"),
                 bench_hierarchical(), engine="vector", trace_cache=cache)
        assert len(cache) == 0 and cache.stats()["builds"] == 1

    def test_budget_evicts_lru(self):
        """Overflowing the byte budget drops least-recently-used traces."""
        cfg = bench_hierarchical()
        probe = TraceCache()
        simulate(make_gemm_program(side=64), strategy_by_name("LADM"), cfg,
                 engine="vector", trace_cache=probe)
        one_trace = probe.cached_bytes
        # Room for one resident trace, never for two.
        cache = TraceCache(max_bytes=int(one_trace * 1.1))
        for _ in range(3):
            prog = make_gemm_program(side=64)  # distinct program, same size
            simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                     trace_cache=cache)
        assert cache.stats()["builds"] == 3
        assert len(cache) == 1  # older traces evicted, newest kept

    def test_trace_cacheable_opt_out(self):
        """A provider marked trace_cacheable=False is never stored."""
        prog = Program("gather")
        prog.malloc_managed("X", 4096, 4)

        def provider(ctx):
            return (ctx.linear_tid * 13) % 512

        provider.trace_cacheable = False
        k = Kernel(
            "gather", Dim2(32), {"X": 4},
            [IndirectAccess("X", data_var("i"), provider)],
            insts_per_thread=4,
        )
        prog.launch(k, Dim2(2), {"X": "X"})
        cache = TraceCache()
        cfg = bench_hierarchical()
        for _ in range(2):
            simulate(prog, strategy_by_name("LADM"), cfg, engine="vector",
                     trace_cache=cache)
        stats = cache.stats()
        assert len(cache) == 0
        assert stats["builds"] == 2  # re-traced every run, never cached
        assert stats["hits"] == 0

    def test_default_cache_used_when_none_passed(self):
        sim = Simulator(bench_hierarchical(), engine="vector")
        assert sim.trace_cache is None  # falls back to the process cache


def _synthetic_trace(block_streams, trip=1):
    """Build a LaunchTrace directly from per-block sector lists."""
    ntb = len(block_streams) // trip
    sectors = np.concatenate(
        [np.asarray(b, dtype=np.int64) for b in block_streams]
    ) if block_streams else np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(block_streams) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in block_streams], out=offsets[1:])
    trace = LaunchTrace(
        num_threadblocks=ntb,
        trip=trip,
        sectors=sectors,
        pages=sectors.copy(),
        site_index=np.zeros(sectors.size, dtype=np.int64),
        site_arrays=["X"],
    )
    trace.offsets = offsets
    return trace


class TestSurvivorFilter:
    """The vectorised stack-property filter vs the sequential oracle."""

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), max_size=60),
            min_size=1,
            max_size=4,
        ),
        capacity=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_oracle(self, streams, capacity, chunk):
        trace = _synthetic_trace(streams)
        vec = trace._compute_survivors(capacity)
        seq = trace._compute_survivors_sequential(capacity)
        assert np.array_equal(vec, seq)
        # A gather budget of a few elements splits the reuse windows over
        # many slices, most windows straddling two or more; the mask must
        # not change.
        saved = trace_cache_mod._WINDOW_CHUNK_ELEMENTS
        trace_cache_mod._WINDOW_CHUNK_ELEMENTS = chunk
        try:
            chunked = trace._compute_survivors(capacity)
        finally:
            trace_cache_mod._WINDOW_CHUNK_ELEMENTS = saved
        assert np.array_equal(chunked, seq)

    @given(
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), max_size=40),
            min_size=2,
            max_size=4,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_iteration_blocks(self, streams, capacity):
        """trip > 1: one TB's filter persists across its iterations."""
        if len(streams) % 2:
            streams = streams + [[]]
        trace = _synthetic_trace(streams, trip=2)
        vec = trace._compute_survivors(capacity)
        seq = trace._compute_survivors_sequential(capacity)
        assert np.array_equal(vec, seq)

    def test_filter_isolated_per_threadblock(self):
        """One TB's stream never warms another TB's filter."""
        trace = _synthetic_trace([[5, 5], [5, 5]])
        miss = trace.survivors(capacity=4)
        # Each TB's first touch of 5 misses; its second hits.
        assert miss.tolist() == [True, False, True, False]

    def test_oracle_lru_filter(self):
        """The dense-id LRU helper behaves like an OrderedDict filter."""
        stream = np.array([0, 1, 2, 0, 3, 0], dtype=np.int64)
        # capacity 2: 2 evicts 0, the re-fetched 0 evicts 1, 3 evicts 2,
        # and the final 0 (refreshed by its re-fetch) survives as a hit.
        out = _lru_filter_misses(stream, 2)
        assert out.tolist() == [True, True, True, True, True, False]
        out = _lru_filter_misses(stream, 3)
        assert out.tolist() == [True, True, True, False, True, False]
