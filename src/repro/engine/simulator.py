"""The trace-driven NUMA multi-GPU simulator core.

``Simulator.run`` executes an :class:`ExecutionPlan`: threadblocks are
processed in a round-robin *wave order* across nodes (approximating the
concurrent dispatch of real hardware, which matters for first-touch
placement), each TB's requests pass a per-TB L1 sector filter, then walk the
dynamically-shared NUMA L2:

    requester L2 -> (miss, local home) -> local HBM
    requester L2 -> (miss, remote home) -> interconnect -> home L2 -> home HBM

RTWICE inserts remote-origin fills at the home L2; RONCE bypasses that
insert (paper Figure 8).  Byte counts feed the bottleneck performance model.

The request walk is the simulation's hot loop; it manipulates the cache
sets and numpy accumulators directly (no per-request method calls or
enum-keyed dicts) and converts everything into the reporting structures
once per launch.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro import obs
from repro.cache.array_lru import ArrayLRU
from repro.cache.compiled import backend_status as compiled_status
from repro.cache.l2 import SectoredCache
from repro.cache.stats import TrafficClass
from repro.compiler.passes import CompiledProgram, compile_program
from repro.engine.metrics import KernelMetrics, RunResult
from repro.engine.perf import apply_perf_model
from repro.engine.plan import ExecutionPlan, LaunchPlan
from repro.engine.trace import launch_tracer
from repro.engine.trace_cache import TraceCache, default_trace_cache
from repro.engine.vector_walk import walk_launch
from repro.engine.walk_memo import WalkMemo, default_walk_memo, eligible, memo_enabled
from repro.errors import SimulationError
from repro.kir.program import Program
from repro.obs.manifest import build_manifest
from repro.topology.config import SystemConfig
from repro.topology.system import Channel, LinkClass, SystemTopology

__all__ = ["Simulator", "simulate", "ENGINES"]

#: Supported engine names: the vectorised batch walk (default), the
#: per-sector reference walk it must stay bit-exact with, and the vector
#: walk with the numba-compiled :class:`ArrayLRU` probe core ("compiled";
#: falls back to the numpy core, bit-exact either way, when numba is
#: absent).
ENGINES = ("vector", "legacy", "compiled")

# Integer codes for the traffic-class accumulators (see cache.stats).
_LL, _LR, _RL = 0, 1, 2
_CLASS_OF_CODE = {
    _LL: TrafficClass.LOCAL_LOCAL,
    _LR: TrafficClass.LOCAL_REMOTE,
    _RL: TrafficClass.REMOTE_LOCAL,
}


def _wave_order(tb_nodes: np.ndarray, num_nodes: int) -> np.ndarray:
    """Interleave threadblocks round-robin across nodes, preserving each
    node's own dispatch order.

    Successive waves start at successive nodes, so no single node always
    wins first-touch races on pages that every node reads (shared matrices
    would otherwise all fault to node 0, which real concurrent dispatch does
    not produce).

    A threadblock that is the ``w``-th of its node is dispatched in wave
    ``w`` at rotated position ``(node - w) mod num_nodes``, so the order is
    one stable sort on that key pair.  Unlike the former wave-scan loop this
    never visits drained nodes: a kernel-wide plan putting nearly every TB
    on one node costs O(TBs log TBs), not O(waves x nodes).
    """
    tb_nodes = np.asarray(tb_nodes, dtype=np.int64)
    ntb = tb_nodes.size
    if ntb == 0:
        return np.empty(0, dtype=np.int64)
    by_node = np.argsort(tb_nodes, kind="stable")
    counts = np.bincount(tb_nodes, minlength=num_nodes)
    starts = np.zeros(num_nodes, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    wave = np.empty(ntb, dtype=np.int64)
    wave[by_node] = np.arange(ntb, dtype=np.int64) - starts[tb_nodes[by_node]]
    rotated_pos = (tb_nodes - wave) % num_nodes
    return np.lexsort((rotated_pos, wave)).astype(np.int64)


class Simulator:
    """Executes programs on one simulated system configuration.

    ``engine`` selects the memory-walk implementation: ``"vector"`` (the
    batched numpy engine, default), ``"legacy"`` (the per-sector reference
    walk) or ``"compiled"`` (the vector engine with the numba-compiled
    sequential probe core; silently identical to ``"vector"`` when numba is
    not installed).  All engines are bit-exact on every reported metric;
    the reference stays selectable for parity tests and debugging.  The
    default may be overridden with the ``REPRO_ENGINE`` environment
    variable.

    ``trace_cache`` shares traced sector streams across runs (the vector
    engine only); by default the process-wide cache is used so sweeping many
    strategies over one program traces each launch once.  ``walk_memo``
    likewise shares memoised launch-walk results (see
    :mod:`repro.engine.walk_memo`); pass ``None`` for the process-wide memo,
    which ``REPRO_WALK_MEMO=0`` disables.

    ``obs_session`` pins the observability session spans/counters report to
    (see :mod:`repro.obs`); ``None`` uses the process-wide session, which is
    a no-op unless observability is enabled.
    """

    def __init__(
        self,
        config: SystemConfig,
        engine: Optional[str] = None,
        trace_cache: Optional[TraceCache] = None,
        walk_memo: Optional[WalkMemo] = None,
        obs_session=None,
    ):
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE", "vector")
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.config = config
        self.topology = SystemTopology(config)
        self.engine = engine
        self.trace_cache = trace_cache
        self.walk_memo = walk_memo
        self.obs_session = obs_session
        self._obs_strategy = ""  # strategy label for counters, set per run()

    # ------------------------------------------------------------------
    def run(
        self,
        compiled: CompiledProgram,
        plan: ExecutionPlan,
        profile_pages: bool = False,
    ) -> RunResult:
        cfg = self.config
        num_nodes = cfg.num_nodes
        session = self.obs_session if self.obs_session is not None else obs.current()
        self._obs_strategy = plan.strategy_name
        tr = session.tracer
        if self.engine in ("vector", "compiled"):
            # One fused cache: node n's slice is sets [n*num_sets, (n+1)*num_sets).
            l2s = [
                ArrayLRU(
                    num_nodes * cfg.l2.num_sets,
                    cfg.l2.assoc,
                    backend="compiled" if self.engine == "compiled" else "numpy",
                )
            ]
            if self.engine == "compiled" and session.counters.enabled:
                session.counters.inc("walk.compiled", status=compiled_status())
        else:
            l2s = [
                SectoredCache(cfg.l2.num_sets, cfg.l2.assoc)
                for _ in range(num_nodes)
            ]

        if len(plan.launches) != len(compiled.program.launches):
            raise SimulationError("plan does not cover every launch of the program")

        page_counts = (
            np.zeros((num_nodes, plan.space.num_pages), dtype=np.int64)
            if profile_pages
            else None
        )
        kernels: List[KernelMetrics] = []
        with tr.span(
            "run",
            cat="pipeline",
            program=compiled.program.name,
            strategy=plan.strategy_name,
            engine=self.engine,
        ):
            for launch_index, lp in enumerate(plan.launches):
                if cfg.flush_l2_between_kernels:
                    for cache in l2s:
                        cache.flush()
                with tr.span(
                    "launch",
                    cat="pipeline",
                    kernel=lp.launch.kernel.name,
                    launch=launch_index,
                ):
                    if self.engine in ("vector", "compiled"):
                        metrics = self._run_launch_vector(
                            launch_index, lp, plan, compiled, l2s[0], page_counts,
                            session,
                        )
                    else:
                        metrics = self._run_launch(
                            launch_index, lp, plan, l2s, page_counts
                        )
                    apply_perf_model(metrics, self.topology, plan.fault_cost_s)
                kernels.append(metrics)
            if session.counters.enabled:
                self._emit_occupancy(session, l2s, num_nodes)

        if plan.setup_time_s and kernels:
            kernels[0].time_s += plan.setup_time_s
            kernels[0].time_breakdown["setup"] = plan.setup_time_s

        return RunResult(
            program=compiled.program.name,
            strategy=plan.strategy_name,
            system=cfg.name,
            kernels=kernels,
            notes=dict(plan.notes),
            page_access_counts=page_counts,
            manifest=build_manifest(
                config=cfg,
                strategy=plan.strategy_name,
                engine=self.engine,
                program=compiled.program.name,
            ),
        )

    # ------------------------------------------------------------------
    def _emit_occupancy(self, session, l2s, num_nodes: int) -> None:
        """Gauge the end-of-run L2 occupancy per node into the registry."""
        strategy = self._obs_strategy
        if self.engine in ("vector", "compiled"):
            per_node = l2s[0].occupancy_per_node(num_nodes)
        else:
            per_node = [c.occupancy for c in l2s]
        for node, occ in enumerate(per_node):
            session.counters.set(
                "l2.occupancy", int(occ), node=node, strategy=strategy
            )

    # ------------------------------------------------------------------
    def _run_launch_vector(
        self,
        launch_index: int,
        lp: LaunchPlan,
        plan: ExecutionPlan,
        compiled: CompiledProgram,
        l2: ArrayLRU,
        page_counts=None,
        session=None,
    ) -> KernelMetrics:
        """Vectorised launch execution: cached trace + batched array walk.

        Eligible launches (see :func:`repro.engine.walk_memo.eligible`)
        first consult the walk memo; a hit skips the walk entirely and
        replays the stored accumulators through the normal finalize path.
        """
        cfg = self.config
        if session is None:
            session = obs.current()
        tr = session.tracer
        reg = session.counters
        cache = self.trace_cache if self.trace_cache is not None else default_trace_cache()
        launch_key = (compiled.program, launch_index)
        cache_hits_before = cache.hits
        with tr.span("trace.fetch", cat="trace"):
            trace = cache.get(lp.launch, launch_key, plan.space, cfg.l2.sector_bytes)
        reg.inc(
            "trace_cache",
            outcome="hit" if cache.hits > cache_hits_before else "miss",
        )
        order = _wave_order(lp.tb_nodes, cfg.num_nodes)

        memo = self.walk_memo
        if memo is None and memo_enabled():
            memo = default_walk_memo()
        key = None
        homes = None
        memo_status = "ineligible"
        if memo is not None and eligible(
            cfg,
            plan,
            page_counts,
            launch_index=launch_index,
            num_launches=len(plan.launches),
            counters_enabled=reg.enabled,
        ):
            with tr.span("memo.probe", cat="memo"):
                homes = plan.page_table.homes_of_pages(trace.pages, toucher=0)
                key = memo.make_key(trace, lp, cfg, homes)
                cached = memo.get(key)
            if cached is not None:
                metrics, xbar, dram, transfers, stats = cached
                memo_status = "hit"
            else:
                memo_status = "miss"
        if memo_status != "hit":
            with tr.span(
                "walk", cat="walk", kernel=lp.launch.kernel.name, launch=launch_index
            ):
                metrics, xbar, dram, transfers, stats = walk_launch(
                    cfg, launch_index, lp, plan, l2, trace, order, page_counts,
                    homes=homes, session=session,
                )
            if key is not None:
                memo.put(key, metrics, xbar, dram, transfers, stats)
        reg.inc("walk.memo", outcome=memo_status)
        with tr.span("finalize", cat="walk"):
            self._finalize(metrics, xbar, dram, transfers, stats, session=session)
        return metrics

    # ------------------------------------------------------------------
    def _run_launch(
        self,
        launch_index: int,
        lp: LaunchPlan,
        plan: ExecutionPlan,
        l2s: List[SectoredCache],
        page_counts=None,
    ) -> KernelMetrics:
        cfg = self.config
        num_nodes = cfg.num_nodes
        sector_bytes = cfg.l2.sector_bytes
        launch = lp.launch
        kernel = launch.kernel
        page_table = plan.page_table
        metrics = KernelMetrics(
            kernel=kernel.name, launch_index=launch_index, num_nodes=num_nodes
        )
        faults_before = page_table.fault_count

        tracer = launch_tracer(launch, plan.space, sector_bytes)
        warps_per_tb = -(-kernel.block.count // cfg.warp_size)
        insts_per_tb = warps_per_tb * kernel.insts_per_thread * tracer.trip

        # Raw accumulators (converted to reporting structures at the end).
        xbar_requests = np.zeros(num_nodes, dtype=np.int64)
        dram_requests = np.zeros(num_nodes, dtype=np.int64)
        transfers = np.zeros((num_nodes, num_nodes), dtype=np.int64)  # [home, req]
        stats_acc = np.zeros((num_nodes, 3, 2), dtype=np.int64)  # [node, class, hit]

        l2_sets = [c._sets for c in l2s]
        num_sets = cfg.l2.num_sets
        assoc = cfg.l2.assoc
        l1_capacity = cfg.l1_filter_sectors
        remote_caching = cfg.remote_caching
        touched_allocs = {launch.args[a.array] for a in kernel.accesses}
        policy_insert_at_home = {
            alloc: lp.policy_for(alloc).insert_at_home for alloc in touched_allocs
        }

        order = _wave_order(lp.tb_nodes, num_nodes)
        tb_nodes = lp.tb_nodes

        # Execution is iteration-major: every threadblock advances through
        # outer-loop iteration m before anyone starts m+1.  This models the
        # concurrency that drives the paper's cache results -- streams from
        # all nodes interleave in the shared L2 slices (REMOTE-LOCAL
        # pollution really does race with local reuse) -- and it makes
        # first-touch fault placement honest without a separate pass.  The
        # wave start rotates per iteration so no node always wins fault
        # races on globally-shared pages.
        order_list = order.tolist()
        node_of = [int(n) for n in tb_nodes.tolist()]
        for tb in order_list:
            metrics.warp_insts_per_node[node_of[tb]] += insts_per_tb
        l1_filters = {tb: OrderedDict() for tb in order_list}

        for m in range(tracer.trip):
            shift = (m * 7) % max(1, len(order_list))
            for tb in order_list[shift:] + order_list[:shift]:
                node = node_of[tb]
                l1 = l1_filters[tb]
                local_sets = l2_sets[node]
                node_stats = stats_acc[node]
                for sr in tracer.iteration_requests(tb, m):
                    homes = page_table.homes_of_pages(sr.pages, toucher=node)
                    if page_counts is not None:
                        np.add.at(page_counts[node], sr.pages, 1)
                    insert_at_home = policy_insert_at_home[sr.array]
                    n_req = 0
                    for sector, home in zip(sr.sectors.tolist(), homes.tolist()):
                        # --- per-TB L1 sector filter -------------------
                        if sector in l1:
                            l1.move_to_end(sector)
                            continue
                        l1[sector] = None
                        if len(l1) > l1_capacity:
                            l1.popitem(last=False)
                        # --- requester-side L2 -------------------------
                        n_req += 1
                        local_home = home == node
                        s = local_sets[sector % num_sets]
                        if sector in s:
                            s.move_to_end(sector)
                            node_stats[_LL if local_home else _LR, 1] += 1
                            continue
                        if local_home or remote_caching:
                            s[sector] = None
                            if len(s) > assoc:
                                s.popitem(last=False)
                        node_stats[_LL if local_home else _LR, 0] += 1
                        if local_home:
                            dram_requests[node] += 1
                            continue
                        # --- remote path -------------------------------
                        transfers[home, node] += 1
                        hs = l2_sets[home][sector % num_sets]
                        if sector in hs:
                            hs.move_to_end(sector)
                            stats_acc[home, _RL, 1] += 1
                        else:
                            stats_acc[home, _RL, 0] += 1
                            if insert_at_home:
                                hs[sector] = None
                                if len(hs) > assoc:
                                    hs.popitem(last=False)
                            dram_requests[home] += 1
                    xbar_requests[node] += n_req

        metrics.faults = page_table.fault_count - faults_before
        self._finalize(metrics, xbar_requests, dram_requests, transfers, stats_acc)
        return metrics

    # ------------------------------------------------------------------
    def _finalize(
        self,
        metrics: KernelMetrics,
        xbar_requests: np.ndarray,
        dram_requests: np.ndarray,
        transfers: np.ndarray,
        stats_acc: np.ndarray,
        session=None,
    ) -> None:
        """Convert raw accumulators into the reporting structures."""
        topo = self.topology
        num_nodes = self.config.num_nodes
        sector_bytes = self.config.l2.sector_bytes
        if session is None:
            session = obs.current()
        reg = session.counters
        strategy = self._obs_strategy

        metrics.l2_requests = int(xbar_requests.sum())
        metrics.l2_request_bytes = metrics.l2_requests * sector_bytes
        metrics.dram_bytes_per_node = dram_requests * sector_bytes
        # Requester-side misses: LOCAL-LOCAL + LOCAL-REMOTE misses.
        metrics.l2_misses = int(stats_acc[:, (_LL, _LR), 0].sum())

        for node in range(num_nodes):
            metrics.add_channel_bytes(
                (Channel.XBAR, node), int(xbar_requests[node]) * sector_bytes
            )
            stats = metrics.l2_stats[node]
            for code, cls in _CLASS_OF_CODE.items():
                misses = int(stats_acc[node, code, 0])
                hits = int(stats_acc[node, code, 1])
                stats.accesses[cls] += misses + hits
                stats.hits[cls] += hits

        off_node = 0
        inter_gpu = 0
        for home in range(num_nodes):
            for node in range(num_nodes):
                count = int(transfers[home, node])
                if count == 0 or home == node:
                    continue
                nbytes = count * sector_bytes
                off_node += nbytes
                if topo.link_class(home, node) is LinkClass.INTER_GPU:
                    inter_gpu += nbytes
                for charge in topo.route_channels(home, node):
                    metrics.add_channel_bytes(charge, nbytes)
        metrics.off_node_bytes = off_node
        metrics.inter_gpu_bytes = inter_gpu

        if reg.enabled:
            # Mirror the loops above into structured counters.  The link
            # classification below uses the *same* predicate as the
            # ``inter_gpu`` accumulation, so summing the ``link=inter_gpu``
            # keys of one strategy reconciles exactly with
            # ``RunResult.total_inter_gpu_bytes``.
            for node in range(num_nodes):
                reg.inc(
                    "dram.bytes",
                    int(dram_requests[node]) * sector_bytes,
                    node=node,
                    strategy=strategy,
                )
                for code, cls in _CLASS_OF_CODE.items():
                    misses = int(stats_acc[node, code, 0])
                    hits = int(stats_acc[node, code, 1])
                    if misses + hits:
                        reg.inc(
                            "l2.accesses", misses + hits,
                            node=node, cls=cls.value, strategy=strategy,
                        )
                    if hits:
                        reg.inc(
                            "l2.hits", hits,
                            node=node, cls=cls.value, strategy=strategy,
                        )
            for home in range(num_nodes):
                for node in range(num_nodes):
                    count = int(transfers[home, node])
                    if count == 0 or home == node:
                        continue
                    nbytes = count * sector_bytes
                    link = (
                        "inter_gpu"
                        if topo.link_class(home, node) is LinkClass.INTER_GPU
                        else "intra_gpu"
                    )
                    reg.inc(
                        "walk.link.bytes", nbytes,
                        src=home, dst=node, link=link, strategy=strategy,
                    )
            for (channel, key), nbytes in metrics.channel_bytes.items():
                if nbytes:
                    reg.inc(
                        "channel.bytes", int(nbytes),
                        channel=channel.value, key=key, strategy=strategy,
                    )


def simulate(
    program: Program,
    strategy,
    config: SystemConfig,
    compiled: Optional[CompiledProgram] = None,
    engine: Optional[str] = None,
    trace_cache: Optional[TraceCache] = None,
    walk_memo: Optional[WalkMemo] = None,
    obs_session=None,
) -> RunResult:
    """Compile, plan and run a program in one call.

    ``strategy`` is any object with ``plan(compiled, topology) ->
    ExecutionPlan`` (see :mod:`repro.strategies`).  ``engine``,
    ``trace_cache``, ``walk_memo`` and ``obs_session`` are forwarded to
    :class:`Simulator`.
    """
    if compiled is None:
        compiled = compile_program(program)
    sim = Simulator(
        config,
        engine=engine,
        trace_cache=trace_cache,
        walk_memo=walk_memo,
        obs_session=obs_session,
    )
    plan = strategy.plan(compiled, sim.topology)
    return sim.run(compiled, plan)
