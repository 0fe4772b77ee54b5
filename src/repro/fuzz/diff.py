"""The differential conformance runner: one spec, every engine path.

For each generated program the runner:

1. compiles it and cross-checks every access site's ``classify_access``
   result against the enumeration oracle (ERROR-severity ORACLE-*
   diagnostics are failures; INFO/WARNING notes are not -- the grammar
   deliberately generates broadcast sites, which the oracle annotates);
2. picks a rotating subset of scheduler families (always including a LASP
   member so RTWICE vs RONCE insertion is exercised) and, per strategy,
   executes the program under

   * the legacy scalar walk,
   * the vector walk (with the obs byte-reconciliation session attached),
   * the compiled walk (vector engine over the numba probe core; when
     numba is absent this exercises the numpy fallback, so the matrix is
     still closed -- CI's ``compiled-smoke`` job covers the JIT),
   * the memoised vector walk **twice** against one shared
     :class:`~repro.engine.walk_memo.WalkMemo` (second run replays hits
     when the launch is memo-eligible),

   asserting :meth:`RunResult.snapshot` equality across all five runs;
3. reconciles the vector run's per-link ``walk.link.bytes`` counters
   byte-for-byte against ``total_off_node_bytes`` / ``total_inter_gpu_bytes``
   and ``dram.bytes`` against the per-node DRAM totals;
4. checks the engine conservation invariants (requester accesses ==
   L2 requests, remote-local accesses == local-remote misses, off-node
   bytes == LR misses x sector) on every kernel;
5. checks the static bound invariant: per launch, the vector run's
   measured ``inter_gpu_bytes`` must lie inside the symbolic analyzer's
   ``[lower, upper]`` (``analysis/traffic.py``) computed on a pristine
   plan of the same strategy -- the simulator continuously validates the
   abstract interpretation and vice versa.

On an engine-parity failure the offending launch is re-run in isolation
(:meth:`Program.slice`) and the failure records whether it still
reproduces on the single launch -- the shrinker's first hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Severity
from repro.analysis.oracle import cross_check_launch
from repro.analysis.traffic import plan_for_analysis, program_traffic_bounds
from repro.cache.stats import TrafficClass
from repro.compiler.passes import CompiledProgram, compile_program
from repro.engine.simulator import Simulator
from repro.engine.trace_cache import TraceCache
from repro.engine.walk_memo import WalkMemo
from repro.experiments.runner import strategy_by_name
from repro.fuzz.genprog import ProgramSpec, build_program
from repro.kir.program import Program
from repro.obs import ObsSession
from repro.topology.config import CacheConfig, SystemConfig, TopologyKind
from repro.topology.system import SystemTopology

__all__ = [
    "ALL_STRATEGIES",
    "DiffFailure",
    "DiffReport",
    "fuzz_hierarchical",
    "fuzz_monolithic",
    "run_spec",
    "strategies_for",
]

#: Every scheduler family in the registry; Monolithic runs on the one-node twin.
ALL_STRATEGIES = (
    "Baseline-RR",
    "Batch+FT",
    "Batch+FT-optimal",
    "Kernel-wide",
    "CODA",
    "H-CODA",
    "LASP+RTWICE",
    "LASP+RONCE",
    "LADM",
    "Monolithic",
    "SWZ-Bit",
    "SWZ-Morton",
    "SWZ-Hilbert",
)

_LASP_FAMILY = ("LASP+RTWICE", "LASP+RONCE", "LADM")


def fuzz_hierarchical() -> SystemConfig:
    """The tiny 2 GPU x 2 chiplet system differential runs execute on.

    Small caches + 512 B pages keep eviction, insertion-policy and
    page-home decisions live even for the tiny generated footprints.
    """
    return SystemConfig(
        name="fuzz-2x2",
        kind=TopologyKind.HIERARCHICAL,
        num_gpus=2,
        chiplets_per_gpu=2,
        sms_per_node=2,
        l2=CacheConfig(size=8 * 1024, assoc=4),
        page_size=512,
        l1_filter_sectors=64,
    )


def fuzz_monolithic() -> SystemConfig:
    """The equal-resource one-node twin (for the Monolithic strategy)."""
    hier = fuzz_hierarchical()
    return SystemConfig(
        name="fuzz-mono",
        kind=TopologyKind.MONOLITHIC,
        num_gpus=1,
        chiplets_per_gpu=1,
        sms_per_node=hier.total_sms,
        l2=CacheConfig(size=hier.num_nodes * hier.l2.size, assoc=4),
        page_size=hier.page_size,
        l1_filter_sectors=hier.l1_filter_sectors,
        flush_l2_between_kernels=False,
    )


def strategies_for(index: int, count: int = 3) -> List[str]:
    """The strategy rotation for program ``index``.

    A stride-3 walk over the registry covers every family across a
    campaign; a LASP member is forced in so the RTWICE/RONCE insertion
    split is exercised on every single program.
    """
    picks: List[str] = []
    for i in range(count):
        name = ALL_STRATEGIES[(index + i * 3) % len(ALL_STRATEGIES)]
        if name not in picks:
            picks.append(name)
    if not any(p in _LASP_FAMILY for p in picks):
        picks[-1] = _LASP_FAMILY[index % len(_LASP_FAMILY)]
    return picks


# ----------------------------------------------------------------------
# Failure reporting
# ----------------------------------------------------------------------
@dataclass
class DiffFailure:
    """One divergence found by the differential runner."""

    kind: str  # engine-parity | memo-parity | obs-reconcile | conservation | bound | oracle | crash
    strategy: str = ""
    launch_index: int = -1
    message: str = ""
    #: for engine-parity: does the divergence survive slicing the program
    #: down to the offending launch alone?
    isolated: Optional[bool] = None

    def render(self) -> str:
        where = f" [{self.strategy}]" if self.strategy else ""
        launch = f" launch={self.launch_index}" if self.launch_index >= 0 else ""
        iso = "" if self.isolated is None else f" isolated={self.isolated}"
        return f"{self.kind}{where}{launch}{iso}: {self.message}"


@dataclass
class DiffReport:
    """Everything one spec's differential run produced."""

    spec: ProgramSpec
    failures: List[DiffFailure] = field(default_factory=list)
    #: locality-class counts over the compiled program's table rows
    locality: Dict[str, int] = field(default_factory=dict)
    runs: int = 0
    strategies: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"spec {self.spec.name}: {len(self.failures)} failure(s)"]
        lines += [f"  {f.render()}" for f in self.failures]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Snapshot comparison helpers
# ----------------------------------------------------------------------
def _first_divergence(a: List[dict], b: List[dict]) -> Tuple[int, str]:
    """(launch index, field summary) of the first snapshot mismatch."""
    for i, (ka, kb) in enumerate(zip(a, b)):
        if ka != kb:
            fields = sorted(k for k in ka if ka[k] != kb.get(k))
            return i, f"fields {fields}"
    return min(len(a), len(b)), f"kernel count {len(a)} vs {len(b)}"


def _conservation_violation(result, sector_bytes: int) -> Optional[str]:
    for k in result.kernels:
        agg = k.aggregate_l2()
        requester = (
            agg.accesses[TrafficClass.LOCAL_LOCAL]
            + agg.accesses[TrafficClass.LOCAL_REMOTE]
        )
        if requester != k.l2_requests:
            return (
                f"kernel {k.kernel}[{k.launch_index}]: requester accesses "
                f"{requester} != l2_requests {k.l2_requests}"
            )
        lr_misses = (
            agg.accesses[TrafficClass.LOCAL_REMOTE]
            - agg.hits[TrafficClass.LOCAL_REMOTE]
        )
        if agg.accesses[TrafficClass.REMOTE_LOCAL] != lr_misses:
            return (
                f"kernel {k.kernel}[{k.launch_index}]: RL accesses "
                f"{agg.accesses[TrafficClass.REMOTE_LOCAL]} != LR misses {lr_misses}"
            )
        if k.off_node_bytes != lr_misses * sector_bytes:
            return (
                f"kernel {k.kernel}[{k.launch_index}]: off_node_bytes "
                f"{k.off_node_bytes} != LR misses x sector {lr_misses * sector_bytes}"
            )
        if int(k.dram_bytes_per_node.sum()) > k.l2_request_bytes:
            return (
                f"kernel {k.kernel}[{k.launch_index}]: DRAM bytes exceed "
                "L2 request bytes"
            )
    return None


def _reconcile_obs(session: ObsSession, strategy: str, result) -> Optional[str]:
    """Byte-reconcile the vector run's counters against its RunResult."""
    reg = session.counters
    link_total = 0
    inter_gpu = 0
    for key, value in reg.select("walk.link.bytes").items():
        labels = dict(
            pair.split("=", 1) for pair in key[len("walk.link.bytes{"):-1].split(",")
        )
        if labels.get("strategy") != strategy:
            continue
        link_total += value
        if labels.get("link") == "inter_gpu":
            inter_gpu += value
    if link_total != result.total_off_node_bytes:
        return (
            f"sum(walk.link.bytes)={link_total} != "
            f"total_off_node_bytes={result.total_off_node_bytes}"
        )
    if inter_gpu != result.total_inter_gpu_bytes:
        return (
            f"sum(walk.link.bytes link=inter_gpu)={inter_gpu} != "
            f"total_inter_gpu_bytes={result.total_inter_gpu_bytes}"
        )
    dram_counter = sum(reg.select("dram.bytes").values())
    dram_metrics = sum(int(k.dram_bytes_per_node.sum()) for k in result.kernels)
    if dram_counter != dram_metrics:
        return f"sum(dram.bytes)={dram_counter} != metrics DRAM total={dram_metrics}"
    return None


# ----------------------------------------------------------------------
# The engine matrix for one (program, strategy)
# ----------------------------------------------------------------------
def _run(
    program: Program,
    compiled: CompiledProgram,
    strategy_name: str,
    config: SystemConfig,
    engine: str,
    trace_cache: TraceCache,
    walk_memo: WalkMemo,
    obs_session: Optional[ObsSession] = None,
):
    """One full engine run with a fresh plan."""
    strategy = strategy_by_name(strategy_name)
    sim = Simulator(
        config,
        engine=engine,
        trace_cache=trace_cache,
        walk_memo=walk_memo,
        obs_session=obs_session,
    )
    plan = strategy.plan(compiled, sim.topology)
    return sim.run(compiled, plan)


def _check_strategy(
    program: Program,
    compiled: CompiledProgram,
    strategy_name: str,
    trace_cache: TraceCache,
    failures: List[DiffFailure],
) -> int:
    """Run the 5-way engine matrix for one strategy; returns runs executed."""
    config = fuzz_monolithic() if strategy_name == "Monolithic" else fuzz_hierarchical()
    sector = config.l2.sector_bytes
    no_memo = WalkMemo(max_entries=0)  # vector path without memoisation

    legacy = _run(
        program, compiled, strategy_name, config, "legacy", trace_cache, no_memo
    )
    session = ObsSession(enabled=True)
    vector = _run(
        program, compiled, strategy_name, config, "vector", trace_cache, no_memo,
        obs_session=session,
    )
    snap_legacy, snap_vector = legacy.snapshot(), vector.snapshot()
    if snap_legacy != snap_vector:
        launch, detail = _first_divergence(snap_legacy, snap_vector)
        isolated = None
        if len(program.launches) > 1:
            sliced = program.slice([launch])
            c2 = compile_program(sliced)
            tc = TraceCache()
            l2 = _run(sliced, c2, strategy_name, config, "legacy", tc, WalkMemo(0))
            v2 = _run(sliced, c2, strategy_name, config, "vector", tc, WalkMemo(0))
            isolated = l2.snapshot() != v2.snapshot()
        failures.append(
            DiffFailure(
                kind="engine-parity",
                strategy=strategy_name,
                launch_index=launch,
                message=f"legacy vs vector diverge: {detail}",
                isolated=isolated,
            )
        )
        return 2  # memo runs against a broken vector walk add no signal

    compiled_run = _run(
        program, compiled, strategy_name, config, "compiled", trace_cache, no_memo
    )
    snap_compiled = compiled_run.snapshot()
    if snap_compiled != snap_vector:
        launch, detail = _first_divergence(snap_vector, snap_compiled)
        failures.append(
            DiffFailure(
                kind="engine-parity",
                strategy=strategy_name,
                launch_index=launch,
                message=f"vector vs compiled diverge: {detail}",
            )
        )

    # Memoised path: two runs against one shared memo.  The first populates
    # (or proves ineligibility), the second must replay hits bit-exactly.
    memo = WalkMemo()
    memo_a = _run(
        program, compiled, strategy_name, config, "vector", trace_cache, memo
    )
    hits_a = memo.hits
    memo_b = _run(
        program, compiled, strategy_name, config, "vector", trace_cache, memo
    )
    for label, run in (("first", memo_a), ("second", memo_b)):
        snap = run.snapshot()
        if snap != snap_vector:
            launch, detail = _first_divergence(snap_vector, snap)
            failures.append(
                DiffFailure(
                    kind="memo-parity",
                    strategy=strategy_name,
                    launch_index=launch,
                    message=f"memoised walk ({label} run) diverges: {detail}",
                )
            )
    if memo.misses and memo.hits == hits_a and not failures:
        # Eligible launches were memoised on run A but run B never hit:
        # the memo key is unstable, which silently disables the fast path.
        failures.append(
            DiffFailure(
                kind="memo-parity",
                strategy=strategy_name,
                message="memo populated on first run but second run never hit",
            )
        )

    mismatch = _reconcile_obs(session, strategy_name, vector)
    if mismatch:
        failures.append(
            DiffFailure(kind="obs-reconcile", strategy=strategy_name, message=mismatch)
        )
    violation = _conservation_violation(vector, sector)
    if violation:
        failures.append(
            DiffFailure(kind="conservation", strategy=strategy_name, message=violation)
        )

    # Static bound invariant: the vector run's measured inter-GPU bytes
    # must lie inside the symbolic analyzer's [lower, upper] per launch.
    # Bounds come from a pristine plan (never executed) of the same
    # strategy; strategies plan deterministically, so its placement and
    # schedule match what the engine ran.
    analysis_plan = plan_for_analysis(compiled, SystemTopology(config), strategy_name)
    bounds = program_traffic_bounds(program, analysis_plan, config)
    for launch_bounds, kernel in zip(bounds.launches, vector.kernels):
        measured = int(kernel.inter_gpu_bytes)
        if not (launch_bounds.lower_bytes <= measured <= launch_bounds.upper_bytes):
            failures.append(
                DiffFailure(
                    kind="bound",
                    strategy=strategy_name,
                    launch_index=launch_bounds.launch_index,
                    message=(
                        f"measured inter-GPU bytes {measured} outside static "
                        f"bounds [{launch_bounds.lower_bytes}, "
                        f"{launch_bounds.upper_bytes}] "
                        f"(cold={launch_bounds.cold}, "
                        f"top_sites={launch_bounds.top_sites}/"
                        f"{launch_bounds.total_sites})"
                    ),
                )
            )
    return 5


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_spec(
    spec: ProgramSpec, strategy_names: Optional[Sequence[str]] = None
) -> DiffReport:
    """Differentially execute one spec; returns the full report."""
    report = DiffReport(spec=spec)
    try:
        program = build_program(spec)
        compiled = compile_program(program)
    except Exception as exc:  # build/compile crashes are findings, not aborts
        report.failures.append(
            DiffFailure(kind="crash", message=f"{type(exc).__name__}: {exc}")
        )
        return report

    for row in compiled.locality_table:
        cls = row.classification.locality.value
        report.locality[cls] = report.locality.get(cls, 0) + 1

    for launch_index, launch in enumerate(program.launches):
        for diag in cross_check_launch(launch, file=spec.name):
            if diag.severity is Severity.ERROR:
                report.failures.append(
                    DiffFailure(
                        kind="oracle",
                        launch_index=launch_index,
                        message=diag.render(),
                    )
                )

    names = list(strategy_names) if strategy_names else list(ALL_STRATEGIES[:3])
    report.strategies = names
    trace_cache = TraceCache()  # local: traces shared across this spec's runs
    for name in names:
        try:
            report.runs += _check_strategy(
                program, compiled, name, trace_cache, report.failures
            )
        except Exception as exc:
            report.failures.append(
                DiffFailure(
                    kind="crash",
                    strategy=name,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )
    return report
