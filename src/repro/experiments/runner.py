"""Shared experiment plumbing: strategy registry and run matrices."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.compiler.passes import compile_program
from repro.engine.metrics import RunResult
from repro.engine.simulator import Simulator
from repro.strategies import (
    BatchFTStrategy,
    CODAStrategy,
    KernelWideStrategy,
    LADMStrategy,
    MonolithicStrategy,
    RRStrategy,
    SwizzleStrategy,
)
from repro.topology.config import SystemConfig
from repro.workloads.base import BENCH, TEST, Scale, Workload

__all__ = ["strategy_by_name", "run_matrix", "MatrixResult", "scale_by_name", "geomean"]


def strategy_by_name(name: str):
    """Construct a strategy from its reporting name."""
    factory = {
        "Baseline-RR": lambda: RRStrategy(),
        "Batch+FT": lambda: BatchFTStrategy(optimal=False),
        "Batch+FT-optimal": lambda: BatchFTStrategy(optimal=True),
        "Kernel-wide": lambda: KernelWideStrategy(),
        "CODA": lambda: CODAStrategy(hierarchical=False),
        "H-CODA": lambda: CODAStrategy(hierarchical=True),
        "LASP+RTWICE": lambda: LADMStrategy("rtwice"),
        "LASP+RONCE": lambda: LADMStrategy("ronce"),
        "LADM": lambda: LADMStrategy("crb"),
        "SWZ-Bit": lambda: SwizzleStrategy("bit"),
        "SWZ-Morton": lambda: SwizzleStrategy("morton"),
        "SWZ-Hilbert": lambda: SwizzleStrategy("hilbert"),
        "SWZ-Hilbert/nosnap": lambda: SwizzleStrategy("hilbert", snap=False),
        "Monolithic": lambda: MonolithicStrategy(),
    }
    try:
        return factory[name]()
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; choose from {sorted(factory)}") from None


def scale_by_name(name: str) -> Scale:
    if name == "bench":
        return BENCH
    if name == "test":
        return TEST
    raise ValueError(f"unknown scale {name!r} (use 'bench' or 'test')")


@dataclass
class MatrixResult:
    """Results of a (workload x strategy) sweep on fixed systems."""

    scale: str
    #: results[workload][strategy] -> RunResult
    results: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)

    def get(self, workload: str, strategy: str) -> RunResult:
        return self.results[workload][strategy]

    def workloads(self) -> List[str]:
        return list(self.results)

    def speedups_over(
        self, baseline: str, strategy: str
    ) -> Dict[str, float]:
        """Per-workload speedup of ``strategy`` normalised to ``baseline``."""
        out = {}
        for wname, by_strat in self.results.items():
            out[wname] = by_strat[strategy].speedup_over(by_strat[baseline])
        return out


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic).

    An empty input yields 0.0 (nothing to summarise).  Non-positive values
    are an error: silently dropping them skews the mean of whatever ratio is
    being summarised, so callers must filter (and justify) them explicitly.
    """
    vals = list(values)
    if not vals:
        return 0.0
    bad = [v for v in vals if v <= 0]
    if bad:
        raise ValueError(
            f"geomean is undefined for non-positive values: {bad[:5]!r}"
        )
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _workload_seed(seed: int, workload_name: str) -> int:
    """Stable per-workload child seed, independent of execution order.

    Keyed by name (not position) so serial and parallel runs -- and any
    subset of the workload list -- derive identical streams for the same
    workload.
    """
    digest = hashlib.blake2b(
        f"{seed}:{workload_name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _obs_paths(obs_dir: str, workload_name: str) -> Tuple[str, str]:
    return (
        os.path.join(obs_dir, f"{workload_name}.trace.json"),
        os.path.join(obs_dir, f"{workload_name}.counters.json"),
    )


def _run_workload(
    workload: Workload,
    strategies: Sequence[Tuple[str, SystemConfig]],
    scale: Scale,
    engine: Optional[str],
    verbose: bool,
    obs_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> Dict[str, RunResult]:
    """All strategies of one workload; the unit of parallel distribution.

    The program is built and compiled once and shared across strategies (the
    static analysis is strategy-independent); with the vectorised engine the
    process-wide trace cache makes every strategy after the first replay the
    same trace, and the process-wide walk memo skips repeated identical
    walks.  Returns the per-strategy results.

    ``obs_dir`` enables a fresh observability session around the workload
    and writes ``<obs_dir>/<workload>.trace.json`` /
    ``<workload>.counters.json`` when it completes (one file pair per
    workload, i.e. per worker job in a parallel run).
    """
    session = None
    if obs_dir is not None:
        from repro.obs.export import write_counters, write_trace
        from repro.obs.manifest import build_manifest

        os.makedirs(obs_dir, exist_ok=True)
        session = obs.enable()
    try:
        if seed is not None:
            # Workload builders may draw from the global RNGs; reseed both
            # with a name-keyed child seed so parallel == serial per workload.
            child = _workload_seed(seed, workload.name)
            random.seed(child)
            np.random.seed(child % 2**32)
        program = workload.program(scale)
        compiled = compile_program(program)
        per_strategy: Dict[str, RunResult] = {}
        for strat_name, config in strategies:
            strategy = strategy_by_name(strat_name)
            sim = Simulator(config, engine=engine)
            plan = strategy.plan(compiled, sim.topology)
            result = sim.run(compiled, plan)
            per_strategy[strat_name] = result
            if verbose:
                print(f"  {workload.name:<14} {result.summary()}", flush=True)
        if session is not None:
            manifest = build_manifest(
                program=workload.name,
                engine=engine or "vector",
                extra={"strategies": [name for name, _ in strategies]},
            )
            trace_path, counters_path = _obs_paths(obs_dir, workload.name)
            write_trace(trace_path, session, manifest)
            write_counters(counters_path, session, manifest)
        return per_strategy
    finally:
        if session is not None:
            obs.disable()


# Sweep-wide context installed once per worker by the pool initializer:
# (strategies, scale, engine, obs_dir, seed).  Shipping it via initargs
# instead of inside every task keeps the per-task payload down to one
# workload reference.
_POOL_CONTEXT: Optional[tuple] = None


def _pool_init(context: tuple) -> None:
    global _POOL_CONTEXT
    _POOL_CONTEXT = context


def _workload_ref(workload: Workload):
    """The cheapest picklable reference to ``workload``.

    Registry workloads travel as their name and are re-hydrated from the
    worker's own :func:`~repro.workloads.suite.get_workload` registry --
    no program builders cross the fork boundary.  Ad-hoc workload objects
    (tests, notebooks) that are not the registered singleton for their
    name fall back to pickling the object itself.
    """
    from repro.workloads.suite import get_workload
    from repro.errors import WorkloadError

    try:
        if get_workload(workload.name) is workload:
            return ("name", workload.name)
    except WorkloadError:
        pass
    return ("obj", workload)


def _hydrate_workload(ref: tuple) -> Workload:
    kind, payload = ref
    if kind == "name":
        from repro.workloads.suite import get_workload

        return get_workload(payload)
    return payload


def _pool_worker(ref: tuple) -> Tuple[str, Dict[str, RunResult]]:
    strategies, scale, engine, obs_dir, seed = _POOL_CONTEXT
    workload = _hydrate_workload(ref)
    per_strategy = _run_workload(
        workload, strategies, scale, engine, False, obs_dir=obs_dir, seed=seed
    )
    return workload.name, per_strategy


def run_matrix(
    workloads: Sequence[Workload],
    strategies: Sequence[Tuple[str, SystemConfig]],
    scale: Scale,
    verbose: bool = False,
    parallel: Optional[int] = None,
    engine: Optional[str] = None,
    obs_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> MatrixResult:
    """Run every workload under every (strategy name, system) pair.

    ``parallel=N`` distributes whole workloads over a fork-based process
    pool of ``N`` workers (each worker keeps its own trace cache and walk
    memo, so a workload's strategies still share one trace).  Sweep-wide
    context (strategies, scale, engine, obs settings) ships once per
    worker via the pool initializer, and registry workloads travel as
    names re-hydrated in the worker -- per-task payloads carry no program
    builders, only a reference.  With
    ``verbose`` the per-workload summaries stream as workers finish
    (completion order); the returned matrix is still merged in the caller's
    workload order, identical to a sequential run -- simulations are
    deterministic and workloads are independent.  ``engine`` selects the
    simulation engine (``"vector"``, ``"legacy"``, or ``None`` for the
    session default).  Stage times come from the obs session's spans (see
    ``obs_dir``), not from the matrix.

    ``obs_dir`` writes one ``<workload>.trace.json`` / ``.counters.json``
    pair per workload into that directory (per-worker traces in a parallel
    run; workers write their own files, so nothing crosses the fork
    boundary).

    ``seed`` reseeds the global ``random`` / ``numpy.random`` streams with
    a name-keyed child seed immediately before each workload's program is
    built, so workload builders that draw randomness produce identical
    programs whether the matrix runs serially or on a pool (and regardless
    of worker scheduling order).
    """
    matrix = MatrixResult(scale=scale.name)
    if parallel and parallel > 1 and len(workloads) > 1:
        jobs = [_workload_ref(w) for w in workloads]
        context = (tuple(strategies), scale, engine, obs_dir, seed)
        ctx = multiprocessing.get_context("fork")
        by_name = {}
        with ctx.Pool(
            min(parallel, len(jobs)), initializer=_pool_init, initargs=(context,)
        ) as pool:
            for wname, per_strategy in pool.imap_unordered(_pool_worker, jobs):
                by_name[wname] = per_strategy
                if verbose:  # stream each workload as its worker finishes
                    for result in per_strategy.values():
                        print(f"  {wname:<14} {result.summary()}", flush=True)
        for workload in workloads:  # deterministic merge: input order
            matrix.results[workload.name] = by_name[workload.name]
        return matrix
    for workload in workloads:
        matrix.results[workload.name] = _run_workload(
            workload, strategies, scale, engine, verbose, obs_dir=obs_dir, seed=seed
        )
    return matrix
