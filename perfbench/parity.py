"""Legacy parity smoke: the vector and legacy engines agree bit for bit.

Run once per invocation, outside every timed window, on a few TEST-scale
Fig-9 cells.  The legacy engine is never timed and never the base of a
ratio.
"""

from __future__ import annotations

#: Cheap cells covering both bench topologies and three placement strategies.
CELLS = [
    ("vecadd", "H-CODA"),
    ("conv", "LADM"),
    ("scalarprod", "LASP+RONCE"),
    ("tra", "Monolithic"),
]


def check(report) -> None:
    from repro.compiler.passes import compile_program
    from repro.engine.simulator import Simulator
    from repro.engine.trace_cache import TraceCache
    from repro.engine.walk_memo import WalkMemo
    from repro.experiments.runner import strategy_by_name
    from repro.topology.config import bench_hierarchical, bench_monolithic
    from repro.workloads.base import TEST
    from repro.workloads.suite import get_workload

    mismatched = []
    for wname, sname in CELLS:
        compiled = compile_program(get_workload(wname).program(TEST))
        config = bench_monolithic() if sname == "Monolithic" else bench_hierarchical()
        snaps = []
        for engine in ("vector", "legacy"):
            sim = Simulator(config, engine=engine, trace_cache=TraceCache(),
                            walk_memo=WalkMemo())
            plan = strategy_by_name(sname).plan(compiled, sim.topology)
            snaps.append(sim.run(compiled, plan).snapshot())
        if snaps[0] != snaps[1]:
            mismatched.append(f"{wname}/{sname}")
    report.check(
        "parity.vector_equals_legacy", not mismatched,
        "mismatched: " + ", ".join(mismatched) if mismatched
        else f"{len(CELLS)} TEST-scale cells bit-exact",
    )
