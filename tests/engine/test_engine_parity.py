"""Bit-exact parity between the vector engine and the legacy reference walk.

The vectorised engine is a pure performance refactor: every reported metric
(byte counts, traffic-class splits, fault counts, per-launch times) must be
*identical* to the per-sector legacy walk, not approximately equal.  This
sweeps the full workload suite at test scale; each workload runs under a
rotating subset of strategy/system pairs so that, across the suite, every
strategy family and both topologies are exercised many times while the
sweep stays fast enough for tier-1.

``RunResult.snapshot()`` is the canonical comparison form (see
:mod:`repro.engine.metrics`).
"""

import pytest

from repro.engine import vector_walk
from repro.engine.simulator import simulate
from repro.engine.trace_cache import TraceCache
from repro.experiments.runner import strategy_by_name
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST
from repro.workloads.suite import all_workloads, get_workload

# (strategy, config kind) pairs covering every engine code path: heavy
# remote traffic (RR), fully-local fast path (Batch+FT), locality-optimised
# placement (LADM/H-CODA), RONCE insert bypass, and the flushless
# monolithic configuration.
PAIRS = [
    ("Baseline-RR", "hier"),
    ("Batch+FT", "hier"),
    ("LADM", "hier"),
    ("H-CODA", "hier"),
    ("LASP+RONCE", "hier"),
    ("Monolithic", "mono"),
]

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _pairs_for(index: int):
    """Three of the six pairs, rotated so the suite covers all of them."""
    return [PAIRS[(index + off) % len(PAIRS)] for off in (0, 1, 3)]


def _config(kind: str):
    return bench_hierarchical() if kind == "hier" else bench_monolithic()


@pytest.mark.parametrize("wname", WORKLOAD_NAMES)
def test_engines_bit_exact(wname):
    _assert_engines_agree(wname)


@pytest.mark.parametrize("wname", ["conv", "tra", "btree"])
def test_engines_bit_exact_forced_array_replay(wname, monkeypatch):
    """Every sync stream through the speculative array replay.  At this
    scale the size heuristic already picks the array path on conv and tra;
    btree is the workload whose pairs it sends partly down the scalar
    path, so forcing the array path there covers streams it never takes
    on its own."""
    monkeypatch.setattr(vector_walk, "_FORCED_MODE", "array")
    _assert_engines_agree(wname)


def _assert_engines_agree(wname):
    index = WORKLOAD_NAMES.index(wname)
    workload = get_workload(wname)
    for sname, kind in _pairs_for(index):
        legacy = simulate(
            workload.program(TEST),
            strategy_by_name(sname),
            _config(kind),
            engine="legacy",
        )
        vector = simulate(
            workload.program(TEST),
            strategy_by_name(sname),
            _config(kind),
            engine="vector",
            trace_cache=TraceCache(),
        )
        assert legacy.snapshot() == vector.snapshot(), (
            f"{wname}/{sname}: engines disagree"
        )


def test_all_pairs_covered():
    """The rotation really does exercise every strategy/config pair."""
    seen = set()
    for i in range(len(WORKLOAD_NAMES)):
        seen.update(_pairs_for(i))
    assert seen == set(PAIRS)
