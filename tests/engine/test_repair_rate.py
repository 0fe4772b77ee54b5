"""Speculation repair-rate ceiling on the RCL-dominant Fig-9 layers.

A launch's repair rate is the share of its speculative home fills whose
first guess the verify-and-repair loop had to flip
(``walk.spec.mispredicts / walk.spec.events``).  Results stay bit-exact
whatever the rate, so only this ceiling notices a predictor that has
stopped predicting: on the LSTM and FC layers (paper Table II's
RCL-dominant set) the locality-seeded predictor must keep every launch at
or below :data:`REPAIR_RATE_CEILING`.  The counts come from the obs
session's counter registry.  With the registry on, no-flush single-launch
runs are not memoised, so every launch of every strategy walks.
"""

import pytest

from repro.compiler.passes import compile_program
from repro.engine import simulator as simulator_mod
from repro.engine.simulator import Simulator
from repro.engine.spec_predictor import default_spec_store
from repro.engine.trace_cache import TraceCache
from repro.engine.walk_memo import WalkMemo
from repro.experiments.runner import strategy_by_name
from repro.obs import ObsSession
from repro.obs.counters import CounterRegistry
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import BENCH
from repro.workloads.suite import get_workload

WORKLOADS = ["lstm1", "lstm2", "alexnet_fc2", "vggnet_fc2", "resnet50_fc"]
#: Strategies in sweep order; one trace cache, walk memo and predictor store
#: serve all of them, so later strategies start from earlier ones' learning.
STRATEGIES = ["Batch+FT", "H-CODA", "LADM", "LASP+RTWICE", "LASP+RONCE", "Monolithic"]
REPAIR_RATE_CEILING = 0.3


def _launch_repair_rates(wname, monkeypatch):
    """``{(strategy, launch_index): rate}`` for every walked launch with
    speculative events, at bench scale."""
    default_spec_store().clear()
    compiled = compile_program(get_workload(wname).program(BENCH))
    trace_cache, memo = TraceCache(), WalkMemo()
    session = ObsSession(enabled=False)
    session.counters = CounterRegistry(enabled=True)
    reg = session.counters
    rates = {}
    walk_launch = simulator_mod.walk_launch

    def counted_walk(config, launch_index, lp, plan, *args, **kwargs):
        events = reg.total("walk.spec.events")
        flips = reg.total("walk.spec.mispredicts")
        out = walk_launch(config, launch_index, lp, plan, *args, **kwargs)
        events = reg.total("walk.spec.events") - events
        if events:
            flips = reg.total("walk.spec.mispredicts") - flips
            rates[(plan.strategy_name, launch_index)] = flips / events
        return out

    monkeypatch.setattr(simulator_mod, "walk_launch", counted_walk)
    for sname in STRATEGIES:
        config = bench_monolithic() if sname == "Monolithic" else bench_hierarchical()
        sim = Simulator(
            config,
            engine="vector",
            trace_cache=trace_cache,
            walk_memo=memo,
            obs_session=session,
        )
        sim.run(compiled, strategy_by_name(sname).plan(compiled, sim.topology))
    default_spec_store().clear()
    return rates


@pytest.mark.parametrize("wname", WORKLOADS)
def test_repair_rate_within_ceiling(wname, monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    rates = _launch_repair_rates(wname, monkeypatch)
    assert rates, f"{wname}: no launch speculated"
    over = {k: r for k, r in rates.items() if r > REPAIR_RATE_CEILING}
    assert not over, f"{wname}: repair rate above {REPAIR_RATE_CEILING}: {over}"


def test_ceiling_catches_a_biased_predictor(monkeypatch):
    """The inverted predictor of ``spec-predictor-bias`` breaks the
    ceiling on every workload, so the check above can fail."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "spec-predictor-bias")
    for wname in WORKLOADS:
        rates = _launch_repair_rates(wname, monkeypatch)
        assert max(rates.values()) > REPAIR_RATE_CEILING, wname
