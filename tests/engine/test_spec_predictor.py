"""The locality-seeded speculation predictor.

Three layers of coverage:

* unit tests of the seed rules, the three prediction tiers and the
  cross-launch store;
* engine-level parity: predictor-guided replay must be bit-exact with the
  constant assume-miss path (``REPRO_SPEC_PREDICTOR=0``), the legacy scalar
  walk and the compiled engine, across generated fuzz programs and a
  rotating strategy subset;
* the seeded fault ``REPRO_FAULT_INJECT=spec-predictor-bias``: an
  adversarially *inverted* predictor must still produce exact results
  (verify-and-repair corrects every wrong guess) while measurably
  mispredicting more.
"""

import random

import numpy as np
import pytest

from repro.compiler.classify import LocalityType
from repro.compiler.passes import compile_program
from repro.engine.simulator import Simulator
from repro.engine.spec_predictor import (
    _SEED_EVIDENCE_CAP,
    LaunchPredictor,
    SpecPredictorStore,
    default_spec_store,
    make_launch_predictor,
    predictor_enabled,
    seed_rate_for,
)
from repro.engine.walk_memo import WalkMemo
from repro.experiments.runner import strategy_by_name
from repro.fuzz.diff import strategies_for
from repro.fuzz.genprog import generate_spec, build_program
from repro.obs import ObsSession
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.workloads.base import TEST
from repro.workloads.suite import get_workload


# ----------------------------------------------------------------------
# Seed rules
# ----------------------------------------------------------------------
class TestSeedRules:
    def test_no_remote_caching_is_assume_miss(self):
        rate, source = seed_rate_for(LocalityType.ROW_SHARED_H, False)
        assert rate == 0.0 and source == "no-remote-caching"

    @pytest.mark.parametrize(
        "cls",
        [
            LocalityType.ROW_SHARED_H,
            LocalityType.COL_SHARED_H,
            LocalityType.ROW_SHARED_V,
            LocalityType.COL_SHARED_V,
        ],
    )
    def test_rcl_classes_seed_highest_but_below_threshold(self, cls):
        # sync-conditional calibration: placement serves RCL reuse through
        # free probes and in-stream duplicates, so the sync residue mostly
        # misses -- every class prior sits below the 0.5 decision threshold
        rate, source = seed_rate_for(cls, True)
        assert rate == 0.2 and source.startswith("class:")

    def test_intra_thread_seeds_low(self):
        rate, _ = seed_rate_for(LocalityType.INTRA_THREAD, True)
        assert rate == 0.05

    def test_no_locality_seeds_zero(self):
        rate, _ = seed_rate_for(LocalityType.NO_LOCALITY, True)
        assert rate == 0.0

    def test_every_class_prior_below_decision_threshold(self):
        for cls in list(LocalityType) + [None]:
            assert seed_rate_for(cls, True)[0] < 0.5


# ----------------------------------------------------------------------
# The predictor tiers
# ----------------------------------------------------------------------
def _arr(*xs):
    return np.array(xs, dtype=np.int64)


class TestLaunchPredictor:
    def test_neutral_seed_predicts_miss(self):
        p = LaunchPredictor(2, 4, seed_rate=0.5, invert=False)
        guess = p.predict_hit(_arr(1, 2, 3), _arr(0, 1, 2), _arr(0, 0, 1))
        assert not guess.any()  # strict > 0.5 keeps the historic constant

    def test_high_seed_predicts_hit(self):
        p = LaunchPredictor(2, 4, seed_rate=0.9, invert=False)
        assert p.predict_hit(_arr(1, 2), _arr(0, 1), _arr(0, 1)).all()

    def test_intra_stream_duplicates_predicted_resident(self):
        p = LaunchPredictor(1, 4, seed_rate=0.0, invert=False)
        guess = p.predict_hit(_arr(7, 8, 7, 7), _arr(2, 2, 2, 2), _arr(0, 0, 0, 0))
        # first occurrences follow the (miss) seed; repeats predict hit
        assert list(guess) == [False, False, True, True]

    def test_duplicate_needs_same_node(self):
        p = LaunchPredictor(1, 4, seed_rate=0.0, invert=False)
        guess = p.predict_hit(_arr(7, 7), _arr(0, 1), _arr(0, 0))
        assert list(guess) == [False, False]

    def test_observe_marks_presence_even_for_misses(self):
        p = LaunchPredictor(1, 4, seed_rate=0.0, invert=False)
        # a remote requester miss inserts, so the sector is resident now
        p.observe(_arr(9), _arr(0), _arr(0), np.array([False]))
        assert p.predict_hit(_arr(9), _arr(0), _arr(0))[0]

    def test_site_rate_learned_from_outcomes(self):
        p = LaunchPredictor(2, 4, seed_rate=0.5, invert=False)
        hits = np.array([True] * 9 + [False])
        p.observe(_arr(*range(10)), _arr(*[0] * 10), _arr(*[1] * 10), hits)
        # an unseen sector at the hot site now predicts hit via the rate
        assert p.predict_hit(_arr(999), _arr(3), _arr(1))[0]
        # the cold site still follows the neutral seed
        assert not p.predict_hit(_arr(999), _arr(3), _arr(0))[0]

    def test_invert_flips_every_prediction(self):
        a = LaunchPredictor(1, 4, seed_rate=0.9, invert=False)
        b = LaunchPredictor(1, 4, seed_rate=0.9, invert=True)
        sec, node, site = _arr(1, 2, 1), _arr(0, 1, 0), _arr(0, 0, 0)
        np.testing.assert_array_equal(
            a.predict_hit(sec, node, site), ~b.predict_hit(sec, node, site)
        )

    def test_seed_evidence_is_capped(self):
        p = LaunchPredictor(1, 4, seed_rate=0.5, invert=False)
        prior = int(p.site_total[0])
        p.seed_from_counts(
            np.array([10**6], dtype=np.int64), np.array([2 * 10**6], dtype=np.int64)
        )
        assert int(p.site_total[0]) == prior + _SEED_EVIDENCE_CAP
        # the seeded rate survives the capping (0.5 hit rate here)
        assert p.site_hits[0] / p.site_total[0] == pytest.approx(0.5, abs=0.01)

    def test_seed_size_mismatch_ignored(self):
        p = LaunchPredictor(2, 4, seed_rate=0.5, invert=False)
        before = p.site_total.copy()
        p.seed_from_counts(_arr(5), _arr(10))  # wrong site count
        np.testing.assert_array_equal(p.site_total, before)

    def test_class_prior_does_not_leak_into_store(self):
        p = LaunchPredictor(2, 4, seed_rate=0.25, invert=False)
        store = SpecPredictorStore(max_entries=4)
        p.attach_store(store, ("k",))
        p.finish()  # no real evidence observed -> nothing to fold
        assert store.get(("k",)) is None
        p.observe(_arr(1, 2), _arr(0, 0), _arr(0, 1), np.array([True, False]))
        p.finish()
        hits, total = store.get(("k",))
        assert list(total) == [1, 1] and list(hits) == [1, 0]

    def test_stale_bitmap_capacity_guard(self):
        p = LaunchPredictor(1, 2, seed_rate=0.0, invert=False, node_capacity=4)
        p.observe(_arr(1), _arr(0), _arr(0), np.array([False]))
        assert p.predict_hit(_arr(1), _arr(0), _arr(0))[0]
        # blow past node 0's capacity with distinct pairs; presence for the
        # node is no longer trusted (its slice must have evicted)
        p.observe(
            _arr(*range(10, 20)), _arr(*[0] * 10), _arr(*[0] * 10),
            np.zeros(10, dtype=bool),
        )
        assert not p.predict_hit(_arr(1), _arr(0), _arr(0))[0]

    def test_free_observations_do_not_train_rates(self):
        p = LaunchPredictor(1, 4, seed_rate=0.0, invert=False)
        before = p.site_total.copy()
        p.observe(
            _arr(1, 2, 3), _arr(0, 0, 0), _arr(0, 0, 0),
            np.ones(3, dtype=bool), train_rates=False,
        )
        np.testing.assert_array_equal(p.site_total, before)
        # but presence is still recorded
        assert p.predict_hit(_arr(2), _arr(0), _arr(0))[0]

    def test_rate_training_skips_intra_batch_duplicates(self):
        p = LaunchPredictor(1, 4, seed_rate=0.0, invert=False)
        before = int(p.site_total[0])
        p.observe(
            _arr(5, 5, 5, 6), _arr(0, 0, 0, 0), _arr(0, 0, 0, 0),
            np.array([False, True, True, False]),
        )
        # only the two first occurrences (5 and 6) count
        assert int(p.site_total[0]) == before + 2


# ----------------------------------------------------------------------
# The cross-launch store
# ----------------------------------------------------------------------
class _FakeTrace:
    site_arrays = ("A", "B")


class _FakePolicy:
    def __init__(self, insert):
        self.insert_at_home = insert


class _FakeLP:
    def __init__(self, inserts=(True, True)):
        self._ins = dict(zip(_FakeTrace.site_arrays, inserts))

    def policy_for(self, name):
        return _FakePolicy(self._ins[name])


class TestSpecPredictorStore:
    def _key(self, cfg, inserts=(True, True)):
        return SpecPredictorStore.make_key(_FakeTrace, _FakeLP(inserts), cfg)

    def test_learn_accumulates(self):
        cfg = bench_hierarchical()
        store = SpecPredictorStore(max_entries=4)
        key = self._key(cfg)
        store.learn(key, _arr(1, 0), _arr(2, 3))
        store.learn(key, _arr(1, 1), _arr(2, 2))
        hits, total = store.get(key)
        assert list(hits) == [2, 1] and list(total) == [4, 5]

    def test_policy_distinguishes_keys(self):
        cfg = bench_hierarchical()
        assert self._key(cfg, (True, True)) != self._key(cfg, (True, False))

    def test_lru_bound(self):
        store = SpecPredictorStore(max_entries=1)
        store.learn(("a",), _arr(1), _arr(1))
        store.learn(("b",), _arr(1), _arr(1))
        assert len(store) == 1
        assert store.get(("a",)) is None

    def test_size_mismatch_replaces(self):
        store = SpecPredictorStore(max_entries=4)
        store.learn(("k",), _arr(1), _arr(1))
        store.learn(("k",), _arr(2, 2), _arr(3, 3))
        hits, total = store.get(("k",))
        assert list(hits) == [2, 2] and list(total) == [3, 3]

    def test_default_store_is_shared(self):
        assert default_spec_store() is default_spec_store()


class TestMakeLaunchPredictor:
    def _lp_and_trace(self, workload="lstm1"):
        compiled = compile_program(get_workload(workload).program(TEST))
        cfg = bench_hierarchical()
        sim = Simulator(cfg, engine="vector", walk_memo=WalkMemo(0))
        plan = strategy_by_name("LADM").plan(compiled, sim.topology)
        return plan.launches[0], cfg

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPEC_PREDICTOR", "0")
        assert not predictor_enabled()
        lp, cfg = self._lp_and_trace()
        assert make_launch_predictor(lp, cfg, _FakeTrace, 2) is None

    def test_no_remote_caching_skips_predictor(self, monkeypatch):
        import dataclasses

        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        lp, cfg = self._lp_and_trace()
        cfg_nrc = dataclasses.replace(cfg, remote_caching=False)
        assert make_launch_predictor(lp, cfg_nrc, _FakeTrace, 2) is None

    def test_fault_bias_overrides_shortcut_and_inverts(self, monkeypatch):
        import dataclasses

        monkeypatch.setenv("REPRO_FAULT_INJECT", "spec-predictor-bias")
        lp, cfg = self._lp_and_trace()
        cfg_nrc = dataclasses.replace(cfg, remote_caching=False)
        pred = make_launch_predictor(lp, cfg_nrc, _FakeTrace, 2)
        assert pred is not None and pred.invert

    def test_store_seeding_changes_source(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        lp, cfg = self._lp_and_trace()
        store = default_spec_store()
        store.clear()
        key = SpecPredictorStore.make_key(_FakeTrace, lp, cfg)
        store.learn(key, _arr(5, 5), _arr(10, 10))
        pred = make_launch_predictor(lp, cfg, _FakeTrace, 2)
        assert pred is not None and pred.seed_source == "store"
        # store evidence rides on top of the uniform class prior
        assert int(pred.site_total.sum()) == 20 + 2 * int(pred._prior_total)
        store.clear()


# ----------------------------------------------------------------------
# Engine-level parity on the fuzz corpus
# ----------------------------------------------------------------------
def _snapshots(result):
    return [k.snapshot() for k in result.kernels]


def _run(compiled, strategy_name, cfg, engine, obs_session=None):
    sim = Simulator(cfg, engine=engine, walk_memo=WalkMemo(0), obs_session=obs_session)
    plan = strategy_by_name(strategy_name).plan(compiled, sim.topology)
    return sim, _snapshots(sim.run(compiled, plan))


class TestPredictorParity:
    """Predictor-guided replay is bit-exact with every other path."""

    @pytest.mark.parametrize("index", range(6))
    def test_fuzz_specs_all_engines(self, index, monkeypatch):
        from repro.fuzz.diff import fuzz_hierarchical, fuzz_monolithic

        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        default_spec_store().clear()
        rng = random.Random(1000 + index)
        spec = generate_spec(rng, f"pred{index}", scale="tiny")
        compiled = compile_program(build_program(spec))
        for name in strategies_for(index, count=2):
            cfg = fuzz_monolithic() if name == "Monolithic" else fuzz_hierarchical()
            _, legacy = _run(compiled, name, cfg, "legacy")
            _, vec_on = _run(compiled, name, cfg, "vector")
            _, comp = _run(compiled, name, cfg, "compiled")
            monkeypatch.setenv("REPRO_SPEC_PREDICTOR", "0")
            _, vec_off = _run(compiled, name, cfg, "vector")
            monkeypatch.delenv("REPRO_SPEC_PREDICTOR")
            assert legacy == vec_on == comp == vec_off, f"{spec.name}/{name}"

    def test_workload_parity_with_store_warm(self, monkeypatch):
        """Second run seeds from the store and must stay exact."""
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        default_spec_store().clear()
        compiled = compile_program(get_workload("lstm1").program(TEST))
        cfg = bench_hierarchical()
        _, legacy = _run(compiled, "LADM", cfg, "legacy")
        _, cold = _run(compiled, "LADM", cfg, "vector")
        _, warm = _run(compiled, "LADM", cfg, "vector")
        assert legacy == cold == warm


class TestFaultInjectionSelfTest:
    """`spec-predictor-bias` proves verify-and-repair corrects a predictor
    that is deliberately wrong about (nearly) everything."""

    def test_bias_is_exact_but_mispredicts_more(self, monkeypatch):
        compiled = compile_program(get_workload("lstm1").program(TEST))
        cfg = bench_hierarchical()
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        default_spec_store().clear()
        _, legacy = _run(compiled, "LADM", cfg, "legacy")
        session_good = ObsSession(enabled=True)
        _, good = _run(compiled, "LADM", cfg, "vector", session_good)

        monkeypatch.setenv("REPRO_FAULT_INJECT", "spec-predictor-bias")
        default_spec_store().clear()
        session_bias = ObsSession(enabled=True)
        _, biased = _run(compiled, "LADM", cfg, "vector", session_bias)

        assert biased == good == legacy  # repair wins regardless
        cg, cb = session_good.counters, session_bias.counters
        assert cb.total("walk.spec.events") == cg.total("walk.spec.events") > 0
        assert cb.total("walk.spec.mispredicts") > cg.total("walk.spec.mispredicts")
        # inverted guesses: accuracy complements the unbiased run exactly
        assert cb.total("spec.predictor.correct") == (
            cg.total("spec.predictor.events") - cg.total("spec.predictor.correct")
        )

    def test_bias_with_monolithic_config(self, monkeypatch):
        """The bias overrides the no-remote-caching shortcut, exercising
        repair on configurations that normally skip prediction."""
        compiled = compile_program(get_workload("scalarprod").program(TEST))
        cfg = bench_monolithic()
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        _, plain = _run(compiled, "Monolithic", cfg, "vector")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "spec-predictor-bias")
        _, biased = _run(compiled, "Monolithic", cfg, "vector")
        assert biased == plain
