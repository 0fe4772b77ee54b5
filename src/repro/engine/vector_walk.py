"""The vectorised memory-walk engine.

This module replays a flattened :class:`~repro.engine.trace_cache.LaunchTrace`
through the NUMA L2 hierarchy using array kernels instead of the legacy
per-sector Python loop.  The decomposition keeps results bit-exact with the
legacy walk (same byte counts, hit rates, traffic-class splits, LRU state):

1.  **First-touch faults resolve up front.**  Which node wins a first-touch
    race is a pure function of the (statically known) walk order -- iteration
    major, rotated wave order -- never of cache state, so every fault of the
    launch is resolved with one vectorised pass before the walk begins.
2.  **The per-TB L1 filter is precomputed.**  It is an always-insert
    fully-associative LRU over each TB's own stream, so its hit/miss outcome
    is strategy-independent and comes with the cached trace
    (:meth:`LaunchTrace.survivors`).
3.  **All per-node L2 slices live in one global :class:`ArrayLRU`** whose set
    index is ``node * num_sets + (sector % num_sets)``.  Node slices never
    share a set, so this is state-identical to separate caches, and an L2
    access only interacts with earlier accesses to the *same global set*.
4.  **Free/sync decomposition per iteration.**  Remote-homed misses inject
    fills into their home node's sets at a cache-state-dependent moment, so
    only sets that *might receive a fill this iteration* (the hot footprint,
    ``unique`` of the remote accesses' home sets) need ordered treatment.
    Every access whose requester set is outside that footprint is *free*:
    its set sees nothing but position-ordered requester traffic, so all free
    accesses of the iteration fuse into one :meth:`ArrayLRU.probe_batch`
    call.
5.  **Speculative fill resolution for the sync stream.**  The rest -- sync
    accesses plus the home-side fills of free misses -- forms a
    position-ordered event stream whose only data-dependent part is *whether
    a sync remote requester's home fill happens* (it does iff the requester
    probe misses).  :func:`replay_sync_stream` guesses each such probe's
    outcome -- via the locality-seeded, online-refined
    :class:`~repro.engine.spec_predictor.LaunchPredictor` when one is
    supplied, assume-miss otherwise -- materialises the full candidate
    event stream, replays it per-set
    with :meth:`ArrayLRU.replay_segments` (batched gather/scatter in stamp
    arithmetic), then verifies the speculated misses against the actual hit
    masks and repairs only the mispredicted sets -- restore the set's rows
    from a snapshot, drop/add the affected fills, replay that set's
    substream again -- in a bounded fixpoint loop.  The loop's fixpoint is
    unique and equals the sequential execution (presence at stream position
    ``p`` depends only on set states strictly before ``p``, so assignments
    cannot disagree at their earliest difference); a round cap with an exact
    scalar fallback bounds the pathological case.  See
    ``docs/simulator_model.md`` section 3c.
6.  **Fully-local launches collapse to one probe call.**  When a launch has
    no remotely-homed survivor at all there are no fills, per-set stream
    order is the only constraint, and ``probe_batch`` preserves it -- so the
    whole launch (all iterations, wave order) becomes a single batch.
    Monolithic configurations take this path for the entire run.

Accumulators that do not depend on cache state (crossbar request counts,
warp instructions, page-access profiles, per-block local-sector counts) are
computed launch-wide with ``bincount``/fancy indexing instead of inside the
walk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.cache.array_lru import ArrayLRU
from repro.engine.metrics import KernelMetrics
from repro.engine.plan import ExecutionPlan, LaunchPlan
from repro.engine.spec_predictor import make_launch_predictor
from repro.engine.trace_cache import LaunchTrace

__all__ = ["walk_launch", "replay_sync_stream"]

# Traffic-class codes shared with the legacy engine (see simulator module).
_LL, _LR, _RL = 0, 1, 2

#: Below this many sync elements the scalar dict replay beats kernel setup.
_SCALAR_MAX_ELEMENTS = 64
#: Longest per-set substream (in events) the segmented kernel accepts before
#: handing the stream to the scalar path.  The segmented replay pays ~25us
#: per round (= per event of its deepest set) regardless of round width --
#: and speculation repair re-runs mispredicted sets' rounds on top -- while
#: the dict replay costs ~0.5us per event, so the array path only wins
#: while the stream is wide relative to its depth; per-stream A/B timing on
#: the bench workloads puts the crossover near depth = K/80-95.
_SEGMENT_DEPTH_DIVISOR = 96
#: Repair rounds before the speculative loop falls back to the exact scalar
#: replay.  Convergence normally takes 1-3 rounds (see docs 3c); the cap only
#: bounds adversarial flip chains.
_REPAIR_ROUND_CAP = 32

#: ``"array"`` or ``"scalar"`` pins the replay path for every stream whose
#: caller passes no ``mode``; parity tests patch it, None keeps the size
#: heuristic.
_FORCED_MODE: Optional[str] = None


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+l) for s, l in zip(starts, lengths)]``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    bases = np.repeat(starts, lengths)
    prefix = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=prefix[1:])
    return bases + (np.arange(total, dtype=np.int64) - np.repeat(prefix, lengths))


# ----------------------------------------------------------------------
# The sync stream: speculative fill resolution
# ----------------------------------------------------------------------
def replay_sync_stream(
    l2: ArrayLRU,
    num_nodes: int,
    sec: np.ndarray,
    is_fill: np.ndarray,
    local: np.ndarray,
    node: np.ndarray,
    home: np.ndarray,
    req_set: np.ndarray,
    home_set: np.ndarray,
    req_ins: np.ndarray,
    home_ins: np.ndarray,
    stats_acc: np.ndarray,
    dram_requests: np.ndarray,
    transfers: np.ndarray,
    mode: Optional[str] = None,
    session=None,
    predictor=None,
    site: Optional[np.ndarray] = None,
) -> tuple:
    """Replay one position-ordered sync stream against the fused L2.

    Each element is either a requester access (``is_fill`` False: probe
    ``req_set``; on a miss insert per ``req_ins``, and -- when remote -- probe
    ``home_set`` inserting per ``home_ins``) or a home-fill-only event
    (``is_fill`` True: the already-resolved fill of a *free* remote miss,
    probing ``home_set`` only).  Elements apply in array order, which must be
    stream-position order; ``local`` must be False wherever ``is_fill`` is
    set.

    Stats land in ``stats_acc``/``dram_requests``/``transfers`` exactly as
    the legacy walk counts them.  Returns element-aligned masks
    ``(req_hit, home_present, home_hit)`` -- the parity surface for the
    property tests.

    ``mode`` forces a path: ``"array"`` (speculative segmented replay),
    ``"scalar"`` (OrderedDict reference), or None for the size heuristic.

    ``predictor`` (a :class:`~repro.engine.spec_predictor.LaunchPredictor`,
    with ``site`` the element-aligned access-site indices) seeds the
    speculative path's initial probe-outcome guesses and is trained on the
    stream's converged outcomes; ``None`` keeps the constant assume-miss
    guess.  Either way the repair fixpoint -- and therefore every returned
    mask and accumulator -- is identical.
    """
    K = sec.size
    if K == 0:
        empty = np.empty(0, dtype=bool)
        return empty, empty.copy(), empty.copy()

    if mode is None:
        mode = _FORCED_MODE
    if mode is None:
        mode = "array"
        if K < _SCALAR_MAX_ELEMENTS:
            mode = "scalar"
        elif not (req_ins.all() and home_ins.all()):
            # Skewed streams (one set swallowing most events) would make the
            # segmented kernel's round loop as long as the stream itself.
            # All-insert streams are exempt: replay_segments resolves them
            # through ArrayLRU's stack-property path, which has no round
            # loop, so set skew costs them nothing.
            gs_all = np.concatenate((req_set[~is_fill], home_set[is_fill | ~local]))
            depth = int(np.bincount(gs_all).max()) if gs_all.size else 0
            if depth > max(_SCALAR_MAX_ELEMENTS, K // _SEGMENT_DEPTH_DIVISOR):
                mode = "scalar"

    if mode == "array":
        out = _replay_sync_array(
            l2, sec, is_fill, local, node, home,
            req_set, home_set, req_ins, home_ins,
            session=session, predictor=predictor, site=site,
        )
    else:
        out = _replay_sync_scalar(
            l2, sec, is_fill, local,
            req_set, home_set, req_ins, home_ins,
        )
    req_hit, home_present, home_hit = out
    _accumulate_sync_stats(
        num_nodes, is_fill, local, node, home,
        req_hit, home_present, home_hit,
        stats_acc, dram_requests, transfers,
    )
    if predictor is not None and site is not None:
        # Train on the stream's *converged* remote requester outcomes (both
        # replay paths resolve them exactly), so the next stream's guesses
        # start from everything this one proved.
        rr = ~is_fill & ~local
        if rr.any():
            predictor.observe(sec[rr], node[rr], site[rr], req_hit[rr])
    return out


def _replay_sync_array(
    l2: ArrayLRU,
    sec: np.ndarray,
    is_fill: np.ndarray,
    local: np.ndarray,
    node: np.ndarray,
    home: np.ndarray,
    req_set: np.ndarray,
    home_set: np.ndarray,
    req_ins: np.ndarray,
    home_ins: np.ndarray,
    session=None,
    predictor=None,
    site: Optional[np.ndarray] = None,
) -> tuple:
    """Speculative segmented replay (see module docstring, point 5)."""
    if session is None:
        session = obs.current()
    tr = session.tracer
    K = sec.size
    reqm = ~is_fill
    # Home-side events exist for fills (always) and for remote requester
    # accesses (speculatively: present iff the requester probe misses).
    has_home = is_fill | (reqm & ~local)

    # Candidate event stream: element k's requester event at key 2k, its
    # home event at key 2k+1 -- one argsort yields global position order.
    r_elems = np.nonzero(reqm)[0]
    h_elems = np.nonzero(has_home)[0]
    e_elem = np.concatenate((r_elems, h_elems))
    e_home = np.zeros(e_elem.size, dtype=bool)
    e_home[r_elems.size:] = True
    e_key = np.concatenate((2 * r_elems, 2 * h_elems + 1))
    # keys are unique (2k vs 2k+1), so the faster unstable sort is exact
    order = np.argsort(e_key)
    e_elem = e_elem[order]
    e_home = e_home[order]
    E = e_elem.size

    gs = np.where(e_home, home_set[e_elem], req_set[e_elem])
    ins = np.where(e_home, home_ins[e_elem], req_ins[e_elem])
    esec = sec[e_elem]
    spec = e_home & ~is_fill[e_elem]
    spec_idx = np.nonzero(spec)[0]
    # Parent requester event of each speculative fill: the event with key
    # 2*elem.  Keys are unique and sorted, so searchsorted locates it.
    parent = np.searchsorted(e_key[order], 2 * e_elem[spec_idx])

    touched = np.unique(gs)
    saved = l2.save_rows(touched)
    present = np.ones(E, dtype=bool)
    hit = np.zeros(E, dtype=bool)
    pred0 = None
    if predictor is not None and site is not None and spec_idx.size:
        # A speculative fill is present iff its parent requester probe
        # misses, so the predictor's per-parent hit guess replaces the
        # constant assume-miss (= all fills present) initial assignment.
        # The repair fixpoint is unique, so a bad guess costs rounds only.
        pelem = e_elem[spec_idx]
        with tr.span("spec.predict", cat="walk", events=int(pelem.size)):
            guess_hit = predictor.predict_hit(sec[pelem], node[pelem], site[pelem])
        present[spec_idx] = ~guess_hit
        pred0 = present[spec_idx].copy()

    rounds = 0
    mispredicts = 0
    converged = False
    active: Optional[np.ndarray] = None  # None: first round, all sets
    while rounds < _REPAIR_ROUND_CAP:
        rounds += 1
        with tr.span("repair_round", cat="walk", round=rounds):
            if active is None:
                selidx = np.nonzero(present)[0]
            else:
                # Restore only the mispredicted sets and replay their
                # (repaired) substreams; every other set's state and
                # outcomes stand.
                rows = np.searchsorted(touched, active)
                l2.tags[active] = saved[0][rows]
                l2.stamp[active] = saved[1][rows]
                mark = np.zeros(l2.num_sets, dtype=bool)
                mark[active] = True
                selidx = np.nonzero(mark[gs] & present)[0]
            hit[selidx] = l2.replay_segments(esec[selidx], gs[selidx], ins[selidx])
            new_present = ~hit[parent]
            flipped = spec_idx[new_present != present[spec_idx]]
        if flipped.size == 0:
            converged = True
            break
        mispredicts += int(flipped.size)
        present[spec_idx] = new_present
        active = np.unique(gs[flipped])
    reg = session.counters
    reg.inc("walk.spec.rounds", rounds=rounds)
    if reg.enabled:
        reg.inc("walk.spec.events", int(spec_idx.size))
        reg.inc("walk.spec.mispredicts", mispredicts)
        if pred0 is not None and converged:
            # Converged presence is ground truth: guesses that survived
            # unchanged were correct.
            reg.inc("spec.predictor.events", int(spec_idx.size))
            correct = int((present[spec_idx] == pred0).sum())
            reg.inc("spec.predictor.correct", correct)

    if not converged:
        # Adversarial flip chain: restore everything and run the exact
        # scalar replay from the snapshot.  Always terminates, still
        # bit-exact.
        l2.restore_rows(touched, saved)
        return _replay_sync_scalar(
            l2, sec, is_fill, local, req_set, home_set, req_ins, home_ins
        )

    req_hit = np.zeros(K, dtype=bool)
    home_present = np.zeros(K, dtype=bool)
    home_hit = np.zeros(K, dtype=bool)
    re = ~e_home
    req_hit[e_elem[re]] = hit[re]
    he = e_home & present
    home_present[e_elem[he]] = True
    home_hit[e_elem[he]] = hit[he]
    return req_hit, home_present, home_hit


def _replay_sync_scalar(
    l2: ArrayLRU,
    sec: np.ndarray,
    is_fill: np.ndarray,
    local: np.ndarray,
    req_set: np.ndarray,
    home_set: np.ndarray,
    req_ins: np.ndarray,
    home_ins: np.ndarray,
) -> tuple:
    """Exact OrderedDict replay of one sync stream (fallback and oracle).

    Materialises every touched set's array rows as an ``OrderedDict``, runs
    the per-element reference walk, and writes tag/stamp rows back.  This is
    the legacy engine's set model operation for operation, so parity with
    the dict-based reference walk is structural.
    """
    K = sec.size
    assoc = l2.assoc
    tags, stamp = l2.tags, l2.stamp
    reqm = ~is_fill
    # Flag-scatter instead of np.unique: marking a bitmap over the fused set
    # space and reading back the set indices skips the O(K log K) sort.
    mark = np.zeros(l2.num_sets, dtype=bool)
    mark[req_set[reqm]] = True
    mark[home_set[is_fill | (reqm & ~local)]] = True
    touched = np.nonzero(mark)[0]

    # ---- materialise the touched sets as insertion-ordered dicts ----
    # (a plain dict is insertion-ordered; pop+reinsert is the refresh and
    # popping the first key is the eviction, both faster than OrderedDict)
    mlist = touched.tolist()
    st = stamp[touched]
    ordr = np.argsort(st, axis=1, kind="stable")
    otags = np.take_along_axis(tags[touched], ordr, axis=1).tolist()
    ost = np.take_along_axis(st, ordr, axis=1).tolist()
    dset = {}
    for gset, trow, srow in zip(mlist, otags, ost):
        d = {}
        for t, sv in zip(trow, srow):
            if sv > 0:  # stamp > 0 <=> occupied way; rows sort oldest first
                d[t] = True  # truthy value so pop() doubles as the hit test
        dset[gset] = d

    # Outcome indices collect in plain lists (one append beats three numpy
    # scalar stores per element) and scatter once at the end.
    rh_idx: list = []
    hp_idx: list = []
    hh_idx: list = []
    rh_append = rh_idx.append
    hp_append = hp_idx.append
    hh_append = hh_idx.append
    nxt = next

    # The four per-element flags pack into one int (fill | local<<1 |
    # req_ins<<2 | home_ins<<3): a 4-list zip unpacks measurably faster
    # than a 7-list one at these stream lengths.
    code = (
        is_fill.astype(np.int64)
        + 2 * local.astype(np.int64)
        + 4 * req_ins.astype(np.int64)
        + 8 * home_ins.astype(np.int64)
    )

    # ---- scalar pass over the ordered element stream ---------------
    # d.pop(s, False) is hit-test and recency-removal in one dict op;
    # hits reinsert at the MRU end, exactly move_to_end.
    for k, (s, c, rs, hs) in enumerate(
        zip(sec.tolist(), code.tolist(), req_set.tolist(), home_set.tolist())
    ):
        if c & 1:  # home-fill-only event
            hp_append(k)
            hd = dset[hs]
            if hd.pop(s, False):
                hd[s] = True
                hh_append(k)
            elif c & 8:
                hd[s] = True
                if len(hd) > assoc:
                    del hd[nxt(iter(hd))]
            continue
        d = dset[rs]
        if d.pop(s, False):
            d[s] = True
            rh_append(k)
            continue
        if c & 4:
            d[s] = True
            if len(d) > assoc:
                del d[nxt(iter(d))]
        if c & 2:  # local requester: no home side
            continue
        hp_append(k)
        hd = dset[hs]
        if hd.pop(s, False):
            hd[s] = True
            hh_append(k)
        elif c & 8:
            hd[s] = True
            if len(hd) > assoc:
                del hd[nxt(iter(hd))]

    req_hit = np.zeros(K, dtype=bool)
    home_present = np.zeros(K, dtype=bool)
    home_hit = np.zeros(K, dtype=bool)
    req_hit[rh_idx] = True
    home_present[hp_idx] = True
    home_hit[hh_idx] = True

    # ---- write touched-set dicts back as tag/stamp rows ------------
    clock = l2.clock
    new_tags = []
    new_stamps = []
    for gset in mlist:
        keys = list(dset[gset])
        ln = len(keys)
        new_tags.append(keys + [-1] * (assoc - ln))
        new_stamps.append(list(range(clock + 1, clock + 1 + ln)) + [0] * (assoc - ln))
        clock += ln
    l2.clock = clock
    tags[touched] = np.array(new_tags, dtype=np.int64)
    stamp[touched] = np.array(new_stamps, dtype=np.int64)
    return req_hit, home_present, home_hit


def _accumulate_sync_stats(
    num_nodes: int,
    is_fill: np.ndarray,
    local: np.ndarray,
    node: np.ndarray,
    home: np.ndarray,
    req_hit: np.ndarray,
    home_present: np.ndarray,
    home_hit: np.ndarray,
    stats_acc: np.ndarray,
    dram_requests: np.ndarray,
    transfers: np.ndarray,
) -> None:
    """Fold one sync stream's outcome masks into the walk accumulators.

    Shared by both replay paths so the accounting cannot diverge: requester
    outcomes split LOCAL-LOCAL/LOCAL-REMOTE by locality (free-miss fills
    were already counted by the fused free probe); every realised home-side
    event is one interconnect transfer and a REMOTE-LOCAL access, missing
    through to the home DRAM.
    """
    reqm = ~is_fill
    if reqm.any():
        code = node[reqm] * 4 + local[reqm] * 2 + req_hit[reqm]
        c = np.bincount(code, minlength=num_nodes * 4).reshape(num_nodes, 4)
        stats_acc[:, _LL, 0] += c[:, 2]
        stats_acc[:, _LL, 1] += c[:, 3]
        stats_acc[:, _LR, 0] += c[:, 0]
        stats_acc[:, _LR, 1] += c[:, 1]
        dram_requests += c[:, 2]
    if home_present.any():
        hp = home_present
        np.add.at(transfers, (home[hp], node[hp]), 1)
        code = home[hp] * 2 + home_hit[hp]
        c = np.bincount(code, minlength=num_nodes * 2).reshape(num_nodes, 2)
        stats_acc[:, _RL, 0] += c[:, 0]
        stats_acc[:, _RL, 1] += c[:, 1]
        dram_requests += c[:, 0]


# ----------------------------------------------------------------------
# The launch walk
# ----------------------------------------------------------------------
def walk_launch(
    config,
    launch_index: int,
    lp: LaunchPlan,
    plan: ExecutionPlan,
    l2: ArrayLRU,
    trace: LaunchTrace,
    order: np.ndarray,
    page_counts: Optional[np.ndarray] = None,
    homes: Optional[np.ndarray] = None,
    session=None,
) -> tuple:
    """Walk one launch's cached trace; returns raw accumulators.

    ``l2`` is the fused global cache (``num_nodes * num_sets`` sets).
    Returns ``(metrics, xbar_requests, dram_requests, transfers, stats_acc)``
    in the same shapes the legacy walk produces, for a shared finalize step.

    ``homes`` optionally passes the precomputed per-sector home nodes (the
    walk-memo key derivation already gathered them); only valid when the
    page table is fully mapped.  Stage times and work counts are the
    ``free_probe`` / ``sync_replay`` spans and ``walk.*`` counters of
    ``session``.
    """
    num_nodes = config.num_nodes
    num_sets = config.l2.num_sets
    remote_caching = config.remote_caching
    launch = lp.launch
    kernel = launch.kernel
    page_table = plan.page_table
    ntb = trace.num_threadblocks
    trip = trace.trip
    if session is None:
        session = obs.current()
    tr = session.tracer
    reg = session.counters
    strategy = plan.strategy_name

    metrics = KernelMetrics(
        kernel=kernel.name, launch_index=launch_index, num_nodes=num_nodes
    )
    faults_before = page_table.fault_count

    tb_nodes = np.asarray(lp.tb_nodes, dtype=np.int64)
    warps_per_tb = -(-kernel.block.count // config.warp_size)
    insts_per_tb = warps_per_tb * kernel.insts_per_thread * trip
    # The legacy loop accumulates per-TB, but repeated float64 addition of
    # one exact integer is exact while partial sums stay below 2**53, so
    # count-times-value reproduces it bit-identically.
    metrics.warp_insts_per_node += (
        np.bincount(tb_nodes, minlength=num_nodes) * float(insts_per_tb)
    )

    lengths = np.diff(trace.offsets)
    block_tb = np.repeat(np.arange(ntb, dtype=np.int64), trip)
    tb_per_sector = np.repeat(block_tb, lengths)

    # ------------------------------------------------------------------
    # Stage 1: resolve every first-touch fault of the launch up front.
    # ------------------------------------------------------------------
    if page_table.has_unmapped and trace.total_sectors:
        # The walk visits block (tb, m) at step m * ntb + rotated position,
        # so the first-touch stream is just the blocks' sector ranges
        # concatenated in step order -- built directly instead of argsorting
        # per-sector step keys (the sort dominated stage 1 on FT plans).
        chunks = []
        for m in range(trip):
            shift = (m * 7) % max(1, ntb)
            rotated = np.concatenate((order[shift:], order[:shift]))
            blocks = rotated * trip + m
            chunks.append(_concat_ranges(trace.offsets[blocks], lengths[blocks]))
        touch_order = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        page_table.resolve_first_touch(
            trace.pages[touch_order], tb_nodes[tb_per_sector[touch_order]]
        )
    if homes is None:
        homes = page_table.homes_of_pages(trace.pages, toucher=0)

    # ------------------------------------------------------------------
    # Stage 2: launch-wide, order-independent accumulators.
    # ------------------------------------------------------------------
    if page_counts is not None and trace.total_sectors:
        node_per_sector = tb_nodes[tb_per_sector]
        for node in range(num_nodes):
            sel = node_per_sector == node
            if sel.any():
                np.add.at(page_counts[node], trace.pages[sel], 1)

    l1_capacity = config.l1_filter_sectors
    soff, ssec, ssets, ssite = trace.survivor_layout(l1_capacity, num_sets)
    mask = trace.survivors(l1_capacity)
    shome = np.asarray(homes, dtype=np.int64)[mask]
    s_tb = tb_per_sector[mask]
    s_node = tb_nodes[s_tb]
    slocal = shome == s_node

    insert_at_home = np.array(
        [lp.policy_for(name).insert_at_home for name in trace.site_arrays],
        dtype=bool,
    )
    if insert_at_home.size:
        sins = insert_at_home[ssite]
    else:
        sins = np.empty(0, dtype=bool)

    # Global set indices: requester-side (own node's slice) and home-side.
    greq = s_node * num_sets + ssets
    ghome = shome * num_sets + ssets
    if remote_caching:
        req_ins = np.ones(ssec.size, dtype=bool)
    else:
        req_ins = slocal

    xbar_requests = np.bincount(s_node, minlength=num_nodes).astype(np.int64)
    dram_requests = np.zeros(num_nodes, dtype=np.int64)
    transfers = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    stats_acc = np.zeros((num_nodes, 3, 2), dtype=np.int64)

    slengths = np.diff(soff)

    # ------------------------------------------------------------------
    # Fully-local launch fast path.  When no access is remotely homed, no
    # L2 set ever sees traffic from more than one node, so per-set order --
    # which probe_batch preserves -- is the only ordering that matters and
    # the entire launch collapses into one fused probe in walk order.
    # Every Monolithic run takes this path.
    # ------------------------------------------------------------------
    if ssec.size and slocal.all():
        chunks = []
        for m in range(trip):
            shift = (m * 7) % max(1, ntb)
            rotated = np.concatenate((order[shift:], order[:shift]))
            blocks = rotated * trip + m
            chunks.append(_concat_ranges(soff[blocks], slengths[blocks]))
        w = np.concatenate(chunks)
        with tr.span("free_probe", cat="walk", accesses=int(w.size)):
            hitw = l2.probe_batch(ssec[w], greq[w], req_ins[w])
        code = s_node[w] * 2 + hitw
        c = np.bincount(code, minlength=num_nodes * 2).reshape(num_nodes, 2)
        stats_acc[:, _LL, 0] += c[:, 0]
        stats_acc[:, _LL, 1] += c[:, 1]
        dram_requests += c[:, 0]
        metrics.faults = page_table.fault_count - faults_before
        return metrics, xbar_requests, dram_requests, transfers, stats_acc

    # ------------------------------------------------------------------
    # Stage 3: the ordered walk.
    #
    # Per iteration, a requester access is *free* when its global set
    # receives no home-side fill this iteration: that set then sees only
    # requester traffic from one node's threadblocks, in a statically known
    # order, so every free access of the iteration fuses into one
    # position-ordered probe regardless of which threadblock issued it.
    # Only *sync* accesses (requester probes of sets on the iteration's
    # home-fill footprint) and the home fills themselves need
    # per-threadblock interleaving; they merge -- by stream position, free
    # misses injecting their home fills at the issuing TB's position --
    # into one event stream handed to the speculative segmented replay
    # (:func:`replay_sync_stream`).  A fully-local iteration (and every
    # Monolithic iteration) has no home fills at all and becomes a single
    # probe call.
    # ------------------------------------------------------------------
    probe = l2.probe_batch
    hot = np.zeros(num_nodes * num_sets, dtype=bool)

    # Speculation predictor: locality-seeded (lp.dominant_locality + the
    # cross-launch store), trained online on every resolved remote
    # requester outcome below.  None => constant assume-miss speculation.
    predictor = None
    if ssec.size:
        predictor = make_launch_predictor(
            lp, config, trace, insert_at_home.size, session=session
        )

    for m in range(trip):
        shift = (m * 7) % max(1, ntb)
        rotated = np.concatenate((order[shift:], order[:shift]))
        blocks = rotated * trip + m
        blens = slengths[blocks]
        idx = _concat_ranges(soff[blocks], blens)
        if idx.size == 0:
            continue
        rem = ~slocal[idx]
        has_hot = False
        freem = None
        if rem.any():
            # Mark/probe/unmark the iteration's home-fill footprint in place;
            # duplicate set ids just re-write the same flag (no unique/sort).
            has_hot = True
            hot_sel = ghome[idx[rem]]
            hot[hot_sel] = True
            freem = ~hot[greq[idx]]
            hot[hot_sel] = False

        # ---- fused free probe (position order) -------------------------
        ev_idx = None  # sync elements, in stream-position order
        ev_fill = None  # per-element home-fill-only flag (None: all requester)
        fidx = idx if freem is None else idx[freem]
        if fidx.size:
            with tr.span("free_probe", cat="walk", iteration=m, accesses=int(fidx.size)):
                fhit = probe(ssec[fidx], greq[fidx], req_ins[fidx])
            floc = slocal[fidx]
            code = s_node[fidx] * 4 + floc * 2 + fhit
            c = np.bincount(code, minlength=num_nodes * 4).reshape(num_nodes, 4)
            stats_acc[:, _LL, 0] += c[:, 2]
            stats_acc[:, _LL, 1] += c[:, 3]
            stats_acc[:, _LR, 0] += c[:, 0]
            stats_acc[:, _LR, 1] += c[:, 1]
            dram_requests += c[:, 2]
            if predictor is not None:
                frem = ~floc
                if frem.any():
                    fr = fidx[frem]
                    # presence only: free-probe hit rates are systematically
                    # higher than the sync residue the rate tier predicts
                    predictor.observe(
                        ssec[fr], s_node[fr], ssite[fr], fhit[frem],
                        train_rates=False,
                    )
            if has_hot:
                sidx = idx[~freem]
                fm = ~(floc | fhit)
                if fm.any():
                    # Merge sync requester accesses with the home fills of
                    # free misses on their stream positions so every fill
                    # lands exactly where the issuing TB put it.
                    p0 = np.nonzero(~freem)[0]
                    p1 = np.nonzero(freem)[0][fm]
                    # p0/p1 partition distinct stream positions: unique keys,
                    # so the faster unstable sort is exact
                    o = np.argsort(np.concatenate((p0, p1)))
                    ev_idx = np.concatenate((sidx, fidx[fm]))[o]
                    ev_fill = np.concatenate(
                        (np.zeros(sidx.size, dtype=bool), np.ones(p1.size, dtype=bool))
                    )[o]
                else:
                    ev_idx = sidx
        elif has_hot:
            # Every access of the iteration is sync (all requester sets sit
            # on the home-fill footprint): the whole stream runs through the
            # speculative replay, in exact walk order.
            ev_idx = idx
        if ev_idx is None or ev_idx.size == 0:
            continue
        if ev_fill is None:
            ev_fill = np.zeros(ev_idx.size, dtype=bool)

        ev_home = shome[ev_idx]
        ev_ins = sins[ev_idx]
        with tr.span("sync_replay", cat="walk", iteration=m, elements=int(ev_idx.size)):
            _, home_present, home_hit = replay_sync_stream(
                l2,
                num_nodes,
                ssec[ev_idx],
                ev_fill,
                slocal[ev_idx],
                s_node[ev_idx],
                ev_home,
                greq[ev_idx],
                ghome[ev_idx],
                req_ins[ev_idx],
                ev_ins,
                stats_acc,
                dram_requests,
                transfers,
                session=session,
                predictor=predictor,
                site=ssite[ev_idx] if predictor is not None else None,
            )
        # Home-side bypasses: realised home events that missed and, per the
        # allocation's RONCE policy, did not insert at the home L2.
        bypass = home_present & ~home_hit & ~ev_ins
        n_bypass = int(bypass.sum())
        if n_bypass and reg.enabled:
            per_node = np.bincount(ev_home[bypass], minlength=num_nodes)
            for nd in np.nonzero(per_node)[0]:
                reg.inc(
                    "l2.bypass", int(per_node[nd]),
                    node=int(nd), strategy=strategy,
                )

    if predictor is not None:
        predictor.finish()
    metrics.faults = page_table.fault_count - faults_before
    return metrics, xbar_requests, dram_requests, transfers, stats_acc
