"""Per-layer sums of one traced run, aggregated by span path.

Every span event carries its name path: the spans open on its tracer when
it began.  Worker spans arrive from the serve layer already re-parented
under the dispatching server span, and the benchmark hangs a server's
query-scoped spans under its own client span by prefixing their paths
(:func:`prefixed`).  Spans are merged by path, as
``repro.obs.export.flame_summary`` does: a path's total is the sum of its
spans' durations, and its self time is that total minus the totals of its
direct child paths -- the unattributed remainder of that level.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

Path = Tuple[str, ...]


def prefixed(events: Iterable[Dict], prefix: Path) -> List[Dict]:
    """``events`` with ``prefix`` prepended to the path of every event that
    carries a trace id (the spans a server recorded for one query)."""
    out = []
    for ev in events:
        if ev.get("trace_id") is not None:
            ev = dict(ev, path=prefix + tuple(ev["path"]))
        out.append(ev)
    return out


class Layers:
    """Span totals, counts and self times by path, and sums by span name."""

    def __init__(self, events: Iterable[Dict]):
        self.events = list(events)
        self.count: Dict[Path, int] = defaultdict(int)
        self.total_ns: Dict[Path, int] = defaultdict(int)
        for ev in self.events:
            path = tuple(ev["path"])
            self.count[path] += 1
            self.total_ns[path] += ev["dur_ns"]
        self.child_ns: Dict[Path, int] = defaultdict(int)
        self.children: Dict[Path, List[Path]] = defaultdict(list)
        for path in self.count:
            self.children[path[:-1]].append(path)
            if len(path) > 1:
                self.child_ns[path[:-1]] += self.total_ns[path]

    def self_ns(self, path: Path) -> int:
        return self.total_ns[path] - self.child_ns[path]

    def _paths(self, name: str) -> List[Path]:
        return [p for p in self.count if p[-1] == name]

    def n(self, name: str) -> int:
        return sum(self.count[p] for p in self._paths(name))

    def present(self, name: str) -> bool:
        return self.n(name) > 0

    def total_s(self, name: str) -> float:
        return sum(self.total_ns[p] for p in self._paths(name)) / 1e9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns(p) for p in self._paths(name)) / 1e9

    def spans(self, name: str) -> List[Dict]:
        return [ev for ev in self.events if ev["name"] == name]

    def arg_sum(self, name: str, arg: str) -> int:
        return sum(int(ev["args"].get(arg, 0)) for ev in self.spans(name))

    def oversized(self) -> List[Path]:
        """Paths whose child paths add up to more than the path itself.

        Children run inside their parent, so this never happens unless a
        parent span went unrecorded.
        """
        return [p for p in self.count if self.child_ns[p] > self.total_ns[p]]

    def tree_lines(self) -> List[str]:
        """Count and total per path, and under every path with children
        its unattributed remainder (self) as its own row."""
        lines: List[str] = []

        def emit(path: Path) -> None:
            pad = "  " * (len(path) - 1)
            lines.append(f"{pad}{path[-1]:<{40 - len(pad)}} n={self.count[path]:<7d} "
                         f"total={self.total_ns[path] / 1e9:9.3f}s")
            kids = self.children.get(path)
            if kids:
                for child in sorted(kids, key=lambda k: -self.total_ns[k]):
                    emit(child)
                lines.append(f"{pad}  {'(unattributed)':<{38 - len(pad)}} {'':9} "
                             f"total={self.self_ns(path) / 1e9:9.3f}s")

        for root in sorted(self.children.get((), ()), key=lambda k: -self.total_ns[k]):
            emit(root)
        return lines


def check_nesting(report, layers: Layers) -> None:
    oversized = layers.oversized()
    report.check(
        "trace.children_within_parent", not oversized,
        "oversized: " + ", ".join("/".join(p) for p in oversized[:5]) if oversized
        else "no span path's children add up to more than the path",
    )


def engine_counters(layers: Layers) -> Dict[str, int]:
    """Deterministic engine work counts read off the walk spans."""
    return {
        "engine.launches": layers.n("launch"),
        "engine.walks": layers.n("walk"),
        "engine.free_events": layers.arg_sum("free_probe", "accesses"),
        "engine.sync_events": layers.arg_sum("sync_replay", "elements"),
        "engine.repair_rounds": layers.n("repair_round"),
        "engine.trace_builds": layers.n("trace.build"),
    }


def engine_layer_metrics(report, layers: Layers) -> None:
    """Per-layer engine numbers from the program's own spans.

    A sub-span that never appeared although its parent layer ran is
    reported absent (the walk ran but emitted no ``free_probe``, say).
    """
    walked = layers.present("walk")
    fetches = layers.n("trace.fetch")
    builds = layers.n("trace.build")
    launches = layers.n("launch")
    probes_n = layers.n("memo.probe")
    memo_hits = launches - layers.n("walk")
    free = layers.arg_sum("free_probe", "accesses")
    sync = layers.arg_sum("sync_replay", "elements")
    rounds = [int(ev["args"].get("round", 0)) for ev in layers.spans("repair_round")]
    first_rounds = sum(1 for r in rounds if r == 1)
    m = report.span_metric
    m("engine.run_s", layers.total_s("engine.run") or layers.total_s("run"), True)
    m("engine.run_self_s", layers.self_s("run"), layers.present("run") or not launches)
    m("engine.launch_self_s", layers.self_s("launch"), True)
    m("engine.trace_s", layers.total_s("trace.fetch"), fetches > 0 or not launches)
    m("engine.trace_build_s", layers.total_s("trace.build"), True)
    m("engine.trace_cache_hits", float(fetches - builds), fetches > 0 or not launches)
    m("engine.trace_cache_misses", float(builds), True)
    m("engine.trace_cache_hit_ratio", (fetches - builds) / fetches if fetches else 0.0,
      fetches > 0)
    m("engine.memo_probe_s", layers.total_s("memo.probe"), True)
    m("engine.memo_hits", float(memo_hits), True)
    m("engine.memo_hit_ratio", memo_hits / probes_n if probes_n else 0.0, probes_n > 0)
    m("engine.memo_ineligible", float(launches - probes_n), True)
    m("engine.walk_s", layers.total_s("walk"), True)
    m("engine.walk_free_s", layers.total_s("free_probe"),
      layers.present("free_probe") or not walked)
    m("engine.walk_sync_s", layers.total_s("sync_replay"),
      layers.present("sync_replay") or not walked)
    m("engine.walk_self_s", layers.self_s("walk"), True)
    m("engine.sync_self_s", layers.self_s("sync_replay"), True)
    m("engine.repair_s", layers.total_s("repair_round"),
      layers.present("repair_round") or not layers.present("sync_replay"))
    m("engine.free_events", float(free), layers.present("free_probe") or not walked)
    m("engine.sync_events", float(sync), layers.present("sync_replay") or not walked)
    probes = free + sync
    m("engine.l2_probes", float(probes),
      (layers.present("free_probe") and layers.present("sync_replay")) or not walked)
    m("engine.walk_ns_per_probe", layers.total_s("walk") * 1e9 / probes if probes else 0.0,
      probes > 0 or not walked)
    m("engine.repair_rounds", float(len(rounds)),
      layers.present("repair_round") or not layers.present("sync_replay"))
    # Share of speculative replays whose first round guessed wrong, so that
    # a second repair round ran.
    m("engine.spec_mispredict_ratio",
      sum(1 for r in rounds if r == 2) / first_rounds if first_rounds else 0.0,
      first_rounds > 0 or not layers.present("sync_replay"))
    m("engine.finalize_s", layers.total_s("finalize"), layers.present("finalize") or not launches)
