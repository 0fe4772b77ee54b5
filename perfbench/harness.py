"""Shared measurement helpers: percentiles, memory, set-up timing, the
per-checkout counter ledger and the run report."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here, inside the checkout.
STATE_DIR = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


def nearest_rank(sorted_vals: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-quantile of an ascending sequence."""
    k = max(1, math.ceil(p * len(sorted_vals)))
    return sorted_vals[k - 1]


#: Tail percentiles, highest first.
TAILS = ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"))


def record_passes(report: "Report", passes: Sequence[Tuple[float, List[float], int]]) -> None:
    """The window's end-to-end metrics from its passes.

    Each pass is ``(wall_s, latencies_s, failed)`` and carries the same
    mix.  Wall time, throughput (answered operations over wall time) and
    median latency are taken per pass and the median over passes is
    reported.  The tail is the highest of p90/p99/p99.9 with at least
    ten samples beyond it in every pass, read over all the window's
    samples; a failed operation counts as beyond every percentile, at the
    longest pass wall (no answered operation waited longer), so the
    figure stays finite.
    """
    report.metrics["sweep_s"] = median([wall for wall, _, _ in passes])
    report.metrics["throughput_qps"] = median([len(lat) / wall for wall, lat, _ in passes])
    report.metrics["latency_p50_ms"] = median(
        [nearest_rank(sorted(lat), 0.5) for _, lat, _ in passes]
    ) * 1e3
    smallest = min(len(lat) + failed for _, lat, failed in passes)
    p, label = next(
        ((p, label) for p, label in TAILS if smallest * (1.0 - p) >= 10), (1.0, "max")
    )
    pooled = sorted(x for _, lat, _ in passes for x in lat)
    pooled += [max(wall for wall, _, _ in passes)] * sum(failed for _, _, failed in passes)
    report.metrics["latency_tail_ms"] = nearest_rank(pooled, p) * 1e3
    report.attempted += len(pooled)
    report.failed += sum(failed for _, _, failed in passes)
    report.note(
        "window: %d pass(es), walls %s s; tail = %s of %d samples (%d per pass)"
        % (len(passes), ["%.3f" % wall for wall, _, _ in passes], label, len(pooled), smallest)
    )


def record_peak_rss(report: "Report") -> None:
    """``peak_rss_mb``: peak RSS of this process plus its largest reaped child.

    Called when the timed window has ended and its children are reaped,
    before the output checks, whose direct re-execution would otherwise
    add its own memory to the figure.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    report.metrics["peak_rss_mb"] = own + child
    report.note(f"peak RSS: this process {own:.1f} MB, largest child {child:.1f} MB")


def import_wall_s(modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules`` from the tree.

    This is the start-up a user of the command pays before any work.  The
    child is waited for; a failed import raises.
    """
    code = "import sys; sys.path.insert(0, %r); import %s" % (
        str(SRC),
        ", ".join(modules),
    )
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms steps.
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def state_dir() -> Path:
    STATE_DIR.mkdir(exist_ok=True)
    return STATE_DIR


def code_digest() -> str:
    """sha256 over the program's sources and the benchmark's own files."""
    files = [p for p in SRC.rglob("*") if p.is_file() and p.suffix != ".pyc"]
    files += Path(__file__).parent.glob("*.py")
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Ledger:
    """Deterministic work counters of earlier runs of the same code in this
    checkout.

    Each run compares its counters with the first run of the same code that
    recorded the same key; any difference is nondeterminism and is
    reported, never averaged.  The key starts with :func:`code_digest`, so
    a change to the program that legitimately changes a counter starts a
    fresh record, and runs of different commits never meet.  The rest of
    the key carries whatever else the counters depend on (the seed of a
    serve run).
    """

    def __init__(self) -> None:
        self.code = code_digest()
        self.path = state_dir() / "ledger.json"
        try:
            self.doc = json.loads(self.path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.doc = {}

    def drift(self, key: str, counters: Dict[str, object]) -> List[str]:
        """Names whose value differs from the recorded one; records new keys."""
        known = self.doc.setdefault(f"{self.code}|{key}", {})
        drifted = [
            f"{name}: {known[name]} -> {value}"
            for name, value in counters.items()
            if name in known and known[name] != value
        ]
        for name, value in counters.items():
            known.setdefault(name, value)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return drifted


class Report:
    """What one run found: metrics, named checks, counters and notes."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.absent: List[str] = []
        self.checks: List[Tuple[str, bool, str]] = []
        self.counters: Dict[str, object] = {}
        #: Ledger key: what the counters may legitimately depend on.
        self.ledger_key = ""
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def note(self, line: str) -> None:
        self.notes.append(line)

    def span_metric(self, name: str, value: float, present: bool) -> None:
        """A per-layer value; ``present`` is False when the span it reads
        never appeared although its parent layer ran, or when the value is
        undefined on this run (a median or ratio over nothing)."""
        self.metrics[name] = value
        if not present:
            self.absent.append(name)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
