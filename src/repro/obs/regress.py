"""Baseline-diff regression watchdog (``repro regress``).

``repro servebench`` commits its report (``BENCH_serve.json``).  This
module is the one place that knows how to *diff* a fresh report against a
committed baseline: a :class:`RegressSpec` names a dotted metric path, whether
higher or lower is better, the relative tolerance a same-scale run must
stay within, and an optional absolute sanity floor for cross-scale runs
(wall-clock ratios do not transfer between smoke and bench scale, but a
metric falling below its floor means the mechanism rotted wholesale).

:func:`compare_reports` returns one finding per spec (``ok`` /
``regressed`` / ``skipped`` / ``missing``) and stamps ``regress.*``
counters into the process-wide observability session so CI artifacts
record what was checked.  ``repro regress --current FILE --baseline FILE
--gate`` exits 1 on any regression; :mod:`repro.experiments.servebench`
routes its ``--gate`` scalar checks through the same specs instead of
hand-rolled 20% arithmetic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs import current as obs_current
from repro.obs.slo import stats_path

__all__ = [
    "RegressSpec",
    "SERVE_SPECS",
    "compare_reports",
    "gate_failures",
    "reports_same_scale",
    "main",
]


@dataclass(frozen=True)
class RegressSpec:
    """One gated metric: where it lives and how much drift it may show.

    ``rel_tol`` bounds same-scale drift in the *bad* direction only (a
    higher-better metric may improve without limit).  ``floor`` is the
    absolute cross-scale sanity bound applied when the baseline ran at a
    different scale; ``None`` skips the metric cross-scale.
    """

    name: str
    path: str
    direction: str = "higher"  # "higher" or "lower" is better
    rel_tol: float = 0.2
    floor: Optional[float] = None

    def __post_init__(self):
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction {self.direction!r}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol {self.rel_tol!r} not in (0, 1)")


#: ``repro servebench`` scalars (BENCH_serve.json).  The warm-speedup
#: cross-scale floor mirrors the old ``CROSS_SCALE_SPEEDUP_FLOOR``: a warm
#: store not even 1.5x faster than cold simulation is broken anywhere.
SERVE_SPECS = (
    RegressSpec("warm_speedup", "warm_speedup", "higher", 0.2, floor=1.5),
    RegressSpec("cold_dedup_ratio", "cold.dedup_ratio", "higher", 0.2),
    RegressSpec("warm_p95_s", "warm.latency_s.p95", "lower", 0.5),
)


def compare_reports(
    current: Dict,
    baseline: Dict,
    specs: Sequence[RegressSpec],
    same_scale: bool = True,
) -> List[Dict]:
    """Diff ``current`` against ``baseline`` under ``specs``; findings.

    Each finding: ``{"name", "path", "status", "current", "baseline",
    "limit", "detail"}`` with status ``ok`` (within tolerance),
    ``regressed`` (drifted past it, or under the cross-scale floor),
    ``missing`` (the fresh report lacks the metric -- always a gate
    failure: silently dropping a gated metric is itself a regression) or
    ``skipped`` (no baseline value and no applicable floor).
    """
    obs = obs_current()
    findings: List[Dict] = []
    for spec in specs:
        cur = stats_path(current, spec.path)
        ref = stats_path(baseline, spec.path) if baseline else None
        finding = {
            "name": spec.name,
            "path": spec.path,
            "status": "ok",
            "current": cur,
            "baseline": ref,
            "limit": None,
            "detail": "",
        }
        obs.counters.inc("regress.checked", spec=spec.name)
        if not isinstance(cur, (int, float)):
            finding["status"] = "missing"
            finding["detail"] = f"current report has no numeric {spec.path}"
        elif same_scale and isinstance(ref, (int, float)) and ref > 0:
            if spec.direction == "higher":
                limit = (1.0 - spec.rel_tol) * ref
                bad = cur < limit
            else:
                limit = (1.0 + spec.rel_tol) * ref
                bad = cur > limit
            finding["limit"] = limit
            if bad:
                finding["status"] = "regressed"
                finding["detail"] = (
                    f"{spec.name} regressed: {cur:.3f} past "
                    f"{spec.rel_tol:.0%} of baseline {ref:.3f} "
                    f"({spec.direction} is better)"
                )
        elif spec.floor is not None:
            finding["limit"] = spec.floor
            bad = (
                cur < spec.floor
                if spec.direction == "higher"
                else cur > spec.floor
            )
            if bad:
                finding["status"] = "regressed"
                finding["detail"] = (
                    f"{spec.name} regressed: {cur:.3f} beyond "
                    f"cross-scale sanity bound {spec.floor:.3f}"
                )
        else:
            finding["status"] = "skipped"
            finding["detail"] = "no same-scale baseline and no floor"
        if finding["status"] == "regressed":
            obs.counters.inc("regress.regressed", spec=spec.name)
        findings.append(finding)
    return findings


def gate_failures(findings: Sequence[Dict]) -> List[str]:
    """The human-readable failure lines a ``--gate`` run exits 1 on."""
    out: List[str] = []
    for f in findings:
        if f["status"] == "regressed":
            out.append(f["detail"])
        elif f["status"] == "missing":
            out.append(f["detail"] or f"missing metric {f['path']}")
    return out


def reports_same_scale(current: Dict, baseline: Dict) -> bool:
    """Whether two servebench reports ran at comparable scale."""
    cm = current.get("meta", {}) or {}
    bm = baseline.get("meta", {}) or {}
    return cm.get("smoke") == bm.get("smoke")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro regress",
        description="diff a fresh bench report against a committed baseline",
    )
    parser.add_argument(
        "--current", required=True, metavar="FILE", help="fresh report JSON"
    )
    parser.add_argument(
        "--baseline",
        required=True,
        metavar="FILE",
        help="committed BENCH_serve.json",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when any spec regressed or went missing",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE", help="write findings JSON"
    )
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    same = reports_same_scale(current, baseline)
    findings = compare_reports(current, baseline, SERVE_SPECS, same_scale=same)

    scale_note = "same-scale" if same else "cross-scale"
    print(f"regress: {scale_note} vs {args.baseline}")
    for f in findings:
        cur = "n/a" if f["current"] is None else f"{f['current']:.3f}"
        ref = "n/a" if f["baseline"] is None else f"{f['baseline']:.3f}"
        lim = "" if f["limit"] is None else f" limit={f['limit']:.3f}"
        print(
            f"  {f['status'].upper():<9} {f['name']:<22} "
            f"current={cur} baseline={ref}{lim}"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"same_scale": same, "findings": findings},
                fh,
                indent=2,
            )
        print(f"  wrote {args.json}")
    failures = gate_failures(findings)
    for line in failures:
        print(f"  REGRESS FAIL: {line}", file=sys.stderr)
    if args.gate and failures:
        return 1
    if not failures:
        print("  regress: all specs within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
