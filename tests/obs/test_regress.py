"""Baseline-diff watchdog: tolerances, floors, kinds and the CLI gate."""

import json

import pytest

from repro.obs.regress import (
    SERVE_SPECS,
    RegressSpec,
    compare_reports,
    gate_failures,
    main,
    reports_same_scale,
)

SPEC_UP = RegressSpec("speedup", "warm_speedup", "higher", 0.2, floor=1.5)
SPEC_DOWN = RegressSpec("p95", "warm.latency_s.p95", "lower", 0.5)


def _statuses(findings):
    return {f["name"]: f["status"] for f in findings}


class TestCompare:
    def test_identical_reports_are_ok(self):
        report = {"warm_speedup": 10.0, "warm": {"latency_s": {"p95": 0.1}}}
        findings = compare_reports(report, report, (SPEC_UP, SPEC_DOWN))
        assert _statuses(findings) == {"speedup": "ok", "p95": "ok"}

    def test_higher_better_regression(self):
        base = {"warm_speedup": 10.0}
        ok = compare_reports({"warm_speedup": 8.5}, base, (SPEC_UP,))
        assert _statuses(ok)["speedup"] == "ok"  # within 20%
        bad = compare_reports({"warm_speedup": 7.9}, base, (SPEC_UP,))
        assert _statuses(bad)["speedup"] == "regressed"

    def test_improvement_never_fails(self):
        base = {"warm_speedup": 10.0, "warm": {"latency_s": {"p95": 0.1}}}
        cur = {"warm_speedup": 99.0, "warm": {"latency_s": {"p95": 0.001}}}
        findings = compare_reports(cur, base, (SPEC_UP, SPEC_DOWN))
        assert all(f["status"] == "ok" for f in findings)

    def test_lower_better_regression(self):
        base = {"warm": {"latency_s": {"p95": 0.1}}}
        bad = {"warm": {"latency_s": {"p95": 0.2}}}
        findings = compare_reports(bad, base, (SPEC_DOWN,))
        assert _statuses(findings)["p95"] == "regressed"

    def test_cross_scale_uses_floor_only(self):
        base = {"warm_speedup": 10.0}
        ok = compare_reports(
            {"warm_speedup": 2.0}, base, (SPEC_UP,), same_scale=False
        )
        assert _statuses(ok)["speedup"] == "ok"  # above the 1.5 floor
        bad = compare_reports(
            {"warm_speedup": 1.0}, base, (SPEC_UP,), same_scale=False
        )
        assert _statuses(bad)["speedup"] == "regressed"

    def test_cross_scale_without_floor_is_skipped(self):
        findings = compare_reports(
            {"warm": {"latency_s": {"p95": 9.0}}},
            {"warm": {"latency_s": {"p95": 0.1}}},
            (SPEC_DOWN,),
            same_scale=False,
        )
        assert _statuses(findings)["p95"] == "skipped"

    def test_missing_metric_fails_the_gate(self):
        findings = compare_reports({}, {"warm_speedup": 10.0}, (SPEC_UP,))
        assert _statuses(findings)["speedup"] == "missing"
        assert gate_failures(findings)

    def test_gate_failures_collects_only_bad(self):
        base = {"warm_speedup": 10.0, "warm": {"latency_s": {"p95": 0.1}}}
        cur = {"warm_speedup": 1.0, "warm": {"latency_s": {"p95": 0.1}}}
        findings = compare_reports(cur, base, (SPEC_UP, SPEC_DOWN))
        failures = gate_failures(findings)
        assert len(failures) == 1 and "speedup" in failures[0]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegressSpec("x", "p", direction="sideways")
        with pytest.raises(ValueError):
            RegressSpec("x", "p", rel_tol=1.5)


class TestKinds:
    def test_same_scale(self):
        a = {"meta": {"smoke": True}}
        b = {"meta": {"smoke": False}}
        assert reports_same_scale(a, a)
        assert not reports_same_scale(a, b)
        assert not reports_same_scale(a, {})

    def test_default_specs_cover_committed_reports(self):
        # Every default spec path must resolve in the committed baselines,
        # otherwise a --gate run would report it as missing forever.
        from pathlib import Path

        from repro.obs.slo import stats_path

        root = Path(__file__).resolve().parents[2]
        serve = json.loads((root / "BENCH_serve.json").read_text())
        for spec in SERVE_SPECS:
            assert isinstance(stats_path(serve, spec.path), (int, float)), spec


class TestCLI:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_gate_passes_on_self_diff(self, tmp_path, capsys):
        doc = {
            "schema": "repro-servebench-v1",
            "meta": {"smoke": False},
            "warm_speedup": 10.0,
            "cold": {"dedup_ratio": 4.0},
            "warm": {"latency_s": {"p95": 0.1}},
        }
        path = self._write(tmp_path, "r.json", doc)
        assert main(["--current", path, "--baseline", path, "--gate"]) == 0
        assert "all specs within tolerance" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        base = {
            "schema": "repro-servebench-v1",
            "meta": {"smoke": False},
            "warm_speedup": 10.0,
            "cold": {"dedup_ratio": 4.0},
            "warm": {"latency_s": {"p95": 0.1}},
        }
        cur = dict(base, warm_speedup=1.0)
        bpath = self._write(tmp_path, "base.json", base)
        cpath = self._write(tmp_path, "cur.json", cur)
        assert main(["--current", cpath, "--baseline", bpath, "--gate"]) == 1
        assert "REGRESS FAIL" in capsys.readouterr().err

    def test_findings_json_written(self, tmp_path):
        doc = {
            "schema": "repro-servebench-v1",
            "meta": {"smoke": True},
            "warm_speedup": 2.0,
            "cold": {"dedup_ratio": 4.0},
            "warm": {"latency_s": {"p95": 0.1}},
        }
        path = self._write(tmp_path, "r.json", doc)
        out = str(tmp_path / "findings.json")
        assert main(["--current", path, "--baseline", path, "--json", out]) == 0
        written = json.loads((tmp_path / "findings.json").read_text())
        assert written["same_scale"] is True
        assert {f["name"] for f in written["findings"]} == {
            s.name for s in SERVE_SPECS
        }
