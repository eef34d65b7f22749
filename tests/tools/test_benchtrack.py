"""Tests for the perf-regression sentinel (repro.tools.benchtrack)."""

import json
import math

import pytest

from repro.tools.benchtrack import bless, check, compare, main


def baseline(**metrics):
    return {"bench": "demo", "metrics": metrics}


def fresh(**metrics):
    return {"bench": "demo", "metrics": metrics}


def spec(value, tolerance=0.05, direction="both"):
    return {"value": value, "tolerance": tolerance, "direction": direction}


class TestCompare:
    def test_within_band_is_ok(self):
        findings = compare(fresh(p95=104.0), baseline(p95=spec(100.0)))
        assert [f.status for f in findings] == ["ok"]

    def test_max_direction_fails_high_only(self):
        base = baseline(p95=spec(100.0, direction="max"))
        assert compare(fresh(p95=106.0), base)[0].status == "regressed"
        assert compare(fresh(p95=50.0), base)[0].status == "ok"  # faster is fine

    def test_min_direction_fails_low_only(self):
        base = baseline(hit_rate=spec(0.9, direction="min"))
        assert compare(fresh(hit_rate=0.5), base)[0].status == "regressed"
        assert compare(fresh(hit_rate=0.99), base)[0].status == "ok"

    def test_both_direction_fails_either_way(self):
        base = baseline(canary=spec(100.0, direction="both"))
        assert compare(fresh(canary=110.0), base)[0].status == "regressed"
        assert compare(fresh(canary=90.0), base)[0].status == "regressed"
        assert compare(fresh(canary=102.0), base)[0].status == "ok"

    def test_zero_baseline_uses_absolute_band(self):
        base = baseline(drops=spec(0.0, tolerance=0.5, direction="max"))
        assert compare(fresh(drops=0.4), base)[0].status == "ok"
        assert compare(fresh(drops=0.6), base)[0].status == "regressed"

    def test_zero_tolerance_gates_exactly(self):
        # The host-work gate's bands: any move of a counter, however
        # small, and of a zero counter too, is a regression.
        base = baseline(calls=spec(14.3, tolerance=0.0), hedges=spec(0.0, tolerance=0.0))
        assert [f.status for f in compare(fresh(calls=14.3, hedges=0.0), base)] == ["ok", "ok"]
        for moved in (
            fresh(calls=15.3, hedges=0.0),
            fresh(calls=math.nextafter(14.3, 0.0), hedges=0.0),
            fresh(calls=14.3, hedges=1e-300),
        ):
            assert not all(f.ok for f in compare(moved, base))

    def test_missing_metric_is_a_failure(self):
        findings = compare(fresh(), baseline(p95=spec(100.0)))
        assert findings[0].status == "missing"
        assert not findings[0].ok

    def test_new_metric_is_informational(self):
        findings = compare(fresh(extra=1.0), baseline())
        assert findings[0].status == "new"
        assert findings[0].ok

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            compare(fresh(x=1.0), baseline(x=spec(1.0, direction="up")))

    def test_regression_message_names_the_metric(self):
        finding = compare(
            fresh(p95=200.0), baseline(p95=spec(100.0, direction="max"))
        )[0]
        text = str(finding)
        assert "REGRESSED" in text and "demo.p95" in text


class TestCheckAndBless:
    def write(self, directory, name, document):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(document))

    def test_bless_then_check_round_trips(self, tmp_path):
        results, baselines = tmp_path / "results", tmp_path / "baselines"
        self.write(results, "BENCH_demo.json", fresh(p95=100.0, drop=0.1))
        written = bless(results=results, baselines=baselines)
        assert [p.name for p in written] == ["BENCH_demo.json"]
        findings, problems = check(results=results, baselines=baselines)
        assert not problems
        assert all(f.ok for f in findings)

    def test_bless_preserves_existing_tolerance_and_direction(self, tmp_path):
        results, baselines = tmp_path / "results", tmp_path / "baselines"
        self.write(results, "BENCH_demo.json", fresh(p95=120.0))
        self.write(
            baselines,
            "BENCH_demo.json",
            baseline(p95=spec(100.0, tolerance=0.2, direction="max")),
        )
        bless(results=results, baselines=baselines)
        blessed = json.loads((baselines / "BENCH_demo.json").read_text())
        assert blessed["metrics"]["p95"] == {
            "value": 120.0,
            "tolerance": 0.2,
            "direction": "max",
        }

    def test_check_flags_missing_baseline_and_stale_baseline(self, tmp_path):
        results, baselines = tmp_path / "results", tmp_path / "baselines"
        self.write(results, "BENCH_new.json", fresh(x=1.0))
        self.write(baselines, "BENCH_gone.json", baseline(x=spec(1.0)))
        _, problems = check(results=results, baselines=baselines)
        assert any("no committed baseline for BENCH_new.json" in p for p in problems)
        assert any("BENCH_gone.json has no fresh result" in p for p in problems)

    def test_check_skips_nonconforming_json(self, tmp_path):
        results, baselines = tmp_path / "results", tmp_path / "baselines"
        baselines.mkdir()
        self.write(results, "BENCH_wallclock.json", {"jpeg": {"items_per_sec": 1e6}})
        _, problems = check(results=results, baselines=baselines)
        # The schema-less file is invisible, so the only problem is the
        # empty fresh set.
        assert problems == [f"no BENCH_*.json results under {results}"]


class TestCli:
    def write(self, directory, name, document):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(document))

    def args(self, tmp_path, command):
        return [
            command,
            "--results",
            str(tmp_path / "results"),
            "--baselines",
            str(tmp_path / "baselines"),
        ]

    def test_check_exits_zero_when_clean(self, tmp_path, capsys):
        self.write(tmp_path / "results", "BENCH_demo.json", fresh(p95=100.0))
        assert main(self.args(tmp_path, "bless")) == 0
        assert main(self.args(tmp_path, "check")) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_check_exits_nonzero_and_names_the_regressed_metric(
        self, tmp_path, capsys
    ):
        self.write(
            tmp_path / "baselines",
            "BENCH_demo.json",
            baseline(p95=spec(100.0, direction="max")),
        )
        self.write(tmp_path / "results", "BENCH_demo.json", fresh(p95=150.0))
        assert main(self.args(tmp_path, "check")) == 1
        out = capsys.readouterr().out
        assert "REGRESSED demo.p95" in out
        assert "FAILED" in out

    def test_check_exits_nonzero_with_no_results(self, tmp_path, capsys):
        (tmp_path / "results").mkdir()
        (tmp_path / "baselines").mkdir()
        assert main(self.args(tmp_path, "check")) == 1
        assert "no BENCH_*.json results" in capsys.readouterr().out
