"""Tests for the CI bench-regression gate script.

The gate's job is to fail loudly; the historical bug it guards against
is the opposite — a gated metric going *missing* (renamed key, dropped
bench section) used to print SKIP and pass, silently disabling the gate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)

spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def full_report(scale=1.0, python="3.11.0"):
    """A report carrying every gated metric, optionally slowed down."""
    report = {}
    for section, key in gate.GATED_METRICS:
        report.setdefault(section, {})[key] = 1e-3 * scale
    report["run_manifest"] = {
        "manifest_version": 1,
        "command": "bench_timing",
        "package_version": "1.0.0",
        "python_version": python,
        "numpy_version": "1.26.0",
        "jobs": 4,
        "wall_s": 1.0,
    }
    return report


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_clean_run_passes():
    assert gate.check(full_report(), full_report(1.5), threshold=2.5) == 0


def test_regression_fails():
    assert gate.check(full_report(), full_report(3.0), threshold=2.5) == 1


def test_missing_metric_fails(capsys):
    current = full_report()
    del current["sta_full_pass"]
    assert gate.check(full_report(), current, threshold=2.5) == 1
    out = capsys.readouterr().out
    assert "MISSING" in out
    assert "SKIP" not in out


def test_missing_metric_in_baseline_fails():
    baseline = full_report()
    baseline["mc"].pop("mc_s_per_sample")
    assert gate.check(baseline, full_report(), threshold=2.5) == 1


def test_allow_missing_downgrades_to_skip(capsys):
    current = full_report()
    del current["mc"]
    rc = gate.check(
        full_report(), current, threshold=2.5, allow_missing=True
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "SKIP (metric missing, allowed)" in out


def test_main_wires_allow_missing_flag(tmp_path):
    baseline = write(tmp_path, "base.json", full_report())
    current = write(tmp_path, "cur.json", {"sta_full_pass": {}})
    argv = ["--current", current, "--baseline", baseline]
    assert gate.main(argv) == 1
    assert gate.main(argv + ["--allow-missing"]) == 0


def test_mc_metric_is_gated():
    assert ("mc", "mc_s_per_sample") in gate.GATED_METRICS


def test_no_in_run_ratio_is_gated():
    """A ratio's denominator is another program leg, which a later
    change may speed up; the gate reads absolute seconds only."""
    for section, key in gate.GATED_METRICS:
        assert not key.endswith("_ratio"), f"{section}.{key}"


def test_committed_baseline_carries_every_gated_metric():
    """The repo's own baseline must never trip the missing-metric gate."""
    baseline_path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "results"
        / "BENCH_timing.json"
    )
    baseline = json.loads(baseline_path.read_text())
    for section, key in gate.GATED_METRICS:
        assert key in baseline.get(section, {}), f"{section}.{key}"


def test_missing_current_manifest_fails(capsys):
    current = full_report()
    del current["run_manifest"]
    assert gate.check(full_report(), current, threshold=2.5) == 1
    assert "run_manifest: MISSING" in capsys.readouterr().out


def test_allow_missing_tolerates_absent_manifest():
    current = full_report()
    del current["run_manifest"]
    rc = gate.check(
        full_report(), current, threshold=2.5, allow_missing=True
    )
    assert rc == 0


def test_baseline_without_manifest_is_tolerated(capsys):
    baseline = full_report()
    del baseline["run_manifest"]
    assert gate.check(baseline, full_report(1.2), threshold=2.5) == 0
    assert "baseline predates run manifests" in capsys.readouterr().out


def test_environment_mismatch_notes_but_passes(capsys):
    baseline = full_report(python="3.10.0")
    current = full_report(1.2, python="3.12.0")
    assert gate.check(baseline, current, threshold=2.5) == 0
    out = capsys.readouterr().out
    assert "python_version differs" in out
    assert "3.10.0 -> 3.12.0" in out


@pytest.mark.parametrize("threshold", [0.5, 1.0])
def test_threshold_must_exceed_one(tmp_path, threshold):
    baseline = write(tmp_path, "base.json", full_report())
    with pytest.raises(SystemExit):
        gate.main(
            ["--current", baseline, "--baseline", baseline,
             "--threshold", str(threshold)]
        )
