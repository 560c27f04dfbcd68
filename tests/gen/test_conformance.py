"""Tests for the differential conformance harness.

One fast end-to-end battery on a small seed, the strict 10-seed CLI
sweep, plus unit coverage of the report mechanics and the
backend-agreement checker's failure mode.
"""

from __future__ import annotations

import pytest

from repro.gen import (
    ConformanceReport,
    conform_design,
    run_conformance,
    sample_design,
    sample_workload,
)
from repro.gen.conformance import CHECKS, check_backend_agreement
from tests.integration.test_fig11_strict_gate import _repro


def test_full_battery_passes_on_small_seed():
    reports = run_conformance([0], complexity="small",
                              n_train=12, n_test=6)
    assert len(reports) == 1
    report = reports[0]
    assert tuple(report.checks) == CHECKS
    assert report.passed, report.failures
    assert report.failures == {}
    assert "PASS" in report.summary()


def test_strict_battery_checks_each_run_once(monkeypatch):
    """Under ``REPRO_CHECK=strict`` the battery still checks each
    episode and each stream once, itself."""
    from repro.gen.conformance import EPISODE_SCHEMES
    from repro.obs import session

    monkeypatch.setenv("REPRO_CHECK", "strict")
    with session(command="conform") as obs:
        (report,) = run_conformance([0], complexity="small",
                                    n_train=12, n_test=6)
    assert report.passed, report.failures
    counters = obs.metrics.counters
    # One episode per scheme and technology; one stream per scenario
    # and deadline class.
    assert counters["check.episodes"] == 2 * len(EPISODE_SCHEMES)
    assert counters["check.streams"] == 5


def test_strict_sweep_passes_every_sampled_design():
    """``REPRO_CHECK=strict repro conform --seeds 10 --complexity
    medium`` in a subprocess, as a user runs it: ten sampled designs,
    every check on each, including both backends against each other
    with fast-forward on and off."""
    result = _repro("conform", "--seeds", "10", "--complexity", "medium",
                    REPRO_CHECK="strict")
    assert result.returncode == 0, result.stdout[-2000:]
    lines = result.stdout.splitlines()
    assert sum(" PASS " in line for line in lines) == 10
    assert lines[-1] == "conform: 10/10 designs pass (medium, 10 seed(s))"


def test_report_mechanics():
    report = ConformanceReport(design="gen0_s", seed=0,
                               complexity="small")
    assert not report.passed  # no checks run yet
    report.checks["lint"] = None
    report.checks["flow"] = "boom"
    assert not report.passed
    assert report.failures == {"flow": "boom"}
    assert "FAIL" in report.summary()
    assert "flow" in report.summary()
    report.checks["flow"] = None
    assert report.passed


def test_backend_agreement_runs_clean():
    design = sample_design(1, "small")
    check_backend_agreement(design, sample_workload(design, 2, seed=3))


def test_backend_agreement_catches_divergence():
    """A design that never terminates must be reported, not hung."""
    design = sample_design(1, "small")
    with pytest.raises(RuntimeError,
                       match="did not finish within 3 cycles on gen1_s"):
        check_backend_agreement(design,
                                sample_workload(design, 1, seed=3),
                                max_cycles=3)


def test_conform_design_survives_broken_designs():
    """conform_design never raises: a sabotaged design yields a FAIL
    report whose downstream checks are skipped, not a crash."""
    design = sample_design(0, "small")
    design.encode_job = None  # break every job-encoding consumer
    report = conform_design(design, n_train=4, n_test=2)
    assert not report.passed
    assert tuple(report.checks) == CHECKS
    # Lint and Verilog only need the module, so they still pass.
    assert report.checks["lint"] is None
    assert report.checks["verilog"] is None
    assert report.checks["backends"] is not None
    assert report.checks["flow"] is not None
    assert report.checks["episode:asic"].startswith("skipped")
    assert report.checks["stream:poisson"].startswith("skipped")
