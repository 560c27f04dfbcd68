"""Golden-trace harness tests: canonicalization, diffing, storage."""

import json
import math
from pathlib import Path

from repro.check import (
    GOLDEN_SCHEMA_VERSION,
    canonical_episode,
    diff_against_golden,
    diff_canonical,
    golden_path,
    load_golden,
    make_golden_payload,
    round_sig,
    save_golden,
)


def test_round_sig_keeps_significant_digits():
    assert round_sig(123456.789, 3) == 123000.0
    assert round_sig(0.00123456789, 3) == 0.00123
    assert round_sig(-9.87654321e-7, 4) == -9.877e-7
    assert round_sig(0.0) == 0.0
    assert round_sig(float("inf")) == float("inf")
    assert math.isnan(round_sig(float("nan")))


def test_canonical_episode_is_json_stable(clean_episode):
    payload = canonical_episode(clean_episode)
    assert payload["controller"] == "history"
    assert payload["n_jobs"] == clean_episode.n_offered
    assert payload["switch_count"] >= 1
    assert len(payload["jobs"]) == clean_episode.n_offered
    # Canonicalization survives a JSON round-trip unchanged — the whole
    # point of rounding to a fixed number of significant digits.
    assert json.loads(json.dumps(payload)) == payload
    assert diff_canonical(payload, json.loads(json.dumps(payload))) == []


def test_diff_canonical_number_tolerances():
    # "energy" fields get the loose 1e-6 tolerance ...
    assert diff_canonical({"energy": 1.0}, {"energy": 1.0 + 5e-7}) == []
    assert diff_canonical({"energy": 1.0}, {"energy": 1.0 + 5e-6})
    # ... while unlisted numeric fields compare at the tight default.
    assert diff_canonical({"t_exec": 1.0}, {"t_exec": 1.0 + 1e-10}) == []
    assert diff_canonical({"t_exec": 1.0}, {"t_exec": 1.0 + 1e-8})


def test_diff_canonical_tolerance_keyed_on_innermost_field():
    current = {"jobs": [{"index": 0, "energy": 2.0}]}
    golden = {"jobs": [{"index": 0, "energy": 2.0 * (1 + 5e-7)}]}
    assert diff_canonical(current, golden) == []


def test_diff_canonical_structure_mismatches():
    assert any("absent in golden" in line for line in
               diff_canonical({"a": 1, "b": 2}, {"a": 1}))
    assert any("absent now" in line for line in
               diff_canonical({"a": 1}, {"a": 1, "b": 2}))
    assert any("length" in line for line in
               diff_canonical({"jobs": [1, 2]}, {"jobs": [1]}))
    # Flags compare exactly, never through a float tolerance.
    assert diff_canonical({"missed": True}, {"missed": False})
    assert diff_canonical({"controller": "pid"}, {"controller": "oracle"})


def test_golden_path_layout():
    assert golden_path("/g", "aes", "asic") == Path("/g/aes_asic.json")


def test_save_load_diff_roundtrip(tmp_path, clean_episode):
    payload = make_golden_payload(
        "synthetic", "asic", 0.05,
        {"history": canonical_episode(clean_episode)})
    assert payload["schema"] == GOLDEN_SCHEMA_VERSION
    path = golden_path(tmp_path, "synthetic", "asic")
    save_golden(path, payload)
    assert load_golden(path) == payload
    assert diff_against_golden(payload, path) == []


def test_diff_against_missing_golden_returns_none(tmp_path):
    payload = make_golden_payload("synthetic", "asic", 0.05, {})
    assert diff_against_golden(
        payload, golden_path(tmp_path, "synthetic", "asic")) is None


def test_header_mismatch_short_circuits(tmp_path, clean_episode):
    payload = make_golden_payload(
        "synthetic", "asic", 0.05,
        {"history": canonical_episode(clean_episode)})
    path = golden_path(tmp_path, "synthetic", "asic")
    save_golden(path, payload)
    rescaled = dict(payload, scale=0.1)
    drifts = diff_against_golden(rescaled, path)
    # One explanatory line, not per-field noise from every episode.
    assert len(drifts) == 1 and "scale" in drifts[0]
    reversioned = dict(payload, schema=GOLDEN_SCHEMA_VERSION + 1)
    drifts = diff_against_golden(reversioned, path)
    assert len(drifts) == 1 and "schema" in drifts[0]


def test_real_drift_is_reported_per_field(tmp_path, clean_episode):
    canonical = canonical_episode(clean_episode)
    payload = make_golden_payload("synthetic", "asic", 0.05,
                                  {"history": canonical})
    path = golden_path(tmp_path, "synthetic", "asic")
    save_golden(path, payload)
    moved = json.loads(json.dumps(payload))
    moved["episodes"]["history"]["total_energy"] *= 1.01
    drifts = diff_against_golden(moved, path)
    assert len(drifts) == 1
    assert "total_energy" in drifts[0]
