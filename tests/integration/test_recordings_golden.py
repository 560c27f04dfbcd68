"""The recording golden: what the offline flow simulates, pinned exactly.

The seven scale-0.05 bundles are rebuilt in process and each is
reduced to digests of what RTL simulation produced: a sha256 of the
training ``FeatureMatrix`` (``x`` bytes and cycles), a sha256 per test
record (actual and slice cycles, feature bytes and activity), and the
chosen gamma with the selected feature names.  Simulation is pure
Python, so these are exact on any host.  Coefficients and predicted
cycles stay out: they shift with the BLAS build.  The ASIC goldens pin
episode outcomes at relative tolerances; this file pins the recordings
bit for bit.

A change that moves a digest regenerates the file with::

    PYTHONPATH=src python -m tests.integration.test_recordings_golden

and says why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.registry import ALL_BENCHMARKS

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "recordings.json"
SCALE = 0.05


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes)
                      else repr(part).encode())
    return digest.hexdigest()


def _array_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def recording_digest(bundle) -> dict:
    """The golden entry of one bundle."""
    package = bundle.package
    matrix = package.train_matrix
    predictor = package.predictor
    return {
        "train_matrix": _sha256(_array_bytes(matrix.x),
                                _array_bytes(matrix.cycles)),
        "test_records": [
            _sha256(r.actual_cycles, r.slice_cycles,
                    _array_bytes(r.features), r.activity.cycles,
                    sorted(r.activity.block_cycles.items()))
            for r in bundle.test_records],
        "gamma": package.gamma,
        "selected": [name for name, coeff in zip(predictor.feature_names,
                                                 predictor.coeffs)
                     if coeff != 0.0],
    }


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_recordings_match_the_golden(shared_bundle, name):
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == SCALE
    assert recording_digest(shared_bundle(name, SCALE)) \
        == golden["designs"][name]


def main() -> None:
    from repro.experiments.runner import bundle_for
    from repro.parallel.cache import set_cache
    set_cache(None)  # fresh simulation, never an on-disk bundle
    designs = {name: recording_digest(bundle_for(name, SCALE))
               for name in ALL_BENCHMARKS}
    GOLDEN.write_text(json.dumps({"scale": SCALE, "designs": designs},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
