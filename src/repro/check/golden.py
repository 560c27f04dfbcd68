"""Golden-trace differential harness: canonical episodes, diffed.

A *golden trace* is a canonicalized, versioned JSON rendering of one
benchmark's episodes (one per scheme), committed under
``tests/golden/``.  Re-running the flow and diffing against the golden
answers the question every accounting refactor raises: *did the
numbers move?*  Because serial and parallel builds, warm and cold
caches, and past and present code versions all canonicalize to the
same representation, a single golden file backstops all of those
comparisons at once.

Canonicalization rounds floats to a fixed number of significant digits
(so a JSON round-trip is the identity) and sorts keys (so files diff
cleanly in review).  The differ compares numbers with per-field
relative tolerances — times and energies may drift at float-rounding
magnitude across platforms without that being a finding — while
counts, flags, names, and the schema version compare exactly.

Intentional regeneration (an accounting *fix* that legitimately moves
values) goes through ``repro check --update-golden``; the new file's
git diff then documents exactly which fields moved and by how much.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..serve.server import StreamResult

#: Bump when the canonical layout changes; a version mismatch is
#: reported as a single explained diff instead of field-level noise.
GOLDEN_SCHEMA_VERSION = 1

#: Significant digits kept by canonicalization.  Well above any real
#: accounting signal, well below cross-platform float noise.
CANONICAL_SIG_DIGITS = 12

#: Relative tolerance per numeric leaf-field name; anything absent
#: compares with ``DEFAULT_REL_TOL``.  Energies accumulate over long
#: float sums (and, for Lasso-derived predictions, BLAS reductions),
#: so they get more slack than raw per-job times.
FIELD_REL_TOL = {
    "energy": 1e-6,
    "total_energy": 1e-6,
    "miss_rate": 1e-9,
}
DEFAULT_REL_TOL = 1e-9


def round_sig(value: float, digits: int = CANONICAL_SIG_DIGITS) -> float:
    """Round ``value`` to ``digits`` significant digits (0 stays 0)."""
    if value == 0.0 or not math.isfinite(value):
        return value
    magnitude = math.floor(math.log10(abs(value)))
    return round(value, digits - 1 - magnitude)


def canonical_episode(result: StreamResult,
                      digits: int = CANONICAL_SIG_DIGITS) -> Dict:
    """Render one episode as a stable, JSON-ready dictionary."""
    return {
        "controller": result.scheme,
        "task": result.stream,
        "deadline": round_sig(result.deadline, digits),
        "n_jobs": result.n_offered,
        "total_energy": round_sig(result.total_energy, digits),
        "miss_count": result.miss_count,
        "boost_count": result.boost_count,
        "switch_count": result.switch_count,
        "jobs": [
            {
                "index": i,
                "voltage": round_sig(o.voltage, digits),
                "frequency": round_sig(o.frequency, digits),
                "boosted": o.boosted,
                "release": round_sig(o.release, digits),
                "start": round_sig(o.start, digits),
                "t_slice": round_sig(o.t_slice, digits),
                "t_switch": round_sig(o.t_switch, digits),
                "t_exec": round_sig(o.t_exec, digits),
                "energy": round_sig(o.energy, digits),
                "missed": o.missed,
            }
            for i, o in enumerate(result.outcomes)
        ],
    }


def _leaf_tolerance(field: str) -> float:
    return FIELD_REL_TOL.get(field, DEFAULT_REL_TOL)


def _numbers_match(a: float, b: float, rel_tol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def diff_canonical(current: object, golden: object,
                   path: str = "$") -> List[str]:
    """Structural diff of two canonical payloads.

    Numbers compare with the per-field relative tolerance keyed on the
    innermost field name; everything else compares exactly.  Returns
    human-readable drift lines (empty = match).
    """
    drifts: List[str] = []
    if isinstance(current, dict) and isinstance(golden, dict):
        for key in sorted(set(current) | set(golden)):
            if key not in golden:
                drifts.append(f"{path}.{key}: present now, absent in golden")
            elif key not in current:
                drifts.append(f"{path}.{key}: in golden, absent now")
            else:
                drifts.extend(diff_canonical(current[key], golden[key],
                                             f"{path}.{key}"))
        return drifts
    if isinstance(current, list) and isinstance(golden, list):
        if len(current) != len(golden):
            drifts.append(f"{path}: length {len(current)} != golden "
                          f"{len(golden)}")
            return drifts
        for i, (c, g) in enumerate(zip(current, golden)):
            drifts.extend(diff_canonical(c, g, f"{path}[{i}]"))
        return drifts
    # bool is an int subclass — compare flags exactly, before numbers.
    if (isinstance(current, (int, float)) and not isinstance(current, bool)
            and isinstance(golden, (int, float))
            and not isinstance(golden, bool)):
        field = path.rsplit(".", 1)[-1].split("[", 1)[0]
        if not _numbers_match(float(current), float(golden),
                              _leaf_tolerance(field)):
            drifts.append(f"{path}: {current!r} != golden {golden!r} "
                          f"(rel tol {_leaf_tolerance(field):g})")
        return drifts
    if current != golden:
        drifts.append(f"{path}: {current!r} != golden {golden!r}")
    return drifts


def golden_path(root: Union[str, Path], benchmark: str,
                tech: str) -> Path:
    """The canonical file location for one (benchmark, tech) golden."""
    return Path(root) / f"{benchmark}_{tech}.json"


def make_golden_payload(benchmark: str, tech: str, scale: float,
                        episodes: Dict[str, Dict]) -> Dict:
    """Assemble the versioned top-level golden document."""
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "benchmark": benchmark,
        "tech": tech,
        "scale": scale,
        "episodes": episodes,
    }


def save_golden(path: Union[str, Path], payload: Dict) -> None:
    """Write a golden file (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_golden(path: Union[str, Path]) -> Dict:
    """Read a golden file back as a dictionary."""
    with open(path) as handle:
        return json.load(handle)


def diff_against_golden(payload: Dict, path: Union[str, Path]
                        ) -> Optional[List[str]]:
    """Diff a fresh payload against the golden at ``path``.

    Returns ``None`` when no golden exists yet (nothing to compare —
    the caller decides whether that is an error), a list of drift
    lines otherwise.  Schema or configuration mismatches (version,
    scale, tech) short-circuit into one explanatory line each instead
    of flooding the report with per-field noise.
    """
    try:
        golden = load_golden(path)
    except FileNotFoundError:
        return None
    header_mismatches = [
        f"{key}: current {payload.get(key)!r} vs golden "
        f"{golden.get(key)!r} — regenerate with --update-golden or "
        f"rerun with the golden's configuration"
        for key in ("schema", "tech", "scale")
        if payload.get(key) != golden.get(key)
    ]
    if header_mismatches:
        return header_mismatches
    return diff_canonical(payload, golden)
