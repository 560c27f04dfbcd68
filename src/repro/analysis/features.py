"""Feature definitions (Table 1 of the paper) and the feature matrix.

Four feature kinds exist:

* ``stc``  — state transition count, one per (FSM, src, dst) arc;
* ``ic``   — initialization count, one per counter;
* ``aivs`` — sum of initial values of a down counter (the model learns
  the scaling, so recording the *sum* instead of the average is exactly
  what the paper's hardware does: "it is sufficient to record the sum
  of these values and the prediction model will take care of scaling");
* ``apvs`` — sum of pre-reset values of an up counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..rtl.simulator import EventSlots


@dataclass(frozen=True)
class FeatureSpec:
    """One measurable property extracted during accelerator execution."""

    kind: str  # "stc" | "ic" | "aivs" | "apvs"
    source: str  # FSM name (stc) or counter name
    src_state: str = ""  # stc only
    dst_state: str = ""  # stc only

    def __post_init__(self) -> None:
        if self.kind not in ("stc", "ic", "aivs", "apvs"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "stc" and not (self.src_state and self.dst_state):
            raise ValueError("stc features need src and dst states")

    @property
    def name(self) -> str:
        if self.kind == "stc":
            return f"stc:{self.source}:{self.src_state}->{self.dst_state}"
        return f"{self.kind}:{self.source}"

    def __repr__(self) -> str:
        return f"FeatureSpec({self.name})"


class FeatureSet:
    """An ordered collection of feature specs with fast index lookup."""

    def __init__(self, specs: Sequence[FeatureSpec]):
        self.specs: Tuple[FeatureSpec, ...] = tuple(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature specs")
        self._index: Dict[str, int] = {n: i for i, n in enumerate(names)}
        # The recorder's event dispatch table, which the stepjit kernel
        # compiles in: an arc counts into its STC slot, a counter load
        # into the counter's IC and AIV-sum slots, a reset into its IC
        # and APV-sum slots.
        arcs: Dict[Tuple[str, str, str], int] = {}
        by_kind: Dict[str, Dict[str, int]] = {"ic": {}, "aivs": {},
                                              "apvs": {}}
        for i, spec in enumerate(self.specs):
            if spec.kind == "stc":
                arcs[(spec.source, spec.src_state, spec.dst_state)] = i
            else:
                by_kind[spec.kind][spec.source] = i
        ic, aivs, apvs = by_kind["ic"], by_kind["aivs"], by_kind["apvs"]
        self.slots = EventSlots(
            arcs,
            loads={c: (ic.get(c), aivs.get(c)) for c in [*ic, *aivs]},
            resets={c: (ic.get(c), apvs.get(c)) for c in [*ic, *apvs]})

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def index_of(self, name: str) -> int:
        """Column index of the feature named ``name``."""
        return self._index[name]

    def names(self) -> List[str]:
        """Feature names in column order."""
        return [s.name for s in self.specs]

    def subset(self, indices: Sequence[int]) -> "FeatureSet":
        """A new set containing only the given column indices."""
        return FeatureSet([self.specs[i] for i in indices])

    def __repr__(self) -> str:
        return f"FeatureSet(n={len(self.specs)})"


@dataclass
class FeatureMatrix:
    """Per-job feature values plus observed execution cycles."""

    feature_set: FeatureSet
    x: np.ndarray  # (n_jobs, n_features)
    cycles: np.ndarray  # (n_jobs,)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.cycles = np.asarray(self.cycles, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be 2-D")
        if self.x.shape[0] != self.cycles.shape[0]:
            raise ValueError("x and cycles disagree on job count")
        if self.x.shape[1] != len(self.feature_set):
            raise ValueError("x and feature_set disagree on feature count")

    @property
    def n_jobs(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: Sequence[int]) -> "FeatureMatrix":
        """Restrict to a subset of features (model selection output)."""
        idx = list(indices)
        return FeatureMatrix(
            feature_set=self.feature_set.subset(idx),
            x=self.x[:, idx],
            cycles=self.cycles,
        )
