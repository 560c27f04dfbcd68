"""The design-time flow of Fig 6: from RTL to a generated predictor.

``generate_predictor`` runs the complete offline pipeline on a design:

1. synthesize the behavioural module ("behavioral RTL -> structural");
2. detect FSMs and counters structurally, derive candidate features;
3. simulate the training workload on the instrumented design to get
   per-job feature values and execution times;
4. fit the asymmetric-Lasso model and keep the selected features;
5. slice the hardware down to the selected features' logic and elide
   the waits of removed computation.

The result bundles everything the online half needs: the runnable
slice, the linear model in raw feature space, and the static costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..accelerators.base import AcceleratorDesign, JobInput
from ..analysis import (
    FeatureMatrix,
    FeatureRecorder,
    FeatureSet,
    discover_features,
    record_jobs,
)
from ..model import (
    LinearPredictor,
    TrainedModel,
    TrainingConfig,
    fit_predictor,
    select_gamma,
)
from ..obs import get_observer, span
from ..parallel import (
    code_version,
    combine_fingerprints,
    design_hash,
    get_cache,
    jobs_fingerprint,
    stable_hash,
)
from ..rtl.backend import make_simulation, resolve_backend
from ..rtl.lint import errors_only, lint_module
from ..rtl.module import Module
from ..rtl.netlist import Netlist
from ..rtl.synth import synthesize
from ..slicing import HardwareSlice, SliceCost, build_slice, compute_slice_cost


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the offline flow."""

    alpha: float = 8.0
    gamma: Optional[float] = None     # None: pick via the Lasso path
    auto_gamma_slack: float = 0.5     # pct-points tolerance on the path
    refit: bool = True
    lint: bool = True                 # reject designs with lint errors

    def training_config(self, gamma: float) -> TrainingConfig:
        """The TrainingConfig for a concrete gamma."""
        return TrainingConfig(alpha=self.alpha, gamma=gamma,
                              refit=self.refit)


@dataclass
class GeneratedPredictor:
    """Everything the online system needs for one accelerator."""

    design_name: str
    module: Module                # the full accelerator
    netlist: Netlist              # full synthesized netlist
    feature_set: FeatureSet       # all candidate features
    model: TrainedModel
    hw_slice: HardwareSlice
    slice_cost: SliceCost
    train_matrix: FeatureMatrix
    gamma: float

    @property
    def predictor(self) -> LinearPredictor:
        return self.model.predictor

    @property
    def n_candidate_features(self) -> int:
        return len(self.feature_set)

    @property
    def n_selected_features(self) -> int:
        return self.predictor.n_terms

    def run_slice(self, job: JobInput,
                  max_cycles: int = 50_000_000) -> Tuple[float, int]:
        """Execute the hardware slice on a job's input.

        Returns (predicted execution cycles, slice execution cycles) —
        the online half of Fig 6.
        """
        recorder = FeatureRecorder(self.feature_set)
        sim = make_simulation(self.hw_slice.module, listener=recorder,
                              track_state_cycles=False)
        sim.load(*job.as_pair(), ignore_unknown=True)
        result = sim.run(max_cycles=max_cycles)
        if not result.finished:
            raise RuntimeError(
                f"slice of {self.design_name} did not finish"
            )
        predicted = self.predictor.predict_one(recorder.vector())
        return max(predicted, 0.0), result.cycles


def _recorded_matrix(module: Module,
                     feature_set: FeatureSet, jobs,
                     design_name: str,
                     workers: Optional[int]) -> FeatureMatrix:
    """The record stage, memoized through the artifact cache.

    The cache key fingerprints everything the matrix depends on — the
    design's structural hash, the candidate feature columns, the
    encoded job contents, and the code version — so a hit is exactly
    the matrix a fresh simulation would produce, and a warm rerun
    skips the ``record`` span (and its RTL simulation) entirely.

    The simulation backend is deliberately NOT part of the key: all
    backends are cycle-exact, so a matrix recorded under one is a
    valid warm hit for any other (tests assert this invariance).
    """
    cache = get_cache()
    key = None
    if cache is not None:
        key = combine_fingerprints(
            design_hash(module),
            stable_hash(feature_set.names()),
            jobs_fingerprint(jobs),
            code_version(),
        )
        cached = cache.get("feature_matrix", key)
        if cached is not None:
            observer = get_observer()
            if observer is not None:
                observer.metrics.inc("flow.record.cached")
            return cached
    with span("record", design=design_name, jobs=len(jobs),
              backend=resolve_backend()):
        matrix = record_jobs(module, feature_set, jobs,
                             workers=workers)
    if cache is not None:
        cache.put("feature_matrix", key, matrix)
    return matrix


def generate_predictor(design: AcceleratorDesign,
                       train_items: Sequence,
                       config: FlowConfig = FlowConfig(),
                       workers: Optional[int] = None
                       ) -> GeneratedPredictor:
    """Run the full offline flow for one accelerator design.

    Each stage runs inside a named observability span (``synthesize``,
    ``detect``, ``record``, ``fit``, ``slice``) so a profiled run
    shows where flow time goes per design; feature counts and the
    selected gamma land in the metrics registry.  With observability
    disabled the spans are shared no-ops.

    ``workers`` (default: the ambient ``--jobs``/``REPRO_JOBS``
    setting) parallelizes the record stage and the Lasso path across
    processes; results are bit-identical to a serial run.  When a
    persistent artifact cache is configured (``--cache-dir`` or
    ``REPRO_CACHE_DIR``), the recorded feature matrix is reused across
    runs and the ``record`` stage is skipped entirely on a warm hit.
    """
    with span("flow", design=design.name):
        module = design.build()
        if config.lint:
            errors = errors_only(lint_module(module))
            if errors:
                raise ValueError(
                    f"design {design.name} has lint errors: "
                    + "; ".join(str(e) for e in errors)
                )
        with span("synthesize", design=design.name):
            netlist = synthesize(module)
        with span("detect", design=design.name):
            feature_set = discover_features(module, netlist)
            if len(feature_set) == 0:
                raise ValueError(
                    f"design {design.name} exposes no candidate slice "
                    f"features: the detectors found no FSM transition, "
                    f"counter-load or guard signals to observe (a "
                    f"design whose timing has no data-dependent waits "
                    f"or dynamic stages cannot train a slice "
                    f"predictor — add at least one counter-backed "
                    f"wait or dynamic stage, or skip the flow and use "
                    f"a non-predictive controller)"
                )
        jobs = [design.encode_job(item).as_pair()
                for item in train_items]
        matrix = _recorded_matrix(module, feature_set, jobs,
                                  design.name, workers)

        with span("fit", design=design.name):
            if config.gamma is None:
                gamma, _ = select_gamma(
                    matrix, alpha=config.alpha,
                    accuracy_slack=config.auto_gamma_slack,
                    workers=workers)
            else:
                gamma = config.gamma
            model = fit_predictor(matrix, config.training_config(gamma))

        with span("slice", design=design.name):
            selected_specs = [
                feature_set.specs[i]
                for i in model.predictor.selected_indices
            ]
            hw_slice = build_slice(module, selected_specs)
            cost = compute_slice_cost(netlist, hw_slice.netlist)

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("flow.designs")
        observer.metrics.inc("flow.features.candidate", len(feature_set))
        observer.metrics.inc("flow.features.selected",
                             model.predictor.n_terms)
        observer.metrics.set_gauge(f"flow.gamma.{design.name}", gamma)
        observer.emit(
            "flow",
            design=design.name,
            n_candidate_features=len(feature_set),
            n_selected_features=model.predictor.n_terms,
            gamma=gamma,
            slice_area_fraction=cost.area_fraction,
            n_train_jobs=len(train_items),
        )
    return GeneratedPredictor(
        design_name=design.name,
        module=module,
        netlist=netlist,
        feature_set=feature_set,
        model=model,
        hw_slice=hw_slice,
        slice_cost=cost,
        train_matrix=matrix,
        gamma=gamma,
    )
