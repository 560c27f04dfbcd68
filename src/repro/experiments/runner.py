"""Shared evaluation harness: bundles, contexts, and scheme runs.

A :class:`BenchmarkBundle` holds everything expensive for one
benchmark — the design, the generated predictor, and ground-truth job
records for train and test workloads.  Bundles are cached per
(benchmark, scale) so the thirteen figures/tables reuse one simulation
pass instead of re-simulating per experiment (exactly how the paper's
evaluation reuses one set of RTL simulation traces).

A :class:`TechContext` specializes a bundle to ASIC or FPGA: level
table, energy models.  ``run_scheme`` executes one controller over the
test records and returns the figures' (energy, misses) cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..accelerators import get_design
from ..accelerators.base import AcceleratorDesign
from ..dvfs import (
    ASIC_VOLTAGES,
    AsicEnergyModel,
    AsicVfModel,
    ConstantFrequencyController,
    Controller,
    FPGA_VOLTAGES,
    FpgaEnergyModel,
    FpgaVfModel,
    HistoryController,
    IntervalGovernorController,
    LevelTable,
    OracleController,
    PidController,
    PredictiveController,
    TableBasedController,
    build_level_table,
)
from ..dvfs.energy import EnergyModel
from ..flow import (
    FlowConfig,
    GeneratedPredictor,
    build_job_records,
    generate_predictor,
)
from ..obs import get_observer, span
from ..parallel import (
    code_version,
    combine_fingerprints,
    design_hash,
    flow_config_fingerprint,
    get_cache,
    pmap,
    resolve_jobs,
    workload_fingerprint,
)
from ..runtime import JobRecord, Task, run_episode
from ..serve.server import StreamResult
from ..workloads import BenchmarkWorkload, workload_for
from .setup import ExperimentConfig, default_config


@dataclass
class BenchmarkBundle:
    """One benchmark's expensive artefacts, shared across experiments."""

    design: AcceleratorDesign
    workload: BenchmarkWorkload
    package: GeneratedPredictor
    test_records: List[JobRecord]
    train_cycles: List[float]
    train_coarse: List[int]

    @property
    def name(self) -> str:
        return self.design.name


#: In-memory bundle cache, keyed by (benchmark, scale, FlowConfig
#: fingerprint) — two calls that differ only in ``flow_config`` build
#: two bundles instead of silently sharing the first one.
_BUNDLES: Dict[Tuple[str, float, str], BenchmarkBundle] = {}


def _bundle_disk_key(name: str, scale: float, config_fp: str) -> str:
    # On-disk bundles additionally key on the design's structural hash
    # and the code version, so editing an accelerator or bumping the
    # cache schema orphans stale entries.
    return combine_fingerprints(
        design_hash(get_design(name).build()),
        workload_fingerprint(name, scale),
        config_fp,
        code_version(),
    )


def _build_bundle(name: str, scale: float, flow_config: FlowConfig,
                  workers: Optional[int]) -> BenchmarkBundle:
    with span("bundle", benchmark=name, scale=scale):
        design = get_design(name)
        workload = workload_for(name, scale=scale)
        package = generate_predictor(design, workload.train,
                                     flow_config, workers=workers)
        with span("test_records", benchmark=name,
                  jobs=len(workload.test)):
            test_records = build_job_records(design, package,
                                             workload.test)
        train_coarse = [
            design.encode_job(item).coarse_param
            for item in workload.train
        ]
    return BenchmarkBundle(
        design=design,
        workload=workload,
        package=package,
        test_records=test_records,
        train_cycles=[float(c) for c in package.train_matrix.cycles],
        train_coarse=train_coarse,
    )


def _bundle_from_disk(name: str, scale: float,
                      config_fp: str) -> Optional[BenchmarkBundle]:
    # Persistent-cache lookup (None when no cache is configured or the
    # entry is absent); a hit lands in the in-memory cache too.
    cache = get_cache()
    if cache is None:
        return None
    bundle = cache.get("bundle", _bundle_disk_key(name, scale, config_fp))
    if bundle is not None:
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc("flow.bundle.cached")
        _BUNDLES[(name, scale, config_fp)] = bundle
    return bundle


def bundle_for(name: str, scale: Optional[float] = None,
               flow_config: FlowConfig = FlowConfig(),
               workers: Optional[int] = None) -> BenchmarkBundle:
    """Build (or fetch the cached) bundle for one benchmark.

    Lookup order: the in-memory cache, then — when a persistent cache
    is configured (``--cache-dir``/``REPRO_CACHE_DIR``) — the on-disk
    artifact store, and only then a fresh build (whose record stage
    and Lasso path honour ``workers``).  Freshly built bundles are
    written back to the persistent cache for the next process.
    """
    if scale is None:
        scale = default_config().scale
    config_fp = flow_config_fingerprint(flow_config)
    bundle = _BUNDLES.get((name, scale, config_fp))
    if bundle is not None:
        return bundle
    bundle = _bundle_from_disk(name, scale, config_fp)
    if bundle is not None:
        return bundle
    return _build_and_store(name, scale, flow_config, config_fp, workers)


def _build_and_store(name: str, scale: float, flow_config: FlowConfig,
                     config_fp: str,
                     workers: Optional[int] = None) -> BenchmarkBundle:
    # A fresh build, kept in memory and written to the persistent cache.
    bundle = _build_bundle(name, scale, flow_config, workers)
    _BUNDLES[(name, scale, config_fp)] = bundle
    cache = get_cache()
    if cache is not None:
        cache.put("bundle", _bundle_disk_key(name, scale, config_fp),
                  bundle)
    return bundle


def _bundle_worker(scale: float, flow_config: FlowConfig, config_fp: str,
                   name: str) -> BenchmarkBundle:
    # pmap worker for the bundle fan-out: the parent has already missed
    # this bundle in both caches, so build it (serially: daemonic
    # workers never nest pools) without looking it up a second time.
    return _build_and_store(name, scale, flow_config, config_fp)


def prewarm_bundles(names: Iterable[str],
                    scale: Optional[float] = None,
                    flow_config: FlowConfig = FlowConfig(),
                    workers: Optional[int] = None
                    ) -> Dict[str, BenchmarkBundle]:
    """Build several benchmark bundles, fanning out across processes.

    Each bundle is an independent offline flow, so with ``workers > 1``
    they build concurrently; results land in the in-memory and (when
    configured) persistent caches, and subsequent ``bundle_for`` calls
    are hits.  Returns ``{name: bundle}`` in input order.
    """
    if scale is None:
        scale = default_config().scale
    names = list(dict.fromkeys(names))
    config_fp = flow_config_fingerprint(flow_config)
    # Drain the persistent cache in *this* process first, so warm-run
    # hits land in the session's own metrics, then fan out only the
    # bundles that genuinely need building.
    missing = [
        n for n in names
        if (n, scale, config_fp) not in _BUNDLES
        and _bundle_from_disk(n, scale, config_fp) is None
    ]
    n_workers = min(resolve_jobs(workers), max(len(missing), 1))
    if len(missing) > 1 and n_workers > 1:
        fn = functools.partial(_bundle_worker, scale, flow_config,
                               config_fp)
        built = pmap(fn, missing, jobs=n_workers, label="bundle.pmap")
        for name, bundle in zip(missing, built):
            _BUNDLES[(name, scale, config_fp)] = bundle
    return {name: bundle_for(name, scale, flow_config)
            for name in names}


def clear_bundle_cache() -> None:
    """Drop all in-memory bundles (tests and memory pressure)."""
    _BUNDLES.clear()


@dataclass
class TechContext:
    """A bundle specialized to one implementation technology."""

    bundle: BenchmarkBundle
    tech: str  # "asic" | "fpga"
    levels: LevelTable
    energy_model: EnergyModel
    slice_energy_model: EnergyModel
    config: ExperimentConfig

    @property
    def name(self) -> str:
        return self.bundle.name

    def task(self, deadline: Optional[float] = None) -> Task:
        """A Task with the configured (or overridden) deadline."""
        return Task(self.bundle.name,
                    deadline if deadline is not None
                    else self.config.deadline)


def tech_context(bundle: BenchmarkBundle, tech: str = "asic",
                 config: Optional[ExperimentConfig] = None) -> TechContext:
    """Build the ASIC or FPGA evaluation context for a bundle."""
    config = config or default_config()
    f0 = bundle.design.nominal_frequency
    if tech == "asic":
        vf = AsicVfModel.characterize(f0)
        levels = build_level_table(vf, ASIC_VOLTAGES)
        energy = AsicEnergyModel.from_netlist(bundle.package.netlist)
        slice_energy = AsicEnergyModel.from_netlist(
            bundle.package.hw_slice.netlist)
    elif tech == "fpga":
        vf = FpgaVfModel(f_nominal=f0)
        levels = build_level_table(vf, FPGA_VOLTAGES)
        energy = FpgaEnergyModel.from_netlist(bundle.package.netlist)
        slice_energy = FpgaEnergyModel.from_netlist(
            bundle.package.hw_slice.netlist)
    else:
        raise ValueError(f"unknown tech {tech!r}")
    return TechContext(
        bundle=bundle, tech=tech, levels=levels,
        energy_model=energy, slice_energy_model=slice_energy,
        config=config,
    )


#: Every scheme name :func:`make_controller` accepts, in the figures'
#: presentation order.  ``repro check`` iterates this list when no
#: explicit subset is requested.
ALL_SCHEMES = (
    "baseline", "table", "pid", "history", "governor",
    "prediction", "prediction_boost", "prediction_no_overhead",
    "prediction_boost_no_overhead", "oracle",
)


def make_controller(ctx: TechContext, scheme: str) -> Controller:
    """Instantiate one of the paper's schemes by name."""
    cfg = ctx.config
    if scheme == "baseline":
        return ConstantFrequencyController(ctx.levels)
    if scheme == "table":
        training = [
            JobRecord(index=i, actual_cycles=int(c),
                      activity=None or _dummy_activity(int(c)),
                      coarse_param=p)
            for i, (c, p) in enumerate(
                zip(ctx.bundle.train_cycles, ctx.bundle.train_coarse))
        ]
        return TableBasedController.from_training(
            ctx.levels, cfg.t_switch, training)
    if scheme == "pid":
        return PidController.tuned(
            ctx.levels, cfg.t_switch, ctx.bundle.train_cycles,
            margin=cfg.pid_margin)
    if scheme == "history":
        return HistoryController(ctx.levels, cfg.t_switch,
                                 margin=cfg.pid_margin)
    if scheme == "governor":
        return IntervalGovernorController(ctx.levels, cfg.t_switch)
    if scheme == "prediction":
        return PredictiveController(ctx.levels, cfg.t_switch,
                                    margin=cfg.prediction_margin)
    if scheme == "prediction_boost":
        return PredictiveController(ctx.levels, cfg.t_switch,
                                    margin=cfg.prediction_margin,
                                    boost=True)
    if scheme == "prediction_no_overhead":
        return PredictiveController(ctx.levels, cfg.t_switch,
                                    margin=cfg.prediction_margin,
                                    charge_overheads=False)
    if scheme == "prediction_boost_no_overhead":
        return PredictiveController(ctx.levels, cfg.t_switch,
                                    margin=cfg.prediction_margin,
                                    boost=True, charge_overheads=False)
    if scheme == "oracle":
        return OracleController(ctx.levels)
    raise KeyError(f"unknown scheme {scheme!r}")


def _dummy_activity(cycles: int):
    from ..dvfs.energy import JobActivity
    return JobActivity(cycles=cycles)


def run_scheme(ctx: TechContext, scheme: str,
               deadline: Optional[float] = None,
               strict: Optional[bool] = None) -> StreamResult:
    """Run one controller over the bundle's test jobs.

    ``strict`` forwards to :func:`~repro.runtime.episode.run_episode`:
    ``True`` re-checks the episode's accounting invariants and raises
    on any violation, ``None`` defers to ``REPRO_CHECK``.
    """
    controller = make_controller(ctx, scheme)
    # fig18 passes a duck-typed records-only context without name/tech.
    with span("episode", benchmark=getattr(ctx, "name", "?"),
              scheme=scheme, tech=getattr(ctx, "tech", "?")):
        return run_episode(
            controller,
            ctx.bundle.test_records,
            ctx.task(deadline),
            ctx.energy_model,
            slice_energy_model=ctx.slice_energy_model,
            t_switch=ctx.config.t_switch,
            strict=strict,
        )
