"""Experiment regeneration: one module per table/figure of the paper.

Quick use::

    from repro.experiments import run_experiment
    result, text = run_experiment("fig11", scale=0.3)

:data:`EXPERIMENTS` registers every pinned result under the id that
``repro experiment <id>`` takes.  Each experiment module loads only
when :func:`run_experiment` (or an import by name) asks for it, so
importing this package loads only the shared runner and setup.  Heavy
per-benchmark artefacts (trained predictors, simulated test records)
are cached per (benchmark, scale) in :mod:`runner`, so running every
experiment costs one simulation pass per benchmark.
"""

import importlib
from typing import NamedTuple, Optional, Tuple, Union

from .runner import (
    ALL_SCHEMES,
    BenchmarkBundle,
    TechContext,
    bundle_for,
    clear_bundle_cache,
    make_controller,
    prewarm_bundles,
    run_scheme,
    tech_context,
)
from .setup import ExperimentConfig, default_config, default_scale


class Experiment(NamedTuple):
    """One registered result: the module whose ``run``/``to_text``
    compute and print it, the keyword arguments both take, the stem of
    its pinned text under ``tests/golden/figures/``, and the benchmarks
    ``--jobs N`` prewarms (``"all"``, a tuple, or none)."""

    module: str
    kwargs: dict
    stem: str
    benchmarks: Union[str, Tuple[str, ...]] = ()


_HLS = Experiment("fig18_hls", {}, "fig18_19", ("md", "stencil"))

#: Experiment id -> its row.  Plain data: no experiment module loads
#: until an id runs.  fig19 is fig18's row (one result, both figures).
EXPERIMENTS = {
    "table3": Experiment("table3", {}, "table3"),
    "table4": Experiment("table4", {}, "table4", "all"),
    "fig2": Experiment("fig02_variation", {}, "fig02", ("h264",)),
    "fig3": Experiment("fig03_pid", {}, "fig03", ("h264",)),
    "fig10": Experiment("fig10_errors", {}, "fig10", "all"),
    "fig11": Experiment("fig11_schemes", {}, "fig11", "all"),
    "fig12": Experiment("fig12_overheads", {}, "fig12", "all"),
    "fig13": Experiment("fig13_oracle", {}, "fig13", "all"),
    "fig14": Experiment("fig14_boost", {}, "fig14", "all"),
    "fig15": Experiment("fig15_deadlines", {}, "fig15", "all"),
    "fig16": Experiment("fig16_fpga", {}, "fig16", "all"),
    "fig17": Experiment("fig12_overheads", {"tech": "fpga"}, "fig17", "all"),
    "fig18": _HLS,
    "fig19": _HLS,
    "case-study": Experiment("case_study", {}, "case_study", ("h264",)),
    "all-schemes": Experiment("ext_all_schemes", {}, "ext_all_schemes",
                              "all"),
    "multires": Experiment("ext_resolutions", {}, "ext_resolutions"),
    "taxonomy": Experiment("ext_taxonomy", {}, "ext_taxonomy", "all"),
    "visibility": Experiment("ext_visibility", {}, "ext_visibility", "all"),
    # ablation-<study>: ablations.<study>_sweep, ablation_<study>.txt
    **{f"ablation-{study}": Experiment("ablations", {"study": study},
                                       f"ablation_{study}", (benchmark,))
       for study, benchmark in (
           ("alpha", "djpeg"), ("gamma", "h264"), ("margin", "md"),
           ("switching", "md"), ("elision", "h264"),
           ("quantization", "h264"))},
}


def run_experiment(exp_id: str, scale: Optional[float] = None):
    """Run one registered experiment; return its result and text."""
    row = EXPERIMENTS[exp_id]
    module = importlib.import_module(f"{__name__}.{row.module}")
    result = module.run(scale=scale, **row.kwargs)
    return result, module.to_text(result, **row.kwargs)


__all__ = [
    "ALL_SCHEMES", "BenchmarkBundle", "EXPERIMENTS", "Experiment",
    "ExperimentConfig", "TechContext", "bundle_for", "clear_bundle_cache",
    "default_config", "default_scale", "make_controller", "prewarm_bundles",
    "run_experiment", "run_scheme", "tech_context",
]
