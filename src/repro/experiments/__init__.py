"""Experiment regeneration: one module per table/figure of the paper.

Quick use::

    from repro.experiments import fig11_schemes
    print(fig11_schemes.to_text(fig11_schemes.run(scale=0.3)))

Each experiment module loads when imported by name, as above (the CLI
imports the one ``repro experiment <id>`` names), so importing this
package loads only the shared runner and setup.  Heavy per-benchmark
artefacts (trained predictors, simulated test records) are cached per
(benchmark, scale) in :mod:`runner`, so running every experiment costs
one simulation pass per benchmark.
"""

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

__all__ = [
    "ALL_SCHEMES", "BenchmarkBundle", "ExperimentConfig", "TechContext",
    "bundle_for", "clear_bundle_cache", "default_config", "default_scale",
    "make_controller", "prewarm_bundles", "run_scheme", "tech_context",
]
