"""Generative accelerator designs: builder, sampler, conformance.

The seven hand-built benchmark accelerators exercise the stack on a
fixed design set; this package makes coverage *generative*.  It has
three layers:

* :mod:`repro.gen.blocks` — a composable design builder that
  assembles accelerators in the behavioural RTL IR from pipeline /
  dataflow building blocks (step, wait and dynamic stages, two-way
  mode branches, fork/join dataflow, memory-fed producers), every one
  emitted in the canonical idioms the detectors, slicer and
  fast-forward rely on;
* :mod:`repro.gen.sampler` — a seeded design-space sampler:
  ``sample_design(seed, complexity)`` deterministically emits a valid,
  lint-clean accelerator with a matching workload generator;
* :mod:`repro.gen.conformance` — the differential conformance
  harness (``repro conform``): every sampled design must agree
  bit-for-bit across all three simulation backends, train a predictor
  whose episodes pass :func:`repro.check.check_episode` on both ASIC
  and FPGA technologies, and serve adversarial streams that pass
  :func:`repro.check.check_stream` strictly.
"""

from .blocks import (
    BranchSpec,
    DatapathSpec,
    DesignBuilder,
    DesignSpec,
    FieldSpec,
    ForkJoinSpec,
    ProducerSpec,
    StageSpec,
    build_module,
)
from .conformance import (
    ConformanceReport,
    conform_design,
    run_conformance,
)
from .sampler import (
    COMPLEXITIES,
    GeneratedDesign,
    sample_design,
    sample_workload,
)

__all__ = [
    "BranchSpec",
    "COMPLEXITIES",
    "ConformanceReport",
    "DatapathSpec",
    "DesignBuilder",
    "DesignSpec",
    "FieldSpec",
    "ForkJoinSpec",
    "GeneratedDesign",
    "ProducerSpec",
    "StageSpec",
    "build_module",
    "conform_design",
    "run_conformance",
    "sample_design",
    "sample_workload",
]
