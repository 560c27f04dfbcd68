"""Evaluation record building: ground truth + predictions per test job.

For each test job we run two simulations, mirroring the paper's
methodology: the full accelerator (RTL simulation gives the true
execution cycles and datapath activity for the energy model) and the
generated hardware slice (gives the prediction and the slice's own
execution time).  The resulting :class:`JobRecord` list is what the
episode runner replays under each DVFS controller — so every
controller is compared on identical jobs.
"""

from __future__ import annotations

from typing import List, Sequence

from ..accelerators.base import AcceleratorDesign
from ..analysis import FeatureRecorder
from ..dvfs.energy import activity_from_run
from ..rtl.backend import make_simulation
from ..runtime.jobs import JobRecord
from .pipeline import GeneratedPredictor


def build_job_records(design: AcceleratorDesign,
                      package: GeneratedPredictor,
                      items: Sequence,
                      max_cycles: int = 200_000_000) -> List[JobRecord]:
    """Ground-truth + prediction records for a workload's jobs."""
    module = package.module
    recorder = FeatureRecorder(package.feature_set)
    sim = make_simulation(package.module, listener=recorder,
                          track_state_cycles=True)
    records: List[JobRecord] = []
    for index, item in enumerate(items):
        job = design.encode_job(item)
        sim.reset()
        sim.state_cycles.clear()
        recorder.start_job()
        sim.load(*job.as_pair())
        result = sim.run(max_cycles=max_cycles)
        if not result.finished:
            raise RuntimeError(
                f"{design.name} job {index} did not finish"
            )
        predicted, slice_cycles = package.run_slice(job)
        records.append(JobRecord(
            index=index,
            actual_cycles=result.cycles,
            activity=activity_from_run(module, result),
            features=recorder.vector(),
            predicted_cycles=predicted,
            slice_cycles=slice_cycles,
            coarse_param=job.coarse_param,
        ))
    return records

