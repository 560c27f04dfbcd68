#!/usr/bin/env python
"""Quickstart: generate a predictor for an accelerator and use it.

Runs the paper's complete offline flow (Fig 6) on the JPEG encoder —
synthesis, FSM/counter detection, instrumented training simulation,
asymmetric-Lasso fitting, hardware slicing — then predicts the
execution time of unseen jobs by running the generated slice.

    python examples/quickstart.py
"""

from repro import FlowConfig, generate_predictor, get_design, workload_for
from repro.units import MS


def main() -> None:
    design = get_design("cjpeg")
    workload = workload_for("cjpeg", scale=0.2)

    print(f"== offline flow for {design.name} "
          f"({design.description}) ==")
    package = generate_predictor(design, workload.train, FlowConfig())

    print(f"candidate features discovered: "
          f"{package.n_candidate_features}")
    print(f"features selected by Lasso:    "
          f"{package.n_selected_features}")
    for name, coeff in package.predictor.as_dict().items():
        print(f"    {name:30s} x {coeff:10.2f}")
    print(f"slice area: {package.slice_cost.area_fraction * 100:.1f}% "
          f"of the accelerator")

    print("\n== online prediction on unseen jobs ==")
    f0 = design.nominal_frequency
    print(f"{'job':>4s} {'predicted':>10s} {'actual':>10s} "
          f"{'error':>7s} {'slice':>9s}")
    from repro.rtl import Simulation
    sim = Simulation(package.module, track_state_cycles=False)
    for i, item in enumerate(workload.test[:10]):
        job = design.encode_job(item)
        predicted_cycles, slice_cycles = package.run_slice(job)
        actual_cycles = sim.run_job(*job.as_pair()).cycles
        err = (predicted_cycles - actual_cycles) / actual_cycles * 100
        print(f"{i:4d} {predicted_cycles / f0 / MS:8.2f}ms "
              f"{actual_cycles / f0 / MS:8.2f}ms {err:6.2f}% "
              f"{slice_cycles / f0 / MS:7.3f}ms")


if __name__ == "__main__":
    main()
