"""The offline flow emits spans, metrics, and a flow event."""

from repro.accelerators import get_design
from repro.flow import generate_predictor
from repro.obs import read_events, session
from repro.workloads import workload_for


def test_generate_predictor_records_stages(tmp_path):
    design = get_design("sha")
    workload = workload_for("sha", scale=0.1)
    run_dir = tmp_path / "flow"
    with session(run_dir=run_dir, command="flow test") as obs:
        package = generate_predictor(design, workload.train)

    names = [s.name for s in obs.tracer.spans]
    for stage in ("synthesize", "detect", "record", "fit", "slice",
                  "flow"):
        assert stage in names
    flow_span = next(s for s in obs.tracer.spans if s.name == "flow")
    fit_span = next(s for s in obs.tracer.spans if s.name == "fit")
    assert flow_span.depth == 0 and fit_span.parent == "flow"
    assert flow_span.labels == {"design": "sha"}

    counters = obs.metrics.counters
    assert counters["flow.designs"] == 1.0
    assert counters["flow.features.candidate"] == float(
        package.n_candidate_features)
    assert counters["flow.features.selected"] == float(
        package.n_selected_features)
    assert obs.metrics.gauges["flow.gamma.sha"] == package.gamma

    flow_events = [e for e in read_events(run_dir / "events.jsonl")
                   if e["type"] == "flow"]
    assert len(flow_events) == 1
    assert flow_events[0]["design"] == "sha"
    assert flow_events[0]["n_selected_features"] == \
        package.n_selected_features


def test_generate_predictor_unobserved_has_no_side_channel():
    """Without a session the flow neither records nor crashes."""
    from repro.obs import get_observer

    design = get_design("sha")
    workload = workload_for("sha", scale=0.1)
    assert get_observer() is None
    package = generate_predictor(design, workload.train)
    assert package.n_selected_features >= 1


def test_flow_counts_training_solves_and_unconverged(tmp_path,
                                                     monkeypatch):
    """h264 at scale 0.05 stops some solves at ``max_iter``: the
    ``flow.fit.*`` counters, the ``flow`` event and the report's
    ``fit:`` line all show every solve the flow ran, and the lockstep
    steps of its batches (the Lasso path's gamma points are one)."""
    from repro.model import training
    from repro.obs.report import render_run

    batches = []
    real_solve_batch = training.solve_batch

    def recording_solve_batch(objectives, **kwargs):
        batches.append(real_solve_batch(objectives, **kwargs))
        return batches[-1]

    monkeypatch.setattr(training, "solve_batch", recording_solve_batch)
    run_dir = tmp_path / "flow"
    with session(run_dir=run_dir, command="fit counters") as obs:
        generate_predictor(get_design("h264"),
                           workload_for("h264", scale=0.05).train,
                           workers=1)
        counters = dict(obs.metrics.counters)

    results = [r for batch in batches for r in batch]
    solves = len(results)
    iterations = sum(r.iterations for r in results)
    steps = sum(max(r.iterations for r in batch) for batch in batches)
    unconverged = sum(not r.converged for r in results)
    assert unconverged > 0
    assert max(len(batch) for batch in batches) == 11
    assert steps < iterations
    assert counters["flow.fit.solves"] == solves
    assert counters["flow.fit.iterations"] == iterations
    assert counters["flow.fit.steps"] == steps
    assert counters["flow.fit.unconverged"] == unconverged
    [event] = [e for e in read_events(run_dir / "events.jsonl")
               if e["type"] == "flow"]
    assert (event["fit_solves"], event["fit_iterations"],
            event["fit_steps"], event["fit_unconverged"]) \
        == (solves, iterations, steps, unconverged)
    assert (f"  fit: {solves} solve(s), {iterations} FISTA iteration(s) "
            f"in {steps} step(s), {unconverged} unconverged"
            ) in render_run(run_dir)


def test_fit_counters_survive_pool_workers():
    """Lasso-path solves that run in pool workers ship their
    ``flow.fit.*`` counts home: a two-worker flow counts the same
    solves and iterations as a serial one."""
    design = get_design("djpeg")
    train = workload_for("djpeg", scale=0.05).train

    def fit_counters(workers):
        with session(command="fit counters") as obs:
            generate_predictor(design, train, workers=workers)
        return {name: value for name, value in obs.metrics.counters.items()
                if name.startswith("flow.fit.")}

    serial = fit_counters(1)
    assert serial["flow.fit.solves"] > 0
    assert fit_counters(2) == serial
