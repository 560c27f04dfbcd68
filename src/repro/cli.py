"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — benchmarks and experiment ids;
* ``describe <benchmark>`` — structural detection report + timing stats;
* ``experiment <id> [--scale S]`` — regenerate one table/figure;
* ``verilog <benchmark> [-o FILE]`` — export a design as Verilog;
* ``predict <benchmark> [--scale S] [--show N]`` — train a predictor
  and show per-job predictions (the quickstart, from the shell);
* ``report <run-dir>`` — render a captured observability run
  (including the windowed serve dashboard and SLO status for serving
  runs; ``--export-trace out.json`` additionally writes Chrome-trace
  JSON for chrome://tracing / Perfetto); without a run directory, run
  all experiments into a markdown report;
* ``check <run-dir>`` — audit a captured run's accounting; without a
  run directory, re-run every (benchmark, scheme) episode under the
  invariant checker and diff canonical traces against the goldens
  (``--golden-dir tests/golden``, regenerate with ``--update-golden``);
* ``conform --seeds N`` — sweep sampled accelerators from
  :mod:`repro.gen` through the differential conformance battery:
  backend bit-for-bit agreement, offline-flow training, episode
  invariants on ASIC and FPGA, and adversarial served streams;
* ``serve --benchmark <name> --rate R --duration S`` — run the online
  serving runtime: seeded arrival streams over one or more
  accelerators, per-job slice prediction and level selection, bounded
  admission, fallback counting, and a stream-invariant check at the
  end (``--virtual`` drives the simulated clock flat-out instead of
  pacing arrivals against the wall clock).  ``--slo SPEC`` declares
  windowed objectives (``miss_rate<5%``, ``p99_decision_ms<1@95%``)
  tracked live with error-budget burn rates; an exhausted budget
  exits 3.

``experiment``, ``predict`` and ``report`` accept ``--profile`` (print
a stage-timing table) and ``--run-dir DIR`` (write ``manifest.json``
plus ``events.jsonl`` with per-stage spans and per-job records), plus
the performance knobs: ``--jobs N`` (worker processes for the offline
flow; default ``REPRO_JOBS`` or serial) and ``--cache-dir [DIR]``
(persistent artifact cache; bare flag uses ``~/.cache/repro``, default
``REPRO_CACHE_DIR`` or disabled).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from .accelerators import ALL_DESIGNS, get_design
from .workloads import check_scale, workload_for

@contextlib.contextmanager
def _maybe_observe(args: argparse.Namespace, command: str,
                   force: bool = False) -> Iterator:
    """Install an observability session when the flags ask for one.

    Yields the live Observer (``--profile`` and/or ``--run-dir``) or
    ``None`` (both absent — the zero-overhead path).  ``force=True``
    installs a session regardless: SLO enforcement needs the windowed
    time series even when no artifacts were requested.
    """
    run_dir = getattr(args, "run_dir", None)
    if not run_dir and not getattr(args, "profile", False) and not force:
        yield None
        return
    from .obs import session

    config = {
        key: value for key, value in vars(args).items()
        if key not in ("command",) and value is not None
    }
    if os.environ.get("REPRO_SCALE"):
        config["REPRO_SCALE"] = os.environ["REPRO_SCALE"]
    with session(run_dir=run_dir, command=command, config=config) as obs:
        yield obs


def _apply_perf_opts(args: argparse.Namespace) -> None:
    """Install the ``--jobs``/``--cache-dir``/``--backend`` settings
    globally.

    The worker count, cache and simulation backend become the
    process-wide defaults that ``record_jobs``, ``lasso_path``,
    ``bundle_for`` and ``make_simulation`` consult, so the whole flow
    honours the flags without threading them everywhere.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        from .parallel import set_default_jobs
        set_default_jobs(jobs)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from .parallel import ArtifactCache, set_cache
        set_cache(ArtifactCache(cache_dir))
    backend = getattr(args, "backend", None)
    if backend is not None:
        from .rtl import set_default_backend
        set_default_backend(backend)


def _maybe_prewarm(benchmarks, scale: Optional[float]) -> None:
    """Fan bundle builds out across workers when ``--jobs`` asks."""
    from .parallel import resolve_jobs

    if not benchmarks or resolve_jobs(None) <= 1:
        return
    from .experiments import prewarm_bundles
    from .workloads import ALL_BENCHMARKS

    if benchmarks == "all":
        benchmarks = ALL_BENCHMARKS
    prewarm_bundles(benchmarks, scale=scale)


def _print_cache_stats() -> None:
    """One-line cache footer for commands run with a cache enabled."""
    from .parallel import get_cache

    cache = get_cache()
    if cache is not None:
        print(f"cache: {cache.stats.describe()} — {cache.root}")


def _print_stage_timings(obs, run_dir: Optional[str]) -> None:
    """The post-run stage-timing footer for profiled commands."""
    from .obs.report import format_stage_table, summarize_perf

    print("\nstage timings:")
    print(format_stage_table(obs.tracer.aggregate()))
    perf = summarize_perf(obs.metrics.snapshot())
    if perf:
        print("parallelism/cache:")
        print(perf)
    if run_dir:
        print(f"run artifacts: {run_dir} "
              f"(render with: repro report {run_dir})")


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    print("benchmarks:")
    for name in ALL_DESIGNS:
        design = get_design(name)
        print(f"  {name:8s} {design.description} "
              f"({design.nominal_frequency / 1e6:.0f} MHz)")
    print("experiments:")
    for exp_id in EXPERIMENTS:
        print(f"  {exp_id}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .analysis.report import detection_report
    from .rtl import make_simulation, synthesize
    from .units import MS

    design = get_design(args.benchmark)
    module = design.build()
    netlist = synthesize(module)
    print(detection_report(module, netlist))
    if args.jobs > 0:
        workload = workload_for(design.name, scale=0.1)
        sim = make_simulation(module, track_state_cycles=False)
        times = []
        for item in workload.test[:args.jobs]:
            cycles = sim.run_job(*design.encode_job(item).as_pair()).cycles
            times.append(cycles / design.nominal_frequency / MS)
        print(f"  sampled {len(times)} jobs: "
              f"{min(times):.2f} / {sum(times) / len(times):.2f} / "
              f"{max(times):.2f} ms (min/avg/max)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, run_experiment

    exp_id = args.id
    if exp_id not in EXPERIMENTS:
        print(f"unknown experiment {exp_id!r}; valid ids: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    _apply_perf_opts(args)
    with _maybe_observe(args, f"experiment {exp_id}") as obs:
        _maybe_prewarm(EXPERIMENTS[exp_id].benchmarks, args.scale)
        print(run_experiment(exp_id, args.scale)[1])
        if obs is not None:
            _print_stage_timings(obs, args.run_dir)
    _print_cache_stats()
    return 0


def _cmd_verilog(args: argparse.Namespace) -> int:
    from .rtl import to_verilog

    design = get_design(args.benchmark)
    text = to_verilog(design.build())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Lint a benchmark design and print the findings."""
    from .rtl.lint import lint_module

    design = get_design(args.benchmark)
    findings = lint_module(design.build())
    if not findings:
        print(f"{args.benchmark}: clean")
        return 0
    for finding in findings:
        print(str(finding))
    has_errors = any(f.severity == "error" for f in findings)
    return 1 if has_errors else 0


def _cmd_wave(args: argparse.Namespace) -> int:
    """Dump a VCD waveform of one test job."""
    from .rtl import make_simulation
    from .rtl.wave import VcdWriter

    design = get_design(args.benchmark)
    module = design.build()
    workload = workload_for(design.name, scale=0.1)
    job = design.encode_job(workload.test[args.job])
    with open(args.output, "w") as handle:
        writer = VcdWriter(module, handle)
        sim = make_simulation(module, listener=writer)
        result = sim.run_job(*job.as_pair())
        writer.finish(sim.cycle)
    print(f"wrote {args.output} ({result.cycles} cycles)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a captured run directory, or (without one) run every
    registered experiment and write one markdown report."""
    import time

    if args.run:
        from .obs.report import render_run
        try:
            print(render_run(args.run))
        except (FileNotFoundError, NotADirectoryError):
            print(f"no run manifest under {args.run!r} — expected "
                  f"a directory written by --run-dir "
                  f"(containing manifest.json)", file=sys.stderr)
            return 2
        if args.export_trace:
            from .obs.export import write_chrome_trace
            path = write_chrome_trace(args.run, args.export_trace)
            print(f"wrote {path} (Chrome-trace JSON)")
        return 0
    if args.export_trace:
        print("--export-trace needs a captured run directory",
              file=sys.stderr)
        return 2

    from .experiments import EXPERIMENTS, run_experiment

    printed = set()  # golden stems: fig19 repeats fig18's
    sections: List[str] = [
        "# Reproduction report",
        f"workload scale: {args.scale if args.scale is not None else 'default'}",
        "",
    ]
    t0 = time.time()
    _apply_perf_opts(args)
    with _maybe_observe(args, "report") as obs:
        _maybe_prewarm("all", args.scale)
        for exp_id in args.only or EXPERIMENTS:
            row = EXPERIMENTS.get(exp_id)
            if row is None:
                print(f"skipping unknown experiment {exp_id!r}",
                      file=sys.stderr)
                continue
            if row.stem in printed:
                continue
            printed.add(row.stem)
            result, text = run_experiment(exp_id, args.scale)
            if exp_id == "fig11":
                from .experiments.charts import fig11_chart
                text += "\n\n" + fig11_chart(result)
            elif exp_id == "fig15":
                from .experiments.charts import fig15_chart
                text += "\n\n" + fig15_chart(result)
            sections.append(f"## {exp_id}\n\n```\n{text}\n```\n")
            print(f"  {exp_id} done ({time.time() - t0:.0f}s elapsed)")
        if obs is not None:
            _print_stage_timings(obs, args.run_dir)
    _print_cache_stats()
    report = "\n".join(sections)
    with open(args.output, "w") as handle:
        handle.write(report)
    print(f"wrote {args.output}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Audit a captured run directory, or freshly re-run and verify
    every (benchmark, scheme) episode against the invariant checker
    and (optionally) the committed golden traces."""
    from .check import check_run_dir

    if args.run:
        try:
            violations = check_run_dir(args.run)
        except FileNotFoundError:
            print(f"no run manifest under {args.run!r} — expected a "
                  f"directory written by --run-dir (containing "
                  f"manifest.json)", file=sys.stderr)
            return 2
        for line in violations:
            print(f"VIOLATION: {line}")
        print(f"{args.run}: "
              + ("clean" if not violations
                 else f"{len(violations)} violation(s)"))
        return 1 if violations else 0
    return _check_fresh(args)


def _cmd_conform(args: argparse.Namespace) -> int:
    """Sweep sampled designs through the conformance battery and
    report one status line per design; exit 1 on any failing check."""
    from .gen import run_conformance

    _apply_perf_opts(args)
    failures = 0
    with _maybe_observe(args, "conform") as obs:
        reports = run_conformance(args.seeds, complexity=args.complexity)
        if obs is not None:
            _print_stage_timings(obs, args.run_dir)
    for report in reports:
        print(report.summary())
        for name, diag in report.failures.items():
            print(f"  FAIL {name}: {diag}")
            failures += 1
    n_pass = sum(1 for r in reports if r.passed)
    print(f"conform: {n_pass}/{len(reports)} designs pass "
          f"({args.complexity}, {len(reports)} seed(s))")
    return 1 if failures else 0


def _check_fresh(args: argparse.Namespace) -> int:
    """The fresh-run half of ``repro check``: episodes + goldens."""
    from .check import (
        canonical_episode,
        check_episode,
        diff_against_golden,
        golden_path,
        make_golden_payload,
        run_mutation_smoke,
        save_golden,
    )
    from .experiments import default_config
    from .experiments.runner import (
        ALL_SCHEMES,
        bundle_for,
        run_scheme,
        tech_context,
    )
    from .workloads import ALL_BENCHMARKS

    benchmarks = args.benchmarks or list(ALL_BENCHMARKS)
    for name in benchmarks:
        if name not in ALL_BENCHMARKS:
            print(f"unknown benchmark {name!r}; valid: "
                  f"{', '.join(ALL_BENCHMARKS)}", file=sys.stderr)
            return 2
    schemes = args.schemes or list(ALL_SCHEMES)
    for name in schemes:
        if name not in ALL_SCHEMES:
            print(f"unknown scheme {name!r}; valid: "
                  f"{', '.join(ALL_SCHEMES)}", file=sys.stderr)
            return 2
    scale = args.scale if args.scale is not None \
        else default_config().scale
    _apply_perf_opts(args)
    failures = 0
    with _maybe_observe(args, "check") as obs:
        _maybe_prewarm(tuple(benchmarks), scale)
        for bench in benchmarks:
            ctx = tech_context(bundle_for(bench, scale), tech=args.tech)
            episodes = {}
            n_violations = 0
            for scheme in schemes:
                # Checked here, once, whatever REPRO_CHECK says.
                result = run_scheme(ctx, scheme, strict=False)
                violations = check_episode(
                    result,
                    energy_model=ctx.energy_model,
                    slice_energy_model=ctx.slice_energy_model,
                    levels=ctx.levels,
                    t_switch=ctx.config.t_switch,
                )
                for violation in violations:
                    print(f"VIOLATION: {bench}/{args.tech}/{scheme} "
                          f"{violation}")
                n_violations += len(violations)
                episodes[scheme] = canonical_episode(result)
            failures += n_violations
            golden_note = ""
            payload = make_golden_payload(bench, args.tech, scale,
                                          episodes)
            if args.golden_dir:
                path = golden_path(args.golden_dir, bench, args.tech)
                if args.update_golden:
                    save_golden(path, payload)
                    golden_note = f", golden updated ({path})"
                else:
                    drifts = diff_against_golden(payload, path)
                    if drifts is None:
                        print(f"DRIFT: {bench}/{args.tech}: no golden "
                              f"at {path} — generate one with "
                              f"--update-golden")
                        failures += 1
                        golden_note = ", golden missing"
                    elif drifts:
                        for line in drifts:
                            print(f"DRIFT: {bench}/{args.tech}: {line}")
                        failures += len(drifts)
                        golden_note = f", {len(drifts)} golden drift(s)"
                    else:
                        golden_note = ", golden match"
            print(f"{bench}/{args.tech}: {len(schemes)} schemes, "
                  f"{n_violations} violation(s){golden_note}")
            if args.smoke:
                # Seed known accounting bugs into a scheme that both
                # switches levels and meets deadlines, and demand the
                # checker catches every one of them.  The serve-layer
                # mutations ride along on an engineered stream that
                # has fallback and shed jobs present.
                caught = run_mutation_smoke(
                    run_scheme(ctx, "history"),
                    energy_model=ctx.energy_model,
                    slice_energy_model=ctx.slice_energy_model,
                    levels=ctx.levels,
                    t_switch=ctx.config.t_switch,
                    stream=_smoke_stream(ctx),
                )
                missed = sorted(name for name, violations
                                in caught.items() if not violations)
                if missed:
                    print(f"SMOKE: {bench}/{args.tech}: checker missed "
                          f"seeded bug(s): {', '.join(missed)}")
                    failures += len(missed)
                else:
                    print(f"{bench}/{args.tech}: smoke ok "
                          f"({len(caught)} seeded bugs caught)")
        if obs is not None:
            _print_stage_timings(obs, args.run_dir)
    _print_cache_stats()
    print("check: " + ("ok" if failures == 0
                       else f"{failures} failure(s)"))
    return 1 if failures else 0


def _smoke_stream(ctx):
    """An engineered served stream with completed, fallback and shed
    jobs all present — the preconditions of the serve-layer mutations
    in :func:`repro.check.run_mutation_smoke`."""
    from dataclasses import replace

    from .experiments.runner import make_controller
    from .serve import (
        AcceleratorStream,
        RecordPredictor,
        ServeConfig,
        serve_stream,
        stream_from_records,
    )

    # Strip every third prediction (forces fallbacks) and fire all
    # arrivals at t=0 against a depth-2 queue (forces shedding).
    records = [
        replace(r, predicted_cycles=None) if i % 3 == 0 else r
        for i, r in enumerate(ctx.bundle.test_records[:12])
    ]
    stream = AcceleratorStream(
        ctx.name, make_controller(ctx, "prediction"),
        ctx.energy_model, ctx.slice_energy_model,
        predictor=RecordPredictor(),
        config=ServeConfig(deadline=ctx.config.deadline,
                           t_switch=ctx.config.t_switch,
                           queue_depth=2))
    jobs = stream_from_records(records, [0.0] * len(records))
    return serve_stream(stream, jobs)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the online serving runtime: one independent stream per
    benchmark, or (``--fleet N``) one mixed stream over a pool."""
    from .experiments.runner import ALL_SCHEMES
    from .workloads import ALL_BENCHMARKS

    for name in args.benchmark:
        if name not in ALL_BENCHMARKS:
            print(f"unknown benchmark {name!r}; valid: "
                  f"{', '.join(ALL_BENCHMARKS)}", file=sys.stderr)
            return 2
    if args.scheme not in ALL_SCHEMES:
        print(f"unknown scheme {args.scheme!r}; valid: "
              f"{', '.join(ALL_SCHEMES)}", file=sys.stderr)
        return 2
    if args.fleet is not None and args.fleet < len(args.benchmark):
        print(f"--fleet {args.fleet} cannot cover {len(args.benchmark)} "
              "benchmarks (each needs at least one instance)",
              file=sys.stderr)
        return 2
    slo_specs = []
    if args.slo:
        from .obs import parse_slo
        try:
            slo_specs = [parse_slo(text) for text in args.slo]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    _apply_perf_opts(args)
    if args.fleet is None:
        setup, command = _serve_streams, "serve "
    else:
        setup, command = _serve_fleet, "serve --fleet "
    slo_exhausted = False
    with _maybe_observe(args, command + " ".join(args.benchmark),
                        force=bool(slo_specs)) as obs:
        if obs is not None:
            if args.slo_window_ms is not None:
                from .obs import TimeSeriesRegistry
                obs.timeseries = TimeSeriesRegistry(
                    window_s=args.slo_window_ms * 1e-3)
            if slo_specs:
                from .obs import SloTracker
                obs.slo = SloTracker(slo_specs)
        try:
            serve = setup(args)
        except ValueError as exc:  # a bad flag value, named
            print(str(exc), file=sys.stderr)
            return 2
        failures = serve(obs)
        if obs is not None and obs.slo is not None:
            print("slo:")
            print(obs.slo.describe())
            slo_exhausted = obs.slo.exhausted
        if obs is not None and (args.profile or args.run_dir):
            _print_stage_timings(obs, args.run_dir)
    _print_cache_stats()
    print("serve: " + ("ok" if failures == 0
                       else f"{failures} violation(s)")
          + (", slo budget exhausted" if slo_exhausted else ""))
    if failures:
        return 1
    return 3 if slo_exhausted else 0


def _serve_config(args: argparse.Namespace, ctx, **extra):
    """The ``ServeConfig`` the serve flags give one stream or shard.

    Strict mode stays off: ``repro serve`` checks every result itself,
    once, and prints each violation.  Raises ``ValueError``, naming
    the field, on a bad value.
    """
    from .serve import ServeConfig
    from .units import MS

    return ServeConfig(
        deadline=(args.deadline_ms * MS if args.deadline_ms is not None
                  else ctx.config.deadline),
        t_switch=ctx.config.t_switch,
        queue_depth=args.queue_depth,
        batch_max=args.batch,
        strict=False,
        **extra)


def _arrivals(args: argparse.Namespace, seed: int) -> List[float]:
    """The arrival instants of ``--arrival`` at ``--rate``, bounded by
    ``--jobs`` or ``--duration`` (default 2 s).

    Raises ``ValueError``, naming the argument, on a bad value.
    """
    from .serve import burst_arrivals, poisson_arrivals

    duration, n_jobs = args.duration, args.n_jobs
    if duration is None and n_jobs is None:
        duration = 2.0
    if args.arrival == "poisson":
        return poisson_arrivals(args.rate, duration=duration,
                                n_jobs=n_jobs, seed=seed)
    if duration is None:  # burst_arrivals names a bad rate itself
        duration = n_jobs / args.rate if args.rate > 0.0 else 0.0
    return burst_arrivals(args.rate, duration, seed=seed)


def _serve_streams(args: argparse.Namespace):
    """Set up one independent stream per benchmark.

    Returns the callable that serves them, prints each stream's
    violations and report, and returns the violation count.
    """
    from .check import check_stream
    from .experiments.runner import (
        bundle_for,
        make_controller,
        tech_context,
    )
    from .serve import (
        AcceleratorStream,
        LoadReport,
        RecordPredictor,
        SlicePredictor,
        build_stream_jobs,
        serve_streams,
    )
    from .units import MS

    budget = (args.prediction_budget_ms * MS
              if args.prediction_budget_ms is not None else None)
    streams = []
    for i, bench in enumerate(args.benchmark):
        bundle = bundle_for(bench, args.scale)
        ctx = tech_context(bundle, tech=args.tech)
        controller = make_controller(ctx, args.scheme)
        predictor = (SlicePredictor(bundle.package)
                     if args.predictor == "slice"
                     else RecordPredictor())
        config = _serve_config(args, ctx, prediction_budget=budget)
        jobs = build_stream_jobs(
            bundle, _arrivals(args, args.seed + i),
            with_inputs=(args.predictor == "slice"))
        streams.append((AcceleratorStream(
            bench, controller, ctx.energy_model,
            ctx.slice_energy_model, predictor=predictor,
            config=config), jobs))

    def serve(obs) -> int:
        failures = 0
        results = serve_streams(streams, realtime=not args.virtual)
        for (stream, _), result in zip(streams, results):
            violations = check_stream(
                result,
                energy_model=stream.energy_model,
                slice_energy_model=stream.slice_energy_model,
                levels=stream.levels,
                t_switch=stream.config.t_switch,
                uses_slice=stream.controller.uses_slice,
                charge_overheads=stream.controller.charge_overheads,
            )
            for violation in violations:
                print(f"VIOLATION: {result.stream}/{result.scheme} "
                      f"{violation}")
            failures += len(violations)
            report = LoadReport.from_result(result, mode="open",
                                            offered_rate=args.rate)
            print(report.describe())
        return failures

    return serve


def _serve_fleet(args: argparse.Namespace):
    """Set up the ``--fleet N`` pool and its one mixed stream.

    Instances spread round-robin over the listed benchmarks, one
    benchmark each; the dispatcher routes by ``--policy`` and shards
    fan out over ``--workers`` processes.  The fleet runs on the
    virtual clock and replays precomputed predictions (a live slice
    does not cross the process boundary).  Returns the callable that
    serves the stream, prints its reports and returns the violation
    count.
    """
    from .check import check_fleet
    from .experiments.runner import (
        bundle_for,
        make_controller,
        tech_context,
    )
    from .serve import (
        FleetConfig,
        LoadReport,
        RecordPredictor,
        ShardSpec,
        build_mixed_stream,
        parse_tenants,
        serve_fleet,
    )

    benchmarks = list(args.benchmark)
    tenants = parse_tenants(args.tenants)
    config = FleetConfig(policy=args.policy,
                         global_depth=args.global_depth,
                         elastic=args.elastic,
                         strict=False)  # checked explicitly below
    bundles = {}
    contexts = {}
    for bench in benchmarks:
        bundles[bench] = bundle_for(bench, args.scale)
        contexts[bench] = tech_context(bundles[bench], tech=args.tech)
    specs = []
    for i in range(args.fleet):
        bench = benchmarks[i % len(benchmarks)]
        ctx = contexts[bench]
        specs.append(ShardSpec(
            name=f"{bench}#{i}", benchmark=bench,
            controller=make_controller(ctx, args.scheme),
            energy_model=ctx.energy_model,
            slice_energy_model=ctx.slice_energy_model,
            predictor=RecordPredictor(),
            config=_serve_config(args, ctx)))
    jobs = build_mixed_stream(
        bundles, _arrivals(args, args.seed), seed=args.seed,
        tenants=[t.name for t in tenants])

    def serve(obs) -> int:
        result = serve_fleet(specs, jobs, config=config,
                             tenants=tenants, workers=args.workers)
        for shard in result.shards:
            print(LoadReport.from_result(shard, mode="open").describe())
        print(result.describe())
        for tenant, row in sorted(result.tenant_summary().items()):
            print(f"tenant {tenant}: offered={row['offered']} "
                  f"completed={row['completed']} "
                  f"fallback={row['fallback']} shed={row['shed']}")
        violations = check_fleet(result)
        for violation in violations:
            print(f"VIOLATION: fleet/{result.policy} {violation}")
        if obs is not None:
            # The per-shard serve counters reach this (parent) registry
            # through the pool's snapshot ship-back; printing them here
            # is what the CI smoke asserts survives --workers N.
            counters = obs.metrics.counters
            print("fleet counters: "
                  f"offered={counters.get('serve.offered', 0):.0f} "
                  f"completed={counters.get('serve.completed', 0):.0f} "
                  f"fallback={counters.get('serve.fallback', 0):.0f} "
                  f"shed={counters.get('serve.shed', 0):.0f} "
                  "dropped="
                  f"{counters.get('pool.dropped_observers', 0):.0f}")
        return len(violations)

    return serve


def _cmd_predict(args: argparse.Namespace) -> int:
    from .flow import generate_predictor
    from .units import MS

    design = get_design(args.benchmark)
    workload = workload_for(design.name, scale=args.scale)
    print(f"training on {len(workload.train)} jobs ...")
    _apply_perf_opts(args)
    with _maybe_observe(args, f"predict {args.benchmark}") as obs:
        package = generate_predictor(design, workload.train)
        if obs is not None:
            _print_stage_timings(obs, args.run_dir)
    _print_cache_stats()
    print(f"{package.n_candidate_features} candidate features -> "
          f"{package.n_selected_features} selected; slice area "
          f"{package.slice_cost.area_fraction * 100:.1f}%")
    f0 = design.nominal_frequency
    from .rtl import make_simulation
    sim = make_simulation(package.module, track_state_cycles=False)
    run_slice = package.slice_runner()
    print(f"{'job':>4s} {'predicted':>10s} {'actual':>10s} {'err%':>7s}")
    for i, item in enumerate(workload.test[:args.show]):
        job = design.encode_job(item)
        predicted, _ = run_slice(job)
        actual = sim.run_job(*job.as_pair()).cycles
        print(f"{i:4d} {predicted / f0 / MS:8.2f}ms "
              f"{actual / f0 / MS:8.2f}ms "
              f"{(predicted - actual) / actual * 100:7.2f}")
    return 0


def _scale(text: str) -> float:
    """``--scale`` values: the workload-scale rule, as an argparse type
    so a bad value exits 2 with the rule's message."""
    try:
        return check_scale(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predictive DVFS for hardware accelerators "
                    "(MICRO 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs_opts = argparse.ArgumentParser(add_help=False)
    obs_opts.add_argument(
        "--profile", action="store_true",
        help="collect spans/metrics and print a stage-timing table")
    obs_opts.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="write manifest.json + events.jsonl run artifacts to DIR")

    from .parallel import DEFAULT_CACHE_DIR
    perf_opts = argparse.ArgumentParser(add_help=False)
    perf_opts.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the offline flow "
             "(default: REPRO_JOBS or serial)")
    perf_opts.add_argument(
        "--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
        metavar="DIR",
        help="persist flow artifacts (bare flag: ~/.cache/repro; "
             "default: REPRO_CACHE_DIR or disabled)")
    from .rtl import BACKENDS
    from .rtl.backend import DEFAULT_BACKEND
    perf_opts.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="simulation kernel, one of: "
             f"{', '.join(BACKENDS)} (default: {DEFAULT_BACKEND}); "
             "see docs/performance.md")

    sub.add_parser("list", help="list benchmarks and experiments")

    p = sub.add_parser("describe", help="structural analysis of a design")
    p.add_argument("benchmark", choices=ALL_DESIGNS)
    p.add_argument("--jobs", type=int, default=5,
                   help="sample N jobs for timing stats (0 to skip)")

    p = sub.add_parser("experiment", help="regenerate a table/figure",
                       parents=[obs_opts, perf_opts])
    p.add_argument("id", help="an experiment id, as `repro list` prints")
    p.add_argument("--scale", type=_scale, default=None,
                   help="workload scale (default: REPRO_SCALE or 1.0)")

    p = sub.add_parser("verilog", help="export a design as Verilog")
    p.add_argument("benchmark", choices=ALL_DESIGNS)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("predict", help="train and demo a predictor",
                       parents=[obs_opts, perf_opts])
    p.add_argument("benchmark", choices=ALL_DESIGNS)
    p.add_argument("--scale", type=_scale, default=0.15)
    p.add_argument("--show", type=int, default=8, metavar="N",
                   help="number of test jobs to predict and print")

    p = sub.add_parser("lint", help="lint a benchmark design")
    p.add_argument("benchmark", choices=ALL_DESIGNS)

    p = sub.add_parser("wave", help="dump a VCD waveform of one job")
    p.add_argument("benchmark", choices=ALL_DESIGNS)
    p.add_argument("-o", "--output", default="job.vcd")
    p.add_argument("--job", type=int, default=0)

    p = sub.add_parser(
        "check", parents=[obs_opts, perf_opts],
        help="audit a run dir, or re-run episodes under the invariant "
             "checker and diff against golden traces")
    p.add_argument("run", nargs="?", default=None,
                   help="a --run-dir directory to audit (omit to run "
                        "fresh episodes under the checker)")
    p.add_argument("--scale", type=_scale, default=None,
                   help="workload scale (default: REPRO_SCALE or 1.0)")
    p.add_argument("--tech", choices=("asic", "fpga"), default="asic")
    p.add_argument("--benchmarks", nargs="*", default=None,
                   metavar="NAME", help="subset of benchmarks "
                                        "(default: all seven)")
    p.add_argument("--schemes", nargs="*", default=None, metavar="NAME",
                   help="subset of schemes (default: all)")
    p.add_argument("--golden-dir", default=None, metavar="DIR",
                   help="diff canonical traces against goldens in DIR "
                        "(e.g. tests/golden)")
    p.add_argument("--update-golden", action="store_true",
                   help="write fresh goldens instead of diffing "
                        "(intentional regeneration)")
    p.add_argument("--smoke", action="store_true",
                   help="also seed known accounting bugs and assert "
                        "the checker catches them")

    p = sub.add_parser(
        "conform", parents=[obs_opts, perf_opts],
        help="sweep generated designs through the differential "
             "conformance battery (backends, flow, episodes, streams)")
    p.add_argument("--seeds", type=int, default=10, metavar="N",
                   help="number of sampler seeds to sweep, 0..N-1 "
                        "(default 10)")
    p.add_argument("--complexity", choices=("small", "medium", "large"),
                   default="medium")

    p = sub.add_parser(
        "serve", parents=[obs_opts],
        help="run the online serving runtime over live job streams")
    p.add_argument("--benchmark", nargs="+", required=True,
                   metavar="NAME",
                   help="benchmark(s) to stream (one stream each)")
    p.add_argument("--rate", type=float, default=100.0,
                   help="offered arrival rate in jobs/s (default 100)")
    p.add_argument("--duration", type=float, default=None, metavar="S",
                   help="stream length in seconds (default 2 when "
                        "--jobs is not given)")
    p.add_argument("--jobs", dest="n_jobs", type=int, default=None,
                   metavar="N",
                   help="total jobs to offer (alternative to "
                        "--duration)")
    p.add_argument("--scheme", default="prediction",
                   help="DVFS scheme per stream (default: prediction)")
    p.add_argument("--scale", type=_scale, default=0.05,
                   help="workload scale for the bundles (default 0.05)")
    p.add_argument("--tech", choices=("asic", "fpga"), default="asic")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-job deadline in ms (default: the "
                        "experiment config's 16.7 ms)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission bound on the virtual backlog")
    p.add_argument("--batch", type=int, default=8,
                   help="micro-batch size cap (default 8)")
    p.add_argument("--arrival", choices=("poisson", "burst"),
                   default="poisson")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predictor", choices=("slice", "record"),
                   default="slice",
                   help="slice = simulate the prediction slice per "
                        "job; record = replay precomputed predictions")
    p.add_argument("--prediction-budget-ms", type=float, default=None,
                   help="wall-clock budget per decision; overruns "
                        "fall back to max frequency")
    p.add_argument("--virtual", action="store_true",
                   help="drive the virtual clock flat-out instead of "
                        "pacing arrivals against the wall clock")
    p.add_argument("--fleet", type=int, default=None, metavar="N",
                   help="dispatch ONE mixed stream across a pool of N "
                        "accelerator instances (spread round-robin "
                        "over the listed benchmarks) instead of one "
                        "independent stream per benchmark")
    p.add_argument("--policy", default="least_loaded",
                   choices=("round_robin", "least_loaded",
                            "energy_aware", "deadline"),
                   help="fleet routing policy (default: least_loaded)")
    p.add_argument("--tenants", default="default", metavar="SPEC",
                   help="comma-separated tenant contracts, each "
                        "name[:rate=R][:burst=B] (default: one "
                        "unlimited 'default' tenant)")
    p.add_argument("--elastic", action="store_true",
                   help="scale pool instances up/down against "
                        "backlog watermarks")
    p.add_argument("--global-depth", type=int, default=512,
                   help="fleet-wide admission bound on projected "
                        "backlog (default 512)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes for fleet shard execution "
                        "(default: REPRO_JOBS or serial)")
    p.add_argument("--slo", action="append", default=None,
                   metavar="SPEC",
                   help="windowed SLO to enforce, e.g. 'miss_rate<5%%' "
                        "or 'p99_decision_ms<1@95%%' (repeatable; "
                        "exits 3 when any error budget is exhausted)")
    p.add_argument("--slo-window-ms", type=float, default=None,
                   metavar="MS",
                   help="time-series window width in virtual ms "
                        "(default 100)")
    p.add_argument("--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR,
                   default=None, metavar="DIR",
                   help="persist flow artifacts (bare flag: "
                        "~/.cache/repro)")
    p.add_argument("--backend", choices=BACKENDS, default=None,
                   help="simulation kernel for slice prediction")

    p = sub.add_parser(
        "report", parents=[obs_opts, perf_opts],
        help="render a captured run dir, or run experiments into "
             "a markdown report")
    p.add_argument("run", nargs="?", default=None,
                   help="a --run-dir directory to render (omit to "
                        "regenerate the full markdown report)")
    p.add_argument("-o", "--output", default="reproduction_report.md")
    p.add_argument("--scale", type=_scale, default=None)
    p.add_argument("--only", nargs="*", default=None,
                   help="subset of experiment ids")
    p.add_argument("--export-trace", default=None, metavar="OUT.json",
                   help="with a run dir: also export it as "
                        "Chrome-trace JSON (load in chrome://tracing "
                        "or ui.perfetto.dev)")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "describe": _cmd_describe,
    "check": _cmd_check,
    "conform": _cmd_conform,
    "experiment": _cmd_experiment,
    "verilog": _cmd_verilog,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "wave": _cmd_wave,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
