"""Run one end-to-end benchmark workload and print its metrics.

From the repository root::

    python3 benchmarks/e2e/run.py --workload stream_poisson --seed 1 \\
        [--seconds 10] [--trace 0|1] [--out DIR] [--smoke]

One run, in one process:

1. builds the bundles the workload serves from (untimed);
2. sets the workload up three times (a fresh interpreter importing
   repro, plus the seeded inputs) and reports the median as
   ``setup_s``;
3. warms up, then repeats timed passes until ``--seconds`` have passed
   (at least three passes, two for ``offline_flow`` and
   ``stream_slice``), checking the first pass's outputs with the
   invariant checkers and proving every pass produces the same outcome
   digest;
4. with ``--trace 1``, runs one more pass with timing shims installed
   and reports the per-layer metrics.

Set-ups and timed passes run under a :class:`host.Sampler`, and every
end-to-end timing is normalized to a reference host speed by its
probes; the measured seconds go to the result JSON as provenance.

It prints every metric by name and unit, writes a result JSON (read by
``compare.py``) and the traced spans to ``--out``, and prints one JSON
object as its last line: the end-to-end metrics every workload shares,
or with ``--trace 1`` the per-layer metrics.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the checkout
holds no ``src/repro`` or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Settings that would change what a run measures.
SCRUBBED_ENV = ("REPRO_SERVE_ENGINE", "REPRO_BACKEND", "REPRO_JOBS",
                "REPRO_CACHE_DIR", "REPRO_CHECK", "REPRO_SCALE")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
SMOKE_MIN_PASSES = 2
#: Stop adding passes after this many seconds of run time, so a run
#: ends well within three minutes even on a slow host.
RUN_CAP_S = 120.0
MAX_UNATTRIBUTED_PCT = 5.0
IMPORT_PROBE = "import repro.experiments, repro.serve, repro.check"


def pin_environment() -> None:
    """Scrub repro's knobs, pin BLAS to one thread and put ``src`` and
    the repository root on the import path.  Must run before numpy is
    imported."""
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def set_up(workload, seed: int) -> None:
    """One set-up: a fresh interpreter imports repro's API, then the
    run's seeded inputs are built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                   cwd=ROOT, check=True, timeout=120)
    workload.setup(seed)


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- the traced pass ---------------------------------------------------


def traced_layers(workload, digest: str, raw_wall_s: float,
                  outcomes: Dict[str, float],
                  check_times: Dict[str, float],
                  decisions: Sequence[float]):
    """Run one pass under the shims.

    Layer times are measured, not normalized: they are shares of the
    traced pass, compared with ``raw_wall_s``, the untraced passes'
    measured wall time.

    Returns ``(layers, traced_wall_s, spans, problems)``: ``layers``
    maps each per-layer metric to its value, unit and status, the shim
    status of the layer it reads (``ok``, ``partial`` or ``absent``).
    """
    from benchmarks.e2e.metrics import LAYERS
    from benchmarks.e2e.shims import Shims
    from repro.serve import percentile

    gc.collect()
    shims = Shims()
    with shims:
        origin = time.perf_counter()
        output, steps = workload.run_pass()
    traced = sum(steps.values())
    output = workload.finish(output)
    problems = []
    if workload.digest(output) != digest:
        problems.append("the traced pass changed the outcome digest")

    self_s = shims.self_times()
    calls = shims.calls()
    counts = shims.counts
    units = {name: unit for name, unit, _ in LAYERS}
    layers: Dict[str, dict] = {}

    def put(name, value, layer=None):
        status = shims.status.get(layer, "ok") if layer else "ok"
        layers[name] = {"value": float(value), "unit": units[name],
                        "status": status}

    def count(layer, key):
        return counts[layer].get(key, 0)

    for layer in shims.layers:
        put(f"{layer}_s", self_s[layer], layer)
    put("rtl.compiled_clone_calls", calls["rtl.compiled_clone"],
        "rtl.compiled_clone")
    put("analysis.record_jobs", count("analysis.record", "jobs"),
        "analysis.record")
    put("flow.test_jobs", count("flow.test_records", "jobs"),
        "flow.test_records")
    put("runtime.episode_jobs", count("runtime.episode", "jobs"),
        "runtime.episode")

    cycles = (outcomes.get("rtl.sim_cycles", 0)
              + count("serve.predict", "cycles"))
    sim_s = (self_s["analysis.record"] + self_s["flow.test_records"]
             + self_s["serve.predict"])
    put("rtl.sim_cycles", cycles)
    put("rtl.host_ns_per_cycle", 1e9 * sim_s / cycles if cycles else 0.0)

    predicted = count("serve.predict", "jobs")
    put("serve.predict_calls", predicted, "serve.predict")
    put("serve.predict_calls_per_job",
        predicted / workload.jobs_of(output), "serve.predict")
    epochs = count("serve.epoch", "epochs")
    epoch_jobs = count("serve.epoch", "jobs")
    window = count("serve.epoch", "window_jobs")
    put("serve.epochs", epochs, "serve.epoch")
    put("serve.epoch_jobs", epoch_jobs, "serve.epoch")
    put("serve.epoch_mean_jobs", epoch_jobs / epochs if epochs else 0.0,
        "serve.epoch")
    put("serve.epoch_commit_ratio", epoch_jobs / window if window else 0.0,
        "serve.epoch")
    put("serve.epoch_declines", count("serve.epoch", "declines"),
        "serve.epoch")
    batches = count("serve.batch", "batches")
    put("serve.batches", batches, "serve.batch")
    put("serve.batch_mean_jobs",
        count("serve.batch", "jobs") / batches if batches else 0.0,
        "serve.batch")

    for name in ("check.episode_s", "check.stream_s", "check.fleet_s"):
        put(name, check_times.get(name, 0.0))
    for name in ("serve.queue_wait_ms_mean", "dvfs.level_switches",
                 "serve.fleet.shed_rate_limit",
                 "serve.fleet.shed_admission",
                 "serve.fleet.shed_deadline"):
        put(name, outcomes.get(name, 0.0))
    ordered = sorted(decisions)
    put("serve.decision_p50_us", 1e6 * percentile(ordered, 50))
    put("serve.decision_p99_us", 1e6 * percentile(ordered, 99))

    unattributed = 100.0 * (traced - sum(self_s.values())) / traced
    put("unattributed_pct", unattributed)
    put("trace_overhead_pct", 100.0 * (traced / raw_wall_s - 1.0))
    if unattributed > MAX_UNATTRIBUTED_PCT:
        problems.append(f"{unattributed:.2f}% of the traced pass is "
                        f"unattributed (limit {MAX_UNATTRIBUTED_PCT}%)")
    missing = set(units) ^ set(layers)
    if missing:
        raise RuntimeError(f"layer table out of step: {sorted(missing)}")
    return layers, traced, shims.to_json(origin), problems


# -- one run -----------------------------------------------------------


def run(args) -> int:
    import numpy

    from benchmarks.e2e.host import REF_PROBE_S, Sampler, Timing
    from benchmarks.e2e.metrics import end_to_end_for
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.serve import percentile

    started = time.time()
    t_start = time.perf_counter()
    workload = WORKLOADS[args.workload](smoke=args.smoke)

    t0 = time.perf_counter()
    workload.prepare()
    bundle_s = time.perf_counter() - t0

    sampler = Sampler()
    workload.clock = sampler.clock
    setups: List[Timing] = []
    passes: List[Timing] = []
    steps: Dict[str, List[float]] = {}
    digests: List[str] = []
    # Compact, so peak memory does not grow with the pass count.
    decisions = array.array("d")
    first = None
    violations: List[str] = []
    check_times: Dict[str, float] = {}
    min_passes = SMOKE_MIN_PASSES if args.smoke else workload.min_passes
    with sampler:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setups.append(sampler.timed(set_up, workload, args.seed)[1])
        workload.warm_up()

        measured = sampler.mark()
        t_measure = time.perf_counter()
        while True:
            gc.collect()
            mark = sampler.mark()
            output, pass_steps = workload.run_pass()
            passes.append(Timing(sum(pass_steps.values()),
                                 sampler.scale_since(mark)))
            output = workload.finish(output)
            for name, seconds in pass_steps.items():
                steps.setdefault(name, []).append(seconds)
            digests.append(workload.digest(output))
            decisions.extend(workload.decisions(output))
            if first is None:
                first = output
                violations, check_times = workload.check(first)
                # Later passes have the same footprint; reading the
                # peak here keeps allocator noise from extra passes
                # out of it.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            output = None
            now = time.perf_counter()
            if len(digests) >= min_passes and (
                    now - t_measure >= args.seconds
                    or now - t_start >= RUN_CAP_S):
                break
        run_scale = sampler.scale_since(measured)
    n_passes = len(digests)
    if len(set(digests)) != 1:
        violations.append(f"outcome digest differs across passes: "
                          f"{sorted(set(digests))}")

    wall_s = statistics.median(p.normalized for p in passes)
    raw_wall_s = statistics.median(p.seconds for p in passes)
    jobs = workload.jobs_of(first)
    outcomes = workload.outcomes(first)
    values = dict(outcomes)
    values.update({
        "setup_s": statistics.median(s.normalized for s in setups),
        "wall_s": wall_s,
        "jobs_per_s": jobs / wall_s,
        "peak_rss_mb": peak_rss_mb,
        # Decisions are timed inside repro, so they are normalized by
        # the probes of all timed passes rather than pass by pass.
        "decision_p50_us": 1e6 * percentile(sorted(decisions), 50)
        * run_scale,
    })
    metrics = {m.name: {"value": values[m.name], "unit": m.unit,
                        "better": m.better, "bound": m.bound,
                        "gated": workload.name not in m.ungated}
               for m in end_to_end_for(workload.name)}

    spans = None
    if args.trace:
        layers, traced_wall_s, spans, problems = traced_layers(
            workload, digests[0], raw_wall_s, outcomes, check_times,
            decisions)
        violations.extend(problems)

    pass_walls = [p.normalized for p in passes]
    correct = not violations
    result = {
        "schema": 1,
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": started,
        "correct": correct,
        "violations": violations[:50],
        "digest": digests[0],
        "passes": n_passes,
        "jobs_per_pass": jobs,
        "attempted": jobs * n_passes,
        "failed": workload.failed(first) * n_passes,
        "decision_samples": len(decisions),
        "metrics": metrics,
        "samples": {"setup_s": [s.normalized for s in setups],
                    "pass_wall_s": pass_walls,
                    "pass_scale": [p.scale for p in passes],
                    "steps": steps},
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_rev": git_rev(),
            # The probe's time at the timed passes' mean speed.
            "host_ref_s": REF_PROBE_S / run_scale,
            "raw_wall_s": raw_wall_s,
            "raw_setup_s": statistics.median(s.seconds for s in setups),
            "bundle_s": bundle_s,
            "run_s": time.perf_counter() - t_start,
        },
    }
    if spans is not None:
        result["layers"] = layers
        result["traced_wall_s"] = traced_wall_s

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{args.seed}"
    (out / f"result-{stem}-{int(started * 1000)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        (out / f"spans-{stem}.json").write_text(
            json.dumps(spans, separators=(",", ":")) + "\n")

    print_report(result, pass_walls)
    print(json.dumps(driver_line(result)))
    return 0 if correct else 1


def driver_line(result: dict) -> dict:
    """The last output line: the end-to-end metrics every workload
    shares, or the per-layer metrics of a traced run."""
    from benchmarks.e2e.metrics import driver_metrics

    if result["trace"]:
        chosen = result["layers"]
    else:
        chosen = {m.name: result["metrics"][m.name]
                  for m in driver_metrics()}
    return {"correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in chosen.items()}}


def print_report(result: dict, pass_walls: List[float]) -> None:
    from benchmarks.e2e.compare import quartiles

    lo, hi = quartiles(pass_walls)
    print(f"e2e {result['workload']} seed={result['seed']} "
          f"passes={result['passes']} jobs/pass={result['jobs_per_pass']}"
          f"{' smoke' if result['smoke'] else ''}")
    print(f"  pass wall quartiles {lo:.4f}-{hi:.4f} s; "
          f"{result['decision_samples']} decision samples")
    for name, m in result["metrics"].items():
        bound = ("not gated" if not m["gated"] else
                 "exact" if m["bound"] is None else f"{m['bound']:.0%}")
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<7} "
              f"({m['better']} is better, bound {bound})")
    for name, layer in result.get("layers", {}).items():
        note = "" if layer["status"] == "ok" else f"  [{layer['status']}]"
        print(f"  {name:<30} {layer['value']:>14.6g} "
              f"{layer['unit']}{note}")
    print(f"  digest sha256:{result['digest']}")
    prov = result["provenance"]
    print(f"  host: {prov['nproc']} cpu, python {prov['python']}, numpy "
          f"{prov['numpy']}, rev {prov['git_rev'][:12]}, host_ref_s "
          f"{prov['host_ref_s']:.3e}, bundle_s {prov['bundle_s']:.3f}")
    print(f"  measured: wall {prov['raw_wall_s']:.4f} s, set-up "
          f"{prov['raw_setup_s']:.4f} s")
    for violation in result["violations"]:
        print(f"  VIOLATION {violation}", file=sys.stderr)


def parse_args(argv=None):
    from benchmarks.e2e.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 adds a traced pass and reports layers")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the result and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pin_environment()
    args = parse_args(argv)
    # Measure this checkout's program, never an installed copy.
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro package under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
