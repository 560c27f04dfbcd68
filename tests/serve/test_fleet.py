"""Fleet dispatcher: routing policies, tenancy, and conservation.

The dispatcher routes on a projected ledger, so every test here can
interrogate :attr:`FleetDispatcher.routing_log` — the full audit trail
of candidates, backlogs, and choices — instead of reverse-engineering
decisions from shard outcomes.
"""

import dataclasses
import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_fleet
from repro.dvfs import (
    ConstantFrequencyController,
    OperatingPoint,
    Plan,
    PredictiveController,
)
from repro.serve import (
    DEADLINE as POLICY_DEADLINE,
    ENERGY_AWARE,
    LEAST_LOADED,
    POLICIES,
    ROUND_ROBIN,
    FleetConfig,
    FleetDispatcher,
    FleetShed,
    RecordPredictor,
    RoutingDecision,
    ServeConfig,
    ShardSpec,
    TenantSpec,
    TokenBucket,
    mixed_stream_jobs,
    parse_tenants,
    poisson_arrivals,
    serve_fleet,
    virtual_outcomes,
)
from repro.units import DVFS_SWITCH_TIME, MS
from tests.conftest import FlatEnergyModel

from .conftest import DEADLINE, stream_records


class PricierEnergyModel(FlatEnergyModel):
    """Same accelerator, ten times the joules — the energy-aware
    policy must avoid it.  Module-level so shard specs stay picklable.
    """

    def job_energy(self, activity, point, duration):
        return 10.0 * super().job_energy(activity, point, duration)


def make_spec(levels, name, benchmark, energy_model=None, **config):
    config.setdefault("deadline", DEADLINE)
    config.setdefault("queue_depth", 64)
    return ShardSpec(
        name=name, benchmark=benchmark,
        controller=PredictiveController(levels, DVFS_SWITCH_TIME),
        energy_model=energy_model or FlatEnergyModel(),
        slice_energy_model=FlatEnergyModel(),
        predictor=RecordPredictor(),
        config=ServeConfig(**config))


def make_pool(levels, benchmarks=("alpha", "beta"), per=2, **config):
    return [make_spec(levels, f"{bench}#{k}", bench, **config)
            for bench in benchmarks for k in range(per)]


def mixed_jobs(levels, benchmarks=("alpha", "beta"), rate=200.0,
               n_jobs=200, seed=3, tenants=("default",)):
    records = {b: stream_records(levels, n=20) for b in benchmarks}
    arrivals = poisson_arrivals(rate, n_jobs=n_jobs, seed=seed)
    return mixed_stream_jobs(records, arrivals, seed=seed,
                             tenants=tenants)


# -- specs, tenants, config ------------------------------------------


def test_tenant_spec_parses_cli_atoms():
    assert TenantSpec.parse("gold") == TenantSpec("gold")
    assert TenantSpec.parse("gold:rate=100:burst=8") == \
        TenantSpec("gold", rate=100.0, burst=8.0)
    assert TenantSpec.parse("a:burst=2") == TenantSpec("a", burst=2.0)
    with pytest.raises(ValueError, match="bad tenant spec"):
        TenantSpec.parse(":rate=1")
    with pytest.raises(ValueError, match="bad tenant spec field"):
        TenantSpec.parse("a:rate")
    with pytest.raises(ValueError, match="unknown tenant spec key"):
        TenantSpec.parse("a:speed=9")
    with pytest.raises(ValueError, match="burst"):
        TenantSpec("a", rate=5.0, burst=0.5)


@pytest.mark.parametrize("atom", ["rate=nan", "rate=inf", "burst=nan",
                                  "burst=inf"])
def test_parse_tenants_rejects_non_finite_limits(atom):
    """A NaN rate used to lift the limit and a NaN burst to shed every
    job; both must fail at the spec, naming the field."""
    key = atom.partition("=")[0]
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        parse_tenants(f"free,a:{atom}")


def test_parse_tenants_rejects_empty_and_duplicates():
    specs = parse_tenants("gold:rate=10,free")
    assert [t.name for t in specs] == ["gold", "free"]
    assert specs[0].rate == 10.0
    with pytest.raises(ValueError, match="empty"):
        parse_tenants(" , ")
    with pytest.raises(ValueError, match="duplicate"):
        parse_tenants("a,b,a")


def test_token_bucket_enforces_rate_on_virtual_clock():
    bucket = TokenBucket(rate=2.0, burst=2.0)
    assert bucket.allow(0.0)
    assert bucket.allow(0.0)          # burst exhausted
    assert not bucket.allow(0.0)
    assert not bucket.allow(0.25)     # half a token refilled
    assert bucket.allow(0.75)         # 1.5 tokens by now
    unlimited = TokenBucket(rate=0.0, burst=1.0)
    assert all(unlimited.allow(0.0) for _ in range(100))


def test_fleet_config_validates():
    with pytest.raises(ValueError, match="unknown policy"):
        FleetConfig(policy="fastest")
    with pytest.raises(ValueError, match="global_depth"):
        FleetConfig(global_depth=0)
    with pytest.raises(ValueError, match="min_active"):
        FleetConfig(min_active=0)
    with pytest.raises(ValueError, match="scale_down_backlog"):
        FleetConfig(scale_up_backlog=2.0, scale_down_backlog=2.0)


@pytest.mark.parametrize("key, value", [
    ("global_depth", math.nan), ("global_depth", math.inf),
    ("global_depth", 8.5), ("global_depth", "8"),
    ("min_active", math.nan), ("min_active", 1.5),
    ("scale_up_backlog", math.nan), ("scale_up_backlog", math.inf),
    ("scale_down_backlog", math.nan), ("scale_down_backlog", -math.inf),
])
def test_fleet_config_rejects_bad_bounds_by_name(key, value):
    """A NaN depth never shed, a fractional one was accepted, a NaN
    min_active activated no instance, and a non-finite watermark
    silently turned its direction of elastic scaling off; each must
    fail at the config, naming the field."""
    with pytest.raises(ValueError, match=f"{key} must be"):
        FleetConfig(**{key: value})


def test_dispatcher_validates_stream(asic_levels):
    specs = make_pool(asic_levels, per=1)
    dispatcher = FleetDispatcher(specs)
    jobs = mixed_jobs(asic_levels, n_jobs=10)
    with pytest.raises(ValueError, match="sorted"):
        dispatcher.dispatch(list(reversed(jobs)))
    bad_tenant = dataclasses.replace(jobs[0], tenant="ghost")
    with pytest.raises(ValueError, match="unknown tenant"):
        FleetDispatcher(specs).route(bad_tenant)
    bad_bench = dataclasses.replace(jobs[0], benchmark="gamma")
    with pytest.raises(ValueError, match="no pool instance"):
        FleetDispatcher(specs).route(bad_bench)
    with pytest.raises(ValueError, match="at least one instance"):
        FleetDispatcher([])


# -- routing policies ------------------------------------------------


def test_round_robin_rotates_per_benchmark(asic_levels):
    specs = make_pool(asic_levels, per=3)
    dispatcher = FleetDispatcher(
        specs, FleetConfig(policy=ROUND_ROBIN))
    jobs = mixed_jobs(asic_levels, n_jobs=60)
    dispatcher.dispatch(jobs)
    assert not dispatcher.sheds
    # Each benchmark's jobs cycle its three instances in strict order.
    for bench in ("alpha", "beta"):
        pool = [i for i, s in enumerate(specs) if s.benchmark == bench]
        chosen = [dispatcher.assignments[j.index] for j in jobs
                  if j.benchmark == bench]
        expected = [pool[k % len(pool)] for k in range(len(chosen))]
        assert chosen == expected


def test_least_loaded_routes_to_min_backlog(asic_levels):
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, per=4),
        FleetConfig(policy=LEAST_LOADED))
    dispatcher.dispatch(mixed_jobs(asic_levels, rate=2000.0,
                                   n_jobs=300))
    routed = [d for d in dispatcher.routing_log if d.chosen is not None]
    assert routed
    for decision in routed:
        chosen_backlog = decision.backlogs[
            decision.candidates.index(decision.chosen)]
        assert chosen_backlog == min(decision.backlogs)


@settings(max_examples=25, deadline=None)
@given(gaps=st.lists(st.floats(min_value=1e-5, max_value=0.02),
                     min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=2**16))
def test_least_loaded_never_picks_a_busier_instance(
        asic_levels, gaps, seed):
    """Property: under least-loaded routing, no decision ever chooses
    an instance whose projected backlog strictly exceeds another
    candidate's."""
    records = {"alpha": stream_records(asic_levels, n=10)}
    arrivals, now = [], 0.0
    for gap in gaps:
        now += gap
        arrivals.append(now)
    jobs = mixed_stream_jobs(records, arrivals, seed=seed)
    dispatcher = FleetDispatcher(
        [make_spec(asic_levels, f"alpha#{k}", "alpha")
         for k in range(3)],
        FleetConfig(policy=LEAST_LOADED))
    dispatcher.dispatch(jobs)
    for decision in dispatcher.routing_log:
        if decision.chosen is None:
            continue
        chosen_backlog = decision.backlogs[
            decision.candidates.index(decision.chosen)]
        assert all(chosen_backlog <= b for b in decision.backlogs)


def test_energy_aware_avoids_the_pricey_instance(asic_levels):
    specs = [
        make_spec(asic_levels, "alpha#cheap", "alpha"),
        make_spec(asic_levels, "alpha#pricey", "alpha",
                  energy_model=PricierEnergyModel()),
    ]
    dispatcher = FleetDispatcher(
        specs, FleetConfig(policy=ENERGY_AWARE))
    jobs = mixed_jobs(asic_levels, benchmarks=("alpha",), n_jobs=40)
    dispatcher.dispatch(jobs)
    assert not dispatcher.sheds
    assert set(dispatcher.assignments.values()) == {0}


def test_deadline_policy_sheds_infeasible_jobs(asic_levels):
    # One slow instance, arrivals far faster than service: the ledger
    # saturates and late arrivals can no longer make their deadline,
    # so the dispatcher sheds them instead of burning the instance.
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, benchmarks=("alpha",), per=1),
        FleetConfig(policy=POLICY_DEADLINE))
    jobs = mixed_jobs(asic_levels, benchmarks=("alpha",),
                      rate=5000.0, n_jobs=200)
    dispatcher.dispatch(jobs)
    assert dispatcher.sheds
    assert all(s.reason == "deadline" for s in dispatcher.sheds)
    assert (len(dispatcher.sheds)
            + sum(len(sub) for sub in dispatcher.routed)
            == dispatcher.n_offered == 200)


# -- admission: rate limits, global depth, elastic scaling -----------


def test_rate_limited_tenant_sheds_only_its_own_jobs(asic_levels):
    tenants = (TenantSpec("gold"),
               TenantSpec("free", rate=20.0, burst=1.0))
    dispatcher = FleetDispatcher(
        make_pool(asic_levels), FleetConfig(policy=LEAST_LOADED),
        tenants=tenants)
    jobs = mixed_jobs(asic_levels, rate=2000.0, n_jobs=300,
                      tenants=("gold", "free"))
    dispatcher.dispatch(jobs)
    assert dispatcher.sheds
    assert all(s.reason == "rate_limit" and s.tenant == "free"
               for s in dispatcher.sheds)


def test_global_depth_sheds_at_admission(asic_levels):
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, per=1),
        FleetConfig(policy=LEAST_LOADED, global_depth=2))
    jobs = mixed_jobs(asic_levels, rate=5000.0, n_jobs=200)
    dispatcher.dispatch(jobs)
    reasons = {s.reason for s in dispatcher.sheds}
    assert reasons == {"admission"}
    assert len(dispatcher.sheds) > 0


def test_elastic_scaling_widens_and_narrows_the_pool(asic_levels):
    config = FleetConfig(policy=LEAST_LOADED, elastic=True,
                         scale_up_backlog=2.0,
                         scale_down_backlog=0.5, min_active=1)
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, benchmarks=("alpha",), per=4), config)
    assert dispatcher.n_active() == 1
    burst = mixed_jobs(asic_levels, benchmarks=("alpha",),
                       rate=3000.0, n_jobs=120)
    dispatcher.dispatch(burst)
    assert dispatcher.n_active() > 1
    peak = dispatcher.n_active()
    # A long quiet tail lets the watermark retire idle instances.
    last = burst[-1].arrival
    trickle = mixed_stream_jobs(
        {"alpha": stream_records(asic_levels, n=10)},
        [last + 1.0 + i for i in range(8)], seed=9)
    for job in trickle:
        dispatcher.route(job)
    assert dispatcher.n_active() < peak
    assert dispatcher.n_active() >= config.min_active
    assert (len(dispatcher.sheds)
            + sum(len(sub) for sub in dispatcher.routed)
            == dispatcher.n_offered)


# -- end-to-end: serve_fleet, parallelism, conservation --------------


@pytest.mark.parametrize("policy", POLICIES)
def test_check_fleet_clean_for_every_policy(asic_levels, policy):
    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=800.0, n_jobs=250,
                      tenants=("gold", "free"))
    tenants = (TenantSpec("gold"),
               TenantSpec("free", rate=200.0, burst=10.0))
    result = serve_fleet(specs, jobs,
                         FleetConfig(policy=policy, strict=False),
                         tenants=tenants, workers=1)
    assert result.n_offered == 250
    assert (result.n_completed + result.n_fallback + result.n_shed
            == result.n_offered)
    assert check_fleet(result) == []
    summary = result.tenant_summary()
    assert set(summary) <= {"gold", "free"}
    for row in summary.values():
        assert row["offered"] == (row["completed"] + row["fallback"]
                                  + row["shed"])
    assert f"fleet[{policy}]" in result.describe()


def test_parallel_run_is_bit_identical_to_serial(asic_levels):
    def run(workers):
        specs = make_pool(asic_levels, queue_depth=8)
        jobs = mixed_jobs(asic_levels, rate=600.0, n_jobs=200,
                          tenants=("gold", "free"))
        return serve_fleet(
            specs, jobs,
            FleetConfig(policy=ROUND_ROBIN, strict=False),
            tenants=(TenantSpec("gold"), TenantSpec("free")),
            workers=workers)

    serial = run(1)
    parallel = run(4)
    assert serial.assignments == parallel.assignments
    assert serial.sheds == parallel.sheds
    for a, b in zip(serial.shards, parallel.shards):
        assert virtual_outcomes(a) == virtual_outcomes(b)


def test_check_fleet_catches_tampering(asic_levels):
    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=600.0, n_jobs=120)
    result = serve_fleet(specs, jobs, FleetConfig(strict=False),
                         workers=1)
    assert check_fleet(result) == []

    # A job the dispatcher never offered: indices no longer partition.
    lost = dataclasses.replace(result, n_offered=result.n_offered + 1)
    assert any(v.code == "fleet.conservation"
               for v in check_fleet(lost))

    # A shed with an unknown reason.
    bad_shed = dataclasses.replace(result, sheds=result.sheds + [
        FleetShed(index=result.n_offered, benchmark="alpha",
                  tenant="default", arrival=99.0, reason="gremlins")])
    assert any(v.code == "fleet.shed" for v in check_fleet(bad_shed))

    # A job tagged for one benchmark landing on another's instance.
    swapped = dataclasses.replace(
        result, benchmarks=dict(result.benchmarks))
    some_index = next(iter(result.assignments))
    swapped.benchmarks[some_index] = "gamma"
    assert any(v.code == "fleet.routing"
               for v in check_fleet(swapped))


def test_serve_fleet_strict_raises_on_violation(asic_levels,
                                                monkeypatch):
    from repro.check import InvariantError

    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=400.0, n_jobs=60)
    # Clean run under strict: reaching the return *is* the assertion.
    result = serve_fleet(specs, jobs, FleetConfig(strict=True),
                         workers=1)
    assert result.n_offered == 60

    # Corrupt a shard post-hoc and replay the checker directly.
    broken = dataclasses.replace(result)
    broken.shards[0].outcomes.pop()
    violations = check_fleet(broken)
    assert violations
    with pytest.raises(InvariantError):
        raise InvariantError(violations)


def _replanned(result, log_of):
    """``result`` with the first shard that planned runs carrying
    ``log_of(its epoch_log)`` instead."""
    k = next(k for k, shard in enumerate(result.shards) if shard.epoch_log)
    shards = list(result.shards)
    shards[k] = dataclasses.replace(shards[k],
                                    epoch_log=log_of(shards[k].epoch_log))
    return dataclasses.replace(result, shards=shards)


def test_check_fleet_audits_each_shards_planned_runs(asic_levels):
    specs = make_pool(asic_levels)
    jobs = mixed_jobs(asic_levels, rate=100.0, n_jobs=200)
    result = serve_fleet(specs, jobs, FleetConfig(strict=False),
                         workers=1)
    assert check_fleet(result) == []

    # One run committed twice, and two runs logged out of order.
    twice = _replanned(result, lambda log: log[:1] + log)
    swapped = _replanned(result, lambda log: [log[1], log[0]] + log[2:])
    for tampered, message in ((twice, "overlaps"),
                              (swapped, "out of order")):
        found = [v for v in check_fleet(tampered)
                 if v.code == "stream.epoch.overlap"]
        assert any(message in v.message for v in found), found


def test_strict_fleet_audits_planned_runs(asic_levels, monkeypatch):
    """``FleetConfig(strict=True)`` alone checks each shard's planned
    runs: a run logged twice fails the serve call."""
    from repro.check import InvariantError
    from repro.serve import server as server_mod

    original = server_mod.AcceleratorStream.result

    def logged_twice(self, wall_s=0.0):
        result = original(self, wall_s)
        result.epoch_log = result.epoch_log[:1] + result.epoch_log
        return result

    monkeypatch.setattr(server_mod.AcceleratorStream, "result",
                        logged_twice)
    specs = make_pool(asic_levels)
    jobs = mixed_jobs(asic_levels, rate=100.0, n_jobs=200)
    with pytest.raises(InvariantError, match="stream.epoch.overlap"):
        serve_fleet(specs, jobs, FleetConfig(strict=True), workers=1)


def test_strict_fleet_checks_each_shard_once(asic_levels, monkeypatch):
    """Under ``REPRO_CHECK=strict`` a shard is checked by
    ``check_fleet`` alone: one ``check.streams`` per shard."""
    from repro.obs import session

    monkeypatch.setenv("REPRO_CHECK", "strict")
    specs = make_pool(asic_levels, benchmarks=("alpha",), per=2)
    jobs = mixed_jobs(asic_levels, benchmarks=("alpha",), rate=100.0,
                      n_jobs=150)
    with session(command="strict") as obs:
        result = serve_fleet(specs, jobs, workers=1)
    counters = obs.metrics.counters
    assert counters["check.fleets"] == 1
    assert counters["check.streams"] == len(specs) == 2
    assert counters["check.jobs"] == sum(
        len(shard.outcomes) for shard in result.shards) == 150
    assert "check.violations" not in counters
    assert any(shard.epoch_log for shard in result.shards)


# -- predictions the shards refuse ------------------------------------


#: Record predictions ``valid_prediction`` rejects: a shard falls back
#: on each, so the ledger must project them like a missing prediction.
REFUSED = {"nan": math.nan, "inf": math.inf, "negative": -5.0}


def _every_fifth(jobs, predicted):
    """The stream with every fifth job's record predicting ``predicted``."""
    out = []
    for k, fjob in enumerate(jobs):
        if k % 5 == 0:
            record = dataclasses.replace(fjob.job.record,
                                         predicted_cycles=predicted)
            fjob = dataclasses.replace(
                fjob, job=dataclasses.replace(fjob.job, record=record))
        out.append(fjob)
    return out


def _routed(asic_levels, jobs, policy):
    dispatcher = FleetDispatcher(make_pool(asic_levels, per=4),
                                 config=FleetConfig(policy=policy))
    dispatcher.dispatch(jobs)
    return dispatcher


@pytest.mark.parametrize("refused", sorted(REFUSED))
@pytest.mark.parametrize("policy", POLICIES)
def test_ledger_projects_refused_predictions_as_missing(asic_levels,
                                                       policy, refused):
    """A prediction the shard falls back on must not reach the ledger:
    clocks stay finite and routing equals the stream whose same jobs
    carry no prediction at all, which is what the shard executes."""
    jobs = mixed_jobs(asic_levels, rate=2000.0, n_jobs=300)
    bad = _routed(asic_levels, _every_fifth(jobs, REFUSED[refused]),
                  policy)
    missing = _routed(asic_levels, _every_fifth(jobs, None), policy)
    assert all(math.isfinite(ledger.clock) for ledger in bad._ledgers)
    assert bad.routing_log == missing.routing_log
    assert [l.clock for l in bad._ledgers] == \
        [l.clock for l in missing._ledgers]


#: sha256 prefixes of the routing log, sheds, assignments and ledger
#: clocks for every (policy, scaling, global_depth) case below.  Any
#: change to the dispatcher's arithmetic or tie-breaking moves one.
ROUTING_PINS = {
    "round_robin/static/default": "7ec674fec5b9de36",
    "round_robin/static/6": "6cfac6b91154224f",
    "round_robin/elastic/default": "f2bcc9cec7f2495c",
    "round_robin/elastic/6": "19a06d9eebef1b6f",
    "least_loaded/static/default": "87bc7cb481e3094b",
    "least_loaded/static/6": "ad00333f00aef66b",
    "least_loaded/elastic/default": "d66502f228e0fef8",
    "least_loaded/elastic/6": "f1bab9c732a4fddd",
    "energy_aware/static/default": "8272932520b9b45a",
    "energy_aware/static/6": "9e869745965d5624",
    "energy_aware/elastic/default": "c60cd00eb6ac0302",
    "energy_aware/elastic/6": "1361589572157d44",
    "deadline/static/default": "d4be57aa339b8080",
    "deadline/static/6": "71f95efe4670e44d",
    "deadline/elastic/default": "03eb9c3e20d88f73",
    "deadline/elastic/6": "0dc93eaa97ac1462",
}


def _routing_case(asic_levels, policy, elastic, depth):
    """One dispatcher over a pool whose controllers differ in margin,
    boost and overhead charging, fed a rate-limited two-tenant stream
    in which every fifth prediction is refused."""
    specs = make_pool(asic_levels, per=3)
    for k, controller in (
            (1, PredictiveController(asic_levels, DVFS_SWITCH_TIME,
                                     boost=True)),
            (4, PredictiveController(asic_levels, DVFS_SWITCH_TIME,
                                     charge_overheads=False)),
            (5, ConstantFrequencyController(asic_levels))):
        specs[k] = dataclasses.replace(specs[k], controller=controller)
    config = {"policy": policy}
    if elastic:
        config.update(elastic=True, scale_up_backlog=2.0,
                      scale_down_backlog=0.5)
    if depth is not None:
        config["global_depth"] = depth
    dispatcher = FleetDispatcher(
        specs, FleetConfig(**config),
        tenants=(TenantSpec("gold"),
                 TenantSpec("free", rate=100.0, burst=5.0)))
    jobs = mixed_jobs(asic_levels, rate=1500.0, n_jobs=300,
                      tenants=("gold", "free"))
    dispatcher.dispatch(_every_fifth(jobs, math.nan))
    return dispatcher


#: One value of each per-arrival type, with the repr it printed as a
#: frozen dataclass; ``ROUTING_PINS`` hash the log's and sheds' reprs.
PER_ARRIVAL_REPRS = [
    (FleetShed(4, "beta", "free", 0.5, "rate_limit"),
     "FleetShed(index=4, benchmark='beta', tenant='free', arrival=0.5, "
     "reason='rate_limit')"),
    (RoutingDecision(3, "alpha", "gold", 0.25, (0, 2), (1, 0), 2),
     "RoutingDecision(index=3, benchmark='alpha', tenant='gold', "
     "arrival=0.25, candidates=(0, 2), backlogs=(1, 0), chosen=2, "
     "reason=None)"),
    (Plan(OperatingPoint(0.7, 2.5e8), 1e-4, False, math.inf),
     "Plan(point=OperatingPoint(voltage=0.7, frequency=250000000.0, "
     "is_boost=False), t_slice=0.0001, feasible=False, "
     "f_required=inf)"),
]


@pytest.mark.parametrize("value,text", PER_ARRIVAL_REPRS,
                         ids=["FleetShed", "RoutingDecision", "Plan"])
def test_per_arrival_tuples_pickle_and_print_as_dataclasses(value, text):
    """The fleet path's per-arrival records are named tuples: each
    prints what a frozen dataclass of the same fields prints, and a
    pickle round-trip returns an equal value of the same type."""
    assert repr(value) == text
    twin = dataclasses.make_dataclass(type(value).__name__,
                                      value._fields, frozen=True)
    assert repr(twin(*value)) == text
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value


def test_routing_is_pinned_for_every_policy(asic_levels):
    """Exact routing, sheds, assignments and clocks for all four
    policies, static and elastic, at the default and a small global
    depth; the inputs make every shed reason and both elastic
    directions occur."""
    from repro.obs import session

    digests, reasons, moves = {}, set(), set()
    for policy in POLICIES:
        for elastic in (False, True):
            for depth in (None, 6):
                with session(command="pin") as obs:
                    dispatcher = _routing_case(asic_levels, policy,
                                               elastic, depth)
                    counters = obs.metrics.counters
                moves |= {move for move in ("scale_up", "scale_down")
                          if counters.get(f"serve.fleet.{move}")}
                reasons |= {shed.reason for shed in dispatcher.sheds}
                text = "\n".join(
                    [repr(d) for d in dispatcher.routing_log]
                    + [repr(s) for s in dispatcher.sheds]
                    + [repr(sorted(dispatcher.assignments.items())),
                       repr([l.clock for l in dispatcher._ledgers])])
                key = (f"{policy}/{'elastic' if elastic else 'static'}"
                       f"/{depth or 'default'}")
                digests[key] = hashlib.sha256(
                    text.encode()).hexdigest()[:16]
    assert reasons == {"admission", "rate_limit", "deadline"}
    assert moves == {"scale_up", "scale_down"}
    assert digests == ROUTING_PINS


@pytest.mark.parametrize("policy", POLICIES)
def test_baseline_pool_sheds_nothing_nominal_can_serve(asic_levels,
                                                       policy):
    """A baseline instance always runs at nominal, so the dispatcher
    projects it there: when nominal finishes every job before the next
    arrival, even a global depth of one sheds nothing and no job
    misses."""
    specs = [dataclasses.replace(
        make_spec(asic_levels, f"alpha#{k}", "alpha"),
        controller=ConstantFrequencyController(asic_levels))
        for k in range(2)]
    light = stream_records(asic_levels, n=20, heavy_every=0)
    jobs = mixed_stream_jobs({"alpha": light},
                             [3 * MS * i for i in range(60)])
    result = serve_fleet(specs, jobs,
                         FleetConfig(policy=policy, global_depth=1,
                                     strict=True), workers=1)
    assert result.sheds == []
    assert result.n_completed == len(jobs)
    assert sum(shard.miss_count for shard in result.shards) == 0


def test_deadline_policy_sheds_what_nominal_cannot_finish(asic_levels):
    """A baseline plan reports feasible whatever its budget, so the
    ``deadline`` policy holds the nominal finish to the deadline
    itself: every job nominal cannot finish in time is shed, and every
    other job is served and meets its deadline."""
    specs = [dataclasses.replace(
        make_spec(asic_levels, f"alpha#{k}", "alpha"),
        controller=ConstantFrequencyController(asic_levels))
        for k in range(2)]
    too_long = float(int(asic_levels.nominal.frequency * 1.5 * DEADLINE))
    records = [dataclasses.replace(r, actual_cycles=int(too_long),
                                   predicted_cycles=too_long)
               if i % 4 == 3 else r
               for i, r in enumerate(stream_records(asic_levels, n=20,
                                                    heavy_every=0))]
    jobs = mixed_stream_jobs({"alpha": records},
                             [2 * DEADLINE * i for i in range(40)])
    result = serve_fleet(specs, jobs,
                         FleetConfig(policy=POLICY_DEADLINE, strict=True),
                         workers=1)
    assert [(s.index, s.reason) for s in result.sheds] == \
        [(i, "deadline") for i in range(3, 40, 4)]
    assert result.n_completed == 30
    assert sum(shard.miss_count for shard in result.shards) == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_check_fleet_clean_with_refused_predictions(asic_levels, policy):
    jobs = mixed_jobs(asic_levels, rate=2000.0, n_jobs=300)
    for predicted in REFUSED.values():
        result = serve_fleet(make_pool(asic_levels, per=4),
                             _every_fifth(jobs, predicted),
                             FleetConfig(policy=policy, strict=True),
                             workers=1)
        assert check_fleet(result) == []
        assert result.n_fallback > 0


# -- serial degrade --------------------------------------------------


def test_serial_degrade_on_low_core_hosts(asic_levels, monkeypatch):
    """Process fan-out auto-degrades to serial when the host cannot
    give each shard two cores — counted, and still bit-identical."""
    from repro.obs import session
    from repro.serve import fleet as fleet_mod

    jobs = mixed_jobs(asic_levels, rate=400.0, n_jobs=120)

    def run(workers, cores):
        monkeypatch.setattr(fleet_mod, "usable_cores", lambda: cores)
        with session(command="degrade") as obs:
            result = serve_fleet(
                make_pool(asic_levels), jobs,
                config=FleetConfig(policy=ROUND_ROBIN, strict=False),
                workers=workers)
            degraded = obs.metrics.counters.get(
                "serve.fleet.serial_degrade", 0.0)
        return result, degraded

    serial, degraded_serial = run(workers=1, cores=1)
    # workers=1 never degrades (nothing to degrade).
    assert degraded_serial == 0.0
    parallel, degraded_parallel = run(workers=4, cores=2)
    # 4 shards on 2 cores: degrade kicks in exactly once.
    assert degraded_parallel == 1.0
    for a, b in zip(serial.shards, parallel.shards):
        assert virtual_outcomes(a) == virtual_outcomes(b)
    # With ample cores the fan-out is left alone.
    _, degraded_wide = run(workers=4, cores=64)
    assert degraded_wide == 0.0
