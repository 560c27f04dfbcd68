"""Per-design tests: structure, detection coverage, timing bands.

These run each benchmark accelerator on a handful of jobs, so they
exercise the full substrate (IR -> synthesis -> detection -> sim).
"""

import pytest

from repro.accelerators import ALL_DESIGNS, get_design
from repro.analysis import detect_counters, detect_fsms, discover_features
from repro.rtl import Simulation, synthesize, tech
from repro.units import MS
from repro.workloads import workload_for

#: Loose bands around Table 4: (area lo/hi um^2, time lo/hi ms).
EXPECTED = {
    "h264": ((400e3, 900e3), (3.0, 13.0)),
    "cjpeg": ((100e3, 260e3), (0.5, 16.0)),
    "djpeg": ((250e3, 550e3), (0.8, 16.0)),
    "md": ((15e3, 60e3), (0.5, 16.69)),
    "stencil": ((5e3, 30e3), (0.8, 16.69)),
    "aes": ((30e3, 90e3), (0.8, 16.69)),
    "sha": ((10e3, 40e3), (0.5, 16.0)),
}


@pytest.fixture(scope="module", params=ALL_DESIGNS)
def design_and_netlist(request):
    design = get_design(request.param)
    module = design.build()
    return design, module, synthesize(module)


def test_registry_rejects_unknown():
    with pytest.raises(KeyError, match="unknown accelerator"):
        get_design("quantum")


def test_all_designs_have_paper_frequencies():
    freqs = {name: get_design(name).nominal_frequency / 1e6
             for name in ALL_DESIGNS}
    assert freqs == {
        "h264": 250, "cjpeg": 250, "djpeg": 250, "md": 455,
        "stencil": 602, "aes": 500, "sha": 500,
    }


def test_detection_finds_every_fsm(design_and_netlist):
    design, module, netlist = design_and_netlist
    detected = {f.state_net for f in detect_fsms(netlist)}
    expected = {fsm.state_signal for fsm in module.fsms.values()}
    assert expected <= detected


def test_detection_finds_every_counter(design_and_netlist):
    design, module, netlist = design_and_netlist
    detected = {c.net: c.mode for c in detect_counters(netlist)}
    for name, counter in module.counters.items():
        assert detected.get(name) == counter.mode, name


def test_feature_inventory_nonempty(design_and_netlist):
    design, module, netlist = design_and_netlist
    features = discover_features(module, netlist)
    kinds = {spec.kind for spec in features}
    assert "stc" in kinds
    assert "ic" in kinds
    assert "aivs" in kinds
    assert "apvs" in kinds  # every design carries an up counter


def test_area_in_band(design_and_netlist):
    design, module, netlist = design_and_netlist
    (lo, hi), _ = EXPECTED[design.name]
    assert lo <= tech.asic_area(netlist) <= hi


def test_jobs_complete_within_band(design_and_netlist):
    design, module, netlist = design_and_netlist
    _, (lo_ms, hi_ms) = EXPECTED[design.name]
    workload = workload_for(design.name, scale=0.1)
    sim = Simulation(module, track_state_cycles=False)
    for item in workload.test[:10]:
        job = design.encode_job(item)
        sim.reset()
        sim.load(*job.as_pair())
        result = sim.run()
        assert result.finished
        t_ms = result.cycles / design.nominal_frequency / MS
        assert lo_ms <= t_ms <= hi_ms, (design.name, t_ms)


def test_no_job_exceeds_the_60fps_deadline_at_nominal(design_and_netlist):
    """Table 4's premise: the baseline at nominal V/f never misses."""
    design, module, netlist = design_and_netlist
    workload = workload_for(design.name, scale=0.15)
    sim = Simulation(module, track_state_cycles=False)
    for item in workload.test:
        job = design.encode_job(item)
        sim.reset()
        sim.load(*job.as_pair())
        cycles = sim.run().cycles
        assert cycles / design.nominal_frequency < 16.7 * MS


def test_encode_job_is_deterministic(design_and_netlist):
    design, module, netlist = design_and_netlist
    workload = workload_for(design.name, scale=0.1)
    a = design.encode_job(workload.test[0])
    b = design.encode_job(workload.test[0])
    assert a.inputs == b.inputs
    assert {k: list(v) for k, v in a.memories.items()} == \
        {k: list(v) for k, v in b.memories.items()}
    assert a.coarse_param == b.coarse_param


def _tiny_item(design, item):
    """Shrink a workload item so the no-fast-forward run stays cheap."""
    from dataclasses import replace

    name = design.name
    if name == "h264":
        return replace(item, mbs=item.mbs[:3])
    if name in ("cjpeg", "djpeg"):
        return replace(item, strips=item.strips[:2], height_blocks=2)
    if name == "md":
        return replace(item, neighbor_counts=item.neighbor_counts[:6])
    if name == "stencil":
        return replace(item, rows=20, cols=24)
    return replace(item, n_bytes=20_000)  # aes / sha


def test_fast_forward_exact_on_real_designs(design_and_netlist):
    """The simulator optimization is exact on every benchmark design."""
    design, module, netlist = design_and_netlist
    workload = workload_for(design.name, scale=0.1)
    job = design.encode_job(_tiny_item(design, workload.test[0]))
    results = []
    for ff in (True, False):
        sim = Simulation(module, fast_forward=ff)
        sim.load(*job.as_pair())
        results.append(sim.run(max_cycles=2_000_000))
    assert results[0].finished and results[1].finished
    assert results[0].cycles == results[1].cycles
    assert results[0].state_cycles == results[1].state_cycles
