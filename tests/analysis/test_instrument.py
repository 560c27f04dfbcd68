"""Feature sets, instrumentation and job recording tests."""

import numpy as np
import pytest

from repro.analysis import (
    FeatureMatrix,
    FeatureRecorder,
    FeatureSet,
    FeatureSpec,
    discover_features,
    probe_nets,
    record_jobs,
)
from repro.rtl import BACKENDS, make_simulation, synthesize
from tests.conftest import build_toy, pack_item


@pytest.fixture(scope="module")
def toy():
    module = build_toy()
    return module, synthesize(module)


@pytest.fixture(scope="module")
def toy_features(toy):
    module, netlist = toy
    return discover_features(module, netlist)


def test_feature_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FeatureSpec("zzz", "c")
    with pytest.raises(ValueError, match="src and dst"):
        FeatureSpec("stc", "f")
    spec = FeatureSpec("stc", "f", "A", "B")
    assert spec.name == "stc:f:A->B"


def test_feature_set_rejects_duplicates():
    spec = FeatureSpec("ic", "c")
    with pytest.raises(ValueError, match="duplicate"):
        FeatureSet([spec, spec])


def test_discovered_feature_inventory(toy_features):
    names = set(toy_features.names())
    # 7 arcs + (ic+aivs) x 2 down counters + (ic+apvs) x 1 up counter.
    assert "stc:ctrl:IDLE->FETCH" in names
    assert "stc:ctrl:FETCH->COMP_A" in names
    assert "ic:c_a" in names and "aivs:c_a" in names
    assert "ic:items_done" in names and "apvs:items_done" in names
    assert len(toy_features) == 7 + 4 + 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_recorder_accumulates_expected_values(toy, toy_features, backend):
    module, _ = toy
    items = [pack_item(5, 0), pack_item(3, 1), pack_item(2, 0)]
    recorder = FeatureRecorder(toy_features)
    sim = make_simulation(module, backend=backend, listener=recorder)
    sim.load(inputs={"n_items": 3}, memories={"items": items})
    sim.run()
    vec = recorder.vector()
    names = toy_features.names()
    values = dict(zip(names, vec))
    assert values["stc:ctrl:FETCH->COMP_A"] == 2
    assert values["stc:ctrl:FETCH->COMP_B"] == 1
    assert values["ic:c_a"] == 2
    assert values["aivs:c_a"] == (5 + 2) * 3
    assert values["aivs:c_b"] == 3 * 7
    assert values["ic:items_done"] == 1  # one reset at job start


def test_recorder_start_job_clears(toy_features):
    recorder = FeatureRecorder(toy_features)
    recorder.on_transition("ctrl", "IDLE", "FETCH")
    assert recorder.vector().sum() == 1
    recorder.start_job()
    assert recorder.vector().sum() == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_alone_starts_the_recorders_next_job(toy, toy_features,
                                                   backend):
    """One recorder reused over two ``run_job`` calls records each
    job's vector exactly as a fresh recorder does."""
    module, _ = toy
    jobs = [({"n_items": 2}, {"items": [pack_item(5, 0), pack_item(3, 1)]}),
            ({"n_items": 1}, {"items": [pack_item(2, 0)]})]
    reused = make_simulation(module, backend=backend,
                             listener=FeatureRecorder(toy_features))
    for inputs, memories in jobs:
        fresh = make_simulation(module, backend=backend,
                                listener=FeatureRecorder(toy_features))
        fresh.load(inputs, memories)
        fresh.run()
        reused.run_job(inputs, memories)
        assert (reused.listener.vector().tobytes()
                == fresh.listener.vector().tobytes())
    reused.reset()
    assert not reused.listener.vector().any()


def test_record_jobs_builds_matrix(toy, toy_features):
    module, _ = toy
    jobs = []
    for spec in ([(5, 0)], [(3, 1), (2, 0)], [(1, 1)] * 4):
        items = [pack_item(w, m) for w, m in spec]
        jobs.append(({"n_items": len(items)}, {"items": items}))
    matrix = record_jobs(module, toy_features, jobs)
    assert matrix.n_jobs == 3
    assert matrix.n_features == len(toy_features)
    # Cycles strictly positive and consistent with feature content.
    assert (matrix.cycles > 0).all()
    col = matrix.feature_set.index_of("stc:ctrl:FETCH->COMP_B")
    assert matrix.x[:, col].tolist() == [0, 1, 4]


def test_record_jobs_raises_on_timeout(toy, toy_features):
    module, _ = toy
    jobs = [({"n_items": 0}, {"items": []})]  # never starts => never done
    with pytest.raises(RuntimeError, match="did not finish"):
        record_jobs(module, toy_features, jobs, max_cycles=100)


def test_feature_matrix_validation(toy_features):
    with pytest.raises(ValueError, match="2-D"):
        FeatureMatrix(toy_features, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="job count"):
        FeatureMatrix(toy_features, np.zeros((2, len(toy_features))),
                      np.zeros(3))
    with pytest.raises(ValueError, match="feature count"):
        FeatureMatrix(toy_features, np.zeros((2, 3)), np.zeros(2))


def test_feature_matrix_subset(toy, toy_features):
    module, _ = toy
    jobs = [({"n_items": 1}, {"items": [pack_item(2, 0)]})]
    matrix = record_jobs(module, toy_features, jobs)
    keep = [toy_features.index_of("ic:c_a"),
            toy_features.index_of("aivs:c_a")]
    sub = matrix.subset(keep)
    assert sub.n_features == 2
    assert sub.feature_set.names() == ["ic:c_a", "aivs:c_a"]
    assert sub.x[0, 1] == 6.0  # 2 * 3


def test_probe_nets_resolves_all_kinds(toy, toy_features):
    module, netlist = toy
    nets = probe_nets(module, netlist, toy_features)
    assert "ctrl__t1__FETCH__COMP_A" in nets
    # Counter load nets exist and are driven.
    for net in nets:
        assert netlist.driver(net) is not None, net


def test_probe_nets_closure_excludes_datapath(toy, toy_features):
    module, netlist = toy
    nets = probe_nets(module, netlist, toy_features)
    cells = netlist.fanin_closure(nets)
    constructs = {netlist.cells[i].provenance.construct for i in cells}
    assert "datapath" not in constructs
