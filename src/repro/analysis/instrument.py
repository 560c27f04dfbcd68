"""Instrumentation: turning detections into recordable features.

``build_feature_set`` correlates the *structurally* detected FSMs and
counters with the behavioural module (netlist nets keep their RTL
names, exactly as Yosys-based flows preserve them) and emits one
feature spec per instrumentable quantity.  Detections that do not map
back to a behavioural construct (structural false positives) are
dropped, and real FSMs/counters missed by detection simply yield no
features — both situations degrade prediction rather than break it,
matching the paper's djpeg discussion.

``FeatureRecorder`` is the runtime half: the per-job feature vector,
one accumulator slot per feature — the counters the paper adds to the
RTL.  Under the ``stepjit`` backend the slots are compiled into the
simulation kernel, so recording costs one inline addition per event;
the ``interp`` oracle reaches them through listener callbacks.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..rtl.backend import make_simulation, resolve_backend
from ..rtl.module import Module
from ..rtl.netlist import Netlist
from ..rtl.simulator import EventSlots, Listener, Simulation
from .counter_detect import DetectedCounter, detect_counters
from .features import FeatureMatrix, FeatureSet, FeatureSpec
from .fsm_detect import DetectedFsm, detect_fsms


def build_feature_set(
    module: Module,
    detected_fsms: Sequence[DetectedFsm],
    detected_counters: Sequence[DetectedCounter],
) -> FeatureSet:
    """Map detections onto the behavioural module and emit specs."""
    specs: List[FeatureSpec] = []
    fsm_by_state_net = {
        fsm.state_signal: fsm for fsm in module.fsms.values()
    }
    for det in detected_fsms:
        fsm = fsm_by_state_net.get(det.state_net)
        if fsm is None:
            continue  # structural false positive: not a named FSM
        code_to_state = {code: name for name, code in fsm.states.items()}
        seen: set = set()
        for t in det.transitions:
            if t.src_code == t.dst_code:
                continue  # hold artifacts (e.g. dynamic-wait stay arcs)
            src = code_to_state.get(t.src_code)
            dst = code_to_state.get(t.dst_code)
            if src is None or dst is None:
                continue
            key = (fsm.name, src, dst)
            if key in seen:
                continue
            seen.add(key)
            specs.append(FeatureSpec("stc", fsm.name, src, dst))
    for det in detected_counters:
        if det.net not in module.counters:
            continue  # structural false positive
        mode = module.counters[det.net].mode
        if det.mode != mode:
            continue  # mis-detected polarity; do not trust it
        specs.append(FeatureSpec("ic", det.net))
        if mode == "down":
            specs.append(FeatureSpec("aivs", det.net))
        else:
            specs.append(FeatureSpec("apvs", det.net))
    return FeatureSet(specs)


def discover_features(module: Module, netlist: Netlist) -> FeatureSet:
    """Full offline detection step: netlist analysis -> feature set."""
    return build_feature_set(
        module, detect_fsms(netlist), detect_counters(netlist))


class FeatureRecorder(Listener):
    """Simulator listener accumulating one job's feature vector.

    The vector accumulates in ``accumulator``, a list of floats, on
    every backend, through one dispatch table: the feature set's
    ``slots``.  Under ``stepjit`` the kernel compiles that table in
    and adds each event to its slot inline, calling none of the
    callbacks below; the ``interp`` oracle calls them.  Both add the
    same values to each feature in the same order, so the vectors are
    bit-identical.  A subclass that overrides a callback (or asks for
    :meth:`on_cycle`) is always called back.
    """

    def __init__(self, feature_set: FeatureSet):
        self.feature_set = feature_set
        self.accumulator: List[float] = [0.0] * len(feature_set)
        self._slots = feature_set.slots if _stock_callbacks(self) else None

    def event_slots(self) -> Optional[EventSlots]:
        """The feature set's slot table while the callbacks are this
        class's own, else ``None``."""
        return self._slots

    def start_job(self) -> None:
        """Clear the accumulator before a new job."""
        self.accumulator = [0.0] * len(self.feature_set)

    def on_transition(self, fsm: str, src: str, dst: str) -> None:
        """Count a state transition (STC features)."""
        idx = self.feature_set.slots.transitions.get((fsm, src, dst))
        if idx is not None:
            self.accumulator[idx] += 1.0

    def on_counter_load(self, counter: str, value: int) -> None:
        """Record a down-counter load (IC and AIV-sum features)."""
        self._add(self.feature_set.slots.loads.get(counter), value)

    def on_counter_reset(self, counter: str, value: int) -> None:
        """Record an up-counter reset (IC and APV-sum features)."""
        self._add(self.feature_set.slots.resets.get(counter), value)

    def _add(self, pair: Optional[Tuple[Optional[int], Optional[int]]],
             value: int) -> None:
        # One counter event: 1.0 to its count slot, the value to its
        # value slot — the additions the stepjit kernel inlines.
        if pair is None:
            return
        count, total = pair
        if count is not None:
            self.accumulator[count] += 1.0
        if total is not None:
            self.accumulator[total] += float(value)

    def vector(self) -> np.ndarray:
        """The job's feature vector accumulated so far (a new array)."""
        return np.array(self.accumulator, dtype=float)


def _stock_callbacks(recorder: FeatureRecorder) -> bool:
    """True when every callback of ``recorder`` is
    :class:`FeatureRecorder`'s own, so inlined slots replace them."""
    cls = type(recorder)
    return (cls.on_transition is FeatureRecorder.on_transition
            and cls.on_counter_load is FeatureRecorder.on_counter_load
            and cls.on_counter_reset is FeatureRecorder.on_counter_reset
            and cls.on_cycle is FeatureRecorder.on_cycle
            and not recorder.wants_cycles)


def _summarize_job_inputs(inputs: Dict[str, int],
                          memories: Dict[str, Sequence[int]]) -> str:
    """Compact input digest for error messages on failed jobs."""
    parts = [f"{name}={value}" for name, value in sorted(inputs.items())]
    parts += [f"{name}[{len(words)} words]"
              for name, words in sorted(memories.items())]
    return ", ".join(parts) if parts else "(no inputs)"


def _simulate_job(sim: Simulation, recorder: FeatureRecorder,
                  index: int, inputs: Dict[str, int],
                  memories: Dict[str, Sequence[int]],
                  max_cycles: int, ignore_unknown: bool
                  ) -> Tuple[np.ndarray, int]:
    # One training job on a prepared simulation: the shared body of
    # the serial loop and the pool workers, so both raise identical,
    # debuggable errors and return identical (row, cycles) pairs.
    sim.reset()
    recorder.start_job()
    sim.load(inputs=inputs, memories=memories,
             ignore_unknown=ignore_unknown)
    result = sim.run(max_cycles=max_cycles)
    if not result.finished:
        raise RuntimeError(
            f"job {index} did not finish within {max_cycles} cycles on "
            f"{sim.module.name} "
            f"(inputs: {_summarize_job_inputs(inputs, memories)})"
        )
    return recorder.vector(), result.cycles


#: Per-process (module, feature_set, backend) -> (Simulation,
#: FeatureRecorder), so a pool worker builds its instrumented
#: simulation once, not once per job.  Keyed by object identity:
#: stable within one process.
_WORKER_SIMS: Dict[Tuple[int, int, str],
                   Tuple[Simulation, FeatureRecorder]] = {}


def _record_worker(module: Module, feature_set: FeatureSet,
                   max_cycles: int, ignore_unknown: bool, backend: str,
                   indexed_job) -> Tuple[np.ndarray, int]:
    # pmap worker: simulate one (index, (inputs, memories)) item.
    key = (id(module), id(feature_set), backend)
    state = _WORKER_SIMS.get(key)
    if state is None:
        recorder = FeatureRecorder(feature_set)
        sim = make_simulation(module, backend=backend, listener=recorder,
                              track_state_cycles=False)
        _WORKER_SIMS.clear()  # only ever one live design per worker
        _WORKER_SIMS[key] = state = (sim, recorder)
    sim, recorder = state
    index, (inputs, memories) = indexed_job
    return _simulate_job(sim, recorder, index, inputs, memories,
                         max_cycles, ignore_unknown)


def record_jobs(
    module: Module,
    feature_set: FeatureSet,
    jobs: Iterable[Tuple[Dict[str, int], Dict[str, Sequence[int]]]],
    max_cycles: int = 200_000_000,
    ignore_unknown_inputs: bool = False,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FeatureMatrix:
    """Run ``jobs`` (port dict, memory dict pairs) on an instrumented
    simulation and collect features plus execution cycles.

    This is the offline "RTL simulation with a training set" step of
    Figure 6 in the paper.  ``ignore_unknown_inputs`` permits feeding
    full-design jobs into a hardware slice that dropped some inputs.

    Jobs are independent simulations, so ``workers > 1`` fans them out
    over a process pool (``workers=None`` follows the ambient
    ``--jobs``/``REPRO_JOBS`` setting).  Results keep input order and
    are bit-identical to a serial run.

    ``backend`` picks the simulation kernel (``backend=None`` follows
    the ambient ``--backend`` setting); every backend is cycle-exact,
    so the recorded matrix is backend-invariant.  The backend is
    resolved here, once, so pool workers inherit the parent process's
    choice.
    """
    from ..parallel import pmap, resolve_jobs

    resolved_backend = resolve_backend(backend)
    indexed = list(enumerate(jobs))
    n_workers = min(resolve_jobs(workers), max(len(indexed), 1))
    if n_workers > 1:
        fn = functools.partial(_record_worker, module, feature_set,
                               max_cycles, ignore_unknown_inputs,
                               resolved_backend)
        pairs = pmap(fn, indexed, jobs=n_workers, label="record.pmap")
    else:
        recorder = FeatureRecorder(feature_set)
        sim = make_simulation(module, backend=resolved_backend,
                              listener=recorder,
                              track_state_cycles=False)
        pairs = [
            _simulate_job(sim, recorder, index, inputs, memories,
                          max_cycles, ignore_unknown_inputs)
            for index, (inputs, memories) in indexed
        ]
    rows = [row for row, _ in pairs]
    cycles = [c for _, c in pairs]
    x = np.vstack(rows) if rows else np.zeros((0, len(feature_set)))
    return FeatureMatrix(feature_set, x, np.asarray(cycles, dtype=float))
