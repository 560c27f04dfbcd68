"""Composable accelerator building blocks over the behavioural RTL IR.

The vocabulary mirrors what the seven hand-built benchmarks are made
of — "an FSM that loops over items in a scratchpad, spending
data-dependent time in a few stages" — but as *data*: a
:class:`DesignSpec` is a pure description (fields, a pipeline of
blocks, optional co-processes) and :func:`build_module` lowers it to a
finalized :class:`~repro.rtl.module.Module` using only the canonical
idioms the detectors, the slicer and fast-forward rely on.

Block vocabulary (one entry per pipeline position):

* :class:`StageSpec` — a single pipeline stage: ``step`` (one cycle),
  ``wait`` (a counter-backed wait of ``base + coeff * field`` cycles)
  or ``dyn`` (an opaque serial stall of the same duration, invisible
  to feature extraction — the djpeg error source, generatively);
* :class:`BranchSpec` — a two-way mode branch: a select state routes
  each item to one of two wait arms on a descriptor bit (the Figure-8
  toy's COMP_A/COMP_B shape);
* :class:`ForkJoinSpec` — fork/join dataflow: the main loop forks N
  concurrent branch FSMs, each a counter wait of its own, and joins
  when all have finished — the composition idiom of dataflow HLS
  frameworks, expressed in this IR's FSM semantics.

Co-processes and pricing:

* :class:`ProducerSpec` — a memory-fed producer FSM streaming words
  from a side scratchpad while the main loop is busy (extra detected
  counters and transitions outside the main loop);
* :class:`DatapathSpec` — a priced combinational block active in a
  named stage, so generated designs carry realistic per-block energy.

The builder composes like gears: each block consumes the upstream
attach point (the state chain built so far) and returns the new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..rtl.counter import down_counter, up_counter
from ..rtl.expr import Expr, MemRead, Sig, wrap
from ..rtl.fsm import Fsm, Transition
from ..rtl.module import DatapathBlock, Module

#: Placeholder condition carried on a JOIN state's dangling exit until
#: every main-loop state code exists and the real all-branches-finished
#: expression can be built (see :meth:`DesignBuilder.finish`).
_JOIN_PLACEHOLDER = "join"


@dataclass(frozen=True)
class FieldSpec:
    """One packed descriptor field: ``(word >> offset) & mask``."""

    name: str
    offset: int
    bits: int

    @property
    def mask(self) -> int:
        """Bit mask of the field."""
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class StageSpec:
    """One main-loop pipeline stage.

    ``kind`` is ``step`` (single cycle), ``wait`` (counter-backed) or
    ``dyn`` (opaque dynamic stall).  Wait/dyn durations are the affine
    form ``base + coeff * field`` in cycles; ``field`` names a
    :class:`FieldSpec` (``None`` = constant duration).

    Durations are sampled on the cycle the stage's entry arc fires,
    *before* that arc's register actions land — so when the loop's
    first stage is a wait, its loop-back entries see the outgoing
    item's descriptor (the index increments on the same edge).  Every
    backend and the feature recorder observe the identical loads, so
    designs stay bit-reproducible and fully learnable either way.
    """

    kind: str
    name: str
    base: int = 0
    coeff: int = 0
    field: Optional[str] = None
    feeds_control: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("step", "wait", "dyn"):
            raise ValueError(f"unknown stage kind {self.kind!r}")
        if self.kind != "step" and self.base < 1:
            raise ValueError(f"stage {self.name}: base must be >= 1")


@dataclass(frozen=True)
class BranchSpec:
    """A two-way mode branch: select on a descriptor bit, then one of
    two wait arms (the toy accelerator's COMP_A/COMP_B shape)."""

    name: str
    mode_field: str
    arms: Tuple[StageSpec, StageSpec]

    def __post_init__(self) -> None:
        for arm in self.arms:
            if arm.kind != "wait":
                raise ValueError(
                    f"branch {self.name}: arms must be wait stages")


@dataclass(frozen=True)
class ForkJoinSpec:
    """Fork/join dataflow: N concurrent branch waits per item.

    The main loop passes through a one-cycle FORK state that launches
    one branch FSM per entry of ``branches`` and then parks in a JOIN
    state until every branch has finished.  Each branch is a wait
    stage run in its own FSM.
    """

    name: str
    branches: Tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError(
                f"fork/join {self.name}: need at least two branches")
        for b in self.branches:
            if b.kind != "wait":
                raise ValueError(
                    f"fork/join {self.name}: branches must be waits")


@dataclass(frozen=True)
class ProducerSpec:
    """A memory-fed producer FSM running beside the main loop.

    While the main loop is busy, the producer repeatedly reads a word
    from its own scratchpad, waits ``base + (word & mask)`` cycles,
    and advances its pointer — contributing detected transitions and
    counters that are *not* on the main item loop.
    """

    name: str
    mem_name: str
    depth: int
    width: int
    base: int = 1
    mask: int = 0x1F


@dataclass(frozen=True)
class DatapathSpec:
    """A priced combinational block active in one main-loop stage."""

    name: str
    stage: str
    cells: Tuple[Tuple[str, int], ...]
    width: int = 16
    input_field: Optional[str] = None


@dataclass(frozen=True)
class DesignSpec:
    """A complete generated-accelerator description (pure data).

    ``pipeline`` is the ordered block list (:class:`StageSpec`,
    :class:`BranchSpec` or :class:`ForkJoinSpec`); every wait or dyn
    duration references a name in ``fields``.  The spec is what the
    sampler emits and what :func:`build_module` lowers; keeping it
    data-only is what makes sampled designs reproducible from their
    seed alone.
    """

    name: str
    fields: Tuple[FieldSpec, ...]
    pipeline: Tuple[object, ...]
    mem_depth: int = 64
    mem_width: int = 24
    producer: Optional[ProducerSpec] = None
    datapaths: Tuple[DatapathSpec, ...] = ()
    busy_counter: bool = False

    def field_named(self, name: str) -> FieldSpec:
        """Look up a descriptor field by name."""
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"design {self.name}: no field {name!r}")


class DesignBuilder:
    """Lower a pipeline of blocks onto one main item-loop FSM.

    The builder owns the module, the descriptor scratchpad and the
    main FSM; blocks attach compositionally — each consumes the
    current chain tail (a list of ``(state, cond)`` exit arcs) and
    returns the new tail.  :meth:`finish` closes the item loop (EMIT,
    DONE, one down counter per wait, the ``items_done`` up counter) in
    the canonical shape the detectors and the slicer see.
    """

    def __init__(self, spec: DesignSpec):
        self.spec = spec
        m = Module(spec.name)
        self.module = m
        self.count = m.port("n_items", 16)
        m.memory("items", depth=spec.mem_depth, width=spec.mem_width)
        self.idx = m.reg("ctrl_idx", 16)
        self.word = m.wire("item_word",
                           MemRead("items", self.idx), spec.mem_width)
        self.field_wires: Dict[str, Sig] = {}
        for f in spec.fields:
            self.field_wires[f.name] = m.wire(
                f.name, (self.word >> f.offset) & f.mask, f.bits)
        self.fsm = Fsm("ctrl", initial="IDLE")
        #: state name -> duration Expr, for wait-counter creation
        self._wait_loads: Dict[str, Expr] = {}
        #: stage names in main-loop order (entry points of each block)
        self._entries: List[str] = []
        #: dangling exits of the last block: (state, cond-or-None)
        self._tail: List[Tuple[str, Optional[Expr]]] = []
        #: deferred per-branch-FSM constructions for fork/join blocks
        self._forks: List[ForkJoinSpec] = []
        self._finished = False

    # -- duration helper ----------------------------------------------
    def _duration(self, stage: StageSpec) -> Expr:
        """The affine cycle-count expression of a wait/dyn stage."""
        expr: Expr = wrap(stage.base)
        if stage.field is not None and stage.coeff:
            expr = expr + self.field_wires[stage.field] * stage.coeff
        return expr

    def _link(self, entry: str) -> None:
        """Wire every dangling exit of the previous block to ``entry``."""
        for state, cond in self._tail:
            if cond == _JOIN_PLACEHOLDER:
                cond = None  # patched with the join condition at finish()
            self.fsm.transition(state, entry, cond=cond)
        self._entries.append(entry)
        self._tail = []

    # -- blocks (the gears) -------------------------------------------
    def add_stage(self, stage: StageSpec) -> None:
        """Append one step/wait/dyn stage to the main loop."""
        self._check_open()
        self._link(stage.name)
        if stage.kind == "wait":
            self.fsm.wait_state(stage.name, f"c_{stage.name.lower()}",
                                feeds_control=stage.feeds_control)
            self._wait_loads[stage.name] = self._duration(stage)
        elif stage.kind == "dyn":
            self.fsm.dynamic_wait(stage.name, self._duration(stage),
                                  feeds_control=stage.feeds_control)
        self._tail = [(stage.name, None)]

    def add_branch(self, branch: BranchSpec) -> None:
        """Append a two-way mode branch (select state + two arms)."""
        self._check_open()
        sel = f"{branch.name}_SEL"
        self._link(sel)
        mode = self.field_wires[branch.mode_field]
        arm0, arm1 = branch.arms
        self.fsm.transition(sel, arm0.name, cond=(mode & 1) == 0)
        self.fsm.transition(sel, arm1.name)
        for arm in branch.arms:
            self.fsm.wait_state(arm.name, f"c_{arm.name.lower()}",
                                feeds_control=arm.feeds_control)
            self._wait_loads[arm.name] = self._duration(arm)
        self._tail = [(arm0.name, None), (arm1.name, None)]

    def add_fork_join(self, fork: ForkJoinSpec) -> None:
        """Append fork/join dataflow (FORK step, branch FSMs, JOIN)."""
        self._check_open()
        fork_state = f"{fork.name}_FORK"
        join_state = f"{fork.name}_JOIN"
        self._link(fork_state)
        self.fsm.transition(fork_state, join_state)
        self._entries.append(join_state)
        # The branch FSMs need the main FSM's state codes, which only
        # settle once every main-loop state exists — build them at
        # finish() time.
        self._forks.append(fork)
        self._tail = [(join_state, _JOIN_PLACEHOLDER)]

    def _build_fork(self, fork: ForkJoinSpec) -> Expr:
        """Create the branch FSMs of one fork/join; returns the
        all-branches-finished join condition."""
        m = self.module
        ctrl = Sig(self.fsm.state_signal)
        at_fork = ctrl == self.fsm.code_of(f"{fork.name}_FORK")
        at_emit = ctrl == self.fsm.code_of("EMIT")
        done_terms: List[Expr] = []
        for k, stage in enumerate(fork.branches):
            br = Fsm(f"{fork.name.lower()}_br{k}", initial="REST")
            br.transition("REST", "RUN", cond=at_fork)
            br.transition("RUN", "FIN")
            br.transition("FIN", "REST", cond=at_emit)
            counter = f"c_{stage.name.lower()}"
            br.wait_state("RUN", counter,
                          feeds_control=stage.feeds_control)
            m.fsm(br)
            m.counter(down_counter(
                counter,
                load_cond=br.arc_signal("REST", "RUN"),
                load_value=self._duration(stage),
                width=24,
            ))
            done_terms.append(Sig(br.state_signal) == br.code_of("FIN"))
        joined = done_terms[0]
        for term in done_terms[1:]:
            joined = joined & term
        return joined

    # -- closing the loop ---------------------------------------------
    def finish(self) -> Module:
        """Close the item loop, build co-processes, finalize."""
        self._check_open()
        if not self._entries:
            raise ValueError(
                f"design {self.spec.name}: pipeline has no stages")
        self._finished = True
        fsm = self.fsm
        first = self._entries[0]
        fsm.transition("IDLE", first, cond=self.count > 0)
        for state, cond in self._tail:
            if cond == _JOIN_PLACEHOLDER:
                cond = None
            self.fsm.transition(state, "EMIT", cond=cond)
        fsm.transition("EMIT", first,
                       cond=self.idx < (self.count - 1),
                       actions=[(self.idx.name, self.idx + 1)])
        fsm.transition("EMIT", "DONE",
                       actions=[(self.idx.name, self.idx + 1)])
        # Fork/join placeholders: re-gate the JOIN exit arcs now that
        # every state (and hence every code) exists.
        join_conds: Dict[str, Expr] = {}
        for fork in self._forks:
            join_conds[f"{fork.name}_JOIN"] = self._build_fork(fork)
        if join_conds:
            fixed = []
            for t in fsm.transitions:
                cond = join_conds.get(t.src)
                if cond is not None:
                    t = Transition(src=t.src, dst=t.dst, cond=wrap(cond),
                                   actions=t.actions, index=t.index)
                fixed.append(t)
            fsm.transitions[:] = fixed

        m = self.module
        m.fsm(fsm)
        for state, duration in self._wait_loads.items():
            m.counter(down_counter(
                f"c_{state.lower()}",
                load_cond=fsm.entry_signal(state),
                load_value=duration,
                width=24,
            ))
        m.counter(up_counter(
            "items_done",
            reset_cond=fsm.arc_signal("EMIT", "DONE"),
            enable=fsm.entry_signal("EMIT"),
            width=16,
        ))
        if self.spec.busy_counter:
            ctrl = Sig(fsm.state_signal)
            m.counter(up_counter(
                "busy_cycles",
                reset_cond=fsm.arc_signal("IDLE", first),
                enable=(ctrl != fsm.code_of("IDLE"))
                       & (ctrl != fsm.code_of("DONE")),
                width=24,
            ))
        if self.spec.producer is not None:
            self._build_producer(self.spec.producer)
        for dp in self.spec.datapaths:
            inputs = ("item_word",) if dp.input_field is None \
                else (dp.input_field,)
            m.datapath(DatapathBlock(
                dp.name, cells=dict(dp.cells), width=dp.width,
                inputs=inputs, active_states=(("ctrl", dp.stage),),
            ))
        m.set_done(Sig(fsm.state_signal) == fsm.code_of("DONE"))
        return m.finalize()

    def _build_producer(self, prod: ProducerSpec) -> None:
        """A side FSM streaming its own scratchpad while ctrl is busy."""
        m = self.module
        m.memory(prod.mem_name, depth=prod.depth, width=prod.width)
        ptr = m.reg(f"{prod.name}_ptr", 16)
        feed = m.wire(f"{prod.name}_word",
                      MemRead(prod.mem_name, ptr & (prod.depth - 1)),
                      prod.width)
        ctrl = Sig(self.fsm.state_signal)
        busy = (ctrl != self.fsm.code_of("IDLE")) \
            & (ctrl != self.fsm.code_of("DONE"))
        pf = Fsm(prod.name, initial="REST")
        pf.transition("REST", "FETCH", cond=busy)
        pf.transition("FETCH", "REST",
                      actions=[(ptr.name, ptr + 1)])
        counter = f"c_{prod.name.lower()}"
        pf.wait_state("FETCH", counter)
        m.fsm(pf)
        m.counter(down_counter(
            counter,
            load_cond=pf.arc_signal("REST", "FETCH"),
            load_value=(feed & prod.mask) + prod.base,
            width=24,
        ))

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError(
                f"design {self.spec.name} is already finished")


def build_module(spec: DesignSpec) -> Module:
    """Lower a :class:`DesignSpec` to a finalized RTL module."""
    builder = DesignBuilder(spec)
    for block in spec.pipeline:
        if isinstance(block, StageSpec):
            builder.add_stage(block)
        elif isinstance(block, BranchSpec):
            builder.add_branch(block)
        elif isinstance(block, ForkJoinSpec):
            builder.add_fork_join(block)
        else:
            raise TypeError(
                f"design {spec.name}: unknown block {block!r}")
    return builder.finish()
