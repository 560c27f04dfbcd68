"""Module container for the behavioural RTL IR.

A :class:`Module` aggregates ports, wires, registers, counters, FSMs,
scratchpad memories, update rules and datapath blocks, and owns the
namespace they share.  ``finalize()`` validates the design, generates
the per-transition "criteria" wires that instrumentation and synthesis
rely on, and topologically orders the combinational wires.

Datapath blocks deserve a note: the paper's accelerators spend most of
their *area* in computation datapaths whose outputs do not feed control
decisions.  Timing of that computation is expressed through wait
counters; the datapath itself is modelled as a :class:`DatapathBlock` —
a bag of cells (multipliers, adders, SRAM ports ...) that consumes
control signals and produces a sink output no control logic reads.
Slicing then removes datapath blocks exactly the way the paper's
hardware slicer removes the prediction-irrelevant majority of the
accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .counter import Counter
from .expr import Expr, Sig, wrap, ExprLike
from .fsm import Fsm
from .signals import Memory, Port, Reg, Update, Wire


@dataclass(frozen=True)
class DatapathBlock:
    """A computation block modelled for area/energy, not behaviour.

    ``cells`` maps cell kind (e.g. ``"MUL"``, ``"ADD"``) to a count;
    ``width`` applies to all of them.  ``inputs`` are the control/data
    signals the block consumes; ``output`` is a pseudo-net it produces.
    ``active_states`` optionally lists ``(fsm, state)`` pairs during
    which the block toggles (for activity-based energy accounting).
    """

    name: str
    cells: Mapping[str, int]
    width: int = 32
    inputs: Tuple[str, ...] = ()
    active_states: Tuple[Tuple[str, str], ...] = ()

    @property
    def output(self) -> str:
        return f"{self.name}__out"


class Module:
    """A hardware accelerator design in the behavioural IR."""

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, Port] = {}
        self.wires: Dict[str, Wire] = {}
        self.regs: Dict[str, Reg] = {}
        self.counters: Dict[str, Counter] = {}
        self.fsms: Dict[str, Fsm] = {}
        self.memories: Dict[str, Memory] = {}
        self.updates: List[Update] = []
        self.datapath_blocks: List[DatapathBlock] = []
        self.done_expr: Optional[Expr] = None
        self._finalized = False
        self._wire_order: List[str] = []

    # -- namespace ------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self.all_signal_names():
            raise ValueError(f"signal name {name!r} already used in {self.name}")

    def all_signal_names(self) -> set:
        """Every name in the module's signal namespace."""
        names = set(self.ports) | set(self.wires) | set(self.regs)
        names |= set(self.counters)
        names |= {fsm.state_signal for fsm in self.fsms.values()}
        return names

    # -- construction ---------------------------------------------------
    def port(self, name: str, width: int = 32) -> Sig:
        """Declare an input port; returns its signal."""
        self._check_open()
        self._claim(name)
        self.ports[name] = Port(name, width)
        return Sig(name)

    def wire(self, name: str, expr: ExprLike, width: int = 32) -> Sig:
        """Declare a combinational wire; returns its signal."""
        self._check_open()
        self._claim(name)
        self.wires[name] = Wire(name, wrap(expr), width)
        return Sig(name)

    def reg(self, name: str, width: int = 32, init: int = 0) -> Sig:
        """Declare a register; returns its signal."""
        self._check_open()
        self._claim(name)
        self.regs[name] = Reg(name, width, init)
        return Sig(name)

    def counter(self, counter: Counter) -> Sig:
        """Attach a counter; returns its value signal."""
        self._check_open()
        self._claim(counter.name)
        self.counters[counter.name] = counter
        return Sig(counter.name)

    def fsm(self, fsm: Fsm) -> Fsm:
        """Attach a finite state machine."""
        self._check_open()
        if fsm.name in self.fsms:
            raise ValueError(f"FSM {fsm.name!r} already added")
        self._claim(fsm.state_signal)
        self.fsms[fsm.name] = fsm
        return fsm

    def memory(self, name: str, depth: int, width: int = 32) -> Memory:
        """Declare a scratchpad memory."""
        self._check_open()
        if name in self.memories:
            raise ValueError(f"memory {name!r} already added")
        mem = Memory(name, depth, width)
        self.memories[name] = mem
        return mem

    def update(self, reg: str, value: ExprLike,
               cond: Optional[ExprLike] = None,
               fsm: Optional[str] = None,
               state: Optional[str] = None) -> None:
        """Add a guarded register-update rule."""
        self._check_open()
        self.updates.append(Update(
            reg=reg,
            value=wrap(value),
            cond=None if cond is None else wrap(cond),
            fsm=fsm,
            state=state,
        ))

    def datapath(self, block: DatapathBlock) -> None:
        """Attach a priced datapath block."""
        self._check_open()
        self.datapath_blocks.append(block)

    def set_done(self, expr: ExprLike) -> None:
        """Define the job-completion expression."""
        self._check_open()
        self.done_expr = wrap(expr)

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError(f"module {self.name} is finalized")

    # -- finalization ---------------------------------------------------
    def finalize(self) -> "Module":
        """Validate the design and derive generated structures."""
        if self._finalized:
            return self
        if self.done_expr is None:
            raise ValueError(f"module {self.name} has no done expression")
        for fsm in self.fsms.values():
            fsm.validate()
            for state, counter in fsm.wait_states.items():
                if counter not in self.counters:
                    raise ValueError(
                        f"FSM {fsm.name} wait state {state} references "
                        f"unknown counter {counter!r}"
                    )
                if self.counters[counter].mode != "down":
                    raise ValueError(
                        f"wait state {state} must use a down counter"
                    )
        # Generate the per-transition criteria wires (the paper's
        # instrumentation points) before resolving references.
        for fsm in self.fsms.values():
            for t in fsm.transitions:
                name = fsm.transition_signal(t)
                if name not in self.wires:
                    self.wires[name] = Wire(name, fsm.effective_cond(t), 1)
        self._validate_references()
        self._wire_order = self._topo_sort_wires()
        self._validate_updates()
        self._finalized = True
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def wire_order(self) -> List[str]:
        if not self._finalized:
            raise RuntimeError("module not finalized")
        return list(self._wire_order)

    def read_signals(self) -> set:
        """Every name the module's logic reads: its expressions (wires,
        counters, updates, arcs and their actions, dynamic waits, the
        done expression), its wait states' counters and its datapath
        blocks' inputs."""
        exprs = [self.done_expr] + [w.expr for w in self.wires.values()]
        exprs += [e for c in self.counters.values()
                  for e in (c.load_cond, c.load_value, c.enable)]
        exprs += [e for upd in self.updates for e in (upd.cond, upd.value)]
        read: set = set()
        for fsm in self.fsms.values():
            read.update(fsm.wait_states.values())
            exprs += fsm.dynamic_waits.values()
            for t in fsm.transitions:
                exprs += [t.cond] + [value for _reg, value in t.actions]
        for block in self.datapath_blocks:
            read.update(block.inputs)
        for expr in exprs:
            if expr is not None:
                read |= expr.signals()
        return read

    def _known_signals(self) -> set:
        known = self.all_signal_names()
        known |= {f"__mem__{m}" for m in self.memories}
        known |= {b.output for b in self.datapath_blocks}
        known |= {
            fsm.dynbusy_signal for fsm in self.fsms.values()
            if fsm.dynamic_waits
        }
        return known

    def _validate_references(self) -> None:
        known = self._known_signals()

        def check(expr: Expr, where: str) -> None:
            missing = expr.signals() - known
            if missing:
                raise ValueError(
                    f"{self.name}: {where} references unknown signals "
                    f"{sorted(missing)}"
                )

        for wire in self.wires.values():
            check(wire.expr, f"wire {wire.name}")
        for counter in self.counters.values():
            if counter.load_cond is not None:
                check(counter.load_cond, f"counter {counter.name} load_cond")
            if counter.load_value is not None:
                check(counter.load_value, f"counter {counter.name} load_value")
            if counter.enable is not None:
                check(counter.enable, f"counter {counter.name} enable")
        for upd in self.updates:
            if upd.reg not in self.regs:
                raise ValueError(
                    f"{self.name}: update targets unknown register {upd.reg!r}"
                )
            check(upd.value, f"update of {upd.reg}")
            if upd.cond is not None:
                check(upd.cond, f"update cond of {upd.reg}")
        for fsm in self.fsms.values():
            for t in fsm.transitions:
                if t.cond is not None:
                    check(t.cond, f"FSM {fsm.name} arc {t.src}->{t.dst}")
                for reg, value in t.actions:
                    if reg not in self.regs:
                        raise ValueError(
                            f"{self.name}: FSM {fsm.name} arc action targets "
                            f"unknown register {reg!r}"
                        )
                    check(value, f"FSM {fsm.name} arc action on {reg}")
            for expr in fsm.dynamic_waits.values():
                check(expr, f"FSM {fsm.name} dynamic wait")
        check(self.done_expr, "done expression")
        for block in self.datapath_blocks:
            missing = set(block.inputs) - known
            if missing:
                raise ValueError(
                    f"{self.name}: datapath {block.name} consumes unknown "
                    f"signals {sorted(missing)}"
                )
            for fsm_name, state in block.active_states:
                if fsm_name not in self.fsms:
                    raise ValueError(
                        f"datapath {block.name}: unknown FSM {fsm_name!r}"
                    )
                if state not in self.fsms[fsm_name].states:
                    raise ValueError(
                        f"datapath {block.name}: unknown state {state!r}"
                    )

    def _validate_updates(self) -> None:
        for upd in self.updates:
            if upd.fsm is not None:
                if upd.fsm not in self.fsms:
                    raise ValueError(f"update references unknown FSM {upd.fsm}")
                if upd.state not in self.fsms[upd.fsm].states:
                    raise ValueError(
                        f"update references unknown state {upd.state} "
                        f"of FSM {upd.fsm}"
                    )

    def _topo_sort_wires(self) -> List[str]:
        """Order wires so each is computed after the wires it reads."""
        order: List[str] = []
        visiting: set = set()
        done: set = set()

        def visit(name: str) -> None:
            if name in done:
                return
            if name in visiting:
                raise ValueError(
                    f"{self.name}: combinational cycle through wire {name!r}"
                )
            visiting.add(name)
            for dep in self.wires[name].expr.signals():
                if dep in self.wires:
                    visit(dep)
            visiting.discard(name)
            done.add(name)
            order.append(name)

        for name in self.wires:
            visit(name)
        return order

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, wires={len(self.wires)}, "
            f"regs={len(self.regs)}, counters={len(self.counters)}, "
            f"fsms={len(self.fsms)})"
        )
