"""Whole-module step compiler: a generated-code simulation backend.

Where the interpreter walks each expression tree every cycle, this
module compiles the entire two-phase cycle of a :class:`Module` into
one specialized Python function:

* architectural state lives in slot-indexed locals (no dict lookups on
  the hot path; the flat list is only touched on entry/exit);
* combinational wires are computed once per cycle, in topological
  order, as plain locals — per-cycle memoization without ``_LazyEnv``;
* arc selection, counters, update rules and the commit phase are fused
  into straight-line code with the interpreter's exact ordering;
* the fast-forward jump is preserved: ``_DepAnalysis``'s veto tables
  are emitted as boolean checks over per-counter "changing"/"zero-up"
  flags, so the generated kernel skips the same stretches the
  interpreter does and the committed state is identical;
* instrumentation comes in two variants, and the attached listener
  picks one.  A listener with an :class:`~repro.rtl.simulator.EventSlots`
  table (the feature recorder) gets its slots resolved at code
  generation: each fired arc, counter load and counter reset adds to
  the listener's ``accumulator`` inline (``_acc[k] += 1.0``,
  ``_acc[k] += float(value)``), and an event without a slot emits
  nothing.  Any other listener gets its callbacks called per event.
  With no listener, no instrumentation code is emitted at all.

Programs are cached per module (weakly) and per variant (elide set,
state-cycle tracking, callbacks or slot table, fast-forward), and are
pickle-safe: ``__reduce__`` pickles the source module plus the variant
options (slot table included) and regenerates the code on load, so
steppers cross process pools and the artifact cache.

The generated stepper is cycle-exact against the interpreter — the
differential fuzz suite and the golden gate (``repro check
--backend stepjit``) both verify it end to end.
"""

from __future__ import annotations

import keyword
import re
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ..obs import get_observer
from .counter import Counter
from .expr import _CMPOPS, _PYOPS, BinOp, Const, Expr, MemRead, Mux, Sig, UnOp
from .fsm import Fsm
from .module import Module
from .simulator import (
    EventSlots,
    RunResult,
    Simulation,
    _DepAnalysis,
    record_sim_run,
)

_MEM_PREFIX = "__mem__"
_SIMPLE_ATOM = re.compile(r"(?:[A-Za-z_]\w*|\d+)\Z")


class _Names:
    """Collision-free Python identifiers for generated locals."""

    _RESERVED = frozenset(keyword.kwlist) | {
        "S", "MEMS", "DYN", "SC", "cycle", "max_cycles", "listener",
        "finished", "len", "min", "max", "None", "True", "False",
        "_j", "_r", "_t", "_d", "_i", "_ffj", "_wc", "_oc",
        "_lt", "_lcl", "_lcr", "_acc", "_step",
    }

    def __init__(self) -> None:
        self._used = set(self._RESERVED)

    def make(self, prefix: str, name: str) -> str:
        base = prefix + re.sub(r"\W", "_", name)
        candidate = base
        serial = 1
        while candidate in self._used:
            serial += 1
            candidate = f"{base}_{serial}"
        self._used.add(candidate)
        return candidate


class _StepCompiler:
    """Emits the specialized ``_step`` function for one module variant."""

    def __init__(self, module: Module, elide: FrozenSet[Tuple[str, str]],
                 track_state_cycles: bool, has_listener: bool,
                 fast_forward: bool, slots: Optional[EventSlots]):
        if not module.finalized:
            raise ValueError(
                f"module {module.name} must be finalized first")
        self.m = module
        self.elide = elide
        self.track = track_state_cycles
        self.has_listener = has_listener
        self.fast_forward = fast_forward
        self.slots = slots
        self.deps = _DepAnalysis(module)

        names = _Names()
        # Scalar slot order mirrors Simulation.reset() (minus memories).
        self.scalar_names: List[str] = (
            [p.name for p in module.ports.values()]
            + [r.name for r in module.regs.values()]
            + [c.name for c in module.counters.values()]
            + [f.state_signal for f in module.fsms.values()]
            + [b.output for b in module.datapath_blocks]
            + [f.dynbusy_signal for f in module.fsms.values()
               if f.dynamic_waits]
        )
        self.scalar_local = {
            name: names.make("v_", name) for name in self.scalar_names
        }
        self.mem_names = list(module.memories)
        self.mem_local = {
            name: names.make("m_", name) for name in self.mem_names
        }
        self.wire_local = {
            name: names.make("w_", name) for name in module.wire_order
        }
        self.fsms: List[Fsm] = list(module.fsms.values())
        self.dyn_fsms = [f for f in self.fsms if f.dynamic_waits]
        self.down = [c for c in module.counters.values() if c.mode == "down"]
        self.up = [c for c in module.counters.values() if c.mode == "up"]
        self.cn = {c.name: names.make("cn_", c.name)
                   for c in self.down + self.up}
        self.ch = {c.name: names.make("ch_", c.name)
                   for c in self.down + self.up}
        self.zu = {c.name: names.make("zu_", c.name) for c in self.up}
        written = {u.reg for u in module.updates}
        for fsm in self.fsms:
            for t in fsm.transitions:
                for reg, _value in t.actions:
                    written.add(reg)
        self.pending_regs = [r for r in module.regs if r in written]
        self.p_local = {r: names.make("p_", r) for r in self.pending_regs}

        self._lines: List[str] = []
        self._indent = 1

    # -- emission helpers ----------------------------------------------
    def w(self, line: str = "") -> None:
        self._lines.append("    " * self._indent + line if line else "")

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    # -- expression rendering ------------------------------------------
    def ref(self, name: str) -> str:
        local = self.scalar_local.get(name)
        if local is not None:
            return local
        local = self.wire_local.get(name)
        if local is not None:
            return local
        if name.startswith(_MEM_PREFIX):
            return self.mem_local[name[len(_MEM_PREFIX):]]
        raise KeyError(f"stepjit: unknown signal {name!r} in {self.m.name}")

    def render(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Sig):
            return self.ref(expr.name)
        if isinstance(expr, MemRead):
            mem = self.mem_local[expr.memory]
            idx = self.render(expr.index)
            if _SIMPLE_ATOM.match(idx):
                return f"({mem}[{idx}] if 0 <= {idx} < len({mem}) else 0)"
            return (
                "(lambda _d, _i: _d[_i] if 0 <= _i < len(_d) else 0)"
                f"({mem}, {idx})"
            )
        if isinstance(expr, Mux):
            return (f"({self.render(expr.a)} if {self.cond(expr.sel)}"
                    f" else {self.render(expr.b)})")
        if isinstance(expr, UnOp):
            a = self.render(expr.a)
            if expr.op == "not":
                return f"(0 if {a} else 1)"
            if expr.op == "bool":
                return f"(1 if {a} else 0)"
            return f"(-({a}))"
        if isinstance(expr, BinOp):
            a = self.render(expr.a)
            b = self.render(expr.b)
            op = expr.op
            if op in _PYOPS:
                return f"({a} {_PYOPS[op]} {b})"
            if op in _CMPOPS:
                return f"(1 if {a} {_CMPOPS[op]} {b} else 0)"
            if op == "div":
                return f"(({a}) // ({b}) if ({b}) else 0)"
            if op == "mod":
                return f"(({a}) % ({b}) if ({b}) else 0)"
            if op == "min":
                return f"min({a}, {b})"
            if op == "max":
                return f"max({a}, {b})"
        raise TypeError(f"cannot compile expression node {expr!r}")

    def cond(self, expr: Optional[Expr]) -> str:
        """Render for a boolean context (integer truthiness)."""
        if expr is None:
            return "1"
        if isinstance(expr, BinOp) and expr.op in _CMPOPS:
            a = self.render(expr.a)
            b = self.render(expr.b)
            return f"{a} {_CMPOPS[expr.op]} {b}"
        if isinstance(expr, UnOp):
            if expr.op == "not":
                return f"not ({self.cond(expr.a)})"
            if expr.op == "bool":
                return self.cond(expr.a)
        return self.render(expr)

    # -- veto tables ----------------------------------------------------
    def veto_terms(self, pair) -> List[str]:
        """Boolean locals that, when set, veto a fast-forward jump."""
        unstable, zerocmp = pair
        terms = []
        for name in sorted(unstable):
            flag = self.ch.get(name)
            if flag is not None:
                terms.append(flag)
        for name in sorted(zerocmp):
            # Zero-compares are stable except on an up counter leaving 0.
            flag = self.zu.get(name)
            if flag is not None:
                terms.append(flag)
        return terms

    def arc_veto_terms(self, fsm: Fsm, state: str) -> List[str]:
        terms: List[str] = []
        for t in fsm.transitions_from(state):
            for term in self.veto_terms(self.deps.analyze(t.cond)):
                if term not in terms:
                    terms.append(term)
        return terms

    # -- program assembly -----------------------------------------------
    def source(self) -> str:
        self._lines = [
            f"# stepjit kernel for module {self.m.name!r}",
            f"# variant: elide={sorted(self.elide)!r}, "
            f"track={self.track}, listener={self.has_listener}, "
            f"slots={self.slots is not None}, "
            f"fast_forward={self.fast_forward}",
            "def _step(S, MEMS, DYN, SC, cycle, max_cycles, listener):",
        ]
        self._emit_unpack()
        self.w("finished = 0")
        self.w("_ffj = 0")
        self.w("while cycle < max_cycles:")
        self.push()
        self._emit_wires()
        self._emit_done_check()
        self._emit_arc_selection()
        if self.fast_forward:
            self._emit_fast_forward()
        self._emit_counters()
        self._emit_updates()
        self._emit_arc_commit_prep()
        self._emit_commit()
        self.pop()
        self._emit_writeback()
        self.w("return (cycle, finished, _ffj)")
        return "\n".join(self._lines) + "\n"

    def _emit_unpack(self) -> None:
        for slot, name in enumerate(self.scalar_names):
            self.w(f"{self.scalar_local[name]} = S[{slot}]")
        for slot, name in enumerate(self.mem_names):
            self.w(f"{self.mem_local[name]} = MEMS[{slot}]")
        for slot, fsm in enumerate(self.dyn_fsms):
            self.w(f"d_{self.fsms.index(fsm)} = DYN[{slot}]")
        if self.track:
            for i in range(len(self.fsms)):
                self.w(f"SC_{i} = SC[{i}]")
        if self.has_listener:
            self.w("_lt = listener.on_transition")
            self.w("_lcl = listener.on_counter_load")
            self.w("_lcr = listener.on_counter_reset")
            self.w("_wc = listener.wants_cycles")
            self.w("_oc = listener.on_cycle")
        if self.slots is not None:
            self.w("_acc = listener.accumulator")

    def _emit_writeback(self) -> None:
        for slot, name in enumerate(self.scalar_names):
            self.w(f"S[{slot}] = {self.scalar_local[name]}")
        for slot, fsm in enumerate(self.dyn_fsms):
            self.w(f"DYN[{slot}] = d_{self.fsms.index(fsm)}")

    def _emit_wires(self) -> None:
        for name in self.m.wire_order:
            wire = self.m.wires[name]
            self.w(f"{self.wire_local[name]} = {self.render(wire.expr)}")

    def _emit_done_check(self) -> None:
        self.w(f"if {self.cond(self.m.done_expr)}:")
        self.push()
        self.w("finished = 1")
        self.w("break")
        self.pop()

    # Phase 1: arc selection against pre-cycle state.
    def _emit_arc_selection(self) -> None:
        for i, fsm in enumerate(self.fsms):
            if not fsm.transitions:
                continue
            self.w(f"t_{i} = -1")
            st = self.scalar_local[fsm.state_signal]
            opened = False
            for state, code in fsm.states.items():
                arcs = fsm.transitions_from(state)
                if not arcs:
                    continue
                head = "if" if not opened else "elif"
                opened = True
                self.w(f"{head} {st} == {code}:")
                self.push()
                gates = 0
                if (fsm.name, state) not in self.elide:
                    counter = fsm.wait_states.get(state)
                    if counter is not None:
                        self.w(f"if {self.scalar_local[counter]} <= 0:")
                        self.push()
                        gates += 1
                    if state in fsm.dynamic_waits:
                        self.w(f"if d_{i} <= 0:")
                        self.push()
                        gates += 1
                chained = False
                for t in arcs:
                    if t.cond is None:
                        if chained:
                            self.w("else:")
                            self.push()
                            self.w(f"t_{i} = {t.index}")
                            self.pop()
                        else:
                            self.w(f"t_{i} = {t.index}")
                        break
                    head2 = "elif" if chained else "if"
                    self.w(f"{head2} {self.cond(t.cond)}:")
                    self.push()
                    self.w(f"t_{i} = {t.index}")
                    self.pop()
                    chained = True
                for _ in range(gates):
                    self.pop()
                self.pop()

    # The fast-forward jump: mirrors Simulation._try_skip exactly.
    def _emit_fast_forward(self) -> None:
        fired_terms = [f"t_{i} < 0" for i, fsm in enumerate(self.fsms)
                       if fsm.transitions]
        self.w(f"if {' and '.join(fired_terms) if fired_terms else '1'}:")
        self.push()
        self.w("_j = 0")
        self.w("while 1:")
        self.push()
        self.w("_r = -1")
        self._emit_skip_counters()
        self._emit_skip_fsm_scan()
        self.w("if _r < 0:")
        self.push()
        self.w("break")
        self.pop()
        self._emit_skip_vetoes()
        self.w("if _r <= 1:")
        self.push()
        self.w("break")
        self.pop()
        self.w("_j = _r")
        self.w("break")
        self.pop()
        self.w("if _j:")
        self.push()
        self._emit_skip_commit()
        self.w("continue")
        self.pop()
        self.pop()

    def _emit_skip_counters(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            guard = f"{v} > 0"
            if c.enable is not None:
                guard += f" and ({self.cond(c.enable)})"
            self.w(f"{self.ch[c.name]} = 1 if {guard} else 0")
            self.w(f"if {self.ch[c.name]}:")
            self.push()
            eta = v if c.step == 1 else f"-(-{v} // {c.step})"
            self.w(f"_t = {eta}")
            self.w("if _r < 0 or _t < _r:")
            self.push()
            self.w("_r = _t")
            self.pop()
            self.pop()
        for c in self.up:
            v = self.scalar_local[c.name]
            if c.load_cond is not None:
                self.w(f"if {self.cond(c.load_cond)}:")
                self.push()
                self.w("break")  # a reset would fire this cycle
                self.pop()
            if c.enable is None:
                self.w(f"{self.ch[c.name]} = 1")
            else:
                self.w(f"{self.ch[c.name]} = "
                       f"1 if {self.cond(c.enable)} else 0")
            self.w(f"{self.zu[c.name]} = "
                   f"1 if {self.ch[c.name]} and {v} == 0 else 0")
            self.w(f"if {self.ch[c.name]}:")
            self.push()
            self.w(f"_t = ({c.mask} - {v}) // {c.step}")  # wrap bound
            self.w("if _r < 0 or _t < _r:")
            self.push()
            self.w("_r = _t")
            self.pop()
            self.pop()

    def _emit_skip_fsm_scan(self) -> None:
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            branches: List[Tuple[int, List[str]]] = []
            for state, code in fsm.states.items():
                body: List[str] = []
                elided = (fsm.name, state) in self.elide
                counter = fsm.wait_states.get(state)
                arc_terms = self.arc_veto_terms(fsm, state)
                if counter is not None and not elided:
                    body.append(f"if {self.scalar_local[counter]} > 0:")
                    body.append(f"    if not {self.ch[counter]}:")
                    body.append("        break")  # parked, no ETA
                    if arc_terms:
                        body.append("else:")
                        body.append(f"    if {' or '.join(arc_terms)}:")
                        body.append("        break")
                elif state in fsm.dynamic_waits and not elided:
                    body.append(f"if d_{i} > 0:")
                    body.append(f"    if _r < 0 or d_{i} < _r:")
                    body.append(f"        _r = d_{i}")
                    if arc_terms:
                        body.append("else:")
                        body.append(f"    if {' or '.join(arc_terms)}:")
                        body.append("        break")
                elif arc_terms:
                    body.append(f"if {' or '.join(arc_terms)}:")
                    body.append("    break")
                if body:
                    branches.append((code, body))
            opened = False
            for code, body in branches:
                head = "if" if not opened else "elif"
                opened = True
                self.w(f"{head} {st} == {code}:")
                self.push()
                for line in body:
                    self.w(line)
                self.pop()

    def _emit_skip_vetoes(self) -> None:
        # Unconditional vetoes: counter load/enable deps, update deps,
        # and done-expression deps (order of abort checks is free — all
        # evaluations are pure).
        terms: List[str] = []
        for c in self.down + self.up:
            lu, lz = self.deps.analyze(c.load_cond)
            eu, ez = self.deps.analyze(c.enable)
            for term in self.veto_terms((lu | eu, lz | ez)):
                if term not in terms:
                    terms.append(term)
        for upd in self.m.updates:
            for term in self.veto_terms(self.deps.analyze(upd.cond)):
                if term not in terms:
                    terms.append(term)
        for term in self.veto_terms(self.deps.analyze(self.m.done_expr)):
            if term not in terms:
                terms.append(term)
        if terms:
            self.w(f"if {' or '.join(terms)}:")
            self.push()
            self.w("break")
            self.pop()
        for c in self.down:
            # A load on a non-counting down counter would fire mid-jump.
            self.w(f"if not {self.ch[c.name]} and "
                   f"({self.cond(c.load_cond)}):")
            self.push()
            self.w("break")
            self.pop()
        for upd in self.m.updates:
            # A register write that fires this cycle forbids jumping.
            guard = self.cond(upd.cond)
            if upd.fsm is not None:
                fsm = self.m.fsms[upd.fsm]
                st = self.scalar_local[fsm.state_signal]
                code = fsm.code_of(upd.state)
                guard = (f"{st} == {code} and ({guard})"
                         if upd.cond is not None else f"{st} == {code}")
            self.w(f"if {guard}:")
            self.push()
            self.w("break")
            self.pop()

    def _emit_skip_commit(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            self.w(f"if {self.ch[c.name]}:")
            self.push()
            delta = "_j" if c.step == 1 else f"_j * {c.step}"
            self.w(f"_t = {v} - {delta}")
            self.w(f"{v} = _t if _t > 0 else 0")
            self.pop()
        for c in self.up:
            v = self.scalar_local[c.name]
            self.w(f"if {self.ch[c.name]}:")
            self.push()
            delta = "_j" if c.step == 1 else f"_j * {c.step}"
            self.w(f"{v} = ({v} + {delta}) & {c.mask}")
            self.pop()
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            live_dyn = [code for state, code in fsm.states.items()
                        if state in fsm.dynamic_waits
                        and (fsm.name, state) not in self.elide]
            if live_dyn:
                parked = " or ".join(f"{st} == {code}" for code in live_dyn)
                self.w(f"if ({parked}) and d_{i} > 0:")
                self.push()
                self.w(f"d_{i} -= _j")
                self.pop()
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"{busy} = 1 if d_{i} > 0 else 0")
            if self.track:
                self.w(f"SC_{i}[{st}] += _j")
        self.w("cycle += _j")
        self.w("_ffj += 1")
        self._emit_on_cycle()

    # Phase 2a: counters.
    def _emit_counters(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            cn = self.cn[c.name]
            self.w(f"{cn} = -1")
            self.w(f"if {self.cond(c.load_cond)}:")
            self.push()
            self.w(f"{cn} = ({self.render(c.load_value)}) & {c.mask}")
            if self.has_listener:
                self.w(f"_lcl({c.name!r}, {cn})")
            if self.slots is not None:
                self._emit_slot_pair(self.slots.loads, c.name, cn)
            self.pop()
            guard = f"{v} > 0"
            if c.enable is not None:
                guard += f" and ({self.cond(c.enable)})"
            self.w(f"elif {guard}:")
            self.push()
            self.w(f"_t = {v} - {c.step}")
            self.w(f"{cn} = _t if _t > 0 else 0")
            self.pop()
        for c in self.up:
            v = self.scalar_local[c.name]
            cn = self.cn[c.name]
            self.w(f"{cn} = -1")
            head = "if"
            if c.load_cond is not None:
                self.w(f"if {self.cond(c.load_cond)}:")
                self.push()
                self.w(f"{cn} = 0")
                if self.has_listener:
                    self.w(f"_lcr({c.name!r}, {v})")
                if self.slots is not None:
                    self._emit_slot_pair(self.slots.resets, c.name, v)
                self.pop()
                head = "elif"
            if c.enable is None:
                if head == "elif":
                    self.w("else:")
                    self.push()
                    self.w(f"{cn} = ({v} + {c.step}) & {c.mask}")
                    self.pop()
                else:
                    self.w(f"{cn} = ({v} + {c.step}) & {c.mask}")
            else:
                self.w(f"{head} {self.cond(c.enable)}:")
                self.push()
                self.w(f"{cn} = ({v} + {c.step}) & {c.mask}")
                self.pop()

    def _emit_slot_pair(self, pairs: Dict, counter: str, value: str) -> None:
        # A counter event's inline additions: 1.0 to its count slot,
        # the (loaded or pre-reset) value to its value slot.
        count, total = pairs.get(counter, (None, None))
        if count is not None:
            self.w(f"_acc[{count}] += 1.0")
        if total is not None:
            self.w(f"_acc[{total}] += float({value})")

    # Phase 2b: update rules (globals first, then state-bound ones).
    def _emit_updates(self) -> None:
        for reg in self.pending_regs:
            self.w(f"{self.p_local[reg]} = None")
        for upd in self.m.updates:
            if upd.fsm is None:
                self._emit_one_update(upd)
        for fsm in self.fsms:
            per_state: Dict[str, List] = {}
            for upd in self.m.updates:
                if upd.fsm == fsm.name:
                    per_state.setdefault(upd.state, []).append(upd)
            if not per_state:
                continue
            st = self.scalar_local[fsm.state_signal]
            opened = False
            for state, code in fsm.states.items():
                upds = per_state.get(state)
                if not upds:
                    continue
                head = "if" if not opened else "elif"
                opened = True
                self.w(f"{head} {st} == {code}:")
                self.push()
                for upd in upds:
                    self._emit_one_update(upd)
                self.pop()

    def _emit_one_update(self, upd) -> None:
        target = self.p_local[upd.reg]
        if upd.cond is None:
            self.w(f"{target} = {self.render(upd.value)}")
        else:
            self.w(f"if {self.cond(upd.cond)}:")
            self.push()
            self.w(f"{target} = {self.render(upd.value)}")
            self.pop()

    # Phase 2c: fired arcs — next state, entry actions, dynamic waits.
    def _emit_arc_commit_prep(self) -> None:
        for i, fsm in enumerate(self.fsms):
            if not fsm.transitions:
                continue
            if fsm.dynamic_waits:
                self.w(f"nd_{i} = -1")
            self.w(f"if t_{i} >= 0:")
            self.push()
            opened = False
            for t in fsm.transitions:
                head = "if" if not opened else "elif"
                opened = True
                self.w(f"{head} t_{i} == {t.index}:")
                self.push()
                self.w(f"ns_{i} = {fsm.code_of(t.dst)}")
                for reg, value in t.actions:
                    self.w(f"{self.p_local[reg]} = {self.render(value)}")
                if t.dst in fsm.dynamic_waits:
                    if (fsm.name, t.dst) in self.elide:
                        self.w(f"nd_{i} = 0")
                    else:
                        duration = fsm.dynamic_waits[t.dst]
                        self.w(f"_t = {self.render(duration)}")
                        self.w(f"nd_{i} = _t if _t > 0 else 0")
                if self.has_listener:
                    self.w(f"_lt({fsm.name!r}, {t.src!r}, {t.dst!r})")
                if self.slots is not None:
                    k = self.slots.transitions.get(
                        (fsm.name, t.src, t.dst))
                    if k is not None:
                        self.w(f"_acc[{k}] += 1.0")
                self.pop()
            self.pop()

    # Phase 3: commit.
    def _emit_commit(self) -> None:
        if self.track:
            for i, fsm in enumerate(self.fsms):
                st = self.scalar_local[fsm.state_signal]
                self.w(f"SC_{i}[{st}] += 1")  # keyed on pre-commit state
        for c in self.down + self.up:
            cn = self.cn[c.name]
            self.w(f"if {cn} >= 0:")
            self.push()
            self.w(f"{self.scalar_local[c.name]} = {cn}")
            self.pop()
        for reg in self.pending_regs:
            p = self.p_local[reg]
            self.w(f"if {p} is not None:")
            self.push()
            mask = self.m.regs[reg].mask
            self.w(f"{self.scalar_local[reg]} = {p} & {mask}")
            self.pop()
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            if fsm.transitions:
                self.w(f"if t_{i} >= 0:")
                self.push()
                self.w(f"{st} = ns_{i}")
                if fsm.dynamic_waits:
                    self.w(f"if nd_{i} >= 0:")
                    self.push()
                    self.w(f"d_{i} = nd_{i}")
                    self.pop()
                self.pop()
                if fsm.dynamic_waits:
                    self.w(f"elif d_{i} > 0:")
                    self.push()
                    self.w(f"d_{i} -= 1")  # parked in a dynamic wait
                    self.pop()
            elif fsm.dynamic_waits:
                self.w(f"if d_{i} > 0:")
                self.push()
                self.w(f"d_{i} -= 1")
                self.pop()
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"{busy} = 1 if d_{i} > 0 else 0")
        self.w("cycle += 1")
        self._emit_on_cycle()

    def _emit_on_cycle(self) -> None:
        if not self.has_listener:
            return
        pairs = [f"{name!r}: {self.scalar_local[name]}"
                 for name in self.scalar_names]
        pairs += [f"'{_MEM_PREFIX}{name}': {self.mem_local[name]}"
                  for name in self.mem_names]
        self.w("if _wc:")
        self.push()
        self.w(f"_oc(cycle, {{{', '.join(pairs)}}})")
        self.pop()


class StepProgram:
    """A compiled whole-cycle stepper for one (module, variant) pair.

    Holds the generated source (for inspection/tests) and the compiled
    function, plus the slot layout the :class:`StepSimulation` uses to
    pack and unpack architectural state.  ``has_listener`` compiles in
    listener callbacks; ``slots`` instead compiles a listener's
    :class:`EventSlots` table into inline additions.  Pickles as
    (module, options) and regenerates its code on load.
    """

    def __init__(self, module: Module,
                 elide: Iterable[Tuple[str, str]] = (),
                 track_state_cycles: bool = True,
                 has_listener: bool = False,
                 fast_forward: bool = True,
                 slots: Optional[EventSlots] = None):
        start = perf_counter()
        self.module = module
        self.elide = frozenset(elide)
        self.track_state_cycles = bool(track_state_cycles)
        self.has_listener = bool(has_listener)
        self.fast_forward = bool(fast_forward)
        self.slots = slots
        compiler = _StepCompiler(module, self.elide,
                                 self.track_state_cycles,
                                 self.has_listener, self.fast_forward,
                                 slots)
        self.source = compiler.source()
        namespace: Dict[str, object] = {}
        exec(compile(self.source, f"<stepjit:{module.name}>", "exec"),
             namespace)
        self.fn = namespace["_step"]
        self.scalar_names = list(compiler.scalar_names)
        self.mem_keys = [f"{_MEM_PREFIX}{name}"
                         for name in compiler.mem_names]
        self.fsm_names = [f.name for f in compiler.fsms]
        self.fsm_state_signals = [f.state_signal for f in compiler.fsms]
        self.fsm_states = [
            [state for state, _code in sorted(f.states.items(),
                                              key=lambda kv: kv[1])]
            for f in compiler.fsms
        ]
        self.dyn_names = [f.name for f in compiler.dyn_fsms]
        self.codegen_s = perf_counter() - start
        obs = get_observer()
        if obs is not None:
            obs.metrics.inc("sim.stepjit.compiles")
            obs.metrics.inc("sim.stepjit.codegen_s", self.codegen_s)

    def __reduce__(self):
        # The generated function is unpicklable; it is a pure function
        # of (module, options), so regenerate on load — this is what
        # lets steppers ride through pool workers and the artifact
        # cache.
        return (StepProgram, (self.module, tuple(sorted(self.elide)),
                              self.track_state_cycles, self.has_listener,
                              self.fast_forward, self.slots))


#: module -> {variant key -> StepProgram}; weak so modules can die.
_PROGRAMS: "WeakKeyDictionary[Module, Dict]" = WeakKeyDictionary()


def compile_stepper(module: Module, *,
                    elide: Iterable[Tuple[str, str]] = (),
                    track_state_cycles: bool = True,
                    has_listener: bool = False,
                    fast_forward: bool = True,
                    slots: Optional[EventSlots] = None) -> StepProgram:
    """The cached :class:`StepProgram` for a module variant.

    Equal slot tables share one program: the table is part of the
    key, and its hash is computed once per table.
    """
    variants = _PROGRAMS.get(module)
    if variants is None:
        variants = _PROGRAMS.setdefault(module, {})
    key = (frozenset(elide), bool(track_state_cycles),
           bool(has_listener), bool(fast_forward), slots)
    program = variants.get(key)
    if program is None:
        program = variants[key] = StepProgram(module, *key)
    return program


class StepSimulation(Simulation):
    """Drop-in :class:`Simulation` backed by the generated stepper.

    Construction, ``reset``, ``load`` and all inspection surfaces
    (``state``, ``cycle``, ``state_cycles``, ``_fsm_state``) behave
    exactly like the interpreter's; only ``run`` differs — it packs the
    state dict into flat slots, executes the compiled kernel, and
    unpacks the (cycle-exact) result back.
    """

    def _build_static(self) -> None:
        # The stepper bakes the arc tables and dependence analyses into
        # generated code; skip the interpreter's per-instance tables.
        self._fsms = list(self.module.fsms.values())

    def program(self) -> StepProgram:
        """The compiled stepper for this simulation's configuration.

        The attached listener picks the instrumentation: its slot
        table compiled inline when it offers one, else callbacks.
        """
        listener = self.listener
        slots = None if listener is None else listener.event_slots()
        return compile_stepper(
            self.module, elide=self.elide,
            track_state_cycles=self.track_state_cycles,
            has_listener=listener is not None and slots is None,
            fast_forward=self.fast_forward, slots=slots)

    def run(self, max_cycles: int = 200_000_000) -> RunResult:
        """Run until done (or ``max_cycles``) on the compiled kernel."""
        program = self.program()
        state = self.state
        scalars = [state[name] for name in program.scalar_names]
        mems = [state[key] for key in program.mem_keys]
        dyn = [self._dyn_stall[name] for name in program.dyn_names]
        if self.track_state_cycles:
            sc = [
                [self.state_cycles.get((name, s), 0) for s in states]
                for name, states in zip(program.fsm_names,
                                        program.fsm_states)
            ]
        else:
            sc = None
        start_cycle = self.cycle
        start = perf_counter()
        cycle, finished, ff_jumps = program.fn(
            scalars, mems, dyn, sc, self.cycle, max_cycles, self.listener)
        wall = perf_counter() - start
        for name, value in zip(program.scalar_names, scalars):
            state[name] = value
        for name, value in zip(program.dyn_names, dyn):
            self._dyn_stall[name] = value
        for name, signal, states in zip(program.fsm_names,
                                        program.fsm_state_signals,
                                        program.fsm_states):
            self._fsm_state[name] = states[state[signal]]
        self.cycle = cycle
        self.ff_jumps += ff_jumps
        if self.track_state_cycles:
            cells = self.state_cycles  # preserve dict identity: callers
            cells.clear()              # hold and clear() this mapping
            for name, states, counts in zip(program.fsm_names,
                                            program.fsm_states, sc):
                for s, count in zip(states, counts):
                    if count:
                        cells[(name, s)] = count
        record_sim_run("stepjit", cycle - start_cycle, wall, ff_jumps)
        return RunResult(cycle, bool(finished), dict(self.state_cycles))
