"""Whole-module step compiler: a generated-code simulation backend.

Where the interpreter walks each expression tree every cycle, this
module compiles the entire two-phase cycle of a :class:`Module` into
one specialized Python function:

* architectural state lives in locals (no dict lookups on the hot
  path; the simulation's state dicts are only touched on entry/exit);
* the loop head dispatches on the state of one FSM (the one with the
  most states) and each branch is the cycle with that state known:
  its state compares fold to constants, the other states' arc choices,
  update rules and jump vetoes are left out, and only the wires the
  branch reads are computed, as plain locals;
* counters and registers nothing later in the cycle reads are written
  in place; the rest are staged and committed with the interpreter's
  exact ordering;
* a *load-only* down counter (step 1, no enable, read by no logic: the
  slicer leaves one wherever a counter's loads are features but its
  wait is elided) keeps its expiry cycle instead of its value, so no
  stepped cycle or jump touches it; only the variants without listener
  callbacks do this, because the callbacks variant hands every
  counter's value to ``on_cycle``;
* the fast-forward jump is preserved: ``_DepAnalysis``'s veto tables
  are emitted as boolean checks over per-counter "changing"/"zero-up"
  flags, so the kernel jumps exactly where the interpreter does;
* instrumentation comes in two variants, and the attached listener
  picks one.  A listener with an :class:`~repro.rtl.simulator.EventSlots`
  table (the feature recorder) gets its slots resolved at code
  generation (``_acc[k] += 1.0``, ``_acc[k] += value``); any
  other listener gets its callbacks called per event.  With no
  listener, no instrumentation code is emitted at all.

Programs are cached per module and per variant (state-cycle
tracking, callbacks or slot table, fast-forward); a program holds its
module weakly, so its cache entry dies with the module.  Programs are
pickle-safe: ``__reduce__`` pickles the source module plus the variant
options and regenerates the code on load.

The kernel is exact against the interpreter, jump for jump: the
differential fuzz suite and the golden gate (``repro check --backend
stepjit``) verify it end to end.
"""

from __future__ import annotations

import keyword
import re
from functools import partial
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Set
from weakref import WeakKeyDictionary, ref

from ..obs import get_observer
from .counter import Counter
from .expr import (_BINOPS, _CMPOPS, _PYOPS, _UNOPS, BinOp, Const, Expr,
                   MemRead, Mux, Sig, UnOp, walk)
from .fsm import Fsm, Transition
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
        "S", "DYN", "FS", "SC", "cycle", "max_cycles", "listener",
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
    """Emits the specialized ``_step`` function for one module variant.

    The cycle body is emitted once per state of the dispatch FSM (the
    module's FSM with the most states, first on a tie).  Inside a
    branch that state is a known constant, which :meth:`fold` uses to
    evaluate every expression it fixes.
    """

    def __init__(self, module: Module, track_state_cycles: bool,
                 has_listener: bool, fast_forward: bool,
                 slots: Optional[EventSlots]):
        if not module.finalized:
            raise ValueError(
                f"module {module.name} must be finalized first")
        self.m = module
        self.track = track_state_cycles
        self.has_listener = has_listener
        self.fast_forward = fast_forward
        self.slots = slots
        self.deps = _DepAnalysis(module)

        names = _Names()
        # The scalar signals, in Simulation.reset()'s order.
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
        # Only a listener's callback could resize a memory mid-run.
        self.mem_len = {
            name: f"len({self.mem_local[name]})" if has_listener
            else names.make("n_", name) for name in self.mem_names
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
        # A callback listener sees every counter's value each cycle, so
        # only the other variants count load-only counters lazily.
        self.lazy = set() if has_listener else self._load_only()
        self.ex = {name: names.make("e_", name) for name in sorted(self.lazy)}
        written = {u.reg for u in module.updates}
        for fsm in self.fsms:
            for t in fsm.transitions:
                for reg, _value in t.actions:
                    written.add(reg)
        self.pending_regs = [r for r in module.regs if r in written]
        self.p_local = {r: names.make("p_", r) for r in self.pending_regs}
        self.dispatch: Optional[Fsm] = max(
            self.fsms, key=lambda f: len(f.states), default=None)

        # What one branch knows, reset by _emit_branch: the dispatch
        # state and the signals it fixes (plus folded wires), the wires
        # read, each FSM's possible arcs and whether one always fires,
        # the jump's known ch_/zu_ flags and whether it has a length,
        # the counters and registers written in place, and the rest.
        self.state, self.known, self._folds, self.live = None, {}, {}, set()
        self.arcs: Dict[int, List[Transition]] = {}
        self.fires: Dict[int, Optional[bool]] = {}
        self.flags: Dict[str, Optional[int]] = {}
        self.eta, self.direct, self.staged = False, set(), []

        self._lines: List[str] = []
        self._indent = 1

    def _load_only(self) -> Set[str]:
        """The down counters whose value no logic reads: step 1, no
        enable, and named by no arc, wait, wire, update, datapath
        input, dynamic wait, counter or done expression.  The slicer
        leaves one wherever a counter's loads are features but its
        wait is elided (Sec. 3.5).  Such a counter keeps its expiry
        cycle ``e_`` (its value is ``max(e_ - cycle, 0)``) instead of
        its value: no stepped cycle or jump touches it, the jump scan
        reads ``e_ - cycle``, and the value goes back to ``S`` at
        exit."""
        read = self.m.read_signals()
        return {c.name for c in self.down
                if c.step == 1 and c.enable is None and c.name not in read}

    # -- emission helpers ----------------------------------------------
    def w(self, line: str = "") -> None:
        self._lines.append("    " * self._indent + line if line else "")

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    def _break_if(self, cond: Optional[str]) -> None:
        # None never holds, "1" always does.
        if cond == "1":
            self.w("break")
        elif cond:
            self.w(f"if {cond}:")
            self.w("    break")

    def _per_state(self, fsm: Fsm, emit: Callable[[str], None]) -> None:
        """``emit(state)`` under an ``if st == code`` chain over the
        states ``fsm`` can be in: just the branch's, for the dispatch
        FSM."""
        if fsm is self.dispatch:
            emit(self.state)
            return
        head = "if"
        for state, code in fsm.states.items():
            start = len(self._lines)
            self.w(f"{head} {self.scalar_local[fsm.state_signal]} == {code}:")
            self.push()
            emit(state)
            self.pop()
            if len(self._lines) == start + 1:
                del self._lines[start]  # nothing to do in this state
            else:
                head = "elif"

    # -- folding under the branch's known state --------------------------
    def fold(self, expr: Optional[Expr]) -> Optional[int]:
        """The value of ``expr`` when the branch's known state fixes it.

        Every expression is pure, so an operand a constant makes
        irrelevant (``0 & x``, an unselected mux input) is not needed.
        """
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Sig):
            name = expr.name
            if name in self.known:
                return self.known[name]
            wire = self.m.wires.get(name)
            if wire is None:
                return None
            if name not in self._folds:
                self._folds[name] = self.fold(wire.expr)
            return self._folds[name]
        if isinstance(expr, Mux):
            sel = self.fold(expr.sel)
            if sel is not None:
                return self.fold(expr.a if sel else expr.b)
            a = self.fold(expr.a)
            return a if a is not None and a == self.fold(expr.b) else None
        if isinstance(expr, UnOp):
            a = self.fold(expr.a)
            return None if a is None else _UNOPS[expr.op](a)
        if isinstance(expr, BinOp):
            a, b = self.fold(expr.a), self.fold(expr.b)
            if a is not None and b is not None:
                try:
                    return _BINOPS[expr.op](a, b)
                except (ArithmeticError, ValueError, MemoryError):
                    return None  # raised at run time, as unfolded
            if expr.op in ("and", "mul") and 0 in (a, b):
                return 0
            if expr.op == "or" and (a == 1 and self.is_bool(expr.b)
                                    or b == 1 and self.is_bool(expr.a)):
                return 1
        return None

    def truth(self, expr: Optional[Expr]) -> Optional[bool]:
        """Whether ``expr`` holds in the whole branch (a missing one
        does); None when only the run can tell."""
        value = 1 if expr is None else self.fold(expr)
        return None if value is None else bool(value)

    def is_bool(self, expr: Expr) -> bool:
        """True when ``expr`` can only be 0 or 1."""
        if self.fold(expr) in (0, 1):
            return True
        if isinstance(expr, Sig):
            wire = self.m.wires.get(expr.name)
            return wire is not None and self.is_bool(wire.expr)
        if isinstance(expr, UnOp):
            return expr.op != "neg"
        if isinstance(expr, BinOp):
            if expr.op in _CMPOPS:
                return True
            if expr.op == "and":
                return self.is_bool(expr.a) or self.is_bool(expr.b)
            if expr.op in ("or", "xor"):
                return self.is_bool(expr.a) and self.is_bool(expr.b)
        if isinstance(expr, Mux):
            return self.is_bool(expr.a) and self.is_bool(expr.b)
        return False

    # -- expression rendering ------------------------------------------
    def ref(self, name: str) -> str:
        local = self.scalar_local.get(name)
        if local is not None:
            return local
        local = self.wire_local.get(name)
        if local is not None:
            self.live.add(name)
            return local
        if name.startswith(_MEM_PREFIX):
            return self.mem_local[name[len(_MEM_PREFIX):]]
        raise KeyError(f"stepjit: unknown signal {name!r} in {self.m.name}")

    def render(self, expr: Expr) -> str:
        value = self.fold(expr)
        if value is not None:
            return repr(value)
        if isinstance(expr, Sig):
            return self.ref(expr.name)
        if isinstance(expr, MemRead):
            mem = self.mem_local[expr.memory]
            size = self.mem_len[expr.memory]
            idx = self.render(expr.index)
            if _SIMPLE_ATOM.match(idx):
                return f"({mem}[{idx}] if 0 <= {idx} < {size} else 0)"
            # The index is bound before the read (a nested read of the
            # index rebinds _i first).
            return f"({mem}[_i] if 0 <= (_i := {idx}) < {size} else 0)"
        if isinstance(expr, Mux):
            sel = self.fold(expr.sel)
            if sel is not None:
                return self.render(expr.a if sel else expr.b)
            return (f"({self.render(expr.a)} if {self.cond(expr.sel)}"
                    f" else {self.render(expr.b)})")
        if isinstance(expr, UnOp):
            if expr.op == "not":
                return f"(0 if {self.cond(expr.a)} else 1)"
            if expr.op == "bool":
                if self.is_bool(expr.a):
                    return self.render(expr.a)
                return f"(1 if {self.cond(expr.a)} else 0)"
            return f"(-({self.render(expr.a)}))"
        if isinstance(expr, BinOp):
            op = expr.op
            # x | 0 is x; so is x & 1 when x is 0 or 1.
            for keep, other in ((expr.a, expr.b), (expr.b, expr.a)):
                if op == "or" and self.fold(other) == 0 or (
                        op == "and" and self.fold(other) == 1
                        and self.is_bool(keep)):
                    return self.render(keep)
            a = self.render(expr.a)
            b = self.render(expr.b)
            if op in _PYOPS:
                return f"({a} {_PYOPS[op]} {b})"
            if op in _CMPOPS:
                return f"(1 if {a} {_CMPOPS[op]} {b} else 0)"
            if op == "div":
                return f"(({a}) // ({b}) if ({b}) else 0)"
            if op == "mod":
                return f"(({a}) % ({b}) if ({b}) else 0)"
            if op in ("min", "max"):
                if _SIMPLE_ATOM.match(a) and _SIMPLE_ATOM.match(b):
                    # As _BINOPS computes it, without a call.
                    less = "<" if op == "min" else ">"
                    return f"({a} if {a} {less} {b} else {b})"
                return f"{op}({a}, {b})"
        raise TypeError(f"cannot compile expression node {expr!r}")

    def masked(self, expr: Expr, mask: int) -> str:
        value = self.fold(expr)
        if value is not None:
            return repr(value & mask)
        return f"({self.render(expr)}) & {mask}"

    def cond(self, expr: Optional[Expr]) -> str:
        """Render for a boolean context (integer truthiness)."""
        value = 1 if expr is None else self.fold(expr)
        if value is not None:
            return repr(value)
        if isinstance(expr, BinOp):
            if expr.op in _CMPOPS:
                a = self.render(expr.a)
                b = self.render(expr.b)
                return f"{a} {_CMPOPS[expr.op]} {b}"
            if expr.op in ("and", "or") and self.is_bool(expr.a) \
                    and self.is_bool(expr.b):
                # On 0/1 operands & and | are Python's and/or; a folded
                # operand here is the identity (else the node folds).
                parts = [self.cond(x) for x in (expr.a, expr.b)
                         if self.fold(x) is None]
                return f"({f' {expr.op} '.join(parts)})"
        if isinstance(expr, UnOp):
            if expr.op == "not":
                return f"not ({self.cond(expr.a)})"
            if expr.op == "bool":
                return self.cond(expr.a)
        if isinstance(expr, Mux):
            sel = self.fold(expr.sel)
            if sel is not None:
                return self.cond(expr.a if sel else expr.b)
        return self.render(expr)

    def in_state(self, fsm: Fsm, state: str) -> Expr:
        return BinOp("eq", Sig(fsm.state_signal), Const(fsm.code_of(state)))

    # -- veto tables ----------------------------------------------------
    def veto_terms(self, pair) -> List[str]:
        """Boolean locals that, when set, veto a fast-forward jump:
        zero-compares are stable except on an up counter leaving 0."""
        unstable, zerocmp = pair
        return ([self.ch[name] for name in sorted(unstable)
                 if name in self.ch]
                + [self.zu[name] for name in sorted(zerocmp)
                   if name in self.zu])

    def any_flag(self, terms: Iterable[str]) -> Optional[str]:
        """The flags' disjunction: ``"1"`` when one is known set, None
        when all are known clear."""
        live: List[str] = []
        for term in terms:
            known = self.flags[term]
            if known:
                return "1"
            if known is None and term not in live:
                live.append(term)
        return " or ".join(live) or None

    # -- program assembly -----------------------------------------------
    def source(self) -> str:
        self._lines = [
            f"# stepjit kernel for module {self.m.name!r}",
            f"# variant: track={self.track}, "
            f"listener={self.has_listener}, "
            f"slots={self.slots is not None}, "
            f"fast_forward={self.fast_forward}",
            "def _step(S, DYN, FS, SC, cycle, max_cycles, listener):",
        ]
        self._emit_unpack()
        self.w("finished = 0")
        self.w("_ffj = 0")
        self.w("while cycle < max_cycles:")
        self.push()
        fsm = self.dispatch
        states = [None] if fsm is None else list(fsm.states)
        for n, state in enumerate(states):
            if len(states) > 1:
                st = self.scalar_local[fsm.state_signal]
                self.w("else:" if n == len(states) - 1 else
                       f"{'elif' if n else 'if'} {st} == "
                       f"{fsm.code_of(state)}:")
                self.push()
            self._emit_branch(state)
            if len(states) > 1:
                self.pop()
        self.pop()
        self._emit_writeback()
        self.w("return (cycle, finished, _ffj)")
        return "\n".join(self._lines) + "\n"

    def _emit_unpack(self) -> None:
        # S, DYN and FS are the simulation's own state, dynamic-stall
        # and FSM-state dicts: the kernel reads and writes them by name.
        for name in self.scalar_names:
            if name in self.lazy:
                self.w(f"{self.ex[name]} = cycle + S[{name!r}]")
            else:
                self.w(f"{self.scalar_local[name]} = S[{name!r}]")
        for name in self.mem_names:
            mem = self.mem_local[name]
            self.w(f"{mem} = S['{_MEM_PREFIX}{name}']")
            if not self.has_listener:
                self.w(f"{self.mem_len[name]} = len({mem})")
        for fsm in self.dyn_fsms:
            self.w(f"d_{self.fsms.index(fsm)} = DYN[{fsm.name!r}]")
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
        for name in self.scalar_names:
            if name in self.lazy:
                self.w(f"_t = {self.ex[name]} - cycle")
                self.w(f"S[{name!r}] = _t if _t > 0 else 0")
            else:
                self.w(f"S[{name!r}] = {self.scalar_local[name]}")
        for fsm in self.dyn_fsms:
            self.w(f"DYN[{fsm.name!r}] = d_{self.fsms.index(fsm)}")
        for fsm in self.fsms:
            # State codes number the states in order: index by code.
            self.w(f"FS[{fsm.name!r}] = {tuple(fsm.states)!r}"
                   f"[{self.scalar_local[fsm.state_signal]}]")

    def _emit_branch(self, state: Optional[str]) -> None:
        """One cycle with the dispatch FSM in ``state`` (None without
        FSMs).  The wires each half reads come first; the tail's wait
        until no jump was taken (a jump writes state only when taken)."""
        self.state = state
        self.known = {} if state is None else {
            self.dispatch.state_signal: self.dispatch.code_of(state)}
        self._folds = {}
        outer, computed = self._lines, set()
        for part in (self._emit_head, self._emit_tail):
            self._lines, self.live = [], set()
            more = part()
            lines, wires = self._lines, []
            # Reverse topological order: a live wire marks its inputs.
            for name in reversed(self.m.wire_order):
                if name in self.live and name not in computed:
                    wires.append(f"{self.wire_local[name]} = "
                                 f"{self.render(self.m.wires[name].expr)}")
            computed |= self.live
            self._lines = outer
            for line in reversed(wires):
                self.w(line)
            outer.extend(lines)
            if not more:
                break

    def _emit_head(self) -> bool:
        """The done check, arc selection and jump; False when the
        module is done in the whole branch."""
        done = self.truth(self.m.done_expr)
        if done is None:
            self.w(f"if {self.cond(self.m.done_expr)}:")
            self.w("    finished = 1")
            self.w("    break")
        elif done:
            self.w("finished = 1")
            self.w("break")
            return False
        self._emit_arc_selection()
        if self.fast_forward:
            self._emit_fast_forward()
        return True

    def _emit_tail(self) -> bool:
        # Nothing in this half reads the cycle count but a lazy
        # counter's load, which wants the next cycle: advance it first.
        self.w("cycle += 1")
        self._emit_counters()
        self._emit_updates()
        self._emit_arc_commit_prep()
        self._emit_commit()
        return True

    # Phase 1: arc selection against pre-cycle state.
    def _emit_arc_selection(self) -> None:
        self.arcs, self.fires = {}, {}
        for i, fsm in enumerate(self.fsms):
            if not fsm.transitions:
                continue
            self.arcs[i], self.fires[i] = [], None
            if fsm is self.dispatch:
                gates, choices = self._arc_choices(i, fsm, self.state)
                if not choices:
                    self.fires[i] = False
                    continue
                if not gates and choices[-1][0] is None:
                    self.fires[i] = True  # t_i only tells which arc
                    if len(choices) == 1:
                        self.arcs[i] = [choices[0][1]]
                        continue
            if self.fires[i] is None:
                self.w(f"t_{i} = -1")
            self._per_state(fsm, partial(self._emit_choices, i, fsm))

    def _arc_choices(self, i: int, fsm: Fsm, state: str):
        """A state's wait gates and its (condition, arc) choices in
        priority order; a None condition always holds."""
        gates = []
        counter = fsm.wait_states.get(state)
        if counter is not None:
            gates.append(f"{self.scalar_local[counter]} <= 0")
        if state in fsm.dynamic_waits:
            gates.append(f"d_{i} <= 0")
        choices = []
        for t in fsm.transitions_from(state):
            holds = self.truth(t.cond)
            if holds is False:
                continue
            choices.append((None if holds else self.cond(t.cond), t))
            if holds:
                break
        return gates, choices

    def _emit_choices(self, i: int, fsm: Fsm, state: str) -> None:
        gates, choices = self._arc_choices(i, fsm, state)
        self.arcs[i] += [t for _text, t in choices]
        if gates and choices:
            self.w(f"if {' and '.join(gates)}:")
            self.push()
        for n, (text, t) in enumerate(choices):
            if text is None and not n:
                self.w(f"t_{i} = {t.index}")
                break
            self.w("else:" if text is None else
                   f"{'elif' if n else 'if'} {text}:")
            self.w(f"    t_{i} = {t.index}")
        if gates and choices:
            self.pop()

    # The fast-forward jump: mirrors Simulation._try_skip exactly.
    def _emit_fast_forward(self) -> None:
        if any(self.fires.values()):
            return  # an arc fires in every cycle of the branch
        start, live, indent = len(self._lines), set(self.live), self._indent
        terms = [f"t_{i} < 0" for i, fires in self.fires.items()
                 if fires is None]
        if terms:
            self.w(f"if {' and '.join(terms)}:")
            self.push()
        self.flags, self.eta = {}, False
        self.w("_j = 0")
        self.w("while 1:")
        self.push()
        scan = len(self._lines)
        self.w("_r = -1")
        self._emit_skip_counters()
        for i, fsm in enumerate(self.fsms):
            self._per_state(fsm, partial(self._emit_skip_state, i, fsm))
        self._break_if("_r < 0")
        self._emit_skip_vetoes()
        self.w("if _r > max_cycles - cycle:")
        self.w("    _r = max_cycles - cycle")
        self._break_if("_r <= 1")
        # An unconditional break, or no stretch length, rules out every
        # jump in the branch: drop the block.
        if not self.eta or "    " * self._indent + "break" in \
                self._lines[scan:]:
            del self._lines[start:]
            self.live, self._indent = live, indent
            return
        self.w("_j = _r")
        self.w("break")
        self.pop()
        self.w("if _j:")
        self.push()
        self._emit_skip_commit()
        self.w("continue")
        self._indent = indent

    def _emit_eta(self, flag: str, eta: str) -> None:
        # _r = min(_r, eta) while the flag's counter changes.
        known = self.flags[flag]
        if known == 0:
            return
        if known is None:
            self.w(f"if {flag}:")
            self.push()
        self.w(f"_t = {eta}")
        self.w("if _r < 0 or _t < _r:")
        self.w("    _r = _t")
        if known is None:
            self.pop()
        self.eta = True

    def _emit_skip_counters(self) -> None:
        for c in self.down:
            v, ch = self.scalar_local[c.name], self.ch[c.name]
            if c.name in self.lazy:
                self.flags[ch] = None
                self.w(f"{ch} = {self.ex[c.name]} > cycle")
                self._emit_eta(ch, f"{self.ex[c.name]} - cycle")
                continue
            enabled = self.truth(c.enable)
            self.flags[ch] = 0 if enabled is False else None
            if enabled is not False:
                guard = f"{v} > 0"
                if not enabled:
                    guard += f" and ({self.cond(c.enable)})"
                self.w(f"{ch} = {guard}")
            self._emit_eta(ch, v if c.step == 1 else f"-(-{v} // {c.step})")
        for c in self.up:
            v, ch, zu = (self.scalar_local[c.name], self.ch[c.name],
                         self.zu[c.name])
            if c.load_cond is not None:  # a reset would fire this cycle
                reset = self.truth(c.load_cond)
                self._break_if(
                    self.cond(c.load_cond) if reset is None
                    else "1" if reset else None)
            enabled = self.truth(c.enable)
            self.flags[ch] = 0 if enabled is False else 1 if enabled \
                else None
            self.flags[zu] = 0 if enabled is False else None
            if enabled is None:
                self.w(f"{ch} = {self.cond(c.enable)}")
            if enabled is not False:
                self.w(f"{zu} = {'' if enabled else ch + ' and '}{v} == 0")
            self._emit_eta(ch, f"({c.mask} - {v}) // {c.step}")  # wrap

    def _emit_skip_state(self, i: int, fsm: Fsm, state: str) -> None:
        """One state's part of the jump scan: a parked FSM's ETA, or the
        vetoes of arcs a jump could make fire."""
        veto = self.any_flag(
            term for t in fsm.transitions_from(state)
            for term in self.veto_terms(self.deps.analyze(t.cond)))
        counter = fsm.wait_states.get(state)
        if counter is None and state not in fsm.dynamic_waits:
            self._break_if(veto)
            return
        if counter is not None:
            known = self.flags[self.ch[counter]]
            self.w(f"if {self.scalar_local[counter]} > 0:")
            self.push()
            self._break_if(  # parked on a counter that does not count
                "1" if known == 0 else None if known
                else f"not {self.ch[counter]}")
        else:
            self.w(f"if d_{i} > 0:")
            self.push()
            self.w(f"if _r < 0 or d_{i} < _r:")
            self.w(f"    _r = d_{i}")
            self.eta = True
        if self._lines[-1].endswith(":"):
            self.w("pass")
        self.pop()
        if veto:
            self.w("else:")
            self.push()
            self._break_if(veto)
            self.pop()

    def _emit_skip_vetoes(self) -> None:
        # Unconditional vetoes: counter load/enable deps, update deps,
        # and done-expression deps (order of abort checks is free — all
        # evaluations are pure).
        pairs = [self.deps.analyze(e) for c in self.down + self.up
                 for e in (c.load_cond, c.enable)]
        pairs += [self.deps.analyze(upd.cond) for upd in self.m.updates]
        pairs.append(self.deps.analyze(self.m.done_expr))
        self._break_if(self.any_flag(
            term for pair in pairs for term in self.veto_terms(pair)))
        for c in self.down:
            # A load on a non-counting down counter would fire mid-jump.
            counting = self.flags[self.ch[c.name]]
            load = self.truth(c.load_cond)
            if not counting and load is not False:
                parts = ([] if counting == 0 else [f"not {self.ch[c.name]}"])
                if not load:
                    parts.append(f"({self.cond(c.load_cond)})")
                self._break_if(" and ".join(parts) or "1")
        for upd in self.m.updates:
            # A register write that fires this cycle forbids jumping.
            guard = [upd.cond] if upd.fsm is None else [
                self.in_state(self.m.fsms[upd.fsm], upd.state), upd.cond]
            holds = [self.truth(e) for e in guard]
            if False not in holds:
                self._break_if(" and ".join(
                    f"({self.cond(e)})" for e, h in zip(guard, holds)
                    if h is None) or "1")

    def _emit_skip_commit(self) -> None:
        for c in self.down + self.up:
            v, ch = self.scalar_local[c.name], self.ch[c.name]
            known = self.flags[ch]
            if known == 0 or c.name in self.lazy:
                continue  # a lazy counter's expiry does not move
            if known is None:
                self.w(f"if {ch}:")
                self.push()
            delta = "_j" if c.step == 1 else f"_j * {c.step}"
            if c.mode == "down":
                self.w(f"_t = {v} - {delta}")
                self.w(f"{v} = _t if _t > 0 else 0")
            else:
                self.w(f"{v} = ({v} + {delta}) & {c.mask}")
            if known is None:
                self.pop()
        for i, fsm in enumerate(self.fsms):
            parked = [self.cond(self.in_state(fsm, state))
                      for state in fsm.states
                      if state in fsm.dynamic_waits
                      and self.truth(self.in_state(fsm, state)) is not False]
            if parked:
                test = "" if "1" in parked else f"({' or '.join(parked)}) and "
                self.w(f"if {test}d_{i} > 0:")
                self.w(f"    d_{i} -= _j")
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"{busy} = 1 if d_{i} > 0 else 0")
            if self.track:
                st = self.known.get(fsm.state_signal,
                                    self.scalar_local[fsm.state_signal])
                self.w(f"SC_{i}[{st}] += _j")
        self.w("cycle += _j")
        self.w("_ffj += 1")
        self._emit_on_cycle()

    # Phase 2a: counters.
    def _direct_writes(self) -> Set[str]:
        """The counters and registers whose next value can go straight
        to their local: nothing evaluated after their first write in
        the cycle reads them (wires are computed up front).  The rest
        are staged in ``cn_``/``p_`` locals and committed at the end."""
        # (written name, expression read first) in evaluation order; a
        # list of step lists holds alternatives: an FSM fires one arc.
        steps: List = []
        for c in self.down + self.up:
            steps += [(None, c.load_cond), (None, c.enable),
                      (c.name, c.load_value)]
        for upd in self._branch_updates():
            steps += [(None, upd.cond), (upd.reg, upd.value)]
        for i, arcs in self.arcs.items():
            waits = self.fsms[i].dynamic_waits
            steps.append([list(t.actions) + [(None, waits.get(t.dst))]
                          for t in arcs])
        written: Set[str] = set()
        staged: Set[str] = set()

        def scan(steps: List, later: Set[str]) -> Set[str]:
            later = set(later)
            for step in reversed(steps):
                if isinstance(step, list):
                    later = later.union(*(scan(alt, later) for alt in step))
                    continue
                name, expr = step
                if name is not None:
                    written.add(name)
                    if name in later:
                        staged.add(name)
                if expr is not None:
                    later.update(node.name for node in walk(expr)
                                 if isinstance(node, Sig))
            return later

        scan(steps, set())
        return written - staged

    def _emit_counters(self) -> None:
        self.direct = self._direct_writes()
        self.staged = []
        for c in self.down + self.up:
            v = self.scalar_local[c.name]
            target = v if c.name in self.direct else self.cn[c.name]
            down = c.mode == "down"
            load = c.load_cond is not None and self.truth(c.load_cond)
            enabled = self.truth(c.enable)
            if load is False and enabled is False:
                continue  # holds its value in the whole branch
            if target != v:
                self.w(f"{target} = -1")
                self.staged.append(c.name)
            if load is not False:
                if load is None:
                    self.w(f"if {self.cond(c.load_cond)}:")
                    self.push()
                if down:
                    self.w(f"{target} = "
                           f"{self.masked(c.load_value, c.mask)}")
                    if c.name in self.lazy:
                        # cycle has advanced, so this is the load's
                        # cycle + 1 + value: the first cycle at 0.
                        self.w(f"{self.ex[c.name]} = cycle + {target}")
                    if self.has_listener:
                        self.w(f"_lcl({c.name!r}, {target})")
                    if self.slots is not None:
                        self._emit_slot_pair(self.slots.loads, c.name,
                                             target)
                else:
                    if self.has_listener:
                        self.w(f"_lcr({c.name!r}, {v})")
                    if self.slots is not None:
                        self._emit_slot_pair(self.slots.resets, c.name, v)
                    self.w(f"{target} = 0")
                if load:
                    continue  # loaded in every cycle of the branch
                self.pop()
            if enabled is False or c.name in self.lazy:
                continue  # a lazy counter counts down by the clock
            guard = [f"{v} > 0"] if down else []
            if not enabled:
                guard.append(f"({self.cond(c.enable)})")
            if guard or load is None:
                self.w(f"{'elif' if load is None else 'if'} "
                       f"{' and '.join(guard)}:" if guard else "else:")
                self.push()
            if down and c.step == 1:
                self.w(f"{target} = {v} - 1")  # exact: {v} > 0 here
            elif down:
                self.w(f"_t = {v} - {c.step}")
                self.w(f"{target} = _t if _t > 0 else 0")
            else:
                self.w(f"{target} = ({v} + {c.step}) & {c.mask}")
            if guard or load is None:
                self.pop()

    def _emit_slot_pair(self, pairs: Dict, counter: str, value: str) -> None:
        # A counter event's inline additions: 1.0 to its count slot,
        # the (loaded or pre-reset) value to its value slot.
        count, total = pairs.get(counter, (None, None))
        if count is not None:
            self.w(f"_acc[{count}] += 1.0")
        if total is not None:
            # float += int adds the correctly rounded double, as
            # float() would, without a call per event.
            self.w(f"_acc[{total}] += {value}")

    # Phase 2b: update rules (globals first, then state-bound ones).
    def _branch_updates(self) -> List:
        """The update rules that can fire in this branch, in emission
        order."""
        live = [upd for upd in self.m.updates
                if self.truth(upd.cond) is not False and (
                    upd.fsm is None or self.truth(self.in_state(
                        self.m.fsms[upd.fsm], upd.state)) is not False)]
        return [upd for owner in [None] + [f.name for f in self.fsms]
                for upd in live if upd.fsm == owner]

    def _write(self, reg: str, value: Expr) -> None:
        # A register write: in place (masked) or staged for the commit.
        if reg in self.direct:
            self.w(f"{self.scalar_local[reg]} = "
                   f"{self.masked(value, self.m.regs[reg].mask)}")
        else:
            self.w(f"{self.p_local[reg]} = {self.render(value)}")

    def _emit_updates(self) -> None:
        updates = self._branch_updates()
        regs = {upd.reg for upd in updates}
        for arcs in self.arcs.values():
            regs.update(reg for t in arcs for reg, _value in t.actions)
        for reg in self.pending_regs:
            if reg in regs and reg not in self.direct:
                self.w(f"{self.p_local[reg]} = None")
                self.staged.append(reg)
        self._emit_updates_in(None, updates, None)
        for fsm in self.fsms:
            self._per_state(fsm, partial(self._emit_updates_in, fsm.name,
                                         updates))

    def _emit_updates_in(self, fsm: Optional[str], updates: List,
                         state: Optional[str]) -> None:
        for upd in updates:
            if upd.fsm == fsm and upd.state == state:
                holds = self.truth(upd.cond)
                if holds is None:
                    self.w(f"if {self.cond(upd.cond)}:")
                    self.push()
                self._write(upd.reg, upd.value)
                if holds is None:
                    self.pop()

    # Phase 2c: fired arcs — next state, entry actions, dynamic waits.
    def _emit_arc_commit_prep(self) -> None:
        for i, fsm in enumerate(self.fsms):
            arcs = self.arcs.get(i)
            if not arcs:
                continue
            into = [t.dst in fsm.dynamic_waits for t in arcs]
            if any(into) and not all(into):
                self.w(f"nd_{i} = -1")
            start = len(self._lines)
            if not self.fires[i]:
                self.w(f"if t_{i} >= 0:")
                self.push()
            for n, t in enumerate(arcs):
                if len(arcs) > 1:
                    self.w("else:" if n == len(arcs) - 1 else
                           f"{'elif' if n else 'if'} t_{i} == {t.index}:")
                    self.push()
                    self.w(f"ns_{i} = {fsm.code_of(t.dst)}")
                self._emit_arc(i, fsm, t)
                if len(arcs) > 1:
                    self.pop()
            if not self.fires[i]:
                self.pop()
                if len(self._lines) == start + 1:
                    del self._lines[start]  # the arc has no prep to do

    def _emit_arc(self, i: int, fsm: Fsm, t: Transition) -> None:
        for reg, value in t.actions:
            self._write(reg, value)
        if t.dst in fsm.dynamic_waits:
            self.w(f"_t = {self.render(fsm.dynamic_waits[t.dst])}")
            self.w(f"nd_{i} = _t if _t > 0 else 0")
        if self.has_listener:
            self.w(f"_lt({fsm.name!r}, {t.src!r}, {t.dst!r})")
        if self.slots is not None:
            k = self.slots.transitions.get((fsm.name, t.src, t.dst))
            if k is not None:
                self.w(f"_acc[{k}] += 1.0")

    # Phase 3: commit.
    def _emit_commit(self) -> None:
        if self.track:
            for i, fsm in enumerate(self.fsms):
                st = self.known.get(fsm.state_signal,
                                    self.scalar_local[fsm.state_signal])
                self.w(f"SC_{i}[{st}] += 1")  # keyed on pre-commit state
        for name in self.staged:
            v = self.scalar_local[name]
            if name in self.cn:
                self.w(f"if {self.cn[name]} >= 0:")
                self.w(f"    {v} = {self.cn[name]}")
            else:
                p = self.p_local[name]
                self.w(f"if {p} is not None:")
                self.w(f"    {v} = {p} & {self.m.regs[name].mask}")
        for i, fsm in enumerate(self.fsms):
            arcs, fires = self.arcs.get(i), self.fires.get(i, False)
            if arcs:
                if not fires:
                    self.w(f"if t_{i} >= 0:")
                    self.push()
                nxt = (fsm.code_of(arcs[0].dst) if len(arcs) == 1
                       else f"ns_{i}")
                self.w(f"{self.scalar_local[fsm.state_signal]} = {nxt}")
                into = [t.dst in fsm.dynamic_waits for t in arcs]
                if any(into):
                    self.w(f"d_{i} = nd_{i}" if all(into) else
                           f"if nd_{i} >= 0: d_{i} = nd_{i}")
                if not fires:
                    self.pop()
            if fsm.dynamic_waits and not fires:
                self.w(f"{'elif' if arcs else 'if'} d_{i} > 0:")
                self.w(f"    d_{i} -= 1")  # parked in a dynamic wait
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"{busy} = 1 if d_{i} > 0 else 0")
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
    function, plus the FSM state names the :class:`StepSimulation`
    packs per-state residency by.  ``has_listener`` compiles in
    listener callbacks; ``slots`` instead compiles a listener's
    :class:`EventSlots` table into inline additions.  Holds its
    module weakly (the program cache is keyed on it), pickles as
    (module, options) and regenerates its code on load.
    """

    def __init__(self, module: Module,
                 track_state_cycles: bool = True,
                 has_listener: bool = False,
                 fast_forward: bool = True,
                 slots: Optional[EventSlots] = None):
        start = perf_counter()
        self._module = ref(module)
        self.track_state_cycles = bool(track_state_cycles)
        self.has_listener = bool(has_listener)
        self.fast_forward = bool(fast_forward)
        self.slots = slots
        compiler = _StepCompiler(module, self.track_state_cycles,
                                 self.has_listener, self.fast_forward,
                                 slots)
        self.source = compiler.source()
        namespace: Dict[str, object] = {}
        exec(compile(self.source, f"<stepjit:{module.name}>", "exec"),
             namespace)
        self.fn = namespace["_step"]
        self.scalar_names = list(compiler.scalar_names)
        self.fsm_names = [f.name for f in compiler.fsms]
        self.fsm_states = [list(f.states) for f in compiler.fsms]
        self.codegen_s = perf_counter() - start
        obs = get_observer()
        if obs is not None:
            obs.metrics.inc("sim.stepjit.compiles")
            obs.metrics.inc("sim.stepjit.codegen_s", self.codegen_s)

    @property
    def module(self) -> Optional[Module]:
        """The compiled module, or ``None`` once nothing else holds it."""
        return self._module()

    def __reduce__(self):
        # The generated function is unpicklable; it is a pure function
        # of (module, options), so regenerate on load — this is what
        # lets steppers ride through pool workers and the artifact
        # cache.
        return (StepProgram, (self.module, self.track_state_cycles,
                              self.has_listener, self.fast_forward,
                              self.slots))


#: module -> {variant key -> StepProgram}; weak so modules can die.
_PROGRAMS: "WeakKeyDictionary[Module, Dict]" = WeakKeyDictionary()


def compile_stepper(module: Module, *,
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
    key = (bool(track_state_cycles), bool(has_listener),
           bool(fast_forward), slots)
    program = variants.get(key)
    if program is None:
        program = variants[key] = StepProgram(module, *key)
    return program


class StepSimulation(Simulation):
    """Drop-in :class:`Simulation` backed by the generated stepper.

    Construction, ``reset``, ``load`` and all inspection surfaces
    (``state``, ``cycle``, ``state_cycles``, ``_fsm_state``) behave
    exactly like the interpreter's; only ``run`` differs — the
    compiled kernel reads the state dicts into locals on entry and
    writes the (cycle-exact) result back on exit.
    """

    def _build_static(self) -> None:
        # The stepper bakes the arc tables and dependence analyses into
        # generated code; skip the interpreter's per-instance tables.
        self._fsms = list(self.module.fsms.values())
        self._held: Optional[tuple] = None  # see program()

    def program(self) -> StepProgram:
        """The compiled stepper for this simulation's configuration.

        The attached listener picks the instrumentation: its slot
        table compiled inline when it offers one, else callbacks.  The
        program is kept until the listener or a flag changes, so the
        listener's table is read when the listener first runs.
        """
        listener = self.listener
        track, fast = self.track_state_cycles, self.fast_forward
        held = self._held
        if (held is not None and held[0] is listener
                and held[1] == track and held[2] == fast):
            return held[3]
        slots = None if listener is None else listener.event_slots()
        program = compile_stepper(
            self.module, track_state_cycles=track,
            has_listener=listener is not None and slots is None,
            fast_forward=fast, slots=slots)
        self._held = (listener, track, fast, program)
        return program

    def run(self, max_cycles: int = 200_000_000) -> RunResult:
        """Run until done (or ``max_cycles``) on the compiled kernel."""
        program = self.program()
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
            self.state, self._dyn_stall, self._fsm_state, sc, start_cycle,
            max_cycles, self.listener)
        wall = perf_counter() - start
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
