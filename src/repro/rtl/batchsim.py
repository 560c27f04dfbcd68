"""Vectorized lockstep batch backend: N jobs as one numpy array program.

Where :mod:`repro.rtl.stepjit` compiles the two-phase cycle of a
:class:`Module` into one specialized Python function that advances *one*
job, this module compiles the same cycle into a numpy *array program*
that advances a whole batch of jobs in lockstep: every piece of
architectural state — FSM state codes, counter values, registers,
dynamic-wait stalls — is an ``int64`` column with one row per job, and
one pass through the generated kernel body advances every live row by
one cycle (or, via the fast-forward jump, by ``k`` cycles).

The kernel preserves the interpreter's exact semantics per row:

* arc selection is priority-ordered mask evaluation over the state-code
  columns — the per-FSM arc tables of stepjit lifted to boolean masks;
* the fast-forward jump mirrors ``Simulation._try_skip`` with the veto
  tables evaluated as per-row boolean columns, so each row jumps exactly
  the stretches the interpreter would (rows that cannot jump step one
  cycle in the same pass; the two row sets are disjoint);
* finished rows (and rows that hit ``max_cycles``) are masked out of
  every phase, and the batch drains until no live rows remain — or
  until live occupancy falls below a compaction threshold, at which
  point the driver scatters results, drops retired rows, and re-enters
  the kernel on the survivors (log₂(N) compaction phases total);
* listener callbacks are replaced by *event columns*: per-arc fired
  counts and per-counter load/reset counts and value sums, accumulated
  as ``int64`` per-row totals.  :class:`FeatureRecorder`-style
  aggregates are recovered exactly from these (every quantity is an
  integer, so converting the final totals to float matches the serial
  listener's incremental float accumulation bit-for-bit while totals
  stay below 2**53 — always true for the paper's designs).

State columns are ``int64``; the compiler refuses modules with signal
widths above 62 bits so no masked value can overflow.  Division, modulo
and memory reads are guarded helpers, so masked-out rows never fault on
garbage operands.

Programs are cached per module (weakly) and per variant (elide set,
state-cycle tracking, fast-forward) and pickle as (module, options),
recompiling on load — the same contract as :class:`StepProgram`.

:class:`BatchSimulation` drives the kernel: it runs a whole job list
through :meth:`run_jobs` (the ``record_jobs`` and ``SlicePredictor``
hot path).  One-job-at-a-time callers get the step compiler instead.

Bit-exactness against the interpreter is enforced by the differential
fuzz suite and the golden gate (``repro check --backend batch``).
"""

from __future__ import annotations

import keyword
import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..obs import get_observer
from .expr import _CMPOPS, _PYOPS, BinOp, Const, Expr, MemRead, Mux, Sig, UnOp
from .fsm import Fsm
from .module import Module
from .simulator import _DepAnalysis, record_sim_run

_MEM_PREFIX = "__mem__"

#: Largest representable jump distance; also the "no ETA" sentinel.
_BIG = 1 << 62

#: Widest signal the int64 columns can hold without overflow headroom.
_MAX_WIDTH = 62

_I0 = np.int64(0)
_I1 = np.int64(1)


def _b2i(mask) -> np.ndarray:
    """Boolean mask -> int64 0/1 column (never ``bool + bool``)."""
    return np.where(mask, _I1, _I0)


def _truth(value) -> np.ndarray:
    """Integer column -> boolean truthiness column."""
    return np.asarray(value) != 0


def _div(a, b):
    """Row-wise ``a // b`` with the IR's divide-by-zero-is-zero rule."""
    b = np.asarray(b)
    nz = b != 0
    safe = np.where(nz, b, _I1)
    return np.where(nz, np.floor_divide(a, safe), _I0)


def _mod(a, b):
    """Row-wise ``a % b`` with the IR's modulo-by-zero-is-zero rule."""
    b = np.asarray(b)
    nz = b != 0
    safe = np.where(nz, b, _I1)
    return np.where(nz, np.mod(a, safe), _I0)


def _mread(data, lengths, rows, idx):
    """Row-wise memory gather with per-row bounds (out of range -> 0)."""
    if data.shape[1] == 0:
        return np.zeros(data.shape[0], dtype=np.int64)
    idx = np.asarray(idx)
    ok = (idx >= 0) & (idx < lengths)
    safe = np.where(ok, idx, 0)
    return np.where(ok, data[rows, safe], _I0)


_KERNEL_GLOBALS = {
    "np": np, "_b2i": _b2i, "_truth": _truth, "_div": _div,
    "_mod": _mod, "_mread": _mread, "_I0": _I0, "_I1": _I1,
}


class _Names:
    """Collision-free Python identifiers for generated locals."""

    _RESERVED = frozenset(keyword.kwlist) | {
        "S", "MEMS", "ML", "DYN", "SC", "EV", "CYC", "FIN",
        "max_cycles", "compact_below", "np", "int", "len",
        "_b2i", "_truth", "_div", "_mod", "_mread", "_I0", "_I1",
        "_m", "_f", "_x", "_r", "_veto", "_jump", "_k", "_inc",
        "_sm", "_pm", "_nofire", "_stepm", "_live", "_done",
        "_n", "R", "_ln", "_la", "_iters", "_lives", "_ffj",
    }

    def __init__(self) -> None:
        self._used = set(self._RESERVED)

    def make(self, prefix: str, name: str) -> str:
        """A fresh identifier derived from ``prefix`` + ``name``."""
        base = prefix + re.sub(r"\W", "_", name)
        candidate = base
        serial = 1
        while candidate in self._used:
            serial += 1
            candidate = f"{base}_{serial}"
        self._used.add(candidate)
        return candidate


class _BatchCompiler:
    """Emits the vectorized ``_step`` kernel for one module variant."""

    def __init__(self, module: Module, elide: FrozenSet[Tuple[str, str]],
                 track_state_cycles: bool, fast_forward: bool,
                 events: bool = True):
        if not module.finalized:
            raise ValueError(
                f"module {module.name} must be finalized first")
        for c in module.counters.values():
            if c.width > _MAX_WIDTH:
                raise ValueError(
                    f"batch backend: counter {c.name!r} is {c.width} bits "
                    f"wide; int64 columns support at most {_MAX_WIDTH}")
        for r in module.regs.values():
            if r.width > _MAX_WIDTH:
                raise ValueError(
                    f"batch backend: register {r.name!r} is {r.width} bits "
                    f"wide; int64 columns support at most {_MAX_WIDTH}")
        self.m = module
        self.elide = elide
        self.track = track_state_cycles
        self.fast_forward = fast_forward
        self.events = events
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
        self.mem_len_local = {
            name: names.make("ml_", name) for name in self.mem_names
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

        # Event column layout: per-arc fired counts, then per-counter
        # load/reset counts and value sums.  One int64 column each.
        # With events off (no recorder observing), the layout is empty
        # and the kernel skips all event accumulation — the same deal
        # the serial backends get from a None listener.
        self.event_layout: List[Tuple[str, ...]] = []
        self.ev_slot: Dict[Tuple[str, ...], int] = {}
        for fsm in self.fsms if events else ():
            for t in fsm.transitions:
                key = ("arc", fsm.name, t.index)
                self.ev_slot[key] = len(self.event_layout)
                self.event_layout.append(
                    ("stc", fsm.name, t.src, t.dst))
        for c in self.down if events else ():
            self.ev_slot[("load_count", c.name)] = len(self.event_layout)
            self.event_layout.append(("load_count", c.name))
            self.ev_slot[("load_sum", c.name)] = len(self.event_layout)
            self.event_layout.append(("load_sum", c.name))
        for c in self.up if events else ():
            if c.load_cond is None:
                continue  # never resets; no events possible
            self.ev_slot[("reset_count", c.name)] = len(self.event_layout)
            self.event_layout.append(("reset_count", c.name))
            self.ev_slot[("reset_sum", c.name)] = len(self.event_layout)
            self.event_layout.append(("reset_sum", c.name))

        self._lines: List[str] = []
        self._indent = 1
        #: Rendered-expression string -> temp local holding its value.
        #: Valid because every rendered expression reads only pre-cycle
        #: state: value columns are mutated in place only by the skip
        #: commit (jump rows, where every later consumer is masked out
        #: by ``_stepm``) and by the final commit (after the last read).
        self._cse: Dict[str, str] = {}

    # -- emission helpers ----------------------------------------------
    def w(self, line: str = "") -> None:
        """Append one indented source line."""
        self._lines.append("    " * self._indent + line if line else "")

    def push(self) -> None:
        """Increase indentation."""
        self._indent += 1

    def pop(self) -> None:
        """Decrease indentation."""
        self._indent -= 1

    def cse(self, expr_str: str) -> str:
        """Emit ``expr_str`` into a temp once; reuse it on repeats.

        Loop-body only: the temp is computed each lockstep iteration at
        its first point of use and shared by every later consumer.
        """
        cached = self._cse.get(expr_str)
        if cached is None:
            cached = f"_c{len(self._cse)}"
            self._cse[expr_str] = cached
            self.w(f"{cached} = {expr_str}")
        return cached

    def ev(self, *key) -> str:
        """The local name of an event column."""
        return f"ev_{self.ev_slot[key]}"

    # -- expression rendering ------------------------------------------
    def ref(self, name: str) -> str:
        """The local holding a named signal's column."""
        local = self.scalar_local.get(name)
        if local is not None:
            return local
        local = self.wire_local.get(name)
        if local is not None:
            return local
        raise KeyError(f"batchsim: unknown signal {name!r} in {self.m.name}")

    def _is_boolish(self, expr: Expr) -> bool:
        """True when ``expr`` can only evaluate to 0 or 1."""
        if isinstance(expr, Const):
            return expr.value in (0, 1)
        if isinstance(expr, Sig):
            wire = self.m.wires.get(expr.name)
            if wire is not None:
                return self._is_boolish(wire.expr)
            return any(f.dynamic_waits and f.dynbusy_signal == expr.name
                       for f in self.fsms)
        if isinstance(expr, BinOp):
            if expr.op in _CMPOPS:
                return True
            if expr.op in ("and", "or"):
                return (self._is_boolish(expr.a)
                        and self._is_boolish(expr.b))
            return False
        if isinstance(expr, UnOp):
            return expr.op in ("not", "bool")
        if isinstance(expr, Mux):
            return self._is_boolish(expr.a) and self._is_boolish(expr.b)
        return False

    def render(self, expr: Expr) -> str:
        """Render ``expr`` for a value context (an int64 column).

        Compound nodes land in CSE temps, so a subexpression shared by
        several wires, guards or load values is computed once per
        iteration.  Wires are inlined through the same cache — the
        arc-indicator wires then share their state-compare masks with
        arc selection instead of recomputing them in the int domain.
        """
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Sig):
            wire = self.m.wires.get(expr.name)
            if wire is not None:
                return self.render(wire.expr)
            return self.ref(expr.name)
        if isinstance(expr, MemRead):
            mem = self.mem_local[expr.memory]
            lengths = self.mem_len_local[expr.memory]
            return self.cse(
                f"_mread({mem}, {lengths}, R, {self.render(expr.index)})")
        if isinstance(expr, Mux):
            return self.cse(f"np.where({self.cond(expr.sel)}, "
                            f"{self.render(expr.a)}, "
                            f"{self.render(expr.b)})")
        if isinstance(expr, UnOp):
            if expr.op in ("not", "bool"):
                return self.cse(f"_b2i({self.cond(expr)})")
            return self.cse(f"(-({self.render(expr.a)}))")
        if isinstance(expr, BinOp):
            op = expr.op
            if op in _CMPOPS:
                return self.cse(f"_b2i({self.cond(expr)})")
            if op in ("and", "or") and self._is_boolish(expr):
                return self.cse(f"_b2i({self.cond(expr)})")
            a = self.render(expr.a)
            b = self.render(expr.b)
            if op in _PYOPS:
                return self.cse(f"({a} {_PYOPS[op]} {b})")
            if op == "div":
                return self.cse(f"_div({a}, {b})")
            if op == "mod":
                return self.cse(f"_mod({a}, {b})")
            if op == "min":
                return self.cse(f"np.minimum({a}, {b})")
            if op == "max":
                return self.cse(f"np.maximum({a}, {b})")
        raise TypeError(f"cannot compile expression node {expr!r}")

    def cond(self, expr: Optional[Expr]) -> str:
        """Render ``expr`` for a mask context (a boolean column).

        One-bit logic stays in the boolean domain: ``a & b`` over
        boolean-valued operands renders as a mask AND instead of two
        ``_b2i`` conversions and an integer AND.
        """
        if expr is None:
            return "True"
        if isinstance(expr, Const):
            return "True" if expr.value else "False"
        if isinstance(expr, Sig):
            wire = self.m.wires.get(expr.name)
            if wire is not None:
                return self.cond(wire.expr)
            return self.cse(f"({self.ref(expr.name)} != 0)")
        if isinstance(expr, BinOp) and expr.op in _CMPOPS:
            a = self.render(expr.a)
            b = self.render(expr.b)
            return self.cse(f"({a} {_CMPOPS[expr.op]} {b})")
        if (isinstance(expr, BinOp) and expr.op in ("and", "or")
                and self._is_boolish(expr)):
            a = self.cond(expr.a)
            b = self.cond(expr.b)
            return self.cse(f"({a} {_PYOPS[expr.op]} {b})")
        if isinstance(expr, UnOp):
            if expr.op == "not":
                return self.cse(f"np.logical_not({self.cond(expr.a)})")
            if expr.op == "bool":
                return self.cond(expr.a)
        return self.cse(f"_truth({self.render(expr)})")

    # -- veto tables ----------------------------------------------------
    def veto_terms(self, pair) -> List[str]:
        """Mask locals that, where set, veto a fast-forward jump."""
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
        """Veto masks for the arcs out of one state."""
        terms: List[str] = []
        for t in fsm.transitions_from(state):
            for term in self.veto_terms(self.deps.analyze(t.cond)):
                if term not in terms:
                    terms.append(term)
        return terms

    # -- program assembly -----------------------------------------------
    def source(self) -> str:
        """The full generated kernel source."""
        self._lines = [
            f"# batchsim kernel for module {self.m.name!r}",
            f"# variant: elide={sorted(self.elide)!r}, "
            f"track={self.track}, fast_forward={self.fast_forward}",
            "def _step(S, MEMS, ML, DYN, SC, EV, CYC, FIN,"
            " max_cycles, compact_below):",
        ]
        self._emit_unpack()
        self.w("_n = CYC.shape[0]")
        self.w("R = np.arange(_n)")
        self._emit_prealloc()
        self.w("_iters = 0")
        self.w("_lives = 0")
        self.w("_ffj = 0")
        self.w("while 1:")
        self.push()
        self.w("_live = np.logical_not(FIN) & (CYC < max_cycles)")
        self.w("_ln = int(_live.sum())")
        self.w("if _ln == 0 or _ln < compact_below:")
        self.push()
        self.w("break")
        self.pop()
        self._emit_done_check()
        self.w("_iters += 1")
        self.w("_lives += _la")
        self._emit_arc_selection()
        if self.fast_forward:
            self._emit_fast_forward()
            self.w("_stepm = _live & np.logical_not(_jump)")
        else:
            self.w("_stepm = _live")
        self._emit_counters()
        self._emit_updates()
        self._emit_arc_commit_prep()
        self._emit_commit()
        self.pop()
        self._emit_writeback()
        self.w("return (_iters, _lives, _ffj)")
        return "\n".join(self._lines) + "\n"

    def _emit_unpack(self) -> None:
        for slot, name in enumerate(self.scalar_names):
            self.w(f"{self.scalar_local[name]} = S[{slot}]")
        for slot, name in enumerate(self.mem_names):
            self.w(f"{self.mem_local[name]} = MEMS[{slot}]")
            self.w(f"{self.mem_len_local[name]} = ML[{slot}]")
        for slot, fsm in enumerate(self.dyn_fsms):
            self.w(f"d_{self.fsms.index(fsm)} = DYN[{slot}]")
        if self.track:
            for i in range(len(self.fsms)):
                self.w(f"SC_{i} = SC[{i}]")
        for slot in range(len(self.event_layout)):
            self.w(f"ev_{slot} = EV[{slot}]")

    def _emit_prealloc(self) -> None:
        # Scratch buffers reused across lockstep iterations: within one
        # kernel call the batch width is fixed, so every fixed-shape
        # temporary is allocated once and refilled (or swapped) per
        # iteration instead of reallocated by np.where rebinds.
        for i, fsm in enumerate(self.fsms):
            if fsm.transitions:
                self.w(f"t_{i} = np.empty(_n, dtype=np.int64)")
                self.w(f"ns_{i} = np.empty(_n, dtype=np.int64)")
                dsts = [0] * len(fsm.transitions)
                for t in fsm.transitions:
                    dsts[t.index] = fsm.code_of(t.dst)
                self.w(f"DST_{i} = np.array({dsts!r}, dtype=np.int64)")
                if fsm.dynamic_waits:
                    self.w(f"dn_{i} = np.empty(_n, dtype=np.int64)")
        for c in self.down + self.up:
            self.w(f"{self.cn[c.name]} = np.empty(_n, dtype=np.int64)")
        for reg in self.pending_regs:
            self.w(f"{self.p_local[reg]} = np.empty(_n, dtype=np.int64)")
        if self.fast_forward:
            self.w("_veto = np.empty(_n, dtype=np.bool_)")
            self.w("_r = np.empty(_n, dtype=np.int64)")
            self.w("_k = np.empty(_n, dtype=np.int64)")

    def _emit_writeback(self) -> None:
        for slot, name in enumerate(self.scalar_names):
            self.w(f"S[{slot}] = {self.scalar_local[name]}")
        for slot, fsm in enumerate(self.dyn_fsms):
            self.w(f"DYN[{slot}] = d_{self.fsms.index(fsm)}")

    def _emit_done_check(self) -> None:
        # Per-row equivalent of the interpreter's "done? break" header:
        # done rows retire before the cycle is stepped.
        self.w(f"_done = _live & ({self.cond(self.m.done_expr)})")
        self.w("FIN |= _done")
        self.w("_live &= np.logical_not(_done)")
        self.w("_la = int(_live.sum())")
        self.w("if _la == 0:")
        self.push()
        self.w("continue")
        self.pop()

    # Phase 1: arc selection against pre-cycle state.
    def _emit_arc_selection(self) -> None:
        for i, fsm in enumerate(self.fsms):
            if not fsm.transitions:
                continue
            st = self.scalar_local[fsm.state_signal]
            self.w(f"t_{i}.fill(-1)")
            for state, code in fsm.states.items():
                arcs = fsm.transitions_from(state)
                if not arcs:
                    continue
                smc = self.cse(f"({st} == {code})")
                self.w(f"_m = _live & {smc}")
                if (fsm.name, state) not in self.elide:
                    counter = fsm.wait_states.get(state)
                    if counter is not None:
                        ctr = self.scalar_local[counter]
                        self.w(f"_m &= {self.cse(f'({ctr} <= 0)')}")
                    if state in fsm.dynamic_waits:
                        self.w(f"_m &= {self.cse(f'(d_{i} <= 0)')}")
                for pos, t in enumerate(arcs):
                    if t.cond is None:
                        self.w(f"np.copyto(t_{i}, {t.index}, where=_m)")
                        break
                    self.w(f"_f = _m & ({self.cond(t.cond)})")
                    self.w(f"np.copyto(t_{i}, {t.index}, where=_f)")
                    if pos + 1 < len(arcs):
                        self.w("_m &= np.logical_not(_f)")

    # The fast-forward jump: Simulation._try_skip as row masks.
    def _emit_fast_forward(self) -> None:
        nofire = "_live"
        for i, fsm in enumerate(self.fsms):
            if fsm.transitions:
                nofire += f" & (t_{i} < 0)"
        self.w(f"_nofire = {nofire}")
        self.w("_veto.fill(False)")
        self.w(f"_r.fill({_BIG})")
        self._emit_skip_counters()
        self._emit_skip_fsm_scan()
        self._emit_skip_vetoes()
        self.w("_jump = _nofire & np.logical_not(_veto)")
        self.w("_jump &= (_r > 1)")
        self.w(f"_jump &= (_r < {_BIG})")
        self.w("_ffj += int(_jump.sum())")
        self.w("np.multiply(_r, _jump, out=_k)")
        self._emit_skip_commit()

    def _emit_skip_counters(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            ch = self.cse(f"({v} > 0)")
            if c.enable is not None:
                ch = self.cse(f"({ch} & {self.cond(c.enable)})")
            self.ch[c.name] = ch
            eta = v if c.step == 1 else f"(-(-{v} // {c.step}))"
            self.w(f"np.minimum(_r, {eta}, out=_r, where={ch})")
        for c in self.up:
            v = self.scalar_local[c.name]
            if c.load_cond is not None:
                # A reset firing this cycle forbids the jump on that row.
                self.w(f"_veto |= ({self.cond(c.load_cond)})")
            ch = "True" if c.enable is None else self.cond(c.enable)
            self.ch[c.name] = ch
            if ch == "True":
                self.zu[c.name] = self.cse(f"({v} == 0)")
            else:
                self.zu[c.name] = self.cse(f"({ch} & ({v} == 0))")
            eta = f"({c.mask} - {v})"
            if c.step != 1:
                eta = f"({eta} // {c.step})"
            if ch == "True":
                self.w(f"np.minimum(_r, {eta}, out=_r)")
            else:
                self.w(f"np.minimum(_r, {eta}, out=_r, where={ch})")

    def _emit_skip_fsm_scan(self) -> None:
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            for state, code in fsm.states.items():
                elided = (fsm.name, state) in self.elide
                counter = fsm.wait_states.get(state)
                arc_terms = self.arc_veto_terms(fsm, state)
                arcs = "True" if "True" in arc_terms \
                    else " | ".join(arc_terms)
                if counter is not None and not elided:
                    ctr = self.scalar_local[counter]
                    smc = self.cse(f"({st} == {code})")
                    # Parked on a wait counter that is not counting:
                    # no ETA exists for that row.  With no enable the
                    # counting mask is exactly (ctr > 0), so the term
                    # is statically false and elided.
                    if self.m.counters[counter].enable is not None:
                        notch = self.cse(
                            f"np.logical_not({self.ch[counter]})")
                        gt = self.cse(f"({ctr} > 0)")
                        self.w(f"_veto |= ({smc} & {gt} & {notch})")
                    if arc_terms:
                        le = self.cse(f"({ctr} <= 0)")
                        if arcs == "True":
                            self.w(f"_veto |= ({smc} & {le})")
                        else:
                            self.w(f"_veto |= ({smc} & {le} & ({arcs}))")
                elif state in fsm.dynamic_waits and not elided:
                    smc = self.cse(f"({st} == {code})")
                    self.w(f"np.minimum(_r, d_{i}, out=_r, "
                           f"where=({smc} & (d_{i} > 0)))")
                    if arc_terms:
                        le = self.cse(f"(d_{i} <= 0)")
                        if arcs == "True":
                            self.w(f"_veto |= ({smc} & {le})")
                        else:
                            self.w(f"_veto |= ({smc} & {le} & ({arcs}))")
                elif arc_terms:
                    smc = self.cse(f"({st} == {code})")
                    if arcs == "True":
                        self.w(f"_veto |= {smc}")
                    else:
                        self.w(f"_veto |= ({smc} & ({arcs}))")

    def _emit_skip_vetoes(self) -> None:
        # Unconditional vetoes: counter load/enable deps, update deps,
        # and done-expression deps (order is free — evaluations are pure).
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
        if "True" in terms:
            self.w("_veto |= True")
        elif terms:
            self.w(f"_veto |= ({' | '.join(terms)})")
        for c in self.down:
            # A load on a non-counting down counter would fire mid-jump.
            notch = self.cse(f"np.logical_not({self.ch[c.name]})")
            self.w(f"_veto |= ({notch} "
                   f"& ({self.cond(c.load_cond)}))")
        for upd in self.m.updates:
            # A register write that fires this cycle forbids jumping.
            guard = f"({self.cond(upd.cond)})"
            if upd.fsm is not None:
                fsm = self.m.fsms[upd.fsm]
                st = self.scalar_local[fsm.state_signal]
                smc = self.cse(f"({st} == {fsm.code_of(upd.state)})")
                guard = smc if upd.cond is None else f"{smc} & {guard}"
            self.w(f"_veto |= ({guard})")

    def _emit_skip_commit(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            delta = "_k" if c.step == 1 else f"_k * {c.step}"
            self.w(f"_pm = _jump & {self.ch[c.name]}")
            self.w(f"np.copyto({v}, np.maximum({v} - {delta}, 0), "
                   f"where=_pm)")
        for c in self.up:
            v = self.scalar_local[c.name]
            delta = "_k" if c.step == 1 else f"_k * {c.step}"
            self.w(f"_pm = _jump & {self.ch[c.name]}")
            self.w(f"np.copyto({v}, ({v} + {delta}) & {c.mask}, "
                   f"where=_pm)")
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            live_dyn = [code for state, code in fsm.states.items()
                        if state in fsm.dynamic_waits
                        and (fsm.name, state) not in self.elide]
            if live_dyn:
                parked = " | ".join(f"({st} == {code})"
                                    for code in live_dyn)
                self.w(f"_pm = _jump & ({parked})")
                self.w(f"_pm &= (d_{i} > 0)")
                self.w(f"np.copyto(d_{i}, d_{i} - _k, where=_pm)")
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"np.copyto({busy}, d_{i} > 0, where=_jump)")

    # Phase 2a: counters (step rows only; jump rows keep skip results).
    def _emit_counters(self) -> None:
        for c in self.down:
            v = self.scalar_local[c.name]
            cn = self.cn[c.name]
            self.w(f"_m = _stepm & ({self.cond(c.load_cond)})")
            self.w(f"_x = ({self.render(c.load_value)}) & {c.mask}")
            if self.events:
                self.w(f"{self.ev('load_count', c.name)} += _m")
                self.w(f"np.add({self.ev('load_sum', c.name)}, _x, "
                       f"out={self.ev('load_sum', c.name)}, where=_m)")
            self.w(f"_f = _stepm & np.logical_not(_m)")
            self.w(f"_f &= {self.cse(f'({v} > 0)')}")
            if c.enable is not None:
                self.w(f"_f &= ({self.cond(c.enable)})")
            if c.step == 1:
                # v >= 0 and the mask requires v > 0, so the saturating
                # decrement is exactly a boolean subtraction.
                self.w(f"np.subtract({v}, _f, out={cn})")
            else:
                self.w(f"np.copyto({cn}, {v})")
                self.w(f"np.copyto({cn}, "
                       f"np.maximum({v} - {c.step}, 0), where=_f)")
            self.w(f"np.copyto({cn}, _x, where=_m)")
        for c in self.up:
            v = self.scalar_local[c.name]
            cn = self.cn[c.name]
            tick = f"({v} + {c.step}) & {c.mask}"
            if c.load_cond is not None:
                self.w(f"_m = _stepm & ({self.cond(c.load_cond)})")
                if self.events:
                    self.w(f"{self.ev('reset_count', c.name)} += _m")
                    self.w(f"np.add({self.ev('reset_sum', c.name)}, {v}, "
                           f"out={self.ev('reset_sum', c.name)}, "
                           f"where=_m)")
                self.w(f"_f = _stepm & np.logical_not(_m)")
                if c.enable is not None:
                    self.w(f"_f &= ({self.cond(c.enable)})")
                if c.step == 1:
                    self.w(f"np.add({v}, _f, out={cn})")
                    self.w(f"{cn} &= {c.mask}")
                else:
                    self.w(f"np.copyto({cn}, {v})")
                    self.w(f"np.copyto({cn}, {tick}, where=_f)")
                self.w(f"np.copyto({cn}, 0, where=_m)")
            else:
                if c.enable is None:
                    ticker = "_stepm"
                else:
                    self.w(f"_f = _stepm & ({self.cond(c.enable)})")
                    ticker = "_f"
                if c.step == 1:
                    self.w(f"np.add({v}, {ticker}, out={cn})")
                    self.w(f"{cn} &= {c.mask}")
                else:
                    self.w(f"np.copyto({cn}, {v})")
                    self.w(f"np.copyto({cn}, {tick}, where={ticker})")

    # Phase 2b: update rules (globals first, then state-bound ones).
    def _emit_updates(self) -> None:
        for reg in self.pending_regs:
            self.w(f"np.copyto({self.p_local[reg]}, "
                   f"{self.scalar_local[reg]})")
        for upd in self.m.updates:
            if upd.fsm is None:
                self._emit_one_update(upd, None)
        for fsm in self.fsms:
            per_state: Dict[str, List] = {}
            for upd in self.m.updates:
                if upd.fsm == fsm.name:
                    per_state.setdefault(upd.state, []).append(upd)
            if not per_state:
                continue
            st = self.scalar_local[fsm.state_signal]
            for state, code in fsm.states.items():
                upds = per_state.get(state)
                if not upds:
                    continue
                for upd in upds:
                    self._emit_one_update(
                        upd, self.cse(f"({st} == {code})"))

    def _emit_one_update(self, upd, state_mask: Optional[str]) -> None:
        target = self.p_local[upd.reg]
        if state_mask is None and upd.cond is None:
            self.w(f"np.copyto({target}, {self.render(upd.value)}, "
                   f"where=_stepm)")
            return
        if state_mask is not None:
            self.w(f"_m = _stepm & {state_mask}")
        else:
            self.w(f"_m = _stepm & ({self.cond(upd.cond)})")
        if state_mask is not None and upd.cond is not None:
            self.w(f"_m &= ({self.cond(upd.cond)})")
        self.w(f"np.copyto({target}, {self.render(upd.value)}, "
               f"where=_m)")

    # Phase 2c: fired arcs — next state, entry actions, dynamic waits.
    def _emit_arc_commit_prep(self) -> None:
        for i, fsm in enumerate(self.fsms):
            if not fsm.transitions:
                continue
            st = self.scalar_local[fsm.state_signal]
            self.w(f"np.copyto(ns_{i}, {st})")
            # Next states come from one gather through the destination
            # table instead of a masked copy per arc.  Unfired rows have
            # t_i == -1 and gather the table's last entry; the where
            # mask discards them.
            self.w(f"np.copyto(ns_{i}, DST_{i}[t_{i}], "
                   f"where=(t_{i} >= 0))")
            if fsm.dynamic_waits:
                self.w(f"dn_{i}.fill(-1)")
            for t in fsm.transitions:
                needs_mask = (self.events or t.actions
                              or t.dst in fsm.dynamic_waits)
                if not needs_mask:
                    continue
                # t_i >= 0 only on live rows that fired, and a fired row
                # is never a jump row, so (t_i == idx) already implies
                # _stepm — no mask AND needed.
                self.w(f"_m = (t_{i} == {t.index})")
                if self.events:
                    self.w(f"{self.ev('arc', fsm.name, t.index)} += _m")
                for reg, value in t.actions:
                    self.w(f"np.copyto({self.p_local[reg]}, "
                           f"{self.render(value)}, where=_m)")
                if t.dst in fsm.dynamic_waits:
                    if (fsm.name, t.dst) in self.elide:
                        self.w(f"np.copyto(dn_{i}, 0, where=_m)")
                    else:
                        duration = fsm.dynamic_waits[t.dst]
                        self.w(f"_x = {self.render(duration)}")
                        self.w(f"np.copyto(dn_{i}, "
                               f"np.maximum(_x, _I0), where=_m)")

    # Phase 3: commit.
    def _emit_commit(self) -> None:
        if self.track:
            # Each row's (row, pre-commit state) cell is unique, so the
            # fancy-indexed in-place add has no duplicate targets.
            inc = "(_k + _stepm)" if self.fast_forward else "_stepm"
            for i, fsm in enumerate(self.fsms):
                st = self.scalar_local[fsm.state_signal]
                self.w(f"SC_{i}[R, {st}] += {inc}")
        self.w("CYC += _stepm")
        if self.fast_forward:
            self.w("CYC += _k")
        for c in self.down + self.up:
            # Swap value and scratch columns: the scratch becomes the
            # committed value; the old value array is reused next cycle.
            v = self.scalar_local[c.name]
            cn = self.cn[c.name]
            self.w(f"{v}, {cn} = {cn}, {v}")
        for reg in self.pending_regs:
            mask = self.m.regs[reg].mask
            v = self.scalar_local[reg]
            self.w(f"np.copyto({v}, {self.p_local[reg]} & {mask}, "
                   f"where=_stepm)")
        for i, fsm in enumerate(self.fsms):
            st = self.scalar_local[fsm.state_signal]
            if fsm.transitions:
                if fsm.dynamic_waits:
                    self.w(f"_pm = _stepm & (t_{i} < 0)")
                    self.w(f"_pm &= (d_{i} > 0)")
                    self.w(f"np.copyto(d_{i}, d_{i} - _I1, where=_pm)")
                    self.w(f"np.copyto(d_{i}, dn_{i}, "
                           f"where=(_stepm & (dn_{i} >= 0)))")
                self.w(f"{st}, ns_{i} = ns_{i}, {st}")
            elif fsm.dynamic_waits:
                self.w(f"_pm = _stepm & (d_{i} > 0)")
                self.w(f"np.copyto(d_{i}, d_{i} - _I1, where=_pm)")
            if fsm.dynamic_waits:
                busy = self.scalar_local[fsm.dynbusy_signal]
                self.w(f"np.copyto({busy}, d_{i} > 0, where=_stepm)")


class BatchProgram:
    """A compiled lockstep batch kernel for one (module, variant) pair.

    Holds the generated source (for inspection/tests), the compiled
    function, and the column layout drivers use to pack and unpack
    per-row architectural state.  Pickles as (module, options) and
    regenerates its code on load, exactly like :class:`StepProgram`.
    """

    def __init__(self, module: Module,
                 elide: Iterable[Tuple[str, str]] = (),
                 track_state_cycles: bool = False,
                 fast_forward: bool = True,
                 events: bool = True):
        start = perf_counter()
        self.module = module
        self.elide = frozenset(elide)
        self.track_state_cycles = bool(track_state_cycles)
        self.fast_forward = bool(fast_forward)
        self.events = bool(events)
        compiler = _BatchCompiler(module, self.elide,
                                  self.track_state_cycles,
                                  self.fast_forward, self.events)
        self.source = compiler.source()
        namespace: Dict[str, object] = dict(_KERNEL_GLOBALS)
        exec(compile(self.source, f"<batchsim:{module.name}>", "exec"),
             namespace)
        self.fn = namespace["_step"]
        self.scalar_names = list(compiler.scalar_names)
        self.scalar_index = {
            name: slot for slot, name in enumerate(self.scalar_names)
        }
        self.mem_names = list(compiler.mem_names)
        self.fsm_names = [f.name for f in compiler.fsms]
        self.fsm_states = [
            [state for state, _code in sorted(f.states.items(),
                                              key=lambda kv: kv[1])]
            for f in compiler.fsms
        ]
        self.dyn_names = [f.name for f in compiler.dyn_fsms]
        self.event_layout = list(compiler.event_layout)
        module_defaults = {
            **{p.name: 0 for p in module.ports.values()},
            **{r.name: r.init for r in module.regs.values()},
        }
        for fsm in module.fsms.values():
            module_defaults[fsm.state_signal] = fsm.code_of(fsm.initial)
        self.scalar_defaults = [
            module_defaults.get(name, 0) for name in self.scalar_names
        ]
        self.codegen_s = perf_counter() - start
        obs = get_observer()
        if obs is not None:
            obs.metrics.inc("sim.batch.compiles")
            obs.metrics.inc("sim.batch.codegen_s", self.codegen_s)

    def __reduce__(self):
        # The generated function is unpicklable; regenerate on load so
        # programs cross process pools and the artifact cache.
        return (BatchProgram, (self.module, tuple(sorted(self.elide)),
                               self.track_state_cycles,
                               self.fast_forward, self.events))


#: module -> {variant key -> BatchProgram}; weak so modules can die.
_PROGRAMS: "WeakKeyDictionary[Module, Dict]" = WeakKeyDictionary()


def compile_batch_stepper(module: Module, *,
                          elide: Iterable[Tuple[str, str]] = (),
                          track_state_cycles: bool = False,
                          fast_forward: bool = True,
                          events: bool = True) -> BatchProgram:
    """The cached :class:`BatchProgram` for a module variant."""
    variants = _PROGRAMS.get(module)
    if variants is None:
        variants = _PROGRAMS.setdefault(module, {})
    key = (frozenset(elide), bool(track_state_cycles),
           bool(fast_forward), bool(events))
    program = variants.get(key)
    if program is None:
        program = variants[key] = BatchProgram(
            module, key[0], key[1], key[2], key[3])
    return program


@dataclass
class BatchEvents:
    """Aggregate per-row event totals for one batch run.

    Every value is an ``int64`` column of batch width: transition fired
    counts keyed ``(fsm, src, dst)``, down-counter load counts and
    loaded-value sums, and up-counter reset counts and pre-reset value
    sums — exactly the quantities a :class:`Listener` would have seen,
    pre-aggregated per row.
    """

    transition_counts: Dict[Tuple[str, str, str], np.ndarray] \
        = field(default_factory=dict)
    load_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    load_value_sums: Dict[str, np.ndarray] = field(default_factory=dict)
    reset_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    reset_value_sums: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, layout: Sequence[Tuple[str, ...]],
                    arrays: Sequence[np.ndarray]) -> "BatchEvents":
        """Fold raw event columns into keyed aggregates.

        Multiple arcs between the same (fsm, src, dst) pair sum into
        one entry, matching what a transition listener would count.
        """
        events = cls()
        for entry, column in zip(layout, arrays):
            kind = entry[0]
            if kind == "stc":
                key = (entry[1], entry[2], entry[3])
                existing = events.transition_counts.get(key)
                events.transition_counts[key] = (
                    column if existing is None else existing + column)
            elif kind == "load_count":
                events.load_counts[entry[1]] = column
            elif kind == "load_sum":
                events.load_value_sums[entry[1]] = column
            elif kind == "reset_count":
                events.reset_counts[entry[1]] = column
            elif kind == "reset_sum":
                events.reset_value_sums[entry[1]] = column
        return events


@dataclass
class BatchRunResult:
    """Outcome of one :meth:`BatchSimulation.run_jobs` call.

    Per-row columns (``cycles``, ``finished``), aggregate event totals
    (:class:`BatchEvents`), optional per-row state-cycle matrices, and
    the lockstep telemetry the ``sim.batch.*`` counters are built from.
    """

    cycles: np.ndarray
    finished: np.ndarray
    events: BatchEvents
    fsm_names: List[str]
    fsm_states: List[List[str]]
    state_cycles: Optional[List[np.ndarray]] = None
    lockstep_cycles: int = 0
    live_row_steps: int = 0
    row_steps: int = 0
    ff_jumps: int = 0

    @property
    def rows(self) -> int:
        """Batch width (number of jobs simulated)."""
        return int(self.cycles.shape[0])

    @property
    def occupancy(self) -> float:
        """Live-row fraction of all lockstep row-slots (1.0 = no waste)."""
        if self.row_steps <= 0:
            return 1.0
        return self.live_row_steps / self.row_steps

    def state_cycles_for(self, row: int) -> Dict[Tuple[str, str], int]:
        """One row's ``(fsm, state) -> cycles`` map (tracking required)."""
        if self.state_cycles is None:
            raise ValueError("state cycles were not tracked for this run")
        cells: Dict[Tuple[str, str], int] = {}
        for name, states, counts in zip(self.fsm_names, self.fsm_states,
                                        self.state_cycles):
            for state, count in zip(states, counts[row]):
                if count:
                    cells[(name, state)] = int(count)
        return cells


def _note_batch_metrics(rows: int, lockstep: int, live_steps: int,
                        row_steps: int) -> None:
    # Batch-specific telemetry on top of record_sim_run's sim.batch.*
    # counters: widths, lockstep iterations and the occupancy gauge.
    obs = get_observer()
    if obs is None:
        return
    metrics = obs.metrics
    metrics.inc("sim.batch.rows", float(rows))
    metrics.inc("sim.batch.lockstep_cycles", float(lockstep))
    metrics.inc("sim.batch.live_row_steps", float(live_steps))
    metrics.inc("sim.batch.row_steps", float(row_steps))
    if row_steps > 0:
        metrics.set_gauge("sim.batch.occupancy", live_steps / row_steps)


class BatchSimulation:
    """Lockstep simulation of many independent jobs on one module.

    Unlike :class:`Simulation` this is a *batch* driver: there is no
    persistent per-job state surface — :meth:`run_jobs` takes a whole
    job list (the same ``(inputs, memories)`` pairs ``record_jobs``
    feeds), runs every row to completion in lockstep, and returns the
    per-row cycle counts plus aggregate event totals.  Construction
    options mirror :class:`Simulation` (minus ``listener``, which the
    event columns replace).
    """

    def __init__(self, module: Module, fast_forward: bool = True,
                 elide: Optional[Iterable[Tuple[str, str]]] = None,
                 track_state_cycles: bool = False,
                 events: bool = True):
        if not module.finalized:
            raise ValueError(
                f"module {module.name} must be finalized first")
        self.module = module
        self.fast_forward = bool(fast_forward)
        self.elide = frozenset(elide or ())
        self.track_state_cycles = bool(track_state_cycles)
        #: With events off the kernel skips all event accumulation and
        #: :attr:`BatchRunResult.events` comes back empty — use when
        #: only cycle counts are consumed (throughput probes, goldens).
        self.events = bool(events)

    def program(self) -> BatchProgram:
        """The compiled batch kernel for this configuration."""
        return compile_batch_stepper(
            self.module, elide=self.elide,
            track_state_cycles=self.track_state_cycles,
            fast_forward=self.fast_forward, events=self.events)

    def _pack(self, jobs: List, program: BatchProgram,
              ignore_unknown: bool):
        # Column-ize job inputs: scalar defaults overridden per row,
        # memories as (rows, max-length) gather tables + length columns.
        n = len(jobs)
        scalars = [np.full(n, default, dtype=np.int64)
                   for default in program.scalar_defaults]
        ports = self.module.ports
        memories = self.module.memories
        mem_rows: Dict[str, Dict[int, List[int]]] = {
            name: {} for name in program.mem_names
        }
        for row, (inputs, mems) in enumerate(jobs):
            for name, value in (inputs or {}).items():
                if name not in ports:
                    if ignore_unknown:
                        continue
                    raise KeyError(f"unknown port {name!r}")
                scalars[program.scalar_index[name]][row] = int(value)
            for name, data in (mems or {}).items():
                if name not in memories:
                    if ignore_unknown:
                        continue
                    raise KeyError(f"unknown memory {name!r}")
                mem_rows[name][row] = list(data)
        mem_tables: List[np.ndarray] = []
        mem_lengths: List[np.ndarray] = []
        for name in program.mem_names:
            per_row = mem_rows[name]
            lengths = np.zeros(n, dtype=np.int64)
            for row, words in per_row.items():
                lengths[row] = len(words)
            cap = int(lengths.max()) if n else 0
            table = np.zeros((n, cap), dtype=np.int64)
            for row, words in per_row.items():
                if words:
                    table[row, :len(words)] = words
            mem_tables.append(table)
            mem_lengths.append(lengths)
        return scalars, mem_tables, mem_lengths

    def run_jobs(self, jobs: Iterable, max_cycles: int = 200_000_000,
                 ignore_unknown: bool = False) -> BatchRunResult:
        """Simulate every ``(inputs, memories)`` job to completion.

        All rows start from power-on state, load their own inputs, and
        advance in lockstep; a row retires when its done expression
        holds or it reaches ``max_cycles`` (reported via ``finished``).
        When live occupancy halves, retired rows are compacted away and
        the kernel re-entered on the survivors.
        """
        program = self.program()
        job_list = list(jobs)
        n = len(job_list)
        n_events = len(program.event_layout)
        out_cycles = np.zeros(n, dtype=np.int64)
        out_fin = np.zeros(n, dtype=np.bool_)
        out_events = [np.zeros(n, dtype=np.int64)
                      for _ in range(n_events)]
        if self.track_state_cycles:
            out_sc = [np.zeros((n, len(states)), dtype=np.int64)
                      for states in program.fsm_states]
        else:
            out_sc = None
        lockstep = live_steps = row_steps = ff_jumps = 0
        wall = 0.0
        if n:
            scalars, mem_tables, mem_lengths = self._pack(
                job_list, program, ignore_unknown)
            dyn = [np.zeros(n, dtype=np.int64)
                   for _ in program.dyn_names]
            if self.track_state_cycles:
                sc = [np.zeros((n, len(states)), dtype=np.int64)
                      for states in program.fsm_states]
            else:
                sc = None
            events = [np.zeros(n, dtype=np.int64)
                      for _ in range(n_events)]
            cycles = np.zeros(n, dtype=np.int64)
            fin = np.zeros(n, dtype=np.bool_)
            origin = np.arange(n)
            start = perf_counter()
            while True:
                cur_n = int(cycles.shape[0])
                iters, lives, ffj = program.fn(
                    scalars, mem_tables, mem_lengths, dyn, sc, events,
                    cycles, fin, max_cycles, max(1, cur_n // 2))
                lockstep += iters
                live_steps += lives
                row_steps += iters * cur_n
                ff_jumps += ffj
                out_cycles[origin] = cycles
                out_fin[origin] = fin
                for slot in range(n_events):
                    out_events[slot][origin] = events[slot]
                if out_sc is not None:
                    for i, counts in enumerate(sc):
                        out_sc[i][origin] = counts
                keep = np.logical_not(fin | (cycles >= max_cycles))
                if not keep.any():
                    break
                scalars = [col[keep] for col in scalars]
                mem_tables = [t[keep] for t in mem_tables]
                mem_lengths = [col[keep] for col in mem_lengths]
                dyn = [col[keep] for col in dyn]
                if sc is not None:
                    sc = [counts[keep] for counts in sc]
                events = [col[keep] for col in events]
                cycles = cycles[keep]
                fin = fin[keep]
                origin = origin[keep]
            wall = perf_counter() - start
        record_sim_run("batch", int(out_cycles.sum()), wall, ff_jumps)
        _note_batch_metrics(n, lockstep, live_steps, row_steps)
        return BatchRunResult(
            cycles=out_cycles,
            finished=out_fin,
            events=BatchEvents.from_arrays(program.event_layout,
                                           out_events),
            fsm_names=list(program.fsm_names),
            fsm_states=[list(states) for states in program.fsm_states],
            state_cycles=out_sc,
            lockstep_cycles=lockstep,
            live_row_steps=live_steps,
            row_steps=row_steps,
            ff_jumps=ff_jumps,
        )
