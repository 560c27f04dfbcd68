"""Cycle-accurate event-driven simulator for the behavioural RTL IR.

The simulator executes one cycle at a time with two-phase semantics
(evaluate everything against the pre-cycle state, then commit), exactly
like synchronous hardware.  Its one optimization is *fast-forwarding*:
when every FSM is either parked in a wait state or provably quiescent,
and nothing can change except counters counting, the simulator jumps
ahead to the first cycle where a countdown expires.  The jump is exact
— the committed state after the jump is identical to stepping cycle by
cycle — which the test suite verifies by running both ways.

Soundness of the jump rests on a small static analysis: a guard may
reference a counting counter only through ``counter == 0`` / ``!= 0`` /
``> 0`` shapes.  Those are constant during the countdown stretch — a
down counter stays strictly positive until exactly the cycle the jump
stops at, and a ticking up counter that is already positive stays
positive.  Guards that read a counting counter any other way veto the
jump, as do any update rules, counter loads, or resets that would fire.

This is what makes the paper's millisecond-scale jobs (millions of
cycles) tractable in Python: a job becomes a few hundred FSM steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..obs import get_observer
from .expr import BinOp, Const, Expr, Sig
from .fsm import Fsm, Transition
from .module import Module
from .signals import Update


def record_sim_run(backend: str, cycles: int, wall_s: float,
                   ff_jumps: int) -> None:
    """Publish per-run ``sim.*`` kernel metrics (no-op when obs is off).

    Counters per backend: ``runs``, ``cycles``, ``wall_s`` and
    ``ff_jumps`` — enough for ``--profile`` footers to derive
    cycles/sec and the fast-forward hit rate per kernel.
    """
    obs = get_observer()
    if obs is None:
        return
    metrics = obs.metrics
    metrics.inc(f"sim.{backend}.runs")
    metrics.inc(f"sim.{backend}.cycles", float(cycles))
    metrics.inc(f"sim.{backend}.wall_s", wall_s)
    metrics.inc(f"sim.{backend}.ff_jumps", float(ff_jumps))


class EventSlots:
    """Where a listener's events add up: the compiled-slot table.

    ``transitions`` maps an arc ``(fsm, src, dst)`` to the slot that
    counts its firings.  ``loads`` maps a counter to the ``(count,
    value)`` slot pair its loads add ``1.0`` and the loaded value to;
    ``resets`` does the same for resets and the pre-reset value.
    Either slot of a pair may be ``None``, and an event with no slot
    adds nothing.  Equal tables compare and hash equal, and the hash
    is computed once, so listeners over equal tables share one
    compiled program and looking one up costs no table walk.
    """

    def __init__(
        self,
        transitions: Dict[Tuple[str, str, str], int],
        loads: Dict[str, Tuple[Optional[int], Optional[int]]],
        resets: Dict[str, Tuple[Optional[int], Optional[int]]],
    ):
        self.transitions = dict(transitions)
        self.loads = dict(loads)
        self.resets = dict(resets)
        # A frozenset caches its hash after the first lookup.
        self._key = (frozenset(self.transitions.items()),
                     frozenset(self.loads.items()),
                     frozenset(self.resets.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventSlots) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class Listener:
    """Instrumentation callback interface (all methods optional).

    Compiled slots: a listener whose events only add to a list of
    floats may return an :class:`EventSlots` table from
    :meth:`event_slots` and keep that list in ``accumulator``.  The
    ``stepjit`` kernel then resolves each event's slots when it
    generates code and adds inline, calling no callback: ``1.0`` to
    an arc's slot when the arc fires, ``1.0`` and ``float(value)`` to
    a counter's pair on a load or reset.  It reads ``accumulator``
    when each ``run()`` starts, so the list may be replaced between
    runs.  The ``interp`` oracle always calls the callbacks, which
    must add the same values in the same order.  Neither backend
    raises an event during a fast-forward jump.
    """

    #: Set True to receive :meth:`on_cycle` after every committed cycle
    #: (and once after each fast-forward jump).  Off by default — the
    #: per-cycle callback costs real time on long runs.
    wants_cycles: bool = False

    def event_slots(self) -> Optional[EventSlots]:
        """The slot table ``stepjit`` may add to instead of calling
        back, or ``None`` (the default) to be called back."""
        return None

    def start_job(self) -> None:
        """Clear per-job state; :meth:`Simulation.reset` calls it."""

    def on_transition(self, fsm: str, src: str, dst: str) -> None:
        """An FSM arc fired."""
        pass

    def on_counter_load(self, counter: str, value: int) -> None:
        """A down counter was (re)loaded."""
        pass

    def on_counter_reset(self, counter: str, value: int) -> None:
        """An up counter was reset (value is pre-reset)."""
        pass

    def on_cycle(self, cycle: int, state: Dict[str, object]) -> None:
        """Committed architectural state at the end of ``cycle``."""
        pass


@dataclass
class RunResult:
    """Outcome of simulating one job."""

    cycles: int
    finished: bool
    state_cycles: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def cycles_in(self, fsm: str, state: str) -> int:
        """Cycles spent in one (fsm, state)."""
        return self.state_cycles.get((fsm, state), 0)


class _LazyEnv(dict):
    """Environment that computes combinational wires on demand.

    One instance is reused for an entire run: ``new_cycle`` drops the
    values memoized during the previous cycle instead of rebuilding the
    environment from a full copy of the state dict (the old behaviour
    cost O(|state|) per cycle).  A missing key falls back to the
    architectural state first, then computes the named wire; either way
    the value is cached for the remainder of the cycle.
    """

    __slots__ = ("_state", "_wires")

    def __init__(self, state: dict, wires: dict):
        super().__init__()
        self._state = state
        self._wires = wires

    def new_cycle(self) -> None:
        """Invalidate everything memoized during the previous cycle."""
        self.clear()

    def __missing__(self, key: str) -> int:
        state = self._state
        if key in state:
            value = state[key]
        else:
            value = self._wires[key].expr.eval(self)
        self[key] = value
        return value


_ZERO_SAFE_OPS = ("eq", "ne", "gt")


def _zero_compared_signal(expr: Expr) -> Optional[str]:
    """Return the signal name if ``expr`` is ``sig (==|!=|>) 0``."""
    if isinstance(expr, BinOp) and expr.op in _ZERO_SAFE_OPS:
        a, b = expr.a, expr.b
        if isinstance(a, Sig) and isinstance(b, Const) and b.value == 0:
            return a.name
        if expr.op in ("eq", "ne"):
            if isinstance(b, Sig) and isinstance(a, Const) and a.value == 0:
                return b.name
    return None


#: (unstable counter refs, zero-compared counter refs)
DepPair = Tuple[FrozenSet[str], FrozenSet[str]]

_EMPTY_PAIR: DepPair = (frozenset(), frozenset())


class _DepAnalysis:
    """Classifies how guard expressions depend on counters.

    ``analyze`` returns two sets of counter names: those referenced in
    arbitrary ways (*unstable* during a countdown stretch) and those
    referenced only through zero-compares (*stable* for down counters,
    and for up counters that are already positive).
    """

    def __init__(self, module: Module):
        self._wires = module.wires
        self._counters = frozenset(module.counters)
        self._wire_memo: Dict[str, DepPair] = {}

    def analyze(self, expr: Optional[Expr]) -> DepPair:
        if expr is None:
            return _EMPTY_PAIR
        return self._visit(expr)

    def _visit(self, expr: Expr) -> DepPair:
        zeroed = _zero_compared_signal(expr)
        if zeroed is not None:
            if zeroed in self._counters:
                return (frozenset(), frozenset((zeroed,)))
            if zeroed in self._wires:
                return self._wire(zeroed)
            return _EMPTY_PAIR
        if isinstance(expr, Sig):
            name = expr.name
            if name in self._counters:
                return (frozenset((name,)), frozenset())
            if name in self._wires:
                return self._wire(name)
            return _EMPTY_PAIR
        unstable: Set[str] = set()
        zerocmp: Set[str] = set()
        for child in expr.children():
            u, z = self._visit(child)
            unstable |= u
            zerocmp |= z
        return (frozenset(unstable), frozenset(zerocmp))

    def _wire(self, name: str) -> DepPair:
        if name not in self._wire_memo:
            self._wire_memo[name] = _EMPTY_PAIR  # cycle guard
            self._wire_memo[name] = self._visit(self._wires[name].expr)
        return self._wire_memo[name]


class Simulation:
    """Simulates a finalized :class:`Module`.

    Args:
        module: the design (must be finalized).
        listener: optional instrumentation hook.
        fast_forward: enable bulk wait skipping (default on; exact).
        track_state_cycles: record per-(fsm, state) cycle counts for
            activity-based energy accounting.
    """

    def __init__(self, module: Module, listener: Optional[Listener] = None,
                 fast_forward: bool = True,
                 track_state_cycles: bool = True):
        if not module.finalized:
            raise ValueError(f"module {module.name} must be finalized first")
        self.module = module
        self.listener = listener
        self.fast_forward = fast_forward
        self.track_state_cycles = track_state_cycles
        self._build_static()
        self.reset()

    # -- static precomputation ---------------------------------------------
    def _build_static(self) -> None:
        m = self.module
        deps = _DepAnalysis(m)

        # Hoisted iteration lists: ``dict.values()`` re-materialized
        # every cycle shows up in profiles on million-cycle runs.
        self._fsms: List[Fsm] = list(m.fsms.values())
        self._counters: List = list(m.counters.values())

        self._arc_table: Dict[str, Dict[str, List[Transition]]] = {}
        self._arc_deps: Dict[Tuple[str, int], DepPair] = {}
        for fsm in m.fsms.values():
            table: Dict[str, List[Transition]] = {}
            for t in fsm.transitions:
                table.setdefault(t.src, []).append(t)
                self._arc_deps[(fsm.name, t.index)] = deps.analyze(t.cond)
            self._arc_table[fsm.name] = table

        self._global_updates: List[Update] = []
        self._state_updates: Dict[Tuple[str, str], List[Update]] = {}
        for upd in m.updates:
            if upd.fsm is None:
                self._global_updates.append(upd)
            else:
                self._state_updates.setdefault(
                    (upd.fsm, upd.state), []).append(upd)

        self._down = [c for c in m.counters.values() if c.mode == "down"]
        self._up = [c for c in m.counters.values() if c.mode == "up"]

        self._update_deps = [deps.analyze(u.cond) for u in m.updates]
        self._counter_deps = {}
        for c in m.counters.values():
            lu, lz = deps.analyze(c.load_cond)
            eu, ez = deps.analyze(c.enable)
            self._counter_deps[c.name] = (lu | eu, lz | ez)
        self._done_deps = deps.analyze(m.done_expr)

    # -- lifecycle -----------------------------------------------------------
    def reset(self) -> None:
        """Return all state to power-on values; start the listener's job."""
        m = self.module
        self.state: Dict[str, object] = {}
        for port in m.ports.values():
            self.state[port.name] = 0
        for reg in m.regs.values():
            self.state[reg.name] = reg.init
        for counter in m.counters.values():
            self.state[counter.name] = 0
        for fsm in m.fsms.values():
            self.state[fsm.state_signal] = fsm.code_of(fsm.initial)
        for mem in m.memories.values():
            self.state[f"__mem__{mem.name}"] = []
        for block in m.datapath_blocks:
            self.state[block.output] = 0
        self._fsm_state: Dict[str, str] = {
            fsm.name: fsm.initial for fsm in m.fsms.values()
        }
        self._dyn_stall: Dict[str, int] = {f: 0 for f in m.fsms}
        for fsm in m.fsms.values():
            if fsm.dynamic_waits:
                self.state[fsm.dynbusy_signal] = 0
        self.cycle = 0
        self.ff_jumps = 0
        self.state_cycles: Dict[Tuple[str, str], int] = {}
        if self.listener is not None:
            self.listener.start_job()

    def load(self, inputs: Optional[Dict[str, int]] = None,
             memories: Optional[Dict[str, Sequence[int]]] = None,
             ignore_unknown: bool = False) -> None:
        """Load one job: set input ports and scratchpad contents.

        ``ignore_unknown`` silently skips ports/memories the module
        does not have — used when feeding a full job into a hardware
        slice from which some inputs were sliced away.
        """
        for name, value in (inputs or {}).items():
            if name not in self.module.ports:
                if ignore_unknown:
                    continue
                raise KeyError(f"unknown port {name!r}")
            self.state[name] = int(value)
        for name, data in (memories or {}).items():
            if name not in self.module.memories:
                if ignore_unknown:
                    continue
                raise KeyError(f"unknown memory {name!r}")
            self.state[f"__mem__{name}"] = list(data)

    def run_job(self, inputs: Optional[Dict[str, int]] = None,
                memories: Optional[Dict[str, Sequence[int]]] = None,
                max_cycles: int = 200_000_000,
                ignore_unknown: bool = False) -> RunResult:
        """Run one job from power-on (:meth:`reset`, :meth:`load`,
        :meth:`run`); raise :class:`RuntimeError` naming the module,
        ``max_cycles`` and the inputs if it does not finish."""
        self.reset()
        self.load(inputs, memories, ignore_unknown)
        result = self.run(max_cycles)
        if not result.finished:
            digest = [f"{name}={value}"
                      for name, value in sorted((inputs or {}).items())]
            digest += [f"{name}[{len(words)} words]"
                       for name, words in sorted((memories or {}).items())]
            raise RuntimeError(
                f"did not finish within {max_cycles} cycles on "
                f"{self.module.name} "
                f"(inputs: {', '.join(digest) or '(no inputs)'})")
        return result

    # -- execution -------------------------------------------------------------
    def run(self, max_cycles: int = 200_000_000) -> RunResult:
        """Run until the module's done expression holds (or ``max_cycles``)."""
        done_expr = self.module.done_expr
        fsms = self._fsms
        env = _LazyEnv(self.state, self.module.wires)
        start_cycle = self.cycle
        start_jumps = self.ff_jumps
        start = perf_counter()
        finished = False

        while self.cycle < max_cycles:
            env.new_cycle()
            if done_expr.eval(env):
                finished = True
                break

            # Phase 1: FSM arc selection (against pre-cycle state).
            fired: List[Tuple[Fsm, Transition]] = []
            for fsm in fsms:
                current = self._fsm_state[fsm.name]
                counter = fsm.wait_states.get(current)
                if counter is not None and env[counter] > 0:
                    continue  # parked on a wait counter
                if (current in fsm.dynamic_waits
                        and self._dyn_stall[fsm.name] > 0):
                    continue  # parked on opaque serial logic
                for t in self._arc_table[fsm.name].get(current, ()):
                    if t.cond is None or t.cond.eval(env):
                        fired.append((fsm, t))
                        break

            if (not fired and self.fast_forward
                    and self._try_skip(env, max_cycles)):
                continue

            self._step_once(env, fired)

        record_sim_run("interp", self.cycle - start_cycle,
                       perf_counter() - start,
                       self.ff_jumps - start_jumps)
        return RunResult(self.cycle, finished, dict(self.state_cycles))

    def _step_once(self, env: _LazyEnv,
                   fired: List[Tuple[Fsm, Transition]]) -> None:
        """Execute exactly one cycle given the already-selected arcs."""
        m = self.module
        listener = self.listener
        pending: Dict[str, int] = {}

        # Phase 2a: counters.
        counter_next: Dict[str, int] = {}
        for c in self._down:
            value = self.state[c.name]
            if c.load_cond.eval(env):
                loaded = c.load_value.eval(env) & c.mask
                counter_next[c.name] = loaded
                if listener is not None:
                    listener.on_counter_load(c.name, loaded)
            elif value > 0 and (c.enable is None or c.enable.eval(env)):
                nxt = value - c.step
                counter_next[c.name] = nxt if nxt > 0 else 0
        for c in self._up:
            value = self.state[c.name]
            if c.load_cond is not None and c.load_cond.eval(env):
                counter_next[c.name] = 0
                if listener is not None:
                    listener.on_counter_reset(c.name, value)
            elif c.enable is None or c.enable.eval(env):
                counter_next[c.name] = (value + c.step) & c.mask

        # Phase 2b: update rules (declaration order; later rules win).
        for upd in self._global_updates:
            if upd.cond is None or upd.cond.eval(env):
                pending[upd.reg] = upd.value.eval(env)
        for fsm in self._fsms:
            current = self._fsm_state[fsm.name]
            for upd in self._state_updates.get((fsm.name, current), ()):
                if upd.cond is None or upd.cond.eval(env):
                    pending[upd.reg] = upd.value.eval(env)

        # Phase 2c: FSM arcs and their entry actions (override updates).
        fsm_next: Dict[str, str] = {}
        dyn_next: Dict[str, int] = {}
        for fsm, t in fired:
            fsm_next[fsm.name] = t.dst
            for reg, value in t.actions:
                pending[reg] = value.eval(env)
            if t.dst in fsm.dynamic_waits:
                duration = fsm.dynamic_waits[t.dst].eval(env)
                dyn_next[fsm.name] = max(int(duration), 0)
            if listener is not None:
                listener.on_transition(fsm.name, t.src, t.dst)

        # Phase 3: commit.
        if self.track_state_cycles:
            cells = self.state_cycles
            for fsm in self._fsms:
                key = (fsm.name, self._fsm_state[fsm.name])
                cells[key] = cells.get(key, 0) + 1
        for name, value in counter_next.items():
            self.state[name] = value
        for reg, value in pending.items():
            self.state[reg] = value & m.regs[reg].mask
        for fsm_name, stall in dyn_next.items():
            self._dyn_stall[fsm_name] = stall
        for fsm in self._fsms:
            name = fsm.name
            if name in fsm_next:
                self._fsm_state[name] = fsm_next[name]
                self.state[fsm.state_signal] = fsm.code_of(fsm_next[name])
            elif name not in dyn_next and self._dyn_stall[name] > 0:
                self._dyn_stall[name] -= 1  # parked in a dynamic wait
            if fsm.dynamic_waits:
                self.state[fsm.dynbusy_signal] = int(
                    self._dyn_stall[name] > 0)
        self.cycle += 1
        if listener is not None and listener.wants_cycles:
            listener.on_cycle(self.cycle, self.state)

    # -- fast-forward -------------------------------------------------------
    def _try_skip(self, env: _LazyEnv, max_cycles: int) -> bool:
        """Jump over a provably-inert stretch of stalled cycles, never
        past ``max_cycles``.

        Called only when no FSM arc fires this cycle.  Returns True if
        a jump was committed.
        """
        m = self.module
        remaining: List[int] = []
        quiescent: List[Fsm] = []  # FSMs idle for non-wait reasons

        # Which FSMs are parked, and on what.
        for fsm in self._fsms:
            current = self._fsm_state[fsm.name]
            counter_name = fsm.wait_states.get(current)
            if counter_name is not None and self.state[counter_name] > 0:
                continue  # ETA comes from the counting-counter scan
            if (current in fsm.dynamic_waits
                    and self._dyn_stall[fsm.name] > 0):
                remaining.append(self._dyn_stall[fsm.name])
                continue
            quiescent.append(fsm)

        # Every counter that advances this cycle joins the changing set.
        changing: Set[str] = set()
        counting_down: List = []
        ticking_up: List = []
        zero_up: Set[str] = set()  # ticking up counters currently at zero
        for c in self._down:
            value = self.state[c.name]
            if value > 0 and (c.enable is None or c.enable.eval(env)):
                counting_down.append(c)
                changing.add(c.name)
                remaining.append(-(-value // c.step))  # ceil: cycles to 0
        for c in self._up:
            if c.load_cond is not None and c.load_cond.eval(env):
                return False  # a reset would fire this cycle
            if c.enable is None or c.enable.eval(env):
                ticking_up.append(c)
                changing.add(c.name)
                value = self.state[c.name]
                if value == 0:
                    zero_up.add(c.name)
                remaining.append((c.mask - value) // c.step)  # wrap bound

        # A parked FSM whose wait counter is not actually counting has
        # no ETA; bail rather than guess.
        for fsm in self._fsms:
            current = self._fsm_state[fsm.name]
            counter_name = fsm.wait_states.get(current)
            if (counter_name is not None and self.state[counter_name] > 0
                    and counter_name not in changing):
                return False

        if not remaining:
            return False

        def vetoed(dep_pair: DepPair) -> bool:
            unstable, zerocmp = dep_pair
            if unstable & changing:
                return True
            # zero-compares are stable except on an up counter leaving 0.
            return bool(zerocmp & zero_up)

        for fsm in quiescent:
            current = self._fsm_state[fsm.name]
            for t in self._arc_table[fsm.name].get(current, ()):
                if vetoed(self._arc_deps[(fsm.name, t.index)]):
                    return False
        for c in self._counters:
            if vetoed(self._counter_deps[c.name]):
                return False
        for c in self._down:
            if c.name not in changing and c.load_cond.eval(env):
                return False  # a load would fire this cycle
        for dep_pair, upd in zip(self._update_deps, m.updates):
            if vetoed(dep_pair):
                return False
            if upd.fsm is not None and self._fsm_state[upd.fsm] != upd.state:
                continue
            if upd.cond is None or upd.cond.eval(env):
                return False  # a register write would fire this cycle
        if vetoed(self._done_deps):
            return False

        k = min(min(remaining), max_cycles - self.cycle)
        if k <= 1:
            return False  # not worth a bulk jump; step normally

        # Commit the jump.
        for c in counting_down:
            value = self.state[c.name] - k * c.step
            self.state[c.name] = value if value > 0 else 0
        for c in ticking_up:
            self.state[c.name] = (self.state[c.name] + k * c.step) & c.mask
        for fsm in self._fsms:
            current = self._fsm_state[fsm.name]
            if (current in fsm.dynamic_waits
                    and self._dyn_stall[fsm.name] > 0):
                self._dyn_stall[fsm.name] -= k
            if fsm.dynamic_waits:
                self.state[fsm.dynbusy_signal] = int(
                    self._dyn_stall[fsm.name] > 0)
            if self.track_state_cycles:
                key = (fsm.name, current)
                self.state_cycles[key] = self.state_cycles.get(key, 0) + k
        self.cycle += k
        self.ff_jumps += 1
        if self.listener is not None and self.listener.wants_cycles:
            self.listener.on_cycle(self.cycle, self.state)
        return True
