"""Design lint: catch the mistakes accelerator authors actually make.

The framework's guarantees (detection completeness, slice/feature
equivalence, fast-forward coverage) rest on designs using the
canonical idioms.  ``lint_module`` checks a finalized design for the
deviations that silently degrade results:

* ``unreachable-state`` — an FSM state no arc enters;
* ``dead-end-state`` — a non-terminal state with no way out;
* ``unloaded-counter`` — a down counter whose load condition is
  constant false (its waits would hang forever);
* ``wait-not-loaded-on-entry`` — a wait state whose counter's load
  condition does not reference any arc entering the state (the wait
  would reuse a stale value);
* ``unused-wire`` — a user wire nothing reads;
* ``wide-dynamic-share`` — dynamic waits reachable from the main loop
  (prediction error risk; informational);
* ``update-on-wait-state`` — an update gated on a wait state (defeats
  fast-forwarding, so simulation slows by orders of magnitude).

Each finding carries a severity: ``error`` findings break framework
invariants; ``warning`` findings degrade quality or performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from .expr import Const
from .module import Module


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.subject} — " \
               f"{self.message}"


def lint_module(module: Module) -> List[LintFinding]:
    """Run every lint rule; returns findings (empty = clean)."""
    if not module.finalized:
        raise ValueError(f"module {module.name} must be finalized first")
    findings: List[LintFinding] = []
    findings.extend(_check_fsm_reachability(module))
    findings.extend(_check_counters(module))
    findings.extend(_check_wait_loading(module))
    findings.extend(_check_unused_wires(module))
    findings.extend(_check_updates_on_waits(module))
    findings.extend(_note_dynamic_waits(module))
    return findings


def errors_only(findings: List[LintFinding]) -> List[LintFinding]:
    """Just the invariant-breaking findings."""
    return [f for f in findings if f.severity == "error"]


def _check_fsm_reachability(module: Module) -> List[LintFinding]:
    out: List[LintFinding] = []
    for fsm in module.fsms.values():
        entered: Set[str] = {fsm.initial}
        left: Set[str] = set()
        for t in fsm.transitions:
            entered.add(t.dst)
            left.add(t.src)
        for state in fsm.states:
            if state not in entered:
                out.append(LintFinding(
                    "unreachable-state", "error",
                    f"{fsm.name}.{state}",
                    "no arc enters this state",
                ))
            if state not in left and state in entered:
                # A terminal state is fine if the done expression can
                # hold there; flag everything else.
                if fsm.state_signal in module.done_expr.signals():
                    continue
                out.append(LintFinding(
                    "dead-end-state", "warning",
                    f"{fsm.name}.{state}",
                    "no arc leaves this state and done does not read "
                    "this FSM",
                ))
    return out


def _check_counters(module: Module) -> List[LintFinding]:
    out: List[LintFinding] = []
    for counter in module.counters.values():
        cond = counter.load_cond
        if isinstance(cond, Const) and cond.value == 0:
            out.append(LintFinding(
                "unloaded-counter", "error", counter.name,
                "load condition is constant false",
            ))
    return out


def _check_wait_loading(module: Module) -> List[LintFinding]:
    out: List[LintFinding] = []
    for fsm in module.fsms.values():
        for state, counter_name in fsm.wait_states.items():
            counter = module.counters.get(counter_name)
            if counter is None or counter.load_cond is None:
                continue
            entry_wires = {
                fsm.transition_signal(t)
                for t in fsm.transitions if t.dst == state
            }
            deps = counter.load_cond.signals()
            # Accept loads driven by entry arcs directly or through a
            # wire that reads them.
            reachable = set(deps)
            for name in deps:
                wire = module.wires.get(name)
                if wire is not None:
                    reachable |= wire.expr.signals()
            if entry_wires and not (reachable & entry_wires):
                out.append(LintFinding(
                    "wait-not-loaded-on-entry", "warning",
                    f"{fsm.name}.{state}",
                    f"counter {counter_name} is not loaded by any arc "
                    "entering the wait state",
                ))
    return out


def _check_unused_wires(module: Module) -> List[LintFinding]:
    generated = {
        fsm.transition_signal(t)
        for fsm in module.fsms.values()
        for t in fsm.transitions
    }
    used = module.read_signals()
    out: List[LintFinding] = []
    for name in module.wires:
        if name in generated or name in used:
            continue
        out.append(LintFinding(
            "unused-wire", "warning", name, "nothing reads this wire",
        ))
    return out


def _check_updates_on_waits(module: Module) -> List[LintFinding]:
    wait_states = {
        (fsm.name, state)
        for fsm in module.fsms.values()
        for state in list(fsm.wait_states) + list(fsm.dynamic_waits)
    }
    out: List[LintFinding] = []
    for upd in module.updates:
        if upd.fsm is not None and (upd.fsm, upd.state) in wait_states:
            out.append(LintFinding(
                "update-on-wait-state", "warning",
                f"{upd.reg} @ {upd.fsm}.{upd.state}",
                "per-cycle updates inside waits veto fast-forwarding",
            ))
    return out


def _note_dynamic_waits(module: Module) -> List[LintFinding]:
    out: List[LintFinding] = []
    for fsm in module.fsms.values():
        for state in fsm.dynamic_waits:
            out.append(LintFinding(
                "wide-dynamic-share", "info",
                f"{fsm.name}.{state}",
                "dynamic waits are invisible to features; check the "
                "visibility report if prediction error matters",
            ))
    return out
