"""Behavioural RTL IR, simulator, and structural synthesis substrate.

This package is the reproduction's stand-in for the paper's Verilog +
Yosys + RTL-simulation toolchain.  Accelerator designs are written
against :class:`Module` (FSMs, counters, wires, registers, scratchpads,
datapath blocks); :func:`synthesize` lowers a design to a structural
:class:`Netlist`; :func:`make_simulation` executes jobs
cycle-accurately on one of two backends (:data:`BACKENDS`): the
``interp`` oracle (:class:`Simulation`) and the default ``stepjit``
step compiler (:class:`StepSimulation`).
"""

from .backend import (
    BACKENDS,
    make_simulation,
    resolve_backend,
    set_default_backend,
)
from .counter import Counter, down_counter, up_counter
from .lint import LintFinding, errors_only, lint_module
from .expr import (
    BinOp,
    Const,
    Expr,
    MemRead,
    Mux,
    Sig,
    UnOp,
    all_of,
    any_of,
    maximum,
    minimum,
    wrap,
)
from .fsm import Fsm, Transition
from .module import DatapathBlock, Module
from .netlist import Cell, Netlist, Provenance
from .signals import Memory, Port, Reg, Update, Wire
from .simulator import EventSlots, Listener, RunResult, Simulation
from .stepjit import StepProgram, StepSimulation, compile_stepper
from .synth import synthesize
from .transform import derive_module
from .verilog import to_verilog
from .wave import VcdWriter

__all__ = [
    "BACKENDS", "BinOp", "Cell", "Const", "Counter",
    "DatapathBlock", "EventSlots",
    "LintFinding", "VcdWriter", "errors_only", "lint_module",
    "Expr", "Fsm", "Listener", "MemRead", "Memory", "Module", "Mux",
    "Netlist", "Port", "Provenance", "Reg", "RunResult", "Sig",
    "Simulation", "StepProgram", "StepSimulation", "Transition", "UnOp",
    "Update", "Wire", "all_of",
    "any_of", "compile_stepper", "derive_module",
    "down_counter", "make_simulation", "maximum", "minimum",
    "resolve_backend", "set_default_backend", "synthesize", "to_verilog",
    "up_counter", "wrap",
]
