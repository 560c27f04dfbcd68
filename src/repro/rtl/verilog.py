"""Verilog export of behavioural modules.

``to_verilog`` renders a finalized :class:`Module` as synthesizable
Verilog-2001: ports, scratchpad memories, combinational assigns for
every wire (including the generated transition-criteria signals),
and one clocked always-block implementing registers, counters, FSMs
and dynamic waits.

The exporter exists so designs written against this library can be
carried into a conventional flow (simulation with Icarus/Verilator,
synthesis with Yosys — the tool the paper's analysis runs inside).
Semantics match the Python simulator: two-phase updates, last-match
priority for update rules, entry actions overriding updates, wait
states gated on their counters, dynamic waits elaborated as an opaque
down-counting stall.
"""

from __future__ import annotations

from typing import List

from .expr import BinOp, Const, Expr, MemRead, Mux, Sig, UnOp
from .module import Module

_BIN_VERILOG = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}


def _expr(expr: Expr) -> str:
    """Render an expression as Verilog."""
    if isinstance(expr, Const):
        if expr.value < 0:
            return f"-{-expr.value}"
        return str(expr.value)
    if isinstance(expr, Sig):
        return expr.name
    if isinstance(expr, MemRead):
        return f"{expr.memory}[{_expr(expr.index)}]"
    if isinstance(expr, Mux):
        return (f"(({_expr(expr.sel)}) ? ({_expr(expr.a)}) : "
                f"({_expr(expr.b)}))")
    if isinstance(expr, UnOp):
        if expr.op == "not":
            return f"(!({_expr(expr.a)}))"
        if expr.op == "bool":
            return f"(({_expr(expr.a)}) != 0)"
        return f"(-({_expr(expr.a)}))"
    if isinstance(expr, BinOp):
        a, b = _expr(expr.a), _expr(expr.b)
        if expr.op == "min":
            return f"((({a}) < ({b})) ? ({a}) : ({b}))"
        if expr.op == "max":
            return f"((({a}) > ({b})) ? ({a}) : ({b}))"
        return f"(({a}) {_BIN_VERILOG[expr.op]} ({b}))"
    raise TypeError(f"cannot render {expr!r}")


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def to_verilog(module: Module, clock: str = "clk",
               reset: str = "rst") -> str:
    """Render ``module`` as a single Verilog module."""
    if not module.finalized:
        raise ValueError(f"module {module.name} must be finalized first")
    lines: List[str] = []
    out = lines.append

    ports = [f"  input wire {clock}", f"  input wire {reset}"]
    for port in module.ports.values():
        ports.append(f"  input wire {_range(port.width)}{port.name}")
    ports.append("  output wire done")
    out(f"// generated by repro.rtl.verilog from module "
        f"'{module.name}'")
    out(f"module {module.name} (")
    out(",\n".join(ports))
    out(");")
    out("")

    # State-encoding parameters.
    for fsm in module.fsms.values():
        for state, code in fsm.states.items():
            out(f"  localparam {fsm.name.upper()}_{state} = {code};")
    out("")

    # Storage elements.
    for mem in module.memories.values():
        out(f"  reg {_range(mem.width)}{mem.name} [0:{mem.depth - 1}];")
    for reg in module.regs.values():
        out(f"  reg {_range(reg.width)}{reg.name};")
    for counter in module.counters.values():
        out(f"  reg {_range(counter.width)}{counter.name};")
    for fsm in module.fsms.values():
        out(f"  reg [15:0] {fsm.state_signal};")
        if fsm.dynamic_waits:
            out(f"  reg [31:0] {fsm.name}__dyncnt;")
            out(f"  wire {fsm.dynbusy_signal} = "
                f"({fsm.name}__dyncnt != 0);")
    out("")

    # Combinational wires, in topological order.
    out("  // combinational network (includes transition criteria)")
    for name in module.wire_order:
        wire = module.wires[name]
        out(f"  wire {_range(wire.width)}{name} = {_expr(wire.expr)};")
    out("")
    out(f"  assign done = {_expr(module.done_expr)};")
    out("")

    # The clocked process.
    out(f"  always @(posedge {clock}) begin")
    out(f"    if ({reset}) begin")
    for reg in module.regs.values():
        out(f"      {reg.name} <= {reg.init};")
    for counter in module.counters.values():
        out(f"      {counter.name} <= 0;")
    for fsm in module.fsms.values():
        out(f"      {fsm.state_signal} <= "
            f"{fsm.name.upper()}_{fsm.initial};")
        if fsm.dynamic_waits:
            out(f"      {fsm.name}__dyncnt <= 0;")
    out("    end else begin")

    out("      // update rules (declaration order; later rules win)")
    for upd in module.updates:
        conds = []
        if upd.fsm is not None:
            fsm = module.fsms[upd.fsm]
            conds.append(f"{fsm.state_signal} == "
                         f"{upd.fsm.upper()}_{upd.state}")
        if upd.cond is not None:
            conds.append(_expr(upd.cond))
        guard = " && ".join(f"({c})" for c in conds) if conds else "1"
        out(f"      if ({guard}) {upd.reg} <= {_expr(upd.value)};")

    out("      // counters")
    for counter in module.counters.values():
        if counter.mode == "down":
            enable = (_expr(counter.enable)
                      if counter.enable is not None else "1")
            out(f"      if ({_expr(counter.load_cond)}) "
                f"{counter.name} <= {_expr(counter.load_value)};")
            out(f"      else if (({counter.name} > 0) && ({enable})) "
                f"{counter.name} <= {counter.name} - {counter.step};")
        else:
            enable = (_expr(counter.enable)
                      if counter.enable is not None else "1")
            out(f"      if ({_expr(counter.load_cond)}) "
                f"{counter.name} <= 0;")
            out(f"      else if ({enable}) "
                f"{counter.name} <= {counter.name} + {counter.step};")

    out("      // finite state machines")
    for fsm in module.fsms.values():
        out(f"      case ({fsm.state_signal})")
        for src in fsm.states:
            arcs = fsm.transitions_from(src)
            if not arcs and src not in fsm.dynamic_waits:
                continue
            out(f"        {fsm.name.upper()}_{src}: begin")
            if src in fsm.dynamic_waits:
                out(f"          if ({fsm.name}__dyncnt != 0) "
                    f"{fsm.name}__dyncnt <= {fsm.name}__dyncnt - 1;")
            first = True
            for t in arcs:
                # The criteria wires already fold in priority, wait
                # gating and dynamic-stall gating.
                keyword = "if" if first else "else if"
                out(f"          {keyword} ({fsm.transition_signal(t)}) "
                    f"begin")
                out(f"            {fsm.state_signal} <= "
                    f"{fsm.name.upper()}_{t.dst};")
                for reg, value in t.actions:
                    out(f"            {reg} <= {_expr(value)};")
                if t.dst in fsm.dynamic_waits:
                    out(f"            {fsm.name}__dyncnt <= "
                        f"{_expr(fsm.dynamic_waits[t.dst])};")
                out("          end")
                first = False
            out("        end")
        out("        default: ;")
        out("      endcase")
    out("    end")
    out("  end")
    out("")
    if module.datapath_blocks:
        out("  // datapath blocks (behavioural placeholders; the Python")
        out("  // flow prices them from the structural netlist)")
        for block in module.datapath_blocks:
            cells = ", ".join(f"{k}x{v}" for k, v in
                              sorted(block.cells.items()))
            out(f"  //   {block.name}: {cells}")
    out("endmodule")
    return "\n".join(lines) + "\n"
