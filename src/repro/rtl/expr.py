"""Expression AST for the behavioural RTL IR.

Expressions are small immutable trees evaluated against an environment
mapping signal names to integer values.  They are deliberately simple:
integers only, no implicit widths (registers apply width masks on
commit).  Operator overloading lets accelerator designs read naturally::

    busy = (state == S_RUN) & (count > 0)

Every node knows the set of signal names it references, which the
synthesizer and the slicer use to build dependence edges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple, Union

Env = Dict[str, int]
ExprLike = Union["Expr", int, bool]


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def eval(self, env: Env) -> int:
        """Value of this expression in ``env``."""
        raise NotImplementedError

    def signals(self) -> FrozenSet[str]:
        """Names of all signals referenced anywhere in this tree."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Child expression nodes."""
        return ()

    # -- operator sugar ------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return BinOp("add", self, wrap(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return BinOp("add", wrap(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return BinOp("sub", self, wrap(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return BinOp("sub", wrap(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return BinOp("mul", self, wrap(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return BinOp("mul", wrap(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return BinOp("div", self, wrap(other))

    def __mod__(self, other: ExprLike) -> "Expr":
        return BinOp("mod", self, wrap(other))

    def __and__(self, other: ExprLike) -> "Expr":
        return BinOp("and", self, wrap(other))

    def __rand__(self, other: ExprLike) -> "Expr":
        return BinOp("and", wrap(other), self)

    def __or__(self, other: ExprLike) -> "Expr":
        return BinOp("or", self, wrap(other))

    def __ror__(self, other: ExprLike) -> "Expr":
        return BinOp("or", wrap(other), self)

    def __xor__(self, other: ExprLike) -> "Expr":
        return BinOp("xor", self, wrap(other))

    def __lshift__(self, other: ExprLike) -> "Expr":
        return BinOp("shl", self, wrap(other))

    def __rshift__(self, other: ExprLike) -> "Expr":
        return BinOp("shr", self, wrap(other))

    def __invert__(self) -> "Expr":
        return UnOp("not", self)

    def __neg__(self) -> "Expr":
        return BinOp("sub", Const(0), self)

    # Comparison operators return Expr, so they cannot be used for
    # Python-level equality.  Designs always compare via these.
    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return BinOp("eq", self, wrap(other))  # type: ignore[arg-type]

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return BinOp("ne", self, wrap(other))  # type: ignore[arg-type]

    def __lt__(self, other: ExprLike) -> "Expr":
        return BinOp("lt", self, wrap(other))

    def __le__(self, other: ExprLike) -> "Expr":
        return BinOp("le", self, wrap(other))

    def __gt__(self, other: ExprLike) -> "Expr":
        return BinOp("gt", self, wrap(other))

    def __ge__(self, other: ExprLike) -> "Expr":
        return BinOp("ge", self, wrap(other))

    __hash__ = None  # type: ignore[assignment]


def wrap(value: ExprLike) -> Expr:
    """Coerce ints/bools to :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise TypeError(f"Const takes int, got {type(value).__name__}")
        self.value = value

    def eval(self, env: Env) -> int:
        """The literal value."""
        return self.value

    def signals(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"Const({self.value})"


class Sig(Expr):
    """A reference to a named signal (port, wire, reg, counter, state)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("signal name must be non-empty")
        self.name = name

    def eval(self, env: Env) -> int:
        """Look the signal up in the environment."""
        return env[self.name]

    def signals(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return f"Sig({self.name!r})"


_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else 0,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "min": lambda a, b: a if a < b else b,
    "max": lambda a, b: a if a > b else b,
}

_PYOPS = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
    "xor": "^", "shl": "<<", "shr": ">>",
}

_CMPOPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class BinOp(Expr):
    """A binary operation; ``op`` is a key of the operation table."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: ExprLike, b: ExprLike):
        if op not in _BINOPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.a = wrap(a)
        self.b = wrap(b)

    def eval(self, env: Env) -> int:
        """Apply the binary operation to both operands."""
        return _BINOPS[self.op](self.a.eval(env), self.b.eval(env))

    def signals(self) -> FrozenSet[str]:
        return self.a.signals() | self.b.signals()

    def children(self) -> Tuple[Expr, ...]:
        """Both operands."""
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.a!r}, {self.b!r})"


_UNOPS = {
    "not": lambda a: int(not a),
    "bool": lambda a: int(bool(a)),
    "neg": lambda a: -a,
}


class UnOp(Expr):
    """A unary operation (logical not, boolean cast, arithmetic negate)."""

    __slots__ = ("op", "a")

    def __init__(self, op: str, a: ExprLike):
        if op not in _UNOPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.a = wrap(a)

    def eval(self, env: Env) -> int:
        """Apply the unary operation."""
        return _UNOPS[self.op](self.a.eval(env))

    def signals(self) -> FrozenSet[str]:
        return self.a.signals()

    def children(self) -> Tuple[Expr, ...]:
        """The single operand."""
        return (self.a,)

    def __repr__(self) -> str:
        return f"UnOp({self.op!r}, {self.a!r})"


class Mux(Expr):
    """``sel ? a : b`` — the workhorse of synthesized control logic."""

    __slots__ = ("sel", "a", "b")

    def __init__(self, sel: ExprLike, a: ExprLike, b: ExprLike):
        self.sel = wrap(sel)
        self.a = wrap(a)
        self.b = wrap(b)

    def eval(self, env: Env) -> int:
        """Select between the two data inputs."""
        return self.a.eval(env) if self.sel.eval(env) else self.b.eval(env)

    def signals(self) -> FrozenSet[str]:
        return self.sel.signals() | self.a.signals() | self.b.signals()

    def children(self) -> Tuple[Expr, ...]:
        """Select and both data inputs."""
        return (self.sel, self.a, self.b)

    def __repr__(self) -> str:
        return f"Mux({self.sel!r}, {self.a!r}, {self.b!r})"


class MemRead(Expr):
    """An indexed read from a named scratchpad memory."""

    __slots__ = ("memory", "index")

    def __init__(self, memory: str, index: ExprLike):
        if not memory:
            raise ValueError("memory name must be non-empty")
        self.memory = memory
        self.index = wrap(index)

    def eval(self, env: Env) -> int:
        """Read the indexed memory word (0 out of range)."""
        data = env[f"__mem__{self.memory}"]
        idx = self.index.eval(env)
        if 0 <= idx < len(data):
            return data[idx]
        return 0  # out-of-range reads return zero, like an SRAM with gating

    def signals(self) -> FrozenSet[str]:
        # The memory itself is a dependence too; expose it with a marker
        # prefix so the dependence graph can treat it as a net.
        return self.index.signals() | frozenset((f"__mem__{self.memory}",))

    def children(self) -> Tuple[Expr, ...]:
        """The index expression."""
        return (self.index,)

    def __repr__(self) -> str:
        return f"MemRead({self.memory!r}, {self.index!r})"


def minimum(a: ExprLike, b: ExprLike) -> Expr:
    """Two-input minimum as a dedicated node (maps to a CMP+MUX cell pair)."""
    return BinOp("min", a, b)


def maximum(a: ExprLike, b: ExprLike) -> Expr:
    """Two-input maximum as a dedicated node (maps to a CMP+MUX cell pair)."""
    return BinOp("max", a, b)


def all_of(*terms: ExprLike) -> Expr:
    """Logical AND of one or more terms (each coerced to 0/1 semantics)."""
    if not terms:
        raise ValueError("all_of requires at least one term")
    result = wrap(terms[0])
    for term in terms[1:]:
        result = BinOp("and", UnOp("bool", result), UnOp("bool", wrap(term)))
    return result


def any_of(*terms: ExprLike) -> Expr:
    """Logical OR of one or more terms (each coerced to 0/1 semantics)."""
    if not terms:
        raise ValueError("any_of requires at least one term")
    result = wrap(terms[0])
    for term in terms[1:]:
        result = BinOp("or", UnOp("bool", result), UnOp("bool", wrap(term)))
    return result


def walk(expr: Expr) -> Iterable[Expr]:
    """Yield every node of ``expr`` in depth-first pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))
