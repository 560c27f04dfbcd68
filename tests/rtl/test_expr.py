"""Unit tests for the expression AST."""

import pytest

from repro.rtl.expr import (
    BinOp,
    Const,
    MemRead,
    Mux,
    Sig,
    UnOp,
    all_of,
    any_of,
    maximum,
    minimum,
    walk,
    wrap,
)


def test_const_eval():
    assert Const(42).eval({}) == 42


def test_const_rejects_non_int():
    with pytest.raises(TypeError):
        Const("x")


def test_sig_eval_reads_env():
    assert Sig("a").eval({"a": 7}) == 7


def test_sig_requires_name():
    with pytest.raises(ValueError):
        Sig("")


def test_operator_sugar_builds_tree():
    expr = (Sig("a") + 3) * Sig("b")
    assert expr.eval({"a": 2, "b": 10}) == 50


def test_comparison_returns_expr():
    expr = Sig("a") == 5
    assert isinstance(expr, BinOp)
    assert expr.eval({"a": 5}) == 1
    assert expr.eval({"a": 4}) == 0


def test_reflected_operators():
    assert (3 + Sig("a")).eval({"a": 4}) == 7
    assert (10 - Sig("a")).eval({"a": 4}) == 6
    assert (3 * Sig("a")).eval({"a": 4}) == 12


def test_shift_and_bitwise():
    env = {"a": 0b1010}
    assert (Sig("a") >> 1).eval(env) == 0b101
    assert (Sig("a") << 2).eval(env) == 0b101000
    assert (Sig("a") & 0b0110).eval(env) == 0b0010
    assert (Sig("a") | 0b0101).eval(env) == 0b1111
    assert (Sig("a") ^ 0b1111).eval(env) == 0b0101


def test_division_by_zero_yields_zero():
    assert BinOp("div", Sig("a"), Sig("b")).eval({"a": 5, "b": 0}) == 0
    assert BinOp("mod", Sig("a"), Sig("b")).eval({"a": 5, "b": 0}) == 0


def test_unop_not_and_bool():
    assert UnOp("not", Sig("a")).eval({"a": 0}) == 1
    assert UnOp("not", Sig("a")).eval({"a": 3}) == 0
    assert UnOp("bool", Sig("a")).eval({"a": 3}) == 1


def test_mux_selects():
    expr = Mux(Sig("s"), 10, 20)
    assert expr.eval({"s": 1}) == 10
    assert expr.eval({"s": 0}) == 20


def test_memread_in_range_and_out_of_range():
    env = {"__mem__m": [5, 6, 7], "i": 1}
    assert MemRead("m", Sig("i")).eval(env) == 6
    env["i"] = 99
    assert MemRead("m", Sig("i")).eval(env) == 0


def test_signals_collects_all_references():
    expr = Mux(Sig("s"), Sig("a") + Sig("b"), MemRead("m", Sig("i")))
    assert expr.signals() == {"s", "a", "b", "i", "__mem__m"}


def test_min_max_helpers():
    assert minimum(Sig("a"), 3).eval({"a": 5}) == 3
    assert maximum(Sig("a"), 3).eval({"a": 5}) == 5


def test_all_of_any_of():
    env = {"a": 2, "b": 0}
    assert all_of(Sig("a"), Sig("b")).eval(env) == 0
    assert any_of(Sig("a"), Sig("b")).eval(env) == 1
    with pytest.raises(ValueError):
        all_of()


def test_wrap_rejects_junk():
    with pytest.raises(TypeError):
        wrap(3.14)


def test_walk_visits_every_node():
    expr = (Sig("a") + 1) * (Sig("b") - 2)
    kinds = [type(node).__name__ for node in walk(expr)]
    assert kinds.count("BinOp") == 3
    assert kinds.count("Sig") == 2
    assert kinds.count("Const") == 2
