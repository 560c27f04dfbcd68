"""Span nesting, labels, aggregation, and the no-op fast path."""

import pytest

from repro.obs import NULL_SPAN, Tracer, get_observer, span


def test_span_nesting_and_labels():
    tracer = Tracer()
    with tracer.span("flow", design="aes"):
        with tracer.span("fit", design="aes"):
            pass
        with tracer.span("slice"):
            pass
    # Spans are recorded at exit: children first, parent last.
    names = [s.name for s in tracer.spans]
    assert names == ["fit", "slice", "flow"]
    fit, hw_slice, flow = tracer.spans
    assert flow.depth == 0 and flow.parent is None
    assert fit.depth == 1 and fit.parent == "flow"
    assert hw_slice.depth == 1 and hw_slice.parent == "flow"
    assert fit.labels == {"design": "aes"}
    assert flow.duration >= fit.duration >= 0.0


def test_span_records_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer._stack == []  # stack unwound


def test_aggregate_groups_and_preorders():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    rows = tracer.aggregate()
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("outer", 0, 3), ("inner", 1, 3)]
    outer_total = rows[0][4]
    inner_total = rows[1][4]
    assert outer_total >= inner_total


def test_null_tracer_is_pass_through():
    """Disabled tracing hands out one shared, stateless no-op."""
    assert get_observer() is None
    cm1 = span("anything", design="aes")
    cm2 = span("else")
    assert cm1 is cm2 is NULL_SPAN  # no per-call allocation
    with cm1 as value:
        assert value is None
    # Exceptions propagate (no swallowing in __exit__).
    with pytest.raises(ValueError):
        with span("x"):
            raise ValueError("escapes")


def test_module_level_span_is_noop_without_observer():
    assert get_observer() is None
    assert span("anything", label=1) is NULL_SPAN
