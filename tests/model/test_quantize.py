"""Fixed-point quantization tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.model import LinearPredictor
from repro.model.quantize import (
    FixedPointFormat,
    QuantizedPredictor,
    quantization_sweep,
    quantize_predictor,
)


def make_predictor():
    return LinearPredictor(
        ("a", "b", "c"),
        np.array([12.625, -0.375, 0.0]),
        intercept=1000.5,
    )


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(integer_bits=0)
    with pytest.raises(ValueError):
        FixedPointFormat(fraction_bits=-1)


def test_exact_representation_roundtrip():
    fmt = FixedPointFormat(fraction_bits=3)  # eighths
    assert fmt.dequantize(fmt.quantize(12.625)) == 12.625
    assert fmt.dequantize(fmt.quantize(-0.375)) == -0.375


def test_quantize_truncates_fine_fractions():
    fmt = FixedPointFormat(fraction_bits=1)  # halves only
    assert fmt.dequantize(fmt.quantize(0.375)) == 0.5


def test_saturation():
    fmt = FixedPointFormat(integer_bits=4, fraction_bits=0)
    assert fmt.quantize(10_000) == 15
    assert fmt.quantize(-10_000) == -16


def test_quantized_predictor_matches_float_when_exact():
    predictor = make_predictor()
    q = quantize_predictor(predictor, FixedPointFormat(fraction_bits=3))
    x = np.array([100.0, 200.0, 5.0])
    assert q.predict_one(x) == pytest.approx(predictor.predict_one(x))
    assert q.n_terms == 2
    assert q.coefficient_error(predictor) == 0.0


def test_predict_matrix_shapes():
    q = quantize_predictor(make_predictor())
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = q.predict(x)
    assert out.shape == (2,)


def test_integer_arithmetic_only():
    """The MAC accumulator stays integral until the final shift."""
    predictor = make_predictor()
    fmt = FixedPointFormat(fraction_bits=4)
    q = quantize_predictor(predictor, fmt)
    x = [3, 7, 11]
    acc = q.raw_intercept + sum(int(v) * c
                                for v, c in zip(x, q.raw_coeffs))
    assert q.predict_one(x) == acc / fmt.scale


@given(st.integers(0, 12))
def test_more_fraction_bits_never_hurt(bits):
    predictor = make_predictor()
    x = np.array([[50.0, 60.0, 70.0], [1.0, 2.0, 3.0]])
    coarse = quantize_predictor(predictor,
                                FixedPointFormat(fraction_bits=bits))
    fine = quantize_predictor(predictor,
                              FixedPointFormat(fraction_bits=bits + 4))
    ref = predictor.predict(x)
    err_coarse = np.max(np.abs(coarse.predict(x) - ref))
    err_fine = np.max(np.abs(fine.predict(x) - ref))
    assert err_fine <= err_coarse + 1e-9


def test_quantization_sweep_monotone():
    predictor = make_predictor()
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1000, size=(50, 3)).astype(float)
    points = quantization_sweep(predictor, x)
    errors = [e for _, e in points]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 0.01  # 12 fraction bits: essentially exact
