import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

import oracles
from rkhs_cert.functions import (
    kernel_section,
    make_constant,
    make_expression_function,
    make_paper_example,
    make_polynomial,
    make_sin_squared_shifted,
    tail_lower_bound,
)
from rkhs_cert.kernels import make_gaussian
from rkhs_cert.sequences import triangular_sequence

BITS = (53, 256)
PAPER_SOURCE = "exp(-sin(x)**2 + 1/sqrt(1 + x*x))"


def test_constant_tails():
    f = make_constant(-2.5)
    for bits in BITS:
        with workprec(bits):
            assert f.eval_mp(17.0) == -2.5
    assert f.tail_pos.alpha == 2.5 and f.tail_pos.sign == -1
    assert f.tail_neg.alpha == 2.5 and f.tail_neg.sign == -1
    zero = make_constant(0.0)
    assert zero.tail_pos is None and zero.tail_neg is None


@pytest.mark.parametrize(
    "build", [lambda: make_constant(math.inf), lambda: make_polynomial([1.0, math.nan])]
)
def test_non_finite_values_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_constant_polynomial_keeps_full_alpha():
    f = make_polynomial([1.0])
    assert f.tail_pos.alpha == 1.0
    assert f.tail_pos.sign == 1


def test_linear_polynomial_tails():
    f = make_polynomial([-6.0, 1.0])  # x - 6
    for bits in BITS:
        with workprec(bits):
            assert f.eval_mp(2.0) == -4.0
    assert f.tail_pos.threshold == 7.0
    assert 0 < f.tail_pos.alpha <= 1.0
    assert f.tail_pos.sign == 1
    assert f.tail_neg.sign == -1
    # the bound must actually hold on a spot check beyond the threshold
    for x in (7.0, 10.0, 1e3):
        for bits in BITS:
            with workprec(bits):
                assert abs(f.eval_mp(x)) >= f.tail_pos.alpha
                assert abs(f.eval_mp(-x)) >= f.tail_neg.alpha


def test_polynomial_trailing_zeros_trimmed():
    f = make_polynomial([2.0, 0.0, 0.0])
    assert f.function_id == "poly:2.0"
    assert f.tail_pos.alpha == 2.0


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_paper_example_matches_reference(x):
    f = make_paper_example()
    for bits in BITS:
        with workprec(bits):
            v = f.eval_mp(x)
            assert v == oracles.reference_mp(PAPER_SOURCE, "x", mpmath.mpf(x))
            assert abs(v - mpmath.mpf(oracles.paper_f_double(x))) <= mpmath.mpf(2) ** -50 * v


def test_paper_example_frozen_values():
    f = make_paper_example()
    with workprec(53):
        assert f.eval_mp(0.0) == oracles.PAPER_F_AT_0
    with workprec(256):
        assert abs(f.eval_mp(0.0) - mpmath.e) <= mpmath.mpf(2) ** -254
    assert f.tail_pos.alpha == oracles.PAPER_ALPHA
    assert f.tail_pos.sign == 1 and f.tail_neg.sign == 1


def test_paper_example_declared_alpha_is_below_its_infimum():
    # inf f = exp(-1) on the line; math.exp(-1.0) is the double above it
    f = make_paper_example()
    with workprec(320):
        assert mpmath.mpf(f.tail_pos.alpha) < mpmath.exp(-1)
        assert mpmath.mpf(f.tail_neg.alpha) < mpmath.exp(-1)
        assert mpmath.mpf(math.exp(-1.0)) > mpmath.exp(-1)


@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
def test_paper_example_bounds_hold(x):
    f = make_paper_example()
    for bits in BITS:
        with workprec(bits):
            v = f.eval_mp(x)
            assert oracles.PAPER_ALPHA * (1 - 1e-15) <= v <= math.e * (1 + 1e-15)


def test_sin_squared_shifted_integer_values():
    f = make_sin_squared_shifted()
    with workprec(256):
        for n in (1, 3, 6, 10, 5050):
            assert f.eval_mp(n) == 1
        assert abs(f.eval_mp(mpmath.mpf(1) / 2)) < mpmath.mpf(2) ** -200
    assert f.tail_pos is None and f.tail_neg is None


def test_expression_function():
    f = make_expression_function("x*x - 1")
    assert f.function_id == "expr:x*x - 1"
    for bits in BITS:
        with workprec(bits):
            assert f.eval_mp(3.0) == 8


def test_kernel_section_evaluates_kernel():
    k = make_gaussian()
    f = kernel_section(k, 0.0)
    for bits in BITS + (128,):
        with workprec(bits):
            assert f.eval_mp(2) == k.eval_mp(2, 0)


def test_tail_lower_bound_requires_two_points():
    f = make_paper_example()
    seq = triangular_sequence(1)
    with pytest.raises(ValueError):
        tail_lower_bound(f, seq, 1, 1)


def test_tail_lower_bound_paper_example():
    f = make_paper_example()
    seq = triangular_sequence(1)
    tail = tail_lower_bound(f, seq, 1, 32)
    assert tail is not None
    assert tail.sign == 1
    assert tail.provenance == "empirical"
    # every sampled point satisfies f >= exp(-1), so the sampled min does too
    assert tail.alpha >= oracles.PAPER_ALPHA * (1 - 1e-15)


def test_tail_lower_bound_mixed_signs_returns_none():
    f = make_polynomial([-6.0, 1.0])  # negative at x_1..x_2, positive later
    seq = triangular_sequence(1)
    assert tail_lower_bound(f, seq, 1, 8) is None


def test_tail_lower_bound_zero_returns_none():
    f = make_constant(0.0)
    seq = triangular_sequence(1)
    assert tail_lower_bound(f, seq, 1, 4) is None


@given(
    start=st.integers(min_value=1, max_value=5),
    short=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_tail_lower_bound_monotone_in_count(start, short, extra):
    f = make_paper_example()
    seq = triangular_sequence(1)
    a_short = tail_lower_bound(f, seq, start, short)
    a_long = tail_lower_bound(f, seq, start, short + extra)
    assert a_short is not None and a_long is not None
    assert a_long.alpha <= a_short.alpha * (1 + 1e-15)

