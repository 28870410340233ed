import math

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf, workprec

from rkhs_cert.errors import ExpressionError
from rkhs_cert.expressions import as_mpf, compile_expression


def test_basic_arithmetic():
    e = compile_expression("2*x + 1", "x")
    assert e.eval_double(3.0) == 7.0
    assert e.eval_mp(3) == 7


def test_whitelisted_calls():
    e = compile_expression("exp(-x) + sin(x)*cos(x) + sqrt(abs(x))", "x")
    x = 1.7
    expected = math.exp(-x) + math.sin(x) * math.cos(x) + math.sqrt(abs(x))
    assert e.eval_double(x) == pytest.approx(expected, rel=1e-15)


def test_pow_integer_exponent():
    e = compile_expression("pow(x, 3) + x**2", "x")
    assert e.eval_double(2.0) == 12.0
    e2 = compile_expression("pow(x, -1)", "x")
    assert e2.eval_double(4.0) == 0.25


def test_integer_literals_stay_exact_in_mp():
    # 1/3 must be formed at working precision, not via double division
    e = compile_expression("1/3", "x")
    with workprec(256):
        v = e.eval_mp(0)
        assert abs(v - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -250


def test_variable_name_is_enforced():
    compile_expression("n*n", "n")
    with pytest.raises(ExpressionError):
        compile_expression("x*n", "n")


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.real",
        "lambda y: y",
        "[1,2]",
        "x if x else 0",
        "pow(x, x)",
        "x**0.5",
        "pow(x, 2.5)",
        "log(x)",
        "exp(x, 2)",
        "",
        "1 +",
        "f'{x}'",
        "'a'",
    ],
)
def test_rejects_non_whitelisted(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, "x")


@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_double_and_mp_paths_agree(x):
    e = compile_expression("exp(-x*x) + 2*x - 1/4", "x")
    d = e.eval_double(x)
    with workprec(128):
        m = e.eval_mp(x)
        assert abs(m - mpmath.mpf(d)) <= mpmath.mpf(1e-12) * (1 + abs(m))


def test_division_by_zero_raises():
    e = compile_expression("1/x", "x")
    with pytest.raises(ZeroDivisionError):
        e.eval_double(0.0)


def test_literals_do_not_depend_on_compile_precision():
    # 2^53 + 1 is not a double; it must not round at the 53 bits in force
    # when the expression is compiled, nor may 0.1 round at 20 bits.
    wide = compile_expression("x + 9007199254740993", "x")
    with workprec(20):
        tenth = compile_expression("x + 0.1", "x")
    with workprec(256):
        assert wide.eval_mp(0) - 2**53 == 1
        assert tenth.eval_mp(0) == mpmath.mpf(0.1)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_sinpi_agrees_across_contexts(t):
    e = compile_expression("sinpi(x)", "x")
    with workprec(128):
        assert abs(e.eval_mp(t) - mpmath.mpf(e.eval_double(t))) <= mpmath.mpf(1e-14)


def test_sinpi_vanishes_exactly_at_integers_in_mp():
    e = compile_expression("sinpi(x)", "x")
    with workprec(256):
        assert all(e.eval_mp(n) == 0 for n in (-3, 0, 1, 10**6))


@pytest.mark.parametrize("internal", ["_k0", "_k0 + x", "_num(1)", "__builtins__", "pow", "exp", "exp(x)(x)"])
def test_rejects_compiler_internal_names(internal):
    with pytest.raises(ExpressionError):
        compile_expression(internal, "x")


@pytest.mark.parametrize("bits", [64, 256])
def test_as_mpf_equals_mpf(bits):
    with workprec(400):
        wide = mpf(1) / 3
    inputs = [7, 2**300 + 1, 0.1, "0.1", wide, math.inf, -math.inf, math.nan]
    inputs += [mpf("inf"), mpf("-inf"), mpf("nan"), mpmath.pi, 0]
    with workprec(bits):
        narrow = mpf(1) / 7
        for x in inputs + [narrow]:
            assert as_mpf(x)._mpf_ == mpf(x)._mpf_, x
        assert as_mpf(narrow) is narrow
        assert as_mpf(wide)._mpf_ != wide._mpf_  # a wider mpf still rounds
