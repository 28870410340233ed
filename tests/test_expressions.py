import ast
import math
import re

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import iv, mpf, nstr, workprec

import oracles
from rkhs_cert.errors import EvaluationError, ExpressionError
from rkhs_cert.expressions import as_mpf, compile_expression
from rkhs_cert.functions import make_expression_function


def test_basic_arithmetic():
    e = compile_expression("2*x + 1", "x")
    assert e.eval_mp(3.0) == 7
    assert e.eval_mp(3) == 7


def test_whitelisted_calls():
    e = compile_expression("exp(-x) + sin(x)*cos(x) + sqrt(abs(x))", "x")
    x = 1.7
    expected = math.exp(-x) + math.sin(x) * math.cos(x) + math.sqrt(abs(x))
    with workprec(53):
        assert float(e.eval_mp(x)) == pytest.approx(expected, rel=1e-15)


def test_pow_integer_exponent():
    e = compile_expression("pow(x, 3) + x**2", "x")
    assert e.eval_mp(2.0) == 12
    e2 = compile_expression("pow(x, -1)", "x")
    assert e2.eval_mp(4.0) == 0.25


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


def _disallowed(source):
    # the node is named by ast.dump, whose format varies with the Python version
    return f"disallowed syntax: {ast.dump(ast.parse(source, mode='eval').body)}"


@pytest.mark.parametrize(
    "bad,message",
    [
        ("__import__('os')", "function '__import__' is not in the whitelist"),
        ("x.real", _disallowed("x.real")),
        ("lambda y: y", _disallowed("lambda y: y")),
        ("[1,2]", _disallowed("[1,2]")),
        ("x if x else 0", _disallowed("x if x else 0")),
        ("pow(x, x)", "pow exponents must be integer literals"),
        ("x**0.5", "exponents must be integer literals"),
        ("pow(x, 2.5)", "pow exponents must be integer literals"),
        ("log(x)", "function 'log' is not in the whitelist"),
        ("exp(x, 2)", "exp takes exactly one argument"),
        ("", "expression must be a nonempty string"),
        ("1 +", "cannot parse expression '1 +': invalid syntax"),
        ("f'{x}'", _disallowed("f'{x}'")),
        ("'a'", "literal 'a' is not a real number"),
        # two defects: a rule before the node's operands, an exponent before
        # its base, a left operand before the right
        ("y ** 2.5", "exponents must be integer literals"),
        ("pow(y, 2.5)", "pow exponents must be integer literals"),
        ("y ** -x", "exponents must be integer literals"),
        ("-y ** 0.5", "exponents must be integer literals"),
        ("y + log(x)", "unknown name 'y'; the only variable is 'x'"),
        ("'a' + y", "literal 'a' is not a real number"),
        ("~y", "only unary +/- are allowed"),
        ("y % 2", "only + - * / and integer ** are allowed"),
        ("sin(y, 2)", "sin takes exactly one argument"),
        ("log(y)", "function 'log' is not in the whitelist"),
        ("pow(y)", "pow takes exactly two arguments"),
        ("exp(x)(x)", "only plain calls of whitelisted functions are allowed"),
        ("exp(y, x=1)", "only plain calls of whitelisted functions are allowed"),
        ("_num(1)", "function '_num' is not in the whitelist"),
        ("x + 1e999", "a literal is too large for a double: it reads as inf"),
        # a source of up to 60 characters is quoted whole, a longer one by its first 60 and its length
        pytest.param(
            "(" + "x+" * 29, "cannot parse expression " + repr("(" + "x+" * 29) + ": '(' was never closed",
            id="59 characters",
        ),
        pytest.param(
            "x + " * 100 + "(", f"cannot parse expression {'x + ' * 15!r}... (401 characters): '(' was never closed",
            id="401 characters",
        ),
        pytest.param(
            "+".join(["x"] * 3000), f"expression {'x+' * 30!r}... (5999 characters) nests too deeply to compile",
            id="5999 characters",
        ),
    ],
)
def test_rejection_messages_are_pinned(bad, message):
    with pytest.raises(ExpressionError) as info:
        compile_expression(bad, "x")
    assert str(info.value) == message


def test_division_by_zero_raises():
    e = compile_expression("1/x", "x")
    with pytest.raises(ZeroDivisionError):
        e.eval_mp(0.0)


def test_literals_do_not_depend_on_compile_precision():
    # 2^53 + 1 is not a double; it must not round at the 53 bits in force
    # when the expression is compiled, nor may 0.1 round at 20 bits.
    wide = compile_expression("x + 9007199254740993", "x")
    with workprec(20):
        tenth = compile_expression("x + 0.1", "x")
    with workprec(256):
        assert wide.eval_mp(0) - 2**53 == 1
        assert tenth.eval_mp(0) == mpmath.mpf(0.1)


def test_an_integer_literal_beyond_the_double_range_compiles_exactly():
    # 2^1100 + 1 is finite as a Python int but overflows a double, so only
    # float literals may be refused as non-finite.
    huge = compile_expression("x + " + str(2**1100 + 1), "x")
    with workprec(1200):
        assert huge.eval_mp(0) - mpmath.mpf(2) ** 1100 == 1


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


# --- the extended context against the mpf reference walker ---------------------

_LEAVES = st.one_of(
    st.just("x"),
    st.integers(min_value=0, max_value=40).map(str),
    st.integers(min_value=-3, max_value=60).map(lambda k: str(2**53 + k)),
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(repr),
)


def _extend(children):
    unary = st.sampled_from(["exp", "sin", "cos", "sqrt", "abs", "sinpi", "-", "+"])
    ops = st.sampled_from(["+", "-", "*", "/"])
    powers = st.integers(min_value=-3, max_value=5)
    return st.one_of(
        st.tuples(children, ops, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(unary, children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, powers).map(lambda t: f"({t[0]})**{t[1]}"),
        st.tuples(children, powers).map(lambda t: f"pow({t[0]}, {t[1]})"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=6)
_POINTS = st.one_of(
    st.floats(min_value=-60, max_value=60, allow_nan=False),
    st.integers(min_value=-100, max_value=100),
)


@settings(max_examples=300, deadline=None)
@given(source=_EXPRESSIONS, x=_POINTS, bits=st.sampled_from([64, 256]))
def test_compiled_mp_context_matches_mpf_reference(source, x, bits):
    fn_mp = compile_expression(source, "x").fn_mp
    with workprec(bits):
        point = as_mpf(x)
        try:
            expected = oracles.reference_mp(source, "x", point)
        except oracles.TooLarge:
            assume(False)
        except (ZeroDivisionError, ValueError) as exc:
            with pytest.raises(type(exc) if isinstance(exc, ZeroDivisionError) else ValueError):
                fn_mp(point)
            return
        assert fn_mp(point)._mpf_ == expected._mpf_


@settings(max_examples=300, deadline=None)
@given(source=_EXPRESSIONS, x=_POINTS, bits=st.sampled_from([64, 256]))
def test_interval_function_encloses_the_mp_value(source, x, bits):
    # each iv operation encloses the directed roundings of its exact result,
    # so by induction it encloses every nearest-rounded mp intermediate
    expr = compile_expression(source, "x")
    with workprec(bits):
        point = as_mpf(x)
        try:
            oracles.reference_mp(source, "x", point)
            value = expr.fn_mp(point)
        except (oracles.TooLarge, ZeroDivisionError, ValueError):
            assume(False)
        saved, iv.prec = iv.prec, bits
        try:
            enclosure = expr.fn_iv(iv.mpf([point, point]))
        except (ZeroDivisionError, ValueError):
            return  # no enclosure, which callers read as no bound
        finally:
            iv.prec = saved
        assert value in enclosure


@pytest.mark.parametrize("source,x", [("sqrt(x)", -4), ("abs(sqrt(x))", -4), ("cos(sqrt(x - 10))", 1)])
def test_complex_intermediate_raises(source, x):
    e = compile_expression(source, "x")
    with workprec(256):
        with pytest.raises(ValueError, match="square root of a negative number"):
            e.eval_mp(x)


@pytest.mark.parametrize(
    "source,reads",
    [("x", True), ("0*x", True), ("exp(-x)", True), ("pow(x, 2)", True), ("sinpi(x + 1/2)**2", True),
     ("1.0", False), ("1/3", False), ("exp(-1) + 2**3", False), ("pow(2, 60)", False),
     ("9007199254740993", False)],
)
def test_reads_variable_is_derived_from_the_tree(source, reads):
    assert compile_expression(source, "x").reads_variable is reads


def test_bare_literal_returns_one_shared_mpf():
    """A bare literal or variable runs the one compiled template: the literal's
    53-bit raw value at every point and precision, the argument's raw value."""
    for source in ("2.5", "7"):
        e = compile_expression(source, "x")
        with workprec(53):
            expected = mpf(source)._mpf_
        for bits in (64, 256):
            with workprec(bits):
                assert e.eval_mp(1)._mpf_ == e.eval_mp(3)._mpf_ == expected
    ident = compile_expression("x", "x")
    with workprec(256):
        point = mpf(1) / 3
        assert ident.fn_mp(point)._mpf_ == point._mpf_


_CLOSED_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.integers(min_value=-3, max_value=60).map(lambda k: str(2**53 + k)),
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(repr),
)
_CLOSED_EXPRESSIONS = st.recursive(_CLOSED_LEAVES, _extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(
    source=st.one_of(_EXPRESSIONS, _CLOSED_EXPRESSIONS),
    window=st.lists(_POINTS, max_size=4),
    kind=st.sampled_from(["int", "float", "mpf"]),
    bits=st.sampled_from([64, 256]),
)
def test_values_mp_is_eval_mp_at_each_point(source, window, kind, bits):
    # a function without x is evaluated once per window; the bits must not change
    f = make_expression_function(source)
    assert f.reads_x is bool(re.search(r"\bx\b", source))
    if kind == "int":
        points = [int(x) for x in window]
    elif kind == "float":
        points = [float(x) for x in window]
    else:
        with workprec(300):  # wider than either working precision, so each point rounds
            points = [mpf(x) / 3 for x in window]
    with workprec(bits):
        for point in points:
            try:
                oracles.reference_mp(source, "x", as_mpf(point))
            except oracles.TooLarge:
                assume(False)
            except (ZeroDivisionError, ValueError):
                pass
        expected = []
        for point in points:
            try:
                expected.append(f.eval_mp(point))
            except (ArithmeticError, ValueError):
                with pytest.raises(EvaluationError, match=re.escape(f"at x = {nstr(point, 17)}:")):
                    f.values_mp(points)
                return
        assert [v._mpf_ for v in f.values_mp(points)] == [v._mpf_ for v in expected]


# Links that chain expressions into one deeper tree: flat binary chains (a
# left-leaning tree with no parentheses), prefix signs and nested calls.
_LINKS = ("+", "-", "*", "/", "unary -", "unary +", "exp", "sinpi", "pow")


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(_EXPRESSIONS, min_size=1, max_size=4),
    link=st.sampled_from(_LINKS),
    depth=st.integers(min_value=1, max_value=1000),
)
def test_deep_chains_compile_or_raise_expression_error(parts, link, depth):
    # whatever the depth, the parser's, the walk's or the compiler's limit ends
    # in an ExpressionError, never a RecursionError, SyntaxError or MemoryError
    source = parts[0]
    for i in range(1, depth):
        if link in ("+", "-", "*", "/"):
            source = f"{source} {link} {parts[i % len(parts)]}"
        elif link.startswith("unary"):
            source = link[-1] + source
        elif link == "pow":
            source = f"pow({source}, 2)"
        else:
            source = f"{link}({source})"
    try:
        compile_expression(source, "x")
    except ExpressionError:
        pass
