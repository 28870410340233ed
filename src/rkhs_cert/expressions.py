"""Whitelisted arithmetic expressions, compiled for extended precision.

One small grammar defines every built-in radial profile (variable ``r``) and
built-in candidate function (variable ``x``), and serves custom profiles,
``expr:`` functions and custom point sequences (variable ``n``) alike:
numeric literals, the single free variable, ``+ - * /``, unary minus,
``pow(base, integer_literal)`` or ``base ** integer_literal``, and the calls
``exp``, ``sin``, ``cos``, ``sqrt``, ``abs`` and ``sinpi`` (sin(pi * t)).
Anything else is rejected before compilation, so config files cannot smuggle
in attribute access, names or general Python.

A validated tree is compiled once into a plain Python function whose
namespace holds only mpmath's low-level ``libmp`` routines and the literals,
converted in advance where that is exact.  It is the one numeric definition
of the expression: a value wanted as a double (a custom sequence's point, a
polynomial's tail bound) is this function's value at 53 bits, converted.
The function calls the routines on raw ``_mpf_`` values, reading the working
precision and rounding once per call from ``mpmath.mp._prec_rounding``:

    ``+ - * /``  mpf_add, mpf_sub, mpf_mul, mpf_div
    unary ``-``  mpf_neg
    ``** k``     mpf_pow_int (k a Python int)
    exp, sin, cos, sqrt, abs, sinpi
                 mpf_exp, mpf_sin, mpf_cos, mpf_sqrt, mpf_abs, mpf_sin_pi
    literals     raw values converted once at 53 bits (exact); integers of
                 2^53 or more through from_int at the call's precision

These are the routines that mpmath's ``mpf`` operators and ``mpmath.exp``
and friends call, with the same arguments, so every result is bit-identical
to evaluating the expression on ``mpf`` objects; only the wrapper objects
between the operations are gone.  One difference is deliberate: where the
``mpf`` wrappers silently continue in complex arithmetic (``sqrt`` of a
negative number), the compiled function raises ``ComplexResult``, a
``ValueError``.  A body that is only the variable or one literal returns its
argument or one shared mpf.  ``Expression.reads_variable`` records whether
the tree names its variable at all; one that does not has the same value at
every point, so a caller may evaluate it once per precision.

The same lowered tree also compiles to an interval function on ``mpmath.iv``,
each operation its ``iv`` counterpart (``sinpi(t)`` is ``iv.sin(iv.pi * t)``;
mpmath 1.3.0 has no ``iv.sinpi``) and each literal its exact interval.  It
encloses the expression's values on the interval it is given, at ``iv.prec``,
or raises (``sqrt`` of an interval reaching below 0).  It does not see that
``e * e`` is a square, so over an interval straddling 0 the enclosure is wide.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, List

import mpmath
from mpmath import iv, libmp

from .errors import ExpressionError


_FUNCS = ("exp", "sin", "cos", "sqrt", "abs", "sinpi")

# The libmp routine behind each operator and whitelisted function; each takes
# raw values and then (precision, rounding).
_LIBMP_OPS = {ast.Add: "mpf_add", ast.Sub: "mpf_sub", ast.Mult: "mpf_mul", ast.Div: "mpf_div"}
_LIBMP_CALLS = {
    "exp": "mpf_exp",
    "sin": "mpf_sin",
    "cos": "mpf_cos",
    "sqrt": "mpf_sqrt",
    "abs": "mpf_abs",
    "sinpi": "mpf_sin_pi",
    "_num": "from_int",
}
_LIBMP_NAMESPACE = {
    name: getattr(libmp, name)
    for name in (*_LIBMP_OPS.values(), *_LIBMP_CALLS.values(), "mpf_neg", "mpf_pow_int")
}

# The interval counterpart of each whitelisted call.
_IV_NAMESPACE = {
    "exp": iv.exp, "sin": iv.sin, "cos": iv.cos, "sqrt": iv.sqrt, "abs": abs, "_num": iv.mpf,
    "sinpi": lambda t: iv.sin(iv.pi * t),
}

_make_mpf = mpmath.mp.make_mpf


def as_mpf(x: Any) -> Any:
    """``x`` as an mpf at the working precision, without copying one that already is.

    An mpf whose mantissa fits the working precision converts to an equal
    value, so it is returned unchanged.  An ``int`` goes straight to
    ``from_int`` at the working precision and rounding, the call the ``mpf``
    constructor makes for it, so its ``_mpf_`` is the constructor's without
    the constructor's dispatch.  Anything else goes through ``mpf``, which
    rounds it.
    """
    if type(x) is mpmath.mpf and x._mpf_[3] <= mpmath.mp._prec_rounding[0]:
        return x
    if type(x) is int:
        return _make_mpf(libmp.from_int(x, *mpmath.mp._prec_rounding))
    return mpmath.mpf(x)


_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY_OPS = (ast.USub, ast.UAdd)

# Floats and integers below 2^53 in magnitude are exact as mpf at 53 bits or
# more, so they convert once at compile time.  Wider integers round, so they
# convert on each call at the caller's precision.
_EXACT_INT_LIMIT = 2**53


def _literal_int(node: ast.expr) -> int | None:
    """Return the value of an integer literal node (allowing a sign), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY_OPS):
        inner = _literal_int(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _validate(node: ast.expr, variable: str) -> None:
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ExpressionError(f"literal {node.value!r} is not a real number")
        return
    if isinstance(node, ast.Name):
        if node.id != variable:
            raise ExpressionError(f"unknown name {node.id!r}; the only variable is {variable!r}")
        return
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARY_OPS):
            raise ExpressionError("only unary +/- are allowed")
        _validate(node.operand, variable)
        return
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BIN_OPS):
            raise ExpressionError("only + - * / and integer ** are allowed")
        if isinstance(node.op, ast.Pow) and _literal_int(node.right) is None:
            raise ExpressionError("exponents must be integer literals")
        _validate(node.left, variable)
        if not isinstance(node.op, ast.Pow):
            _validate(node.right, variable)
        return
    if isinstance(node, ast.Call):
        if node.keywords or not isinstance(node.func, ast.Name):
            raise ExpressionError("only plain calls of whitelisted functions are allowed")
        name = node.func.id
        if name == "pow":
            if len(node.args) != 2:
                raise ExpressionError("pow takes exactly two arguments")
            if _literal_int(node.args[1]) is None:
                raise ExpressionError("pow exponents must be integer literals")
            _validate(node.args[0], variable)
            return
        if name not in _FUNCS:
            raise ExpressionError(f"function {name!r} is not in the whitelist")
        if len(node.args) != 1:
            raise ExpressionError(f"{name} takes exactly one argument")
        _validate(node.args[0], variable)
        return
    raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")


def _lower(node: ast.expr, literals: List[Any]) -> ast.expr:
    """Rewrite a validated tree over named literals; append each literal to ``literals``.

    Literal ``i`` becomes the name ``_k<i>``, a wide integer a call of
    ``_num``; unary plus disappears and every power becomes ``base ** int``.
    """
    if isinstance(node, ast.Constant):
        if type(node.value) is int and abs(node.value) >= _EXACT_INT_LIMIT:
            return ast.Call(ast.Name("_num", ast.Load()), [ast.Constant(node.value)], [])
        literals.append(node.value)
        return ast.Name(f"_k{len(literals) - 1}", ast.Load())
    if isinstance(node, ast.Name):
        return ast.Name(node.id, ast.Load())
    if isinstance(node, ast.UnaryOp):
        operand = _lower(node.operand, literals)
        return ast.UnaryOp(ast.USub(), operand) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call) and node.func.id == "pow":  # type: ignore[union-attr]
        node = ast.BinOp(node.args[0], ast.Pow(), node.args[1])
    if isinstance(node, ast.BinOp):
        left = _lower(node.left, literals)
        if isinstance(node.op, ast.Pow):
            # The exponent stays a Python int.
            return ast.BinOp(left, ast.Pow(), ast.Constant(_literal_int(node.right)))
        return ast.BinOp(left, node.op, _lower(node.right, literals))
    # Validation admits nothing else: a call of a whitelisted function.
    return ast.Call(ast.Name(node.func.id, ast.Load()), [_lower(node.args[0], literals)], [])  # type: ignore[union-attr]


def _libmp_call(routine: str, *args: ast.expr) -> ast.expr:
    extra = [ast.Name("_prec", ast.Load()), ast.Name("_rnd", ast.Load())]
    return ast.Call(ast.Name(routine, ast.Load()), [*args, *extra], [])


def _libmp_tree(node: ast.expr) -> ast.expr:
    """A lowered tree rewritten as nested libmp calls over raw values.

    Names (the variable and the literals) stand for raw values; every other
    node becomes its routine, called with ``_prec`` and ``_rnd`` appended.
    """
    if isinstance(node, ast.Name):
        return node
    if isinstance(node, ast.UnaryOp):
        return _libmp_call("mpf_neg", _libmp_tree(node.operand))
    if isinstance(node, ast.BinOp):
        left = _libmp_tree(node.left)
        if isinstance(node.op, ast.Pow):
            return _libmp_call("mpf_pow_int", left, node.right)
        return _libmp_call(_LIBMP_OPS[type(node.op)], left, _libmp_tree(node.right))
    # A whitelisted call, or _num of a wide integer literal.
    arg = node.args[0]  # type: ignore[attr-defined]
    name = node.func.id  # type: ignore[attr-defined]
    return _libmp_call(_LIBMP_CALLS[name], arg if name == "_num" else _libmp_tree(arg))


@dataclass(frozen=True)
class Expression:
    """A validated single-variable expression, compiled to one function.

    ``fn_mp`` takes an mpf and returns one, computed under whatever working
    precision the caller has set; ``eval_mp`` converts its argument first.
    No literal is rounded below 53 bits.  ``fn_iv`` takes an ``mpmath.iv``
    interval and returns an enclosure of the expression's values on it,
    computed at ``iv.prec``.  ``reads_variable`` is False when the tree never
    names the variable: the value then depends on the working precision
    alone, not on the point.
    """

    source: str
    variable: str
    fn_mp: Callable[[Any], Any] = field(repr=False, compare=False)
    fn_iv: Callable[[Any], Any] = field(repr=False, compare=False)
    reads_variable: bool = True

    def eval_mp(self, value: Any) -> Any:
        return self.fn_mp(as_mpf(value))


def compile_expression(source: str, variable: str) -> Expression:
    """Parse and validate ``source`` against the whitelist grammar, then compile it.

    Raises ExpressionError for syntax errors, unknown names, non-integer
    exponents or any construct outside the grammar.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("expression must be a nonempty string")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {source!r}: {exc.msg}") from exc
    _validate(tree.body, variable)
    literals: List[Any] = []
    body = _lower(tree.body, literals)
    # The lowered tree's names are the variable, the literals _k<i> and the
    # called functions; a function named like the variable counts as a read,
    # which costs evaluations but never changes a value.
    reads_variable = any(isinstance(node, ast.Name) and node.id == variable for node in ast.walk(body))
    # Pinned, so no literal depends on the precision in force right now.
    with mpmath.workprec(53):
        constants = [mpmath.mpf(v) for v in literals]
    if isinstance(body, ast.Name):
        # The variable itself, or one literal: its one shared mpf, no arithmetic.
        fn_source = f"def _fn({variable}):\n    return {body.id}\n"
    else:
        constants = [k._mpf_ for k in constants]
        fn_source = (
            f"def _fn({variable}):\n"
            "    _prec, _rnd = _prec_rounding\n"
            f"    {variable} = {variable}._mpf_\n"
            f"    return _make_mpf({ast.unparse(_libmp_tree(body))})\n"
        )
    namespace = {
        "__builtins__": {},
        "_prec_rounding": mpmath.mp._prec_rounding,
        "_make_mpf": mpmath.mp.make_mpf,
        **_LIBMP_NAMESPACE,
        **{f"_k{i}": k for i, k in enumerate(constants)},
    }
    exec(compile(fn_source, f"<expression {source!r}>", "exec"), namespace)
    iv_literals = {f"_k{i}": iv.mpf(v) for i, v in enumerate(literals)}
    iv_namespace = {"__builtins__": {}, **_IV_NAMESPACE, **iv_literals}
    iv_source = f"def _fn({variable}):\n    return {ast.unparse(body)}\n"
    exec(compile(iv_source, f"<interval expression {source!r}>", "exec"), iv_namespace)
    return Expression(
        source=source,
        variable=variable,
        fn_mp=namespace["_fn"],
        fn_iv=iv_namespace["_fn"],
        reads_variable=reads_variable,
    )
