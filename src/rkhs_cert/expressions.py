"""Whitelisted arithmetic expressions, compiled for extended precision.

One small grammar defines every built-in radial profile (variable ``r``) and
built-in candidate function (variable ``x``), and serves custom profiles,
``expr:`` functions and custom point sequences (variable ``n``) alike:
numeric literals, the single free variable, ``+ - * /``, unary minus,
``pow(base, integer_literal)`` or ``base ** integer_literal``, and the calls
``exp``, ``sin``, ``cos``, ``sqrt``, ``abs`` and ``sinpi`` (sin(pi * t)).
Anything else is rejected before compilation, so config files cannot smuggle
in attribute access, names or general Python.

The grammar is written once, in one walk of the parsed tree: each node's rule
is checked where the node is lowered, and the walk returns the node's plain
form and its libmp form side by side.  An expression that nests too deeply
for Python to parse, walk or compile (a few hundred operations, the limit of
the interpreter's recursion and its parser, not one set here) is refused
with an ExpressionError naming it, by its first characters and its length
when it is long.

The libmp form is compiled once into a plain Python function, ``fn_mp``,
whose namespace holds only mpmath's low-level ``libmp`` routines and the
literals, converted in advance where that is exact.  It is the one numeric
definition of the expression: a value wanted as a double (a custom
sequence's point, a polynomial's tail bound) is this function's value at 53
bits, converted.  It takes an mpf, calls the routines on its raw ``_mpf_``
value, reading the working precision and rounding once per call from
``mpmath.mp._prec_rounding``, and makes one mpf of the result:

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
``ValueError``.  Every body compiles to this one template: a body that is
only the variable or one literal returns a new mpf of its raw value.
``Expression.reads_variable`` records whether
the tree names its variable at all; one that does not has the same value at
every point, so a caller may evaluate it once per precision.

The plain form compiles to an interval function on ``mpmath.iv``,
each operation its ``iv`` counterpart (``sinpi(t)`` is ``iv.sin(iv.pi * t)``;
mpmath 1.3.0 has no ``iv.sinpi``) and each literal its exact interval.  It
encloses the expression's values on the interval it is given, at ``iv.prec``,
or raises (``sqrt`` of an interval reaching below 0).  It does not see that
``e * e`` is a square, so over an interval straddling 0 the enclosure is wide.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

import mpmath
from mpmath import iv, libmp

from .errors import ExpressionError


# The libmp routine behind each operator and each whitelisted function (the
# keys of _LIBMP_CALLS are the whitelist); each takes raw values and then
# (precision, rounding).
_LIBMP_OPS = {ast.Add: "mpf_add", ast.Sub: "mpf_sub", ast.Mult: "mpf_mul", ast.Div: "mpf_div"}
_LIBMP_CALLS = {
    "exp": "mpf_exp",
    "sin": "mpf_sin",
    "cos": "mpf_cos",
    "sqrt": "mpf_sqrt",
    "abs": "mpf_abs",
    "sinpi": "mpf_sin_pi",
}
_LIBMP_NAMESPACE = {
    name: getattr(libmp, name)
    for name in (*_LIBMP_OPS.values(), *_LIBMP_CALLS.values(), "mpf_neg", "mpf_pow_int", "from_int")
}

# The interval counterpart of each whitelisted call.
_IV_NAMESPACE = {
    "exp": iv.exp, "sin": iv.sin, "cos": iv.cos, "sqrt": iv.sqrt, "abs": abs, "_num": iv.mpf,
    "sinpi": lambda t: iv.sin(iv.pi * t),
}

_make_mpf = mpmath.mp.make_mpf

# Characters of a source that a refusal quotes; a longer one is named by them and its length.
_QUOTED_CHARS = 60


def interval_abs_bound(fn_iv: Any, lo: Any, hi: Any) -> Any:
    """An upper bound on |g| over [lo, hi], g with interval form ``fn_iv``, as an mpf at the working precision.

    One ``fn_iv`` call on ``iv.mpf([lo, hi])`` (either end may be infinite)
    at ``iv.prec`` equal to the working precision.  ``mpmath.inf`` when
    there is no enclosure: no ``fn_iv``, an operation that raises (``sqrt``
    reaching below 0), or a nan.
    """
    if fn_iv is None:
        return mpmath.inf
    saved, iv.prec = iv.prec, mpmath.mp.prec
    try:
        enclosure = fn_iv(iv.mpf([lo, hi]))
    except (ArithmeticError, ValueError):
        return mpmath.inf
    finally:
        iv.prec = saved
    ends = [_make_mpf(end) for end in enclosure._mpi_]
    if any(map(mpmath.isnan, ends)):
        return mpmath.inf
    return max(map(abs, ends))


def _quoted(source: str) -> str:
    """``source`` as a refusal names it: whole when short, else its first _QUOTED_CHARS and its length."""
    if len(source) <= _QUOTED_CHARS:
        return repr(source)
    return f"{source[:_QUOTED_CHARS]!r}... ({len(source)} characters)"


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


def _name(identifier: str) -> ast.expr:
    return ast.Name(identifier, ast.Load())


def _libmp_call(routine: str, *args: ast.expr) -> ast.expr:
    return ast.Call(_name(routine), [*args, _name("_prec"), _name("_rnd")], [])


def _lower(node: ast.expr, variable: str, literals: List[Any]) -> Tuple[ast.expr, ast.expr]:
    """Check ``node`` against the grammar and lower it: its plain form and its libmp form.

    Both trees name literal ``i`` as ``_k<i>`` (appending its value to
    ``literals``), the variable as itself, and drop unary plus.  The plain
    form, which the interval function runs, calls ``_num`` on a wide integer,
    the whitelisted functions by name and writes every power as
    ``base ** int``; the libmp form calls each construct's routine on raw
    values with ``_prec`` and ``_rnd`` appended.  A rule is checked before
    the node's operands, a power's exponent before its base and a left
    operand before the right, so the first defect met raises ExpressionError.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if type(value) not in (int, float):
            raise ExpressionError(f"literal {value!r} is not a real number")
        if type(value) is float and not math.isfinite(value):
            raise ExpressionError("a literal is too large for a double: it reads as inf")
        if type(value) is int and abs(value) >= _EXACT_INT_LIMIT:
            wide = ast.Constant(value)
            return ast.Call(_name("_num"), [wide], []), _libmp_call("from_int", wide)
        literals.append(value)
        literal = _name(f"_k{len(literals) - 1}")
        return literal, literal
    if isinstance(node, ast.Name):
        if node.id != variable:
            raise ExpressionError(f"unknown name {node.id!r}; the only variable is {variable!r}")
        return node, node
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARY_OPS):
            raise ExpressionError("only unary +/- are allowed")
        plain, raw = _lower(node.operand, variable, literals)
        if isinstance(node.op, ast.UAdd):
            return plain, raw
        return ast.UnaryOp(ast.USub(), plain), _libmp_call("mpf_neg", raw)
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BIN_OPS):
            raise ExpressionError("only + - * / and integer ** are allowed")
        if not isinstance(node.op, ast.Pow):
            left, left_raw = _lower(node.left, variable, literals)
            right, right_raw = _lower(node.right, variable, literals)
            return ast.BinOp(left, node.op, right), _libmp_call(_LIBMP_OPS[type(node.op)], left_raw, right_raw)
        base, exponent = node.left, _literal_int(node.right)
        if exponent is None:
            raise ExpressionError("exponents must be integer literals")
    elif isinstance(node, ast.Call):
        if node.keywords or not isinstance(node.func, ast.Name):
            raise ExpressionError("only plain calls of whitelisted functions are allowed")
        name = node.func.id
        if name != "pow":
            if name not in _LIBMP_CALLS:
                raise ExpressionError(f"function {name!r} is not in the whitelist")
            if len(node.args) != 1:
                raise ExpressionError(f"{name} takes exactly one argument")
            plain, raw = _lower(node.args[0], variable, literals)
            return ast.Call(_name(name), [plain], []), _libmp_call(_LIBMP_CALLS[name], raw)
        if len(node.args) != 2:
            raise ExpressionError("pow takes exactly two arguments")
        base, exponent = node.args[0], _literal_int(node.args[1])
        if exponent is None:
            raise ExpressionError("pow exponents must be integer literals")
    else:
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")
    # A power, ``**`` or ``pow``: the exponent stays a Python int.
    plain, raw = _lower(base, variable, literals)
    k = ast.Constant(exponent)
    return ast.BinOp(plain, ast.Pow(), k), _libmp_call("mpf_pow_int", raw, k)


@dataclass(frozen=True)
class Expression:
    """A validated single-variable expression, compiled to one function.

    ``fn_mp`` takes an mpf and returns a new one, computed under whatever
    working precision the caller has set; ``eval_mp`` converts its argument
    first.  No literal is rounded below 53 bits.  ``fn_iv`` takes an
    ``mpmath.iv`` interval and returns an enclosure of the expression's
    values on it, computed at ``iv.prec``.  ``reads_variable`` is False when the tree never
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
    """Parse ``source``, check and lower it in one walk of the tree, then compile it.

    Raises ExpressionError for syntax errors, unknown names, non-integer
    exponents or any construct outside the grammar, and for an expression
    that nests too deeply for Python to parse, walk or compile: no depth
    limit is imposed, the interpreter's own limits refuse it.  The last two
    refusals quote a source of more than 60 characters by its first 60 and
    its length.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("expression must be a nonempty string")
    try:
        return _compile(source, variable)
    # CPython's parser reports an overflow of its own stack as a MemoryError.
    except (RecursionError, SyntaxError, MemoryError) as exc:
        raise ExpressionError(f"expression {_quoted(source)} nests too deeply to compile") from exc


def _compile(source: str, variable: str) -> Expression:
    """compile_expression's work; its caller turns a failure of depth into ExpressionError."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {_quoted(source)}: {exc.msg}") from exc
    literals: List[Any] = []
    body, libmp_body = _lower(tree.body, variable, literals)
    # The lowered tree's names are the variable, the literals _k<i> and the
    # called functions; a function named like the variable counts as a read,
    # which costs evaluations but never changes a value.
    reads_variable = any(isinstance(node, ast.Name) and node.id == variable for node in ast.walk(body))
    # Pinned, so no literal depends on the precision in force right now.
    with mpmath.workprec(53):
        constants = [mpmath.mpf(v)._mpf_ for v in literals]
    fn_source = (
        f"def _fn({variable}):\n"
        "    _prec, _rnd = _prec_rounding\n"
        f"    {variable} = {variable}._mpf_\n"
        f"    return _make_mpf({ast.unparse(libmp_body)})\n"
    )
    namespace = {
        "__builtins__": {},
        "_prec_rounding": mpmath.mp._prec_rounding,
        "_make_mpf": _make_mpf,
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
