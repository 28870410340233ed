"""Whitelisted arithmetic expressions, compiled for double and extended precision.

One small grammar defines every built-in radial profile (variable ``r``) and
built-in candidate function (variable ``x``), and serves custom profiles,
``expr:`` functions and custom point sequences (variable ``n``) alike:
numeric literals, the single free variable, ``+ - * /``, unary minus,
``pow(base, integer_literal)`` or ``base ** integer_literal``, and the calls
``exp``, ``sin``, ``cos``, ``sqrt``, ``abs`` and ``sinpi`` (sin(pi * t)).
Anything else is rejected before compilation, so config files cannot smuggle
in attribute access, names or general Python.

A validated tree is compiled once per evaluation context into a plain Python
function whose namespace holds only the whitelisted functions of that
context and the literals, converted in advance where that is exact.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping

import mpmath

from .errors import ExpressionError


def _sinpi_double(t: float) -> float:
    # fmod is exact, so the reduction adds no error for large t.
    return math.sin(math.pi * math.fmod(t, 2.0))


_DOUBLE_FUNCS: Mapping[str, Callable[[Any], Any]] = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
    "sinpi": _sinpi_double,
}

_MP_FUNCS: Mapping[str, Callable[[Any], Any]] = {
    "exp": mpmath.exp,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "sqrt": mpmath.sqrt,
    "abs": mpmath.fabs,
    "sinpi": mpmath.sinpi,
}


def as_mpf(x: Any) -> Any:
    """``x`` as an mpf at the working precision, without copying one that already is.

    An mpf whose mantissa fits the working precision converts to an equal
    value, so it is returned unchanged; anything else goes through ``mpf``,
    which rounds it.
    """
    if type(x) is mpmath.mpf and x._mpf_[3] <= mpmath.mp._prec_rounding[0]:
        return x
    return mpmath.mpf(x)


_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY_OPS = (ast.USub, ast.UAdd)

# Floats and integers below 2^53 in magnitude are exact as doubles, and as
# mpf at 53 bits or more, so they convert once at compile time.  Wider
# integers round, so they convert on each call at the caller's precision.
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
        if name not in _DOUBLE_FUNCS:
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
            # The exponent stays a Python int in both contexts.
            return ast.BinOp(left, ast.Pow(), ast.Constant(_literal_int(node.right)))
        return ast.BinOp(left, node.op, _lower(node.right, literals))
    # Validation admits nothing else: a call of a whitelisted function.
    return ast.Call(ast.Name(node.func.id, ast.Load()), [_lower(node.args[0], literals)], [])  # type: ignore[union-attr]


@dataclass(frozen=True)
class Expression:
    """A validated single-variable expression, compiled for two contexts.

    ``fn_double`` runs on machine doubles; ``fn_mp`` runs on mpmath numbers
    under whatever working precision the caller has set.  Both expect an
    argument already in their context; ``eval_double``/``eval_mp`` convert
    it first.  No literal is rounded below the precision of its context.
    """

    source: str
    variable: str
    fn_double: Callable[[float], float] = field(repr=False, compare=False)
    fn_mp: Callable[[Any], Any] = field(repr=False, compare=False)

    def eval_double(self, value: float) -> float:
        return float(self.fn_double(float(value)))

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
    args = ast.arguments(
        posonlyargs=[], args=[ast.arg(variable)], kwonlyargs=[], kw_defaults=[], defaults=[]
    )
    lam = ast.Expression(ast.Lambda(args, _lower(tree.body, literals)))
    code = compile(ast.fix_missing_locations(lam), f"<expression {source!r}>", "eval")

    def bind(funcs: Mapping[str, Callable[[Any], Any]], num: Callable[[Any], Any]) -> Any:
        namespace = {"__builtins__": {}, "_num": num, **funcs}
        # Pinned, so no literal depends on the precision in force right now.
        with mpmath.workprec(53):
            namespace.update((f"_k{i}", num(v)) for i, v in enumerate(literals))
        return eval(code, namespace)

    return Expression(
        source=source,
        variable=variable,
        fn_double=bind(_DOUBLE_FUNCS, float),
        fn_mp=bind(_MP_FUNCS, mpmath.mpf),
    )
