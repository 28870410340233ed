"""Independent reference implementations and frozen expected values.

Everything here is deliberately built from the standard library (math,
math.fsum), numpy for eigenvalues and mpmath's ``mpf`` objects for the
reference expression evaluator and the deflated kernel, with no imports
from the package under test.  The frozen constants below were produced by running this module
directly; rerun ``python3 tests/oracles.py`` to regenerate them.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Any

import mpmath

# --- frozen double-precision expected values ---------------------------------

# all-ones deflated form, c = 1, f = 1, triangular points 1, 3, 6
GAUSSIAN_C1_R = -5.9631219025865825
INVQ_C1_R = -5.323076923076923  # exactly -346/65

# plain Gram quadratic form, gaussian kernel, points 3, 6, 10, all-ones
QFORM_GAUSS_3_6_10_ONES = 3.000247044678523

PAPER_F_AT_0 = 2.718281828459045  # e
PAPER_ALPHA = 0.3678794411714423  # the double below exp(-1)

# squared minimum interpolant norm of f = 1 on {0, t}, gaussian kernel:
# closed form 2 / (1 + exp(-t^2))
INTERP_NORM_SQ = {
    0.5: 1.1243530017715961,
    1.0: 1.4621171572600098,
    2.0: 1.964027580075817,
}

# window-size thresholds floor(2 / c^2) + 1 for alpha = 1, sup K = 1
N_STAR = {
    1.0: 3,
    0.5: 9,
    0.25: 33,
    0.125: 129,
    0.0625: 513,
    0.03125: 2049,
    0.015625: 8193,
    0.0078125: 32769,
    0.00390625: 131073,
}

# --- reference kernel / function evaluators (doubles only) -------------------


def gaussian_double(x: float, y: float) -> float:
    d = x - y
    return math.exp(-d * d)


def invq_double(x: float, y: float) -> float:
    d = x - y
    return 1.0 / (1.0 + d * d)


def laplace_double(x: float, y: float) -> float:
    return math.exp(-abs(x - y))


def expprod_double(x: float, y: float) -> float:
    return math.exp(x * y)


def paper_f_double(x: float) -> float:
    return math.exp(-math.sin(x) ** 2 + 1.0 / math.sqrt(1.0 + x * x))


def triangular(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class DeflatedKernel:
    """R(x, y) = K(x, y) - c^2 f(x) f(y): PSD for some c > 0 iff f lies in K's space.

    The reference for the witness evaluator: the all-ones form of this
    kernel's Gram matrix is the r that ``evaluate_ones_form`` computes.
    """

    base: Any
    f: Any
    c: float

    @property
    def kernel_id(self) -> str:
        return f"deflate({self.base.kernel_id};{self.f.function_id};c={self.c!r})"

    def eval_mp(self, x, y):
        c2 = mpmath.mpf(self.c) ** 2
        return self.base.eval_mp(x, y) - c2 * self.f.eval_mp(x) * self.f.eval_mp(y)


def deflate(kernel, f, c: float) -> DeflatedKernel:
    """Subtract the rank-one part c^2 f(x) f(y) from the kernel."""
    if not c > 0:
        raise ValueError("deflation scale c must be positive")
    return DeflatedKernel(base=kernel, f=f, c=float(c))


def ones_form_double(kfun, ffun, c: float, points) -> float:
    """r = sum_ij K(x_i, x_j) - c^2 (sum_i f(x_i))^2 via math.fsum."""
    kterms = [kfun(x, y) for x in points for y in points]
    fsum = math.fsum(ffun(x) for x in points)
    return math.fsum(kterms) - (c * fsum) ** 2


def gram_double(kfun, points):
    return [[kfun(x, y) for y in points] for x in points]


def quadform_double(entries, coeffs) -> float:
    return math.fsum(
        coeffs[i] * coeffs[j] * entries[i][j]
        for i in range(len(coeffs))
        for j in range(len(coeffs))
    )


def min_eig(entries) -> float:
    import numpy as np

    return float(np.linalg.eigvalsh(np.array(entries, dtype=float)).min())


# --- reference expression evaluator (extended precision) ----------------------


class TooLarge(Exception):
    """An intermediate value exceeded the magnitude limit given to ``reference_mp``."""


_REFERENCE_FUNCS = {
    "exp": mpmath.exp,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "sqrt": mpmath.sqrt,
    "abs": mpmath.fabs,
    "sinpi": mpmath.sinpi,
}


def reference_mp(source: str, variable: str, x, max_mag: int = 64):
    """Evaluate a whitelisted expression by walking its tree with ``mpf`` objects.

    Every operation is an ``mpf`` operator or ``mpmath`` function at the
    working precision: literals below 2^53 convert at 53 bits, wider integers
    at the working precision, exponents stay Python ints and unary plus is
    dropped.  A complex intermediate, where mpmath would silently continue
    in complex arithmetic, raises ValueError; an intermediate of magnitude
    above 2^max_mag raises TooLarge, so that no trigonometric function is
    asked to reduce a huge argument.
    """

    def literal(value):
        if type(value) is int and abs(value) >= 2**53:
            return mpmath.mpf(value)
        with mpmath.workprec(53):
            return mpmath.mpf(value)

    def exponent(node):
        if isinstance(node, ast.UnaryOp):
            return -exponent(node.operand) if isinstance(node.op, ast.USub) else exponent(node.operand)
        return node.value

    def walk(node):
        if isinstance(node, ast.Constant):
            value = literal(node.value)
        elif isinstance(node, ast.Name):
            assert node.id == variable
            value = x
        elif isinstance(node, ast.UnaryOp):
            value = -walk(node.operand) if isinstance(node.op, ast.USub) else walk(node.operand)
        elif isinstance(node, ast.BinOp):
            left = walk(node.left)
            if isinstance(node.op, ast.Pow):
                value = left ** exponent(node.right)
            else:
                right = walk(node.right)
                value = {
                    ast.Add: lambda a, b: a + b,
                    ast.Sub: lambda a, b: a - b,
                    ast.Mult: lambda a, b: a * b,
                    ast.Div: lambda a, b: a / b,
                }[type(node.op)](left, right)
        elif node.func.id == "pow":
            value = walk(node.args[0]) ** exponent(node.args[1])
        else:
            value = _REFERENCE_FUNCS[node.func.id](walk(node.args[0]))
        if isinstance(value, mpmath.mpc):
            raise ValueError("complex intermediate")
        if mpmath.isfinite(value) and value != 0 and mpmath.mag(value) > max_mag:
            raise TooLarge(source)
        return value

    return walk(ast.parse(source, mode="eval").body)


if __name__ == "__main__":
    pts = [triangular(n) for n in (1, 2, 3)]
    one = lambda x: 1.0  # noqa: E731
    print("GAUSSIAN_C1_R =", repr(ones_form_double(gaussian_double, one, 1.0, pts)))
    print("INVQ_C1_R =", repr(ones_form_double(invq_double, one, 1.0, pts)))
    print(
        "QFORM_GAUSS_3_6_10_ONES =",
        repr(quadform_double(gram_double(gaussian_double, [3.0, 6.0, 10.0]), [1.0, 1.0, 1.0])),
    )
    print("PAPER_F_AT_0 =", repr(paper_f_double(0.0)))
    print("PAPER_ALPHA =", repr(math.nextafter(math.exp(-1.0), 0.0)))
    for t in (0.5, 1.0, 2.0):
        print(f"INTERP_NORM_SQ[{t}] =", repr(2.0 / (1.0 + math.exp(-t * t))))
    for k in range(9):
        c = 2.0**-k
        print(f"N_STAR[{c}] =", math.floor(2.0 / c**2) + 1)
