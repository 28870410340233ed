"""Independent reference implementations and frozen expected values.

Everything here is deliberately built from the standard library (math,
math.fsum), numpy for eigenvalues and mpmath's ``mpf`` objects for the
reference expression evaluator and the deflated kernel, with no imports
from the package under test (the two-pass ones-form evaluator is given the
package helpers it calls).  The frozen constants below were produced by running this module
directly; rerun ``python3 tests/oracles.py`` to regenerate them.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any

import mpmath
from mpmath.libmp import from_man_exp, mpf_shift, to_int

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


def poly_tail_grid_min(coeffs, direction: int) -> float:
    """min |p| over x = +-(x* + 0.1 i), i = 0..10,000, in float Horner; x* = 1 + max |c_i / c_d|.

    The sampled tail bound that polynomials carried before it became one
    evaluation at x*: alpha was this minimum over two.
    """
    lead = coeffs[-1]
    root_bound = 1.0 + max(abs(c / lead) for c in coeffs[:-1])

    def horner(x: float) -> float:
        acc = lead
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    return min(abs(horner(direction * (root_bound + i * 0.1))) for i in range(10_001))


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


# --- the two-pass ones-form evaluator ---------------------------------------


def two_pass_ones_form(kernel, f, c, points, precision_bits, window_keys, neumaier_sum):
    """r as ``witness.evaluate_ones_form`` computed it before one pass selected its band rows.

    It scans the window's keys for a strict order, sorting them when there
    is none, then loops over every row in Python: a row whose first pair
    lies beyond the truncation radius adds no term, and any other sums its
    pairs up to its first one beyond.  The package's ``window_keys`` and
    ``neumaier_sum`` are passed in, so this module imports nothing from the
    package.  The kernel must have a radial profile and the window must be
    within the full-sum limit; f gets the points as given.
    """
    profile = kernel.profile
    n = len(points)
    with mpmath.workprec(precision_bits):
        radius = profile.truncation_radius()
        prec, rnd = mpmath.mp._prec_rounding
        keys, e = window_keys(points, prec)
        if not (_consecutive(operator.gt, keys) or _consecutive(operator.lt, keys)):
            keys = sorted(keys)
            if not _consecutive(operator.lt, keys):
                raise ValueError("coincident points in node set")
        e2 = 2 * e
        r_star = math.inf if radius is None else to_int(mpf_shift(radius._mpf_, -e2), "f")
        off_terms = []
        for i, (x, y) in enumerate(zip(keys, itertools.islice(keys, 1, None))):
            d = y - x
            if d * d > r_star:
                continue
            acc = mpmath.mpf(0)
            for j in range(i + 1, n):
                d = keys[j] - x
                d2 = d * d
                if d2 > r_star:
                    break
                acc += profile.value_mp(mpmath.mp.make_mpf(from_man_exp(d2, e2, prec, rnd)))
            off_terms.append(2 * acc)
        diag = n * profile.value_mp(0)
        fsum = neumaier_sum(f.values_mp(points))
        return diag + neumaier_sum(off_terms) - mpmath.mpf(c) ** 2 * fsum * fsum


def _consecutive(order, keys):
    return all(map(order, keys, itertools.islice(keys, 1, None)))


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
