"""Candidate functions with declared or empirically sampled tail lower bounds.

A tail bound records that |f(x)| >= alpha with a fixed sign of f beyond a
threshold (one bound per direction of the line).  Declared bounds come with
the function definition; empirical bounds are measured on finitely many
sequence points by ``tail_lower_bound`` and are labeled as evidence, not
proof.  Witness construction only needs the bound to hold at the points it
actually visits, and every certificate records which kind it used.

Every function has one numeric definition, ``eval_mp``, on mpmath numbers
under the caller's working precision.  A polynomial's tail bound is that
definition's value at the root bound, at 53 bits.  Every window of values
comes from ``values_mp``; a function whose expression never reads ``x``
(``constant:v``, ``poly:v``, an ``expr:`` without ``x``) is evaluated there
once per window, at its first point, and that one value serves every point.

``CandidateFunction.ray_bound`` bounds |f| over a ray [x, +inf) or
(-inf, x] by one evaluation of its interval form ``fn_iv``: an
expression's, or a kernel section's, made from its profile's.  A search
asks for it only after a block of values too wide for fixed point (see
``witness.PointTable``), to end a window sum whose remaining terms the
bound proves dropped; resolving a function does no interval work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence

import mpmath
from mpmath import mpf, nstr, workprec

from .errors import EvaluationError
from .expressions import Expression, as_mpf, compile_expression, interval_abs_bound
from .kernels import KernelSpec
from .quadform import DEFAULT_PRECISION_BITS

_make_mpf = mpmath.mp.make_mpf

DECLARED = "declared"
EMPIRICAL = "empirical"


@dataclass(frozen=True)
class TailBound:
    """|f(x)| >= alpha and sign(f(x)) = sign for all x beyond ``threshold``.

    ``threshold`` is the start of the validity region: x >= threshold on the
    +inf side, x <= -threshold mirrored for bounds attached to the -inf side.
    """

    alpha: float
    sign: int
    threshold: float
    provenance: str = DECLARED


@dataclass(frozen=True)
class CandidateFunction:
    """A real function under test, evaluated at the working precision.

    ``reads_x`` is False only for a function compiled from an expression
    that never names ``x`` (``Expression.reads_variable``); any other
    function is taken to read its point.  ``fn_iv`` is f on ``mpmath.iv``
    intervals: its expression's (``Expression.fn_iv``), or a kernel
    section's, composed from its profile's; without it f has no bound.
    """

    function_id: str
    fn_mp: Callable[[Any], Any]
    tail_pos: Optional[TailBound] = None
    tail_neg: Optional[TailBound] = None
    reads_x: bool = True
    fn_iv: Optional[Callable[[Any], Any]] = None

    def eval_mp(self, x: Any) -> Any:
        return self.fn_mp(as_mpf(x))

    def ray_bound(self, x: Any, direction: int) -> Any:
        """An upper bound on |f| over the ray from x toward +inf (``direction`` +1) or -inf (-1).

        The ray starts at x as ``eval_mp`` converts it, so it holds every
        later point of a sequence monotone in that direction as f gets it.
        An mpf at the working precision, from one ``fn_iv`` call on
        [x, +inf] or [-inf, x] (``expressions.interval_abs_bound``):
        ``mpmath.inf`` when there is no enclosure.  The bound is of f's
        exact values; f's own rounding is the caller's to allow for.
        """
        point = as_mpf(x)
        lo, hi = (point, mpmath.inf) if direction > 0 else (-mpmath.inf, point)
        return interval_abs_bound(self.fn_iv, lo, hi)

    def values_mp(self, points: Sequence[Any]) -> List[Any]:
        """f at each point, at the working precision.

        A function that does not read ``x`` is evaluated once, at the first
        point, and that value (the same object) fills the list: the bits
        per-point evaluation would give, without converting every point.
        A point where f is undefined (a division by zero, a complex
        intermediate) raises EvaluationError naming the function and the point.
        """
        values = []
        try:
            for x in points if self.reads_x else points[:1]:
                values.append(self.eval_mp(x))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError.undefined(
                f"function {self.function_id}", f"x = {nstr(x, 17)}", exc
            ) from exc
        return values if self.reads_x else values * len(points)


def _expression_function(function_id: str, source: str, **fields: Any) -> CandidateFunction:
    """A function whose values come from one expression in ``x``."""
    expr: Expression = compile_expression(source, "x")
    return CandidateFunction(
        function_id=function_id, fn_mp=expr.fn_mp, reads_x=expr.reads_variable, fn_iv=expr.fn_iv, **fields
    )


def make_constant(v: float) -> CandidateFunction:
    """f(x) = v.  For v != 0 the tail bound alpha = |v| holds everywhere."""
    value = float(v)
    if not math.isfinite(value):
        raise ValueError(f"constant must be finite, not {value!r}")
    tail = None
    if value != 0.0:
        tail = TailBound(alpha=abs(value), sign=1 if value > 0 else -1, threshold=0.0)
    return _expression_function(f"constant:{value!r}", repr(value), tail_pos=tail, tail_neg=tail)


def _poly_tail(coeffs: Sequence[float], fn: Callable[[Any], Any], direction: int) -> TailBound:
    """Tail bound for a degree >= 1 polynomial toward +inf or -inf.

    Beyond the classical root bound x* = 1 + max |c_i / c_d| the polynomial
    has no zeros.  Nor has p', whose root bound 1 + max |i c_i / (d c_d)| is
    at most x*, so |p| increases with |x| there and its minimum on the tail
    is |p(+-x*)|.  Half of that value, evaluated by ``fn`` at 53 bits, is a
    safe alpha.  A value that overflows a double leaves no finite alpha and
    raises ValueError.
    """
    lead = coeffs[-1]
    degree = len(coeffs) - 1
    root_bound = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    sign = 1 if lead * (1 if direction > 0 else (-1) ** degree) > 0 else -1
    with workprec(53):
        alpha = float(abs(fn(direction * root_bound))) / 2.0
    if not 0.0 < alpha < math.inf:
        side = "+inf" if direction > 0 else "-inf"
        raise ValueError(f"polynomial tail toward {side} gives no finite positive alpha ({alpha!r})")
    return TailBound(alpha=alpha, sign=sign, threshold=root_bound)


def make_polynomial(coeffs: Sequence[float]) -> CandidateFunction:
    """f(x) = sum_i coeffs[i] * x^i with tail bounds on both sides."""
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ValueError("polynomial needs at least one coefficient")
    if not all(math.isfinite(c) for c in cs):
        raise ValueError("polynomial coefficients must be finite")
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    function_id = "poly:" + ",".join(repr(c) for c in cs)
    if len(cs) == 1:
        return replace(make_constant(cs[0]), function_id=function_id)
    horner = repr(cs[-1])
    for c in reversed(cs[:-1]):
        horner = f"({horner})*x + {c!r}"
    expr = compile_expression(horner, "x")
    return CandidateFunction(
        function_id=function_id,
        fn_mp=expr.fn_mp,
        tail_pos=_poly_tail(cs, expr.eval_mp, +1),
        tail_neg=_poly_tail(cs, expr.eval_mp, -1),
        fn_iv=expr.fn_iv,
    )


def make_paper_example() -> CandidateFunction:
    """f(x) = exp(-sin(x)^2 + 1/sqrt(1 + x^2)).

    Bounded between e^-1 and e on the whole line, so both tails carry the
    declared bound alpha = e^-1 with positive sign.  ``math.exp(-1.0)`` is
    the double just above e^-1, so alpha is the double below it.
    """
    tail = TailBound(alpha=math.nextafter(math.exp(-1.0), 0.0), sign=1, threshold=0.0)
    return _expression_function(
        "paper_example",
        "exp(-sin(x)**2 + 1/sqrt(1 + x*x))",
        tail_pos=tail,
        tail_neg=tail,
    )


def make_sin_squared_shifted() -> CandidateFunction:
    """f(x) = sin(pi * (x + 1/2))^2.

    Has zeros at half-integers, so no uniform tail bound exists; but
    f(n) = 1 exactly at every integer n, which covers integer-valued
    sequences.  Callers must obtain alpha empirically.
    """
    return _expression_function("sin_squared_shifted", "sinpi(x + 1/2)**2")


def make_expression_function(source: str) -> CandidateFunction:
    """Candidate function from a whitelisted expression in ``x`` (no tail data)."""
    return _expression_function(f"expr:{source}", source)


def kernel_section(kernel: KernelSpec, x0: float) -> CandidateFunction:
    """f = K(., x0): the canonical member of the kernel's space (norm sqrt(K(x0, x0))).

    Its interval form is the profile's on (x - x0)^2, each step rounded
    outward, so its ray bound on a ray moving away from x0 is the profile's
    ``abs_bound`` at the ray start's squared distance, rounded down; on a
    ray that starts on the other side of x0 it is the bound on all of phi.
    A kernel without a radial profile, or a profile without an interval
    form, gives none.
    """
    center = float(x0)
    with workprec(53):
        center_mp = mpf(center)  # exact: a double has 53 bits
    profile = kernel.profile
    fn_iv = None
    if profile is not None and profile.fn_iv is not None:
        # the center, a double, is an exact interval at every working precision (64 bits and more)
        fn_iv = lambda x: profile.fn_iv((x - center) ** 2)
    return CandidateFunction(
        function_id=f"kernel_section:{center!r}",
        fn_mp=lambda x: kernel.eval_mp(x, center_mp),
        fn_iv=fn_iv,
    )


def tail_lower_bound(
    f: CandidateFunction,
    sequence: Any,
    start: int,
    count: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    table: Any = None,
) -> Optional[TailBound]:
    """Sample |f| at ``count`` consecutive sequence points from index ``start``.

    Returns an empirical TailBound (alpha = min |f|, common sign) or None when
    the samples mix signs or touch zero.  Evidence only: the bound is labeled
    EMPIRICAL and certificates propagate that label.  ``table``, a search's
    ``witness.PointTable`` for f and the sequence, serves the sample when
    given, its values rebuilt as raw tuples and converted back to mpf.  The
    points are listed before f is evaluated, so an undefined sequence point
    blames the sequence.
    """
    if count < 2:
        raise ValueError("need at least two sample points for an empirical tail bound")
    if start < 1:
        raise ValueError("sequence indices start at 1")
    if table is None:
        points = [sequence.point(n) for n in range(start, start + count)]
    else:
        points = table.points(start, count)
    with workprec(precision_bits):
        values = f.values_mp(points) if table is None else [_make_mpf(v) for v in table.window(start, count)]
        signs = {(-1 if v < 0 else (1 if v > 0 else 0)) for v in values}
        if len(signs) != 1 or 0 in signs:
            return None
        alpha = min(abs(v) for v in values)
        # The bound is recorded as a double; a minimum that underflows to
        # zero there certifies nothing.
        if float(alpha) == 0.0:
            return None
        return TailBound(
            alpha=float(alpha),
            sign=signs.pop(),
            threshold=float(sequence.point(start)),
            provenance=EMPIRICAL,
        )
