"""Diagonal kernel derivatives and growth envelopes for member functions.

For a radial kernel K(x, y) = phi((x - y)^2) the equal-order cross derivative
on the diagonal is constant in x and has the closed form

    D(n) = (d^n/dx^n)(d^n/dy^n) K(x, y) |_{y=x} = (-1)^n * (2n)!/n! * phi^(n)(0).

Any f in the kernel's space with norm at most norm_f satisfies
|f^(n)(x)| <= norm_f * sqrt(D(n)) pointwise.  When the profile's Taylor
coefficients obey |phi^(n)(0)| <= C * R^n * n!, combining with
(2n)! <= 4^n (n!)^2 yields the envelope

    norm_f * sqrt(D(n)) <= norm_f * sqrt(C) * (2 sqrt(R))^n * n!

so members inherit factorial (analytic-class) derivative growth.  Candidate
functions whose derivatives outgrow every such envelope cannot be members,
which is the analytic route to the same exclusions the witness route proves
numerically; keeping both routes independent is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Tuple, Union

import mpmath
from mpmath import mpf, workprec

from .kernels import KernelSpec
from .quadform import DEFAULT_PRECISION_BITS

Number = Union[int, float, Fraction]


def dnn_diagonal(kernel: KernelSpec, n: int) -> Number:
    """Exact diagonal derivative D(n) = (-1)^n * (2n)!/n! * phi^(n)(0).

    Exact (int or Fraction) whenever the profile's Taylor data is; raises for
    non-radial kernels and propagates the profile's error when the requested
    derivative does not exist (the exp(-|x-y|) kernel beyond order zero).
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if kernel.profile is None:
        raise ValueError("diagonal derivatives need a radial profile")
    deriv = kernel.profile.derivative_at_zero(n)
    factor = math.factorial(2 * n) // math.factorial(n)
    if isinstance(deriv, (int, Fraction)):
        return (-1) ** n * factor * deriv
    return float((-1) ** n * factor * deriv)


def fd_cross_derivative(
    kernel: KernelSpec,
    n: int,
    x: float,
    step: float = 1e-4,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Any:
    """Central finite-difference estimate of D(n) at x, for n in {1, 2}.

    Evaluated in extended precision so the O(step^2) truncation error
    dominates and cancellation cannot: at 256 bits the stencil's rounding
    floor sits hundreds of orders below the h^2 term.
    """
    if n not in (1, 2):
        raise ValueError("finite-difference stencils are implemented for orders 1 and 2")
    if not step > 0:
        raise ValueError("step must be positive")
    with workprec(precision_bits):
        h = mpf(step)
        x0 = mpf(x)
        if n == 1:
            offsets = ((1, mpf(1)), (-1, mpf(-1)))
            scale = 2 * h
        else:
            offsets = ((-1, mpf(1)), (0, mpf(-2)), (1, mpf(1)))
            scale = h * h
        total = mpf(0)
        for oi, wi in offsets:
            for oj, wj in offsets:
                total += wi * wj * kernel.eval_mp(x0 + oi * h, x0 + oj * h)
        return total / scale**2


def member_derivative_bound(
    kernel: KernelSpec,
    norm_f: float,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Any:
    """Pointwise bound norm_f * sqrt(D(n)) on the n-th derivative of any member."""
    if not norm_f >= 0:
        raise ValueError("norm bound must be nonnegative")
    d = dnn_diagonal(kernel, n)
    if d < 0:
        raise ValueError(
            "negative diagonal derivative: the profile's Taylor data is "
            "inconsistent with positive semidefiniteness"
        )
    with workprec(precision_bits):
        return mpf(norm_f) * mpmath.sqrt(_to_mpf(d))


def _to_mpf(value: Number) -> Any:
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


def envelope_dominates(kernel: KernelSpec, n: int) -> bool:
    """Exact check that D(n) <= C * 4^n * R^n * (n!)^2 (envelope squared).

    Compares integers/Fractions exactly when the profile's data is exact, so
    the result carries no floating-point caveat.
    """
    if kernel.profile is None or kernel.profile.analytic_constants is None:
        raise ValueError("envelope comparison needs a profile with analytic constants")
    d = dnn_diagonal(kernel, n)
    c_const, radius = kernel.profile.analytic_constants
    if isinstance(d, (int, Fraction)) and isinstance(c_const, (int, Fraction)) and isinstance(radius, (int, Fraction)):
        rhs = Fraction(c_const) * Fraction(4 * radius) ** n * Fraction(math.factorial(n)) ** 2
        return Fraction(d) <= rhs
    with workprec(DEFAULT_PRECISION_BITS):
        rhs_mp = _to_mpf(c_const) * _to_mpf(4 * radius) ** n * mpf(math.factorial(n)) ** 2
        return bool(_to_mpf(d) <= rhs_mp)


@dataclass(frozen=True)
class DerivativeReport:
    """Tabulated exact derivative bounds against the analytic growth envelope."""

    kernel_id: str
    norm_f: float
    orders: Tuple[int, ...]
    dnn_values: Tuple[Number, ...]
    exact_bounds: Tuple[Any, ...]
    bound_curve: Tuple[Any, ...]
    growth_constants: Tuple[Number, Number]
    fd_values: Optional[Tuple[Any, ...]] = None


def analyticity_envelope(
    kernel: KernelSpec,
    norm_f: float,
    n_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    fd_step: Optional[float] = None,
    fd_x: float = 0.0,
) -> DerivativeReport:
    """Tabulate norm_f * sqrt(D(n)) against norm_f * sqrt(C) * (2 sqrt(R))^n * n!.

    Raises when the profile lacks Taylor data or analytic constants, and when
    any order violates the envelope (which signals inconsistent declared
    constants, not a numerical artifact: the comparison is exact).  With
    ``fd_step`` set, finite-difference estimates for orders 1 and 2 are
    attached as an independent cross-check.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not norm_f >= 0:
        raise ValueError("norm bound must be nonnegative")
    if kernel.profile is None:
        raise ValueError("envelope reports need a radial profile")
    if kernel.profile.analytic_constants is None:
        raise ValueError("envelope reports need declared analytic constants")
    c_const, radius = kernel.profile.analytic_constants
    orders = tuple(range(n_max + 1))
    dnn_values = []
    exact_bounds = []
    bound_curve = []
    with workprec(precision_bits):
        root_c = mpmath.sqrt(_to_mpf(c_const))
        ratio = 2 * mpmath.sqrt(_to_mpf(radius))
        nf = mpf(norm_f)
        for n in orders:
            # raises on a negative D(n)
            exact_bounds.append(member_derivative_bound(kernel, norm_f, n, precision_bits))
            if not envelope_dominates(kernel, n):
                raise ValueError(
                    f"envelope violated at order {n}: declared analytic constants "
                    "are inconsistent with the profile's Taylor data"
                )
            dnn_values.append(dnn_diagonal(kernel, n))
            bound_curve.append(nf * root_c * ratio**n * math.factorial(n))
        fd_values = None
        if fd_step is not None:
            fd_values = tuple(
                fd_cross_derivative(kernel, n, fd_x, fd_step, precision_bits)
                for n in (1, 2)
                if n <= n_max
            )
    return DerivativeReport(
        kernel_id=kernel.kernel_id,
        norm_f=float(norm_f),
        orders=orders,
        dnn_values=tuple(dnn_values),
        exact_bounds=tuple(exact_bounds),
        bound_curve=tuple(bound_curve),
        growth_constants=(c_const, radius),
        fd_values=fd_values,
    )
