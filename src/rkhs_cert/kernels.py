"""Kernel specifications with origin Taylor data, evaluable at two precisions.

A radial kernel is K(x, y) = phi((x - y)^2) for a profile phi with phi(0) > 0.
Profiles carry the metadata the rest of the pipeline keys on: closed-form
derivatives at the origin, analytic growth constants (C, R) with
|phi^(n)(0)| <= C * R^n * n!, and flags stating that phi is nonnegative,
monotone decreasing and decaying to zero.  The flags are declarative inputs;
downstream code only uses them where they make a computation sound (for
example truncating banded sums).

Every kernel evaluates on machine doubles (``eval``) and on mpmath numbers
(``eval_mp``) under the caller's working precision.  The built-in radial
profiles, like custom ones, are each one whitelisted expression in ``r``
compiled for both contexts (see ``expressions``); only the non-radial
``exp_product`` is written as a pair of callables.  Symmetry is exact by
construction: both orders compute the identical floating-point expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Tuple, Union

import mpmath
from mpmath import mpf

from .errors import ProfileDerivativeError
from .expressions import Expression, as_mpf, compile_expression

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class RadialProfile:
    """Profile phi of a radial kernel, evaluable at double and extended precision.

    ``deriv_at_zero`` maps the order n >= 0 to phi^(n)(0+); built-ins supply
    exact integers.  ``analytic_constants = (C, R)`` asserts
    |phi^(n)(0+)| <= C * R^n * n! for all n.
    """

    fn_double: Callable[[float], float]
    fn_mp: Callable[[Any], Any]
    deriv_at_zero: Optional[Callable[[int], Number]] = None
    analytic_constants: Optional[Tuple[Number, Number]] = None
    decays_to_zero: bool = False
    nonneg: bool = False
    monotone_decreasing: bool = False

    def value(self, r: float) -> float:
        return float(self.fn_double(float(r)))

    def value_mp(self, r: Any) -> Any:
        return self.fn_mp(as_mpf(r))

    def derivative_at_zero(self, n: int) -> Number:
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.deriv_at_zero is None:
            raise ProfileDerivativeError("profile carries no Taylor data at the origin")
        return self.deriv_at_zero(n)


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric positive semidefinite kernel on the real line.

    ``diag_sup`` is sup_x K(x, x) (math.inf when unbounded); ``profile`` is
    present exactly for radial kernels.
    """

    kernel_id: str
    fn_double: Callable[[float, float], float]
    fn_mp: Callable[[Any, Any], Any]
    diag_sup: float
    is_bounded: bool
    profile: Optional[RadialProfile] = None

    def eval(self, x: float, y: float) -> float:
        return float(self.fn_double(float(x), float(y)))

    def eval_mp(self, x: Any, y: Any) -> Any:
        return self.fn_mp(as_mpf(x), as_mpf(y))

    def diag_sup_mp(self) -> Any:
        """sup_x K(x, x) as an mpf at the ambient precision."""
        if not self.is_bounded:
            return mpf("inf")
        if self.profile is not None:
            return self.profile.value_mp(0)
        return mpf(self.diag_sup)


def check_analytic_constants(profile: RadialProfile, depth: int = 30) -> None:
    """Verify |phi^(n)(0)| <= C * R^n * n! for n = 0..depth.

    Comparison is exact (Fractions) so the check is deterministic.  Raises
    ValueError on the first violated order.
    """
    if profile.analytic_constants is None:
        raise ValueError("profile declares no analytic constants")
    if profile.deriv_at_zero is None:
        raise ValueError("profile carries no Taylor data to check against")
    c_const, radius = (Fraction(v) for v in profile.analytic_constants)
    bound = c_const
    for n in range(depth + 1):
        deriv = Fraction(profile.derivative_at_zero(n))
        if abs(deriv) > bound * math.factorial(n):
            raise ValueError(
                f"analytic constants violated at order {n}: "
                f"|phi^({n})(0)| = {abs(deriv)} exceeds C*R^n*n!"
            )
        bound *= radius


def _radial_kernel(kernel_id: str, profile: RadialProfile) -> KernelSpec:
    def k_double(x: float, y: float) -> float:
        d = x - y
        return profile.fn_double(d * d)

    def k_mp(x: Any, y: Any) -> Any:
        d = x - y
        return profile.fn_mp(d * d)

    return KernelSpec(
        kernel_id=kernel_id,
        fn_double=k_double,
        fn_mp=k_mp,
        diag_sup=profile.value(0.0),
        is_bounded=True,
        profile=profile,
    )


def _expression_profile(source: str, **metadata: Any) -> RadialProfile:
    """A profile whose values in both contexts come from one expression in ``r``."""
    expr: Expression = compile_expression(source, "r")
    return RadialProfile(fn_double=expr.fn_double, fn_mp=expr.fn_mp, **metadata)


def _decaying_kernel(
    kernel_id: str,
    source: str,
    deriv_at_zero: Callable[[int], Number],
    analytic_constants: Optional[Tuple[Number, Number]],
) -> KernelSpec:
    profile = _expression_profile(
        source,
        deriv_at_zero=deriv_at_zero,
        analytic_constants=analytic_constants,
        decays_to_zero=True,
        nonneg=True,
        monotone_decreasing=True,
    )
    return _radial_kernel(kernel_id, profile)


def make_gaussian() -> KernelSpec:
    """K(x, y) = exp(-(x - y)^2); phi(r) = exp(-r), phi^(n)(0) = (-1)^n."""
    return _decaying_kernel("gaussian", "exp(-r)", lambda n: (-1) ** n, (1, 1))


def make_inverse_quadratic() -> KernelSpec:
    """K(x, y) = 1 / (1 + (x - y)^2); phi^(n)(0) = (-1)^n * n!."""
    return _decaying_kernel(
        "inverse_quadratic", "1/(1+r)", lambda n: (-1) ** n * math.factorial(n), (1, 1)
    )


def _laplace_deriv(n: int) -> Number:
    if n == 0:
        return 1
    raise ProfileDerivativeError(
        "profile exp(-sqrt(r)) is not differentiable at the origin"
    )


def make_laplace() -> KernelSpec:
    """K(x, y) = exp(-|x - y|); phi(r) = exp(-sqrt(r)), kinked at the origin."""
    return _decaying_kernel("laplace", "exp(-sqrt(r))", _laplace_deriv, None)


def make_exp_product() -> KernelSpec:
    """K(x, y) = exp(x * y): positive semidefinite but not radial, unbounded diagonal."""
    return KernelSpec(
        kernel_id="exp_product",
        fn_double=lambda x, y: math.exp(x * y),
        fn_mp=lambda x, y: mpmath.exp(x * y),
        diag_sup=math.inf,
        is_bounded=False,
        profile=None,
    )


def custom_radial(
    profile: RadialProfile,
    kernel_id: str = "custom",
    check_depth: int = 30,
) -> KernelSpec:
    """Wrap a user-supplied radial profile as a kernel.

    Requires phi(0) > 0.  When both Taylor data and analytic constants are
    present, the constants are checked up to ``check_depth`` and a violation
    raises ValueError.
    """
    if not profile.value(0.0) > 0.0:
        raise ValueError("radial profile must be positive at the origin")
    if profile.analytic_constants is not None and profile.deriv_at_zero is not None:
        check_analytic_constants(profile, depth=check_depth)
    return _radial_kernel(kernel_id, profile)


def custom_radial_from_expression(
    source: str,
    *,
    kernel_id: Optional[str] = None,
    decays_to_zero: bool = False,
    nonneg: bool = False,
    monotone_decreasing: bool = False,
) -> KernelSpec:
    """Build a custom radial kernel from a whitelisted expression in ``r``.

    The flags are caller declarations (they cannot be inferred from the
    expression); leave them False when unsure and the pipeline stays on its
    conservative code paths.
    """
    profile = _expression_profile(
        source,
        decays_to_zero=decays_to_zero,
        nonneg=nonneg,
        monotone_decreasing=monotone_decreasing,
    )
    return custom_radial(profile, kernel_id=kernel_id or f"custom:{source}")


BUILTIN_KERNELS: Tuple[str, ...] = ("gaussian", "inverse_quadratic", "laplace", "exp_product")


def builtin_kernel(name: str) -> KernelSpec:
    if name == "gaussian":
        return make_gaussian()
    if name == "inverse_quadratic":
        return make_inverse_quadratic()
    if name == "laplace":
        return make_laplace()
    if name == "exp_product":
        return make_exp_product()
    raise ValueError(f"unknown kernel identifier {name!r}")
