"""Kernel specifications with origin Taylor data, evaluated in mpmath.

A radial kernel is K(x, y) = phi((x - y)^2) for a profile phi with phi(0) > 0.
Profiles carry the metadata the rest of the pipeline keys on: closed-form
derivatives at the origin and analytic growth constants (C, R) with
|phi^(n)(0)| <= C * R^n * n!.

Every kernel has one numeric definition, ``eval_mp``, on mpmath numbers
under the caller's working precision.  The built-in radial profiles, like
custom ones, are each one whitelisted expression in ``r`` (see
``expressions``), compiled to one function on raw libmp values; only the
non-radial ``exp_product`` is a plain callable.  A radial kernel computes
d = x - y, d^2 and phi(d^2) on raw values, with the ``libmp`` routines
``mpf_sub`` and ``mpf_mul`` that the ``mpf`` operators call at the working
precision and rounding, and the profile's compiled function, so its bits
are those of the same steps on ``mpf`` objects; it makes one mpf, the
result.  A radial kernel's diagonal bound phi(0) is that definition
evaluated at 53 bits.  Symmetry is exact by construction: both orders
compute the identical floating-point expression.

A profile's decay is proved from its expression, never declared:
``RadialProfile.abs_bound(lo)`` bounds |phi| on [lo, +inf) by one ``mpmath.iv``
evaluation, and ``truncation_radius`` is the first r* = 1, 4, 16, ... beyond
which that bound is negligible.  Band truncation, the offset search and the
decay check's "proved" label rest on these alone, whatever phi's sign or shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Tuple, Union

import mpmath
from mpmath import mpf, nstr, workprec
from mpmath.libmp import mpf_mul, mpf_sub

from .errors import EvaluationError, ProfileDerivativeError
from .expressions import Expression, as_mpf, compile_expression, interval_abs_bound

Number = Union[int, float, Fraction]

_make_mpf = mpmath.mp.make_mpf

# Radii r* = 4^k tried by RadialProfile.truncation_radius, k = 0, 1, ...
_TRUNCATION_LADDER_STEPS = 4000


@dataclass(frozen=True)
class RadialProfile:
    """Profile phi of a radial kernel, evaluated at the working precision.

    ``deriv_at_zero`` maps the order n >= 0 to phi^(n)(0+); built-ins supply
    exact integers.  ``analytic_constants = (C, R)`` asserts
    |phi^(n)(0+)| <= C * R^n * n! for all n.  ``fn_iv`` is phi on
    ``mpmath.iv`` intervals (see ``expressions``); without it no bound holds.
    ``fn_raw`` is ``fn_mp`` on raw libmp values, an expression's compiled
    function; a profile without one is read through ``fn_mp``.
    """

    fn_mp: Callable[[Any], Any]
    deriv_at_zero: Optional[Callable[[int], Number]] = None
    analytic_constants: Optional[Tuple[Number, Number]] = None
    fn_iv: Optional[Callable[[Any], Any]] = None
    fn_raw: Optional[Callable[[Any], Any]] = None

    def value_mp(self, r: Any) -> Any:
        return self.fn_mp(as_mpf(r))

    def abs_bound(self, lo: Any) -> Any:
        """An upper bound on |phi(r)| over r >= lo, as an mpf at the working precision.

        One ``fn_iv`` call on [lo, +inf) (``expressions.interval_abs_bound``):
        ``mpmath.inf`` when there is no enclosure.
        """
        return interval_abs_bound(self.fn_iv, lo, mpmath.inf)

    def truncation_radius(self) -> Optional[Any]:
        """The first r* = 1, 4, 16, ... with |phi| < 2^-(prec + 64) * max(phi(0), 1) on [r*, +inf).

        prec is the working precision, and the bound is ``abs_bound(r*)``.
        None when no r* up to 4^(_TRUNCATION_LADDER_STEPS - 1) qualifies, or
        once the bound repeats on consecutive radii: interval evaluation is
        inclusion-isotone, so the bound never grows along the ladder, and one
        that has stopped falling (+inf for ``exp(r)``, 1 for ``cos(r)``) is
        not followed further.  None only costs the band, never soundness.
        """
        cutoff = mpmath.ldexp(max(self.value_mp(0), 1), -(mpmath.mp.prec + 64))
        r, last = mpf(1), None
        for _ in range(_TRUNCATION_LADDER_STEPS):
            bound = self.abs_bound(r)
            if bound < cutoff:
                return r
            if bound == last:
                return None
            r, last = r * 4, bound
        return None

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
    fn_mp: Callable[[Any, Any], Any]
    diag_sup: float
    profile: Optional[RadialProfile] = None

    def eval_mp(self, x: Any, y: Any) -> Any:
        return self.fn_mp(as_mpf(x), as_mpf(y))


def undefined_pair(kernel: Any, x: Any, y: Any, cause: BaseException) -> EvaluationError:
    """The EvaluationError for ``kernel`` undefined at the pair (x, y), as the arithmetic error ``cause`` shows.

    ``kernel`` is anything with a ``kernel_id``; x and y are mpf values.
    """
    return EvaluationError.undefined(f"kernel {kernel.kernel_id}", f"(x, y) = ({nstr(x, 17)}, {nstr(y, 17)})", cause)


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
    """K(x, y) = phi((x - y)^2) with diag_sup = phi(0) at 53 bits.

    d = x - y, d^2 and phi(d^2) are computed on raw values, each step's bits
    those of the ``mpf`` operation (see the module docstring), and one mpf is
    made of the result.  Raises ValueError unless phi(0) is defined, finite
    as a double and positive.
    """
    with workprec(53):
        try:
            diag = float(profile.value_mp(0))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(str(EvaluationError.undefined("radial profile", "r = 0", exc))) from exc
    if not 0.0 < diag < math.inf:
        raise ValueError(f"radial profile must be positive and finite at the origin, not {diag!r}")

    body = profile.fn_raw or (lambda r: as_mpf(profile.fn_mp(_make_mpf(r)))._mpf_)
    prec_rounding = mpmath.mp._prec_rounding

    def k_mp(x: Any, y: Any) -> Any:
        prec, rnd = prec_rounding
        d = mpf_sub(x._mpf_, y._mpf_, prec, rnd)
        return _make_mpf(body(mpf_mul(d, d, prec, rnd)))

    return KernelSpec(kernel_id=kernel_id, fn_mp=k_mp, diag_sup=diag, profile=profile)


def _expression_profile(source: str, **metadata: Any) -> RadialProfile:
    """A profile whose values and enclosures come from one expression in ``r``."""
    expr: Expression = compile_expression(source, "r")
    return RadialProfile(fn_mp=expr.fn_mp, fn_iv=expr.fn_iv, fn_raw=expr.fn_raw, **metadata)


def _builtin_radial(kernel_id: str, source: str, **metadata: Any) -> KernelSpec:
    return _radial_kernel(kernel_id, _expression_profile(source, **metadata))


def make_gaussian() -> KernelSpec:
    """K(x, y) = exp(-(x - y)^2); phi(r) = exp(-r), phi^(n)(0) = (-1)^n."""
    return _builtin_radial("gaussian", "exp(-r)", deriv_at_zero=lambda n: (-1) ** n, analytic_constants=(1, 1))


def make_inverse_quadratic() -> KernelSpec:
    """K(x, y) = 1 / (1 + (x - y)^2); phi^(n)(0) = (-1)^n * n!."""
    return _builtin_radial(
        "inverse_quadratic", "1/(1+r)", deriv_at_zero=lambda n: (-1) ** n * math.factorial(n), analytic_constants=(1, 1)
    )


def _laplace_deriv(n: int) -> Number:
    if n == 0:
        return 1
    raise ProfileDerivativeError(
        "profile exp(-sqrt(r)) is not differentiable at the origin"
    )


def make_laplace() -> KernelSpec:
    """K(x, y) = exp(-|x - y|); phi(r) = exp(-sqrt(r)), kinked at the origin."""
    return _builtin_radial("laplace", "exp(-sqrt(r))", deriv_at_zero=_laplace_deriv)


def make_exp_product() -> KernelSpec:
    """K(x, y) = exp(x * y): positive semidefinite but not radial, unbounded diagonal."""
    return KernelSpec(
        kernel_id="exp_product",
        fn_mp=lambda x, y: mpmath.exp(x * y),
        diag_sup=math.inf,
        profile=None,
    )


def custom_radial(profile: RadialProfile, kernel_id: str = "custom") -> KernelSpec:
    """Wrap a user-supplied radial profile as a kernel.

    Requires phi(0) to be defined, finite as a double and positive.  When
    both Taylor data and analytic constants are present, the constants are
    checked up to order 30 and a violation raises ValueError.
    """
    kernel = _radial_kernel(kernel_id, profile)
    if profile.analytic_constants is not None and profile.deriv_at_zero is not None:
        check_analytic_constants(profile)
    return kernel


def custom_radial_from_expression(source: str, *, kernel_id: Optional[str] = None) -> KernelSpec:
    """Build a custom radial kernel from a whitelisted expression in ``r``.

    Its decay is whatever the expression's interval form proves (see
    ``RadialProfile.abs_bound``); nothing about it is declared.
    """
    return custom_radial(_expression_profile(source), kernel_id=kernel_id or f"custom:{source}")


# Each built-in kernel's constructor, at its identifier.
_BUILTIN_MAKERS = {
    "gaussian": make_gaussian,
    "inverse_quadratic": make_inverse_quadratic,
    "laplace": make_laplace,
    "exp_product": make_exp_product,
}
BUILTIN_KERNELS: Tuple[str, ...] = tuple(_BUILTIN_MAKERS)


def builtin_kernel(name: str) -> KernelSpec:
    if name not in BUILTIN_KERNELS:  # a tuple's test, so an unhashable name is unknown too
        raise ValueError(f"unknown kernel identifier {name!r}")
    return _BUILTIN_MAKERS[name]()
