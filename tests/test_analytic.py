import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from rkhs_cert.analytic import (
    analyticity_envelope,
    dnn_diagonal,
    envelope_dominates,
    fd_cross_derivative,
    member_derivative_bound,
)
from rkhs_cert.errors import ProfileDerivativeError
from rkhs_cert.kernels import (
    KernelSpec,
    RadialProfile,
    custom_radial,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
)

GAUSSIAN_DNN = [1, 2, 12, 120, 1680]  # (2n)!/n!
INVQ_DNN = [1, 2, 24, 720, 40320]  # (2n)!


def test_dnn_frozen_values():
    g = make_gaussian()
    q = make_inverse_quadratic()
    for n in range(5):
        assert dnn_diagonal(g, n) == GAUSSIAN_DNN[n]
        assert dnn_diagonal(q, n) == INVQ_DNN[n]
        assert isinstance(dnn_diagonal(g, n), int)


@pytest.mark.parametrize("name", ["gaussian", "inverse_quadratic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dnn_matches_symbolic_oracle(name, n):
    # independent route: symbolic cross differentiation of the kernel itself
    import sympy

    x, y = sympy.symbols("x y", real=True)
    if name == "gaussian":
        expr = sympy.exp(-((x - y) ** 2))
        kernel = make_gaussian()
    else:
        expr = 1 / (1 + (x - y) ** 2)
        kernel = make_inverse_quadratic()
    deriv = sympy.diff(expr, x, n, y, n).subs(y, x).subs(x, sympy.Rational(3, 7))
    value = sympy.nsimplify(sympy.simplify(deriv))
    assert value == dnn_diagonal(kernel, n)


@pytest.mark.parametrize("kernel_maker", [make_gaussian, make_inverse_quadratic])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("x", [0.0, 0.7, -1.3])
def test_fd_matches_exact_diagonal(kernel_maker, n, x):
    kernel = kernel_maker()
    exact = dnn_diagonal(kernel, n)
    fd = fd_cross_derivative(kernel, n, x, step=1e-4, precision_bits=256)
    assert abs(float(fd) - exact) / exact <= 1e-6


def test_fd_error_shrinks_with_step():
    kernel = make_gaussian()
    exact = dnn_diagonal(kernel, 2)
    with workprec(320):
        coarse = abs(fd_cross_derivative(kernel, 2, 0.3, 1e-2, 320) - exact)
        fine = abs(fd_cross_derivative(kernel, 2, 0.3, 1e-3, 320) - exact)
    # central stencils are second order: 10x smaller step, ~100x smaller error
    assert fine < coarse / 50


def test_fd_validates_arguments():
    kernel = make_gaussian()
    with pytest.raises(ValueError):
        fd_cross_derivative(kernel, 3, 0.0)
    with pytest.raises(ValueError):
        fd_cross_derivative(kernel, 1, 0.0, step=0.0)


def test_member_bound_closed_form():
    kernel = make_gaussian()
    bound = member_derivative_bound(kernel, 2.0, 2)
    with workprec(256):
        assert abs(bound - 4 * mpmath.sqrt(3)) <= mpf(2) ** -240
    with pytest.raises(ValueError):
        member_derivative_bound(kernel, -1.0, 1)


def test_member_bound_rejects_sign_inconsistent_profile():
    profile = RadialProfile(
        fn_mp=lambda r: mpmath.exp(-r),
        deriv_at_zero=lambda n: 1,  # positive first derivative: impossible for PSD
        analytic_constants=(1, 1),
    )
    kernel = custom_radial(profile, kernel_id="bad_sign")
    with pytest.raises(ValueError, match="inconsistent"):
        member_derivative_bound(kernel, 1.0, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        analyticity_envelope(kernel, 1.0, 2)


def test_laplace_taylor_data():
    kernel = make_laplace()
    assert dnn_diagonal(kernel, 0) == 1
    with pytest.raises(ProfileDerivativeError):
        dnn_diagonal(kernel, 1)
    with pytest.raises(ValueError, match="analytic constants"):
        analyticity_envelope(kernel, 1.0, 3)


def test_non_radial_kernel_rejected():
    with pytest.raises(ValueError, match="radial"):
        dnn_diagonal(make_exp_product(), 1)
    with pytest.raises(ValueError):
        dnn_diagonal(make_gaussian(), -1)


@pytest.mark.parametrize("kernel_maker", [make_gaussian, make_inverse_quadratic])
def test_envelope_dominates_every_order(kernel_maker):
    kernel = kernel_maker()
    for n in range(31):
        assert envelope_dominates(kernel, n)


def _undersold_kernel() -> KernelSpec:
    # inverse-quadratic Taylor data with a deliberately understated radius;
    # bypasses the constructor check to exercise the envelope comparison
    profile = RadialProfile(
        fn_mp=lambda r: 1 / (1 + r),
        deriv_at_zero=lambda n: (-1) ** n * math.factorial(n),
        analytic_constants=(1, Fraction(1, 2)),
    )
    return KernelSpec(
        kernel_id="undersold",
        fn_mp=lambda x, y: 1 / (1 + (x - y) ** 2),
        diag_sup=1.0,
        profile=profile,
    )


def test_envelope_violation_detected():
    kernel = _undersold_kernel()
    assert envelope_dominates(kernel, 0)
    assert envelope_dominates(kernel, 1)  # 2 <= 2 * (1!)^2, boundary case
    assert not envelope_dominates(kernel, 2)  # 24 > 4 * (2!)^2
    with pytest.raises(ValueError, match="envelope violated at order 2"):
        analyticity_envelope(kernel, 1.0, 5)


def test_report_shape_and_consistency():
    kernel = make_gaussian()
    report = analyticity_envelope(kernel, 1.5, 6, fd_step=1e-4)
    assert report.kernel_id == "gaussian"
    assert report.orders == tuple(range(7))
    assert len(report.dnn_values) == 7
    assert len(report.exact_bounds) == 7
    assert len(report.bound_curve) == 7
    assert report.growth_constants == (1, 1)
    assert list(report.dnn_values[:5]) == GAUSSIAN_DNN
    for exact, curve in zip(report.exact_bounds, report.bound_curve):
        assert exact <= curve
    assert report.fd_values is not None and len(report.fd_values) == 2
    for n, fd in zip((1, 2), report.fd_values):
        assert abs(float(fd) - GAUSSIAN_DNN[n]) / GAUSSIAN_DNN[n] <= 1e-6


def test_report_small_orders():
    report = analyticity_envelope(make_gaussian(), 1.0, 0, fd_step=1e-4)
    assert report.orders == (0,)
    assert report.fd_values == ()
    no_fd = analyticity_envelope(make_gaussian(), 1.0, 3)
    assert no_fd.fd_values is None
    with pytest.raises(ValueError):
        analyticity_envelope(make_gaussian(), 1.0, -1)
    with pytest.raises(ValueError):
        analyticity_envelope(make_gaussian(), -0.5, 3)
