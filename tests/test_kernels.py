import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

import oracles
from rkhs_cert.errors import ProfileDerivativeError
from rkhs_cert.kernels import (
    RadialProfile,
    builtin_kernel,
    check_analytic_constants,
    custom_radial,
    custom_radial_from_expression,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
)
from rkhs_cert.quadform import assemble_gram, psd_check

DOUBLE_REFS = {
    "gaussian": oracles.gaussian_double,
    "inverse_quadratic": oracles.invq_double,
    "laplace": oracles.laplace_double,
    "exp_product": oracles.expprod_double,
}
BITS = (53, 256)

finite_xy = st.floats(min_value=-20, max_value=20, allow_nan=False)


@pytest.mark.parametrize("name", sorted(DOUBLE_REFS))
@given(x=finite_xy, y=finite_xy)
def test_symmetry_exact(name, x, y):
    k = builtin_kernel(name)
    for bits in BITS:
        with workprec(bits):
            assert k.eval_mp(x, y) == k.eval_mp(y, x)


# dyadic rationals i/1024 keep x + t, their differences and squared
# differences exactly representable at 53 bits for integer t
dyadic = st.integers(min_value=-20480, max_value=20480).map(lambda i: i / 1024.0)


@pytest.mark.parametrize("name", ["gaussian", "inverse_quadratic", "laplace"])
@given(x=dyadic, y=dyadic, t=st.integers(min_value=-1000, max_value=1000))
def test_translation_invariance_for_exact_shifts(name, x, y, t):
    k = builtin_kernel(name)
    for bits in BITS:
        with workprec(bits):
            assert k.eval_mp(x + t, y + t) == k.eval_mp(x, y)


@given(x=finite_xy, y=finite_xy)
def test_mp_matches_double_at_53_bits(x, y):
    for name, ref in DOUBLE_REFS.items():
        k = builtin_kernel(name)
        expected = mpmath.mpf(ref(x, y))
        for bits in BITS:
            with workprec(bits):
                v = k.eval_mp(x, y)
                assert abs(v - expected) <= mpmath.mpf(1e-13) * (1 + abs(v))


def test_diag_sup_values():
    assert make_gaussian().diag_sup == 1.0
    assert make_inverse_quadratic().diag_sup == 1.0
    assert make_laplace().diag_sup == 1.0
    ke = make_exp_product()
    assert math.isinf(ke.diag_sup)
    assert ke.profile is None


def test_taylor_data_gaussian():
    p = make_gaussian().profile
    assert [p.derivative_at_zero(n) for n in range(5)] == [1, -1, 1, -1, 1]


def test_taylor_data_inverse_quadratic():
    p = make_inverse_quadratic().profile
    assert [p.derivative_at_zero(n) for n in range(5)] == [1, -1, 2, -6, 24]


def test_laplace_derivative_only_at_order_zero():
    p = make_laplace().profile
    assert p.derivative_at_zero(0) == 1
    with pytest.raises(ProfileDerivativeError):
        p.derivative_at_zero(1)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        make_gaussian().profile.derivative_at_zero(-1)


def test_analytic_constants_check_passes_builtins():
    check_analytic_constants(make_gaussian().profile, depth=40)
    check_analytic_constants(make_inverse_quadratic().profile, depth=40)


def test_analytic_constants_check_rejects_bad_claim():
    bad = RadialProfile(
        fn_mp=lambda r: 1 / (1 + r),
        deriv_at_zero=lambda n: (-1) ** n * math.factorial(n),
        analytic_constants=(1, Fraction(1, 2)),  # too small a radius for n! growth
    )
    with pytest.raises(ValueError):
        check_analytic_constants(bad, depth=10)
    with pytest.raises(ValueError):
        custom_radial(bad)


def test_custom_radial_requires_positive_origin():
    zero = RadialProfile(fn_mp=lambda r: mpmath.mpf(-1))
    with pytest.raises(ValueError):
        custom_radial(zero)
    # phi(0) must also be defined and finite as a double.
    with pytest.raises(ValueError, match="undefined at r = 0: division by zero"):
        custom_radial_from_expression("1/r")
    with pytest.raises(ValueError, match="finite"):
        custom_radial_from_expression("exp(1000-r)")


def test_custom_radial_from_expression():
    k = custom_radial_from_expression("1/(1+r)", monotone_decreasing=True)
    assert k.kernel_id == "custom:1/(1+r)"
    for bits in BITS:
        with workprec(bits):
            assert k.eval_mp(1.0, 3.0) == mpmath.mpf(1) / 5
    assert k.profile.monotone_decreasing
    assert not k.profile.decays_to_zero  # not declared, stays off


@pytest.mark.parametrize("name", sorted(DOUBLE_REFS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_on_8_points_is_psd(name, seed):
    import random

    rng = random.Random(seed)
    pts = set()
    while len(pts) < 8:
        pts.add(round(rng.uniform(-3, 3), 6))
    k = builtin_kernel(name)
    verdict = psd_check(assemble_gram(k, sorted(pts), 256))
    assert verdict.is_psd
