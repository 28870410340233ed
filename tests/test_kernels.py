import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec
from mpmath.libmp import from_man_exp, round_nearest

import oracles
from rkhs_cert.errors import EvaluationError, ProfileDerivativeError
from rkhs_cert.kernels import (
    BUILTIN_KERNELS,
    RadialProfile,
    builtin_kernel,
    check_analytic_constants,
    custom_radial,
    custom_radial_from_expression,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
    undefined_pair,
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


def test_each_builtin_identifier_names_its_kernel():
    assert BUILTIN_KERNELS == ("gaussian", "inverse_quadratic", "laplace", "exp_product")
    for name in BUILTIN_KERNELS:
        assert builtin_kernel(name).kernel_id == name
    for name in ("Gaussian", "gaussian ", "custom:exp(-r)", ["gaussian"]):
        with pytest.raises(ValueError, match="unknown kernel identifier"):
            builtin_kernel(name)


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
    k = custom_radial_from_expression("1/(1+r)")
    assert k.kernel_id == "custom:1/(1+r)"
    for bits in BITS:
        with workprec(bits):
            assert k.eval_mp(1.0, 3.0) == mpmath.mpf(1) / 5
            # the first radius 4^k from which 1/(1 + r) < 2^-(bits + 64), by its interval form
            radius = k.profile.truncation_radius()
            assert k.profile.abs_bound(radius) < mpmath.ldexp(1, -(bits + 64)) <= k.profile.abs_bound(radius / 4)


# --- interval bounds on a profile --------------------------------------------------

_BOUNDED_PROFILES = ["gaussian", "inverse_quadratic", "laplace", "100/(100 + r)", "cos(r)", "exp(r)"]


def _profile(name):
    kernel = builtin_kernel(name) if name in DOUBLE_REFS else custom_radial_from_expression(name)
    return kernel.profile


@pytest.mark.parametrize("name", _BOUNDED_PROFILES)
@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(min_value=0, max_value=1e6),
    ahead=st.floats(min_value=0, max_value=1e3),
    bits=st.sampled_from([53, 256]),
)
def test_abs_bound_dominates_the_profile_beyond_lo(name, lo, ahead, bits):
    profile = _profile(name)
    with workprec(bits):
        bound = profile.abs_bound(lo)
        for r in (lo, lo + ahead, lo * 4 + ahead):
            assert abs(profile.value_mp(r)) <= bound


@pytest.mark.parametrize(
    "name,lo,expected",
    [
        ("gaussian", 9, "exp(-9), rounded up"),
        ("cos(r)", 0, 1),
        ("exp(r)", 0, mpmath.inf),
        ("1 - r", 0, mpmath.inf),  # the lower end decides |phi|
        ("cos(r) - exp(-r)/2", 0, 1.5),
        ("sqrt(1 - r)", 0, mpmath.inf),  # sqrt reaches below 0: no enclosure
        ("1 + r - r", 5, mpmath.inf),  # iv does not see that r - r vanishes
    ],
)
def test_abs_bound_values(name, lo, expected):
    profile = _profile(name)
    with workprec(256):
        bound = profile.abs_bound(lo)
        if name == "gaussian":
            assert mpmath.exp(-9) <= bound <= mpmath.exp(-9) * (1 + mpmath.mpf(2) ** -250)
        else:
            assert bound == expected


@pytest.mark.parametrize("source", ["exp(r)", "cos(r)", "1/(1 + r) + 1/2**300", "1/(1 + abs(r - 1000))"])
def test_profile_with_no_truncation_radius(source):
    # the last one decays, but its bound repeats on [1, +inf) and [4, +inf)
    profile = custom_radial_from_expression(source).profile
    with workprec(256):
        assert profile.truncation_radius() is None


@pytest.mark.parametrize("name,radius", [("gaussian", 4**4), ("laplace", 4**8), ("inverse_quadratic", 4**161)])
def test_builtin_truncation_radius_at_256_bits(name, radius):
    with workprec(256):
        assert builtin_kernel(name).profile.truncation_radius() == radius


def test_profile_without_interval_form_has_no_bound():
    profile = RadialProfile(fn_mp=lambda r: mpmath.exp(-r))
    with workprec(256):
        assert profile.abs_bound(100) == mpmath.inf
        assert profile.truncation_radius() is None
    assert custom_radial(profile).profile.fn_iv is None


def test_abs_bound_restores_the_interval_precision():
    saved = mpmath.iv.prec
    with workprec(300):
        make_gaussian().profile.abs_bound(1)
    assert mpmath.iv.prec == saved


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


_RAW_KERNELS = {
    "gaussian": make_gaussian,
    "laplace": make_laplace,
    "inverse_quadratic": make_inverse_quadratic,
    "custom:1/(1 + abs(r - 1000))": lambda: custom_radial_from_expression("1/(1 + abs(r - 1000))"),
}


def _mpf_at(bits):
    """mpf values rounded to ``bits``, whatever the working precision."""
    return st.builds(
        lambda man, exp: mpmath.mpf(from_man_exp(man, exp, bits, round_nearest)),
        st.integers(-(2**300), 2**300),
        st.integers(-320, 40),
    )


_KERNEL_ARGS = (
    st.integers(2**63, 2**70)
    | st.integers(-(2**70), -(2**63))
    | st.floats(-1e4, 1e4)
    | _mpf_at(64)
    | _mpf_at(256)
)


@pytest.mark.parametrize("name", sorted(_RAW_KERNELS))
@settings(max_examples=60, deadline=None)
@given(x=_KERNEL_ARGS, y=_KERNEL_ARGS, bits=st.sampled_from([53, 64, 256]))
def test_radial_kernel_on_raw_values_is_the_mpf_computation(name, x, y, bits):
    """A radial kernel's value, computed on raw libmp values, has the bits
    of x - y, its square and phi on ``mpf`` objects, for int, float and mpf
    arguments of any width."""
    kernel = _RAW_KERNELS[name]()
    with workprec(bits):
        assert kernel.eval_mp(x, y)._mpf_ == oracles.radial_kernel_mp(kernel.profile.fn_mp, x, y)._mpf_


def test_undefined_radial_kernel_pair_names_the_pair():
    """A pair where a custom profile is undefined raises EvaluationError with
    the text the ``mpf`` computation's own error gives."""
    kernel = custom_radial_from_expression("1/(4 - r)")
    with workprec(256):
        x, y = mpmath.mpf(0), mpmath.mpf(2)
        with pytest.raises(ZeroDivisionError) as cause:
            oracles.radial_kernel_mp(kernel.profile.fn_mp, x, y)
        expected = str(undefined_pair(kernel, x, y, cause.value))
    assert expected == "kernel custom:1/(4 - r) is undefined at (x, y) = (0.0, 2.0): division by zero"
    with pytest.raises(EvaluationError) as raised:
        assemble_gram(kernel, [0, 2], 256)
    assert str(raised.value) == expected
