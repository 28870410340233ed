import itertools
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rkhs_cert.kernels import (
    builtin_kernel,
    make_exp_product,
    make_gaussian,
    make_laplace,
)
from rkhs_cert.sequences import (
    arithmetic_sequence,
    custom_sequence,
    gap_lower_bound,
    max_offdiag,
    mixed_sign_sequence,
    sign_obstruction_check,
    triangular_sequence,
    verify_decay,
)


def test_triangular_points():
    seq = triangular_sequence(1)
    assert [seq.point(n) for n in range(1, 6)] == [1, 3, 6, 10, 15]
    neg = triangular_sequence(-1)
    assert [neg.point(n) for n in range(1, 4)] == [-1, -3, -6]
    with pytest.raises(ValueError):
        seq.point(0)


def test_arithmetic_points():
    seq = arithmetic_sequence(2.0)
    assert [seq.point(n) for n in (1, 2, 3)] == [2, 4, 6]
    assert seq.direction == 1
    down = arithmetic_sequence(-0.5)
    assert down.direction == -1
    with pytest.raises(ValueError):
        arithmetic_sequence(0.0)


def test_custom_sequence_expression():
    seq = custom_sequence("n*n")
    assert [seq.point(n) for n in (1, 2, 3)] == [1.0, 4.0, 9.0]
    assert seq.direction is None
    assert not seq.is_triangular
    # each point is the expression's 53-bit value: sinpi vanishes exactly at integers
    assert custom_sequence("sinpi(n)").points(1, 3) == (0.0, 0.0, 0.0)


@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    ell=st.integers(min_value=0, max_value=10_000),
)
def test_gap_identity_property(n, m, ell):
    seq = triangular_sequence(1)
    if n == m:
        with pytest.raises(ValueError):
            gap_lower_bound(seq, n, m, ell)
        return
    gap = gap_lower_bound(seq, n, m, ell)
    assert gap == abs(seq.point(ell + n) - seq.point(ell + m))
    assert 2 * gap == abs(n - m) * (2 * ell + n + m + 1)
    assert gap >= ell


def test_gap_identity_negative_direction():
    seq = triangular_sequence(-1)
    assert gap_lower_bound(seq, 1, 3, 10) == abs(seq.point(11) - seq.point(13))


def test_gap_rejects_non_triangular():
    with pytest.raises(ValueError):
        gap_lower_bound(arithmetic_sequence(1.0), 1, 2, 0)


def test_sign_obstruction_all_patterns():
    for pattern in itertools.product((-1, 1), repeat=3):
        i, j, k = sign_obstruction_check(pattern)
        assert (i, j, k) == (1, 2, 3)
        assert pattern[i - 1] == pattern[j - 1] or pattern[i - 1] == pattern[k - 1] or pattern[j - 1] == pattern[k - 1]


@given(st.lists(st.sampled_from((-1, 1)), min_size=3, max_size=12))
def test_sign_obstruction_property(signs):
    i, j, k = sign_obstruction_check(signs)
    assert 1 <= i < j < k <= len(signs)
    trio = (signs[i - 1], signs[j - 1], signs[k - 1])
    assert trio.count(1) >= 2 or trio.count(-1) >= 2


def test_sign_obstruction_validation():
    with pytest.raises(ValueError):
        sign_obstruction_check((1, -1))
    with pytest.raises(ValueError):
        sign_obstruction_check((1, 0, -1))


def test_max_offdiag_matches_direct_computation():
    k = make_gaussian()
    seq = triangular_sequence(1)
    v = max_offdiag(k, seq, 10, 3, 256)
    # window points x_11, x_12, x_13 = 66, 78, 91: smallest gap is 12
    assert float(v) == pytest.approx(math.exp(-144), rel=1e-12)


def test_decay_gaussian_proved():
    rep = verify_decay(make_gaussian(), triangular_sequence(1), 3, 10, math.exp(-100))
    assert rep.passed
    assert rep.evidence == "proved"
    assert rep.reason is None
    assert rep.ell_values == (1, 2, 4, 8, 10)
    assert rep.sign_obstruction is None


def test_decay_laplace_threshold():
    rep = verify_decay(make_laplace(), triangular_sequence(1), 3, 10, math.exp(-5))
    assert rep.passed
    # smallest final-window gap is 12, so the maximum is exp(-12)
    assert float(rep.max_offdiag[-1]) == pytest.approx(math.exp(-12), rel=1e-12)


def test_decay_fails_above_threshold():
    rep = verify_decay(make_gaussian(), arithmetic_sequence(1.0), 3, 10, 1e-8)
    assert not rep.passed
    assert rep.reason == "final window maximum above threshold"
    assert rep.evidence == "empirical"


@pytest.mark.parametrize(
    "seq",
    [triangular_sequence(1), arithmetic_sequence(1.0), mixed_sign_sequence()],
    ids=["triangular", "arithmetic", "mixed_sign"],
)
def test_decay_exp_product_never_passes(seq):
    rep = verify_decay(make_exp_product(), seq, 3, 10, 1e-8)
    assert not rep.passed
    assert rep.reason == "divergent"
    assert rep.sign_obstruction is not None


def test_decay_window_validation():
    with pytest.raises(ValueError):
        verify_decay(make_gaussian(), triangular_sequence(1), 1, 10, 1e-3)
    with pytest.raises(ValueError):
        verify_decay(make_gaussian(), triangular_sequence(1), 3, 0, 1e-3)


@given(ell=st.integers(min_value=1, max_value=200), window=st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_offdiag_bounded_by_smallest_gap_value(ell, window):
    """For monotone profiles the window max equals phi(min gap squared)."""
    k = builtin_kernel("inverse_quadratic")
    seq = triangular_sequence(1)
    v = max_offdiag(k, seq, ell, window, 128)
    smallest_gap = seq.point(ell + 2) - seq.point(ell + 1)
    with mpmath.workprec(128):
        expected = 1 / (1 + mpmath.mpf(smallest_gap) ** 2)
        assert abs(v - expected) <= mpmath.mpf(1e-30)
