import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, from_rational, mpf_neg, mpf_sum, round_nearest

import oracles
from rkhs_cert.errors import SingularGramError
from rkhs_cert.functions import kernel_section, make_constant, make_paper_example
from rkhs_cert.kernels import builtin_kernel, make_gaussian
from rkhs_cert.quadform import (
    Block,
    GramMatrix,
    assemble_gram,
    block_terms,
    cholesky_solve,
    fixed_point_block,
    neumaier_sum,
    psd_check,
    quadratic_form,
    schur_deflation_control,
)


def _gram_from_rows(rows, bits=256):
    with workprec(bits):
        entries = tuple(tuple(mpf(v) for v in row) for row in rows)
    return GramMatrix(points=tuple(range(len(rows))), entries=entries, precision_bits=bits)


# --- summation ----------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), max_size=60))
def test_neumaier_matches_fsum_on_floats(values):
    # fsum is exact-then-rounded-to-double; the 256-bit compensated sum keeps
    # far more digits, so they agree to double roundoff of the term magnitudes
    with workprec(256):
        ours = neumaier_sum([mpf(v) for v in values])
        exact = mpf(math.fsum(values))
        scale = mpf(1) + neumaier_sum([mpf(abs(v)) for v in values])
        assert abs(ours - exact) <= mpf(2) ** -48 * scale


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_neumaier_sum_is_the_exact_sum_rounded_once(data):
    # every bit of every term lies in one window of 2 * prec bits, signs mixed:
    # the result must be the exact rational sum rounded once to nearest
    prec = data.draw(st.sampled_from([53, 64, 256]))
    base = data.draw(st.integers(-1100, 1100))
    mantissa = st.integers(-(2**prec) + 1, 2**prec - 1)
    drawn = data.draw(st.lists(st.tuples(mantissa, st.integers(0, prec)), max_size=40))
    exact = sum((Fraction(m) * Fraction(2) ** (base + e) for m, e in drawn), Fraction(0))
    with workprec(prec):
        terms = [mpmath.ldexp(mpf(m), base + e) for m, e in drawn]
        rounded = mpmath.mp.make_mpf(
            from_rational(exact.numerator, exact.denominator, prec, round_nearest)
        )
        assert neumaier_sum(terms) == rounded


def test_neumaier_sum_rounds_once_where_compensation_rounded_twice():
    # a Neumaier loop returned the sum one ulp off on this list at 53 bits
    with workprec(53):
        terms = [mpf(1), mpmath.ldexp(6302397744507966, 53), mpmath.ldexp(9007199254740991, 53)]
        exact = 1 + (6302397744507966 + 9007199254740991) * 2**53
        assert neumaier_sum(terms) == mpmath.mp.make_mpf(
            from_rational(exact, 1, 53, round_nearest)
        )


def test_neumaier_cancellation():
    with workprec(256):
        terms = [mpf(1e16), mpf(1), mpf(-1e16)]
        assert neumaier_sum(terms) == 1


def test_neumaier_empty():
    assert neumaier_sum([]) == 0


def _blocks(raw, size, packed=False):
    """Raw libmp values as Blocks of ``size`` terms: ints over each block's lowest exponent."""
    return [fixed_point_block(raw[a : a + size], 2000, packed) for a in range(0, len(raw), size)]


def test_block_sum_drops_what_mpf_sum_drops():
    """2^300 + 1 - 2^300 over blocks of one term: the exponents span 300
    bits, more than 2 * 64, so the terms stream through mpf_sum, which drops
    the 1 as the exact integer sum would not."""
    raw = [from_man_exp(1, 300), from_man_exp(1, 0), from_man_exp(-1, 300)]
    with workprec(64):
        assert neumaier_sum(_blocks(raw, 1)) == 0 == mpf_sum(raw, 64)[1]
    with workprec(256):
        assert neumaier_sum(_blocks(raw, 1)) == 1


@given(
    terms=st.lists(
        st.tuples(st.integers(-(2**70), 2**70), st.integers(-700, 700)) | st.just((0, 0)), min_size=1, max_size=30
    ),
    cancel=st.integers(0, 30),
    size=st.integers(1, 5),
    bits=st.sampled_from([64, 256]),
    raw_block=st.integers(-1, 6),
    packed=st.booleans(),
)
@settings(max_examples=300, deadline=None)
# 1 + 2^130 - 2^130 at 64 bits, and 3 * 2^-200 + 2^320 - 2^320 at 256: the terms' bits span just
# over 2 * prec, and mpf_sum drops the small term
@example(terms=[(1, 0), (1, 130)], cancel=1, size=1, bits=64, raw_block=-1, packed=False)
@example(terms=[(3, -200), (1, 320)], cancel=1, size=2, bits=256, raw_block=-1, packed=True)
def test_block_sum_is_mpf_sum_of_the_terms(terms, cancel, size, bits, raw_block, packed):
    """neumaier_sum on Blocks gives ``mpf_sum``'s bits on their terms in
    order: exact where the exponents are close, streamed where they span
    more than 2 * prec bits, across int blocks, packed or not, and raw ones,
    with zeros and terms that cancel (the last ``cancel`` terms, negated,
    in reverse)."""
    raw = [from_man_exp(man, exp) for man, exp in terms]
    raw += [mpf_neg(v) for v in reversed(raw[len(raw) - cancel :])]
    blocks = _blocks(raw, size, packed)
    if 0 <= raw_block < len(blocks):
        n = blocks[raw_block].size()
        blocks[raw_block] = Block(raw[raw_block * size : raw_block * size + n])
    with workprec(bits):
        assert neumaier_sum(blocks)._mpf_ == mpf_sum(raw, bits, round_nearest)
    assert list(block_terms(blocks)) == raw


# --- gram assembly --------------------------------------------------------------


def test_assemble_gram_symmetric_and_frozen_value():
    k = make_gaussian()
    g = assemble_gram(k, [3.0, 6.0, 10.0], 256)
    assert g.size == 3
    for i in range(3):
        for j in range(3):
            assert g.entries[i][j] == g.entries[j][i]
    q = quadratic_form(g, [1, 1, 1])
    assert float(q) == pytest.approx(oracles.QFORM_GAUSS_3_6_10_ONES, rel=1e-14)


def test_assemble_gram_rejects_duplicates():
    with pytest.raises(ValueError):
        assemble_gram(make_gaussian(), [1.0, 2.0, 1.0])


def test_coincidence_is_tested_at_the_working_precision():
    from rkhs_cert.witness import evaluate_ones_form

    k, f = make_gaussian(), make_constant(1.0)
    with workprec(256):
        near = mpf(1) + mpf(2) ** -60
    evaluate_ones_form(k, f, 1.0, [1, near, 5], 256)
    with pytest.raises(ValueError, match="coincident"):
        evaluate_ones_form(k, f, 1.0, [1, near, 5], 53)
    # distinct integers whose doubles coincide
    evaluate_ones_form(k, f, 1.0, [2**60, 2**60 + 1, 2**61], 256)
    assemble_gram(k, [2**60, 2**60 + 1, 2**61], 256)
    with pytest.raises(ValueError, match="coincident"):
        assemble_gram(k, [2**60, 5, 2**60], 256)


def test_quadratic_form_length_mismatch():
    g = assemble_gram(make_gaussian(), [0.0, 1.0])
    with pytest.raises(ValueError):
        quadratic_form(g, [1, 2, 3])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_quadratic_form_matches_double_oracle(seed, n):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        v = round(rng.uniform(-4, 4), 5)
        if v not in pts:
            pts.append(v)
    coeffs = [rng.uniform(-2, 2) for _ in range(n)]
    g = assemble_gram(make_gaussian(), pts, 256)
    ours = float(quadratic_form(g, coeffs))
    ref = oracles.quadform_double(oracles.gram_double(oracles.gaussian_double, pts), coeffs)
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-13)


# --- psd check ------------------------------------------------------------------


def test_psd_identity():
    v = psd_check(_gram_from_rows([[1, 0], [0, 1]]))
    assert v.is_psd
    assert v.witness_vector is None


def test_psd_zero_matrix():
    v = psd_check(_gram_from_rows([[0, 0], [0, 0]]))
    assert v.is_psd


def test_psd_single_zero():
    assert psd_check(_gram_from_rows([[0]])).is_psd


def test_indefinite_with_confirmed_witness():
    v = psd_check(_gram_from_rows([[1, 2], [2, 1]]))
    assert not v.is_psd
    assert v.witness_vector is not None
    assert v.witness_value < -v.tolerance_used
    # re-evaluate the stored witness independently
    w = v.witness_vector
    rows = [[1, 2], [2, 1]]
    direct = sum(w[i] * w[j] * rows[i][j] for i in range(2) for j in range(2))
    assert direct < 0


def test_rank_one_psd_with_offdiagonal():
    # [[1,1],[1,1]] stops after one pivot; residual is clean zero
    v = psd_check(_gram_from_rows([[1, 1], [1, 1]]))
    assert v.is_psd


def test_semidefinite_stop_with_hidden_negative_block():
    # diag is zero but off-diagonal is not: e1 - e2 is a witness
    v = psd_check(_gram_from_rows([[0, 1], [1, 0]]))
    assert not v.is_psd
    assert v.witness_value < 0


def test_negative_diagonal_detected():
    v = psd_check(_gram_from_rows([[1, 0, 0], [0, -1e-3, 0], [0, 0, 2]]))
    assert not v.is_psd


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=7),
    shift=st.sampled_from([-0.5, -1e-3, 1e-3, 0.5]),
)
@settings(max_examples=40, deadline=None)
def test_psd_check_agrees_with_numpy_eigenvalues(seed, n, shift):
    rng = random.Random(seed)
    a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    sym = [[sum(a[i][k] * a[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        sym[i][i] += shift
    lo = oracles.min_eig(sym)
    if abs(lo) <= 1e-8:
        return  # agreement only promised away from the borderline
    verdict = psd_check(_gram_from_rows(sym))
    assert verdict.is_psd == (lo > 0)


def test_deflate_identity_for_ones_vector():
    k = make_gaussian()
    f = make_paper_example()
    c = 0.75
    pts = [1.0, 3.0, 6.0, 10.0]
    g = assemble_gram(oracles.deflate(k, f, c), pts, 256)
    r = quadratic_form(g, [1] * len(pts))
    with workprec(256):
        ksum = neumaier_sum(
            [k.eval_mp(x, y) for x in g.points for y in g.points]
        )
        fsum = neumaier_sum([f.eval_mp(x) for x in g.points])
        expected = ksum - mpf(c) ** 2 * fsum**2
        assert abs(r - expected) <= mpf(2) ** -200


def test_deflate_requires_positive_scale():
    with pytest.raises(ValueError):
        oracles.deflate(make_gaussian(), make_constant(1.0), 0.0)


def test_schur_deflation_control_is_psd_for_builtins():
    pts = [1.0, 2.0, 3.5, -1.25, 0.5]
    for name in ("gaussian", "inverse_quadratic", "laplace", "exp_product"):
        verdict = schur_deflation_control(builtin_kernel(name), 0.0, pts, 256)
        assert verdict.is_psd, name


@pytest.mark.parametrize("points", [[1.0, 2.0, 3.5], [1.0, 1.0]])
def test_schur_deflation_control_refuses_nonpositive_diagonal_first(points):
    # K(x0, x0) is evaluated once, at the control's precision, and checked
    # before the Gram is assembled (even before its coincident-point check)
    calls = []

    class NegatedGaussian:
        @staticmethod
        def eval_mp(x, y):
            calls.append((x, y, mpmath.mp.prec))
            return -mpmath.exp(-((x - y) ** 2))

    with pytest.raises(ValueError, match="^control point has nonpositive diagonal value$"):
        schur_deflation_control(NegatedGaussian(), 0.5, points, 128)
    assert calls == [(0.5, 0.5, 128)]


def test_doubled_section_scale_is_not_psd():
    k = make_gaussian()
    f0 = kernel_section(k, 0.0)
    pts = [0.5, 1.0, 1.5, 2.0]
    g = assemble_gram(oracles.deflate(k, f0, 2.0), pts, 256)
    verdict = psd_check(g)
    assert not verdict.is_psd
    assert verdict.witness_value < -verdict.tolerance_used


# --- solving --------------------------------------------------------------------


def test_cholesky_solve_roundtrip():
    k = make_gaussian()
    g = assemble_gram(k, [0.0, 1.0, 2.5], 256)
    rhs = [mpf(1), mpf(-2), mpf(0.5)]
    w = cholesky_solve(g, rhs)
    with workprec(256):
        for i in range(3):
            residual = sum(g.entries[i][j] * w[j] for j in range(3)) - rhs[i]
            assert abs(residual) < mpf(2) ** -200


def test_cholesky_solve_singular_raises():
    g = _gram_from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularGramError):
        cholesky_solve(g, [1, 0])


def test_cholesky_solve_ridge_rescues_singular():
    g = _gram_from_rows([[1, 1], [1, 1]])
    w = cholesky_solve(g, [1, 1], ridge=1e-6)
    with workprec(256):
        assert abs(w[0] - w[1]) < mpf(1e-20)
