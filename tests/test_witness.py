import math
from dataclasses import replace
from functools import partial
from itertools import accumulate

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import finf, fnan, from_man_exp

import oracles
from rkhs_cert.errors import WitnessSearchError
from rkhs_cert.functions import (
    TailBound,
    kernel_section,
    make_constant,
    make_expression_function,
    make_paper_example,
    make_sin_squared_shifted,
)
from rkhs_cert.kernels import (
    custom_radial_from_expression,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
)
from rkhs_cert.quadform import Block
from rkhs_cert.sequences import is_packed, pack, triangular_sequence
from rkhs_cert.witness import (
    PointTable,
    build_witness,
    default_c_grid,
    evaluate_ones_form,
    find_ell,
    n_threshold,
    offdiag_bound,
    resolve_alpha,
    sweep_c,
    verify_certificate,
)


# --- n_threshold ----------------------------------------------------------------


def test_n_threshold_frozen_values():
    for c, expected in oracles.N_STAR.items():
        assert n_threshold(1.0, c, 1.0) == expected


def test_n_threshold_strictly_above_ratio():
    assert n_threshold(1.0, 1.0, 1.0) == 3  # ratio exactly 2 -> need 3


@given(
    c_exp=st.integers(min_value=0, max_value=12),
    alpha=st.floats(min_value=0.05, max_value=4.0),
    c_k=st.floats(min_value=0.1, max_value=10.0),
)
def test_n_threshold_is_minimal_and_monotone(c_exp, alpha, c_k):
    c = 2.0**-c_exp
    n = n_threshold(c_k, c, alpha)
    ratio = 2 * c_k / (c * c * alpha * alpha)
    assert n > ratio * (1 - 1e-12)
    assert n - 1 <= ratio * (1 + 1e-12)
    if c_exp > 0:
        assert n >= n_threshold(c_k, 2 * c, alpha)


def test_n_threshold_scaling_band():
    # N(c) * c^2 stays within [2, 3] for alpha = 1, sup K = 1
    for c in default_c_grid():
        n = n_threshold(1.0, c, 1.0)
        assert 2.0 <= n * c * c <= 3.0


def test_n_threshold_rejects_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        n_threshold(math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        n_threshold(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        n_threshold(1.0, 1.0, 0.0)


# --- find_ell -------------------------------------------------------------------


def test_find_ell_gaussian_small_scale():
    k = make_gaussian()
    seq = triangular_sequence(1)
    with workprec(256):
        bound = mpf(2) ** -17  # c = 2^-8, alpha = 1
    assert find_ell(k, seq, 131073, bound, 10**6) == 2


def test_find_ell_laplace_boundary():
    # consecutive gap at offset 1 is 3; the offset passes exactly when the
    # bound reaches the interval upper end of exp(-3), which is above exp(-3)
    # rounded to nearest at 256 bits
    k = make_laplace()
    seq = triangular_sequence(1)
    with workprec(256):
        bound = k.profile.abs_bound(9)
        assert mpmath.exp(mpf(-3)) < bound
        assert find_ell(k, seq, 2, bound, 10**6) == 1
        assert find_ell(k, seq, 2, mpmath.exp(mpf(-3)), 10**6) == 2


def test_find_ell_zero_offset_allowed():
    k = make_gaussian()
    seq = triangular_sequence(1)
    assert find_ell(k, seq, 3, 0.5, 10**6) == 0


def test_find_ell_horizon_exhausted():
    # the gap at offset 64 is 66, and 1/(1 + 66^2) is far above the bound
    k = make_inverse_quadratic()
    seq = triangular_sequence(1)
    with pytest.raises(WitnessSearchError) as exc:
        find_ell(k, seq, 3, 1e-8, 64)
    assert exc.value.reason == "decay-horizon-exhausted"


@pytest.mark.parametrize("min_ell", [0, 7])
@pytest.mark.parametrize(
    "span,steps",
    [
        (0, [0]),
        (1, [0, 1]),
        (2, [0, 1, 2]),
        (3, [0, 1, 2, 3]),
        (4, [0, 1, 2, 4]),
        (5, [0, 1, 2, 4, 5]),
        (1000, [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]),
    ],
)
def test_find_ell_probes_the_offset_ladder(monkeypatch, min_ell, span, steps):
    from rkhs_cert import witness

    probed = []

    def never_below(kernel, sequence, ell, window, table=None):
        probed.append(ell)
        return mpf(1)

    monkeypatch.setattr(witness, "offdiag_bound", never_below)
    with pytest.raises(WitnessSearchError) as exc:
        find_ell(make_gaussian(), triangular_sequence(1), 3, 0.5, min_ell + span, min_ell=min_ell)
    assert exc.value.reason == "decay-horizon-exhausted"
    assert probed == [min_ell + step for step in steps]


def test_find_ell_matches_slow_scan():
    # eps bounds the exhaustive scan of every window, whether it comes from
    # the first gap (triangular+) or from the sorted window's smallest gap
    from rkhs_cert.registry import resolve_sequence
    from rkhs_cert.sequences import max_offdiag

    for k, bounds in [(make_gaussian(), (0.5, 1e-3, 1e-9, 1e-20)), (make_inverse_quadratic(), (0.5, 1e-3, 1e-9))]:
        for name, window in [("triangular+", 4), ("mixed_sign_triangular", 9), ("custom:n*n", 9)]:
            seq = resolve_sequence(name)
            for bound in bounds:
                ell = find_ell(k, seq, window, bound, 10**6)
                with workprec(256):
                    eps = offdiag_bound(k, seq, ell, window)
                    assert max_offdiag(k, seq, ell, window, 256) <= eps <= mpf(bound)
                    if ell > 0:
                        # the previous probed offset fails the bound (ladder minimality)
                        prev = 0 if ell == 1 else ell // 2
                        assert offdiag_bound(k, seq, prev, window) > mpf(bound)


# --- evaluate_ones_form against the deflated-Gram oracle -------------------------


def _agreement_window(n):
    """(kernel, f, c, points): an int n is the triangular+ window x_2..x_{n+1}
    under the gaussian; named cases reach the point check's order and
    coincidence bookkeeping, the band truncation's gaps, mixed-sign windows
    that are sorted before the band, and the full sum under a profile with no
    truncation radius."""
    k = make_gaussian()
    if n == "decreasing":
        return k, make_constant(1.0), 0.5, triangular_sequence(-1).points(2, 160)
    if n == "gaps-unsorted":
        # a wide first gap, then unit gaps: breaking off rows at the first wide
        # gap would drop all of the off-diagonal mass
        return k, make_constant(1.0), 0.5, [0] + list(range(100, 259))
    if n in ("mixed-sign-15", "mixed-sign-59"):
        from rkhs_cert.sequences import mixed_sign_sequence

        size = int(n.rsplit("-", 1)[1])
        return k, make_paper_example(), 1.0 if size == 15 else 0.5, mixed_sign_sequence().points(1, size)
    if n in ("unflagged-60", "unflagged-repeated"):
        from rkhs_cert.kernels import custom_radial_from_expression

        # never below 2^-(precision + 64): every window sums all of its pairs
        pts = list(triangular_sequence(1).points(2, 60))
        if n == "unflagged-repeated":
            pts[31] = pts[30]
        return custom_radial_from_expression("1/(1 + r) + 1/2**300"), make_paper_example(), 0.5, pts
    pts = list(triangular_sequence(1).points(2, 160))
    if n == "swapped":
        pts[80], pts[81] = pts[81], pts[80]
        return k, make_constant(1.0), 0.5, pts
    if n == "repeated":
        pts[81] = pts[80]
        return k, make_constant(1.0), 0.5, pts
    return k, make_paper_example(), 0.5, triangular_sequence(1).points(2, n)


def _gram_oracle_r(k, f, c, pts, bits=256):
    """The all-ones form of the deflated kernel's Gram matrix, f tabulated once per point."""
    from types import SimpleNamespace

    from rkhs_cert.quadform import assemble_gram, quadratic_form

    with workprec(bits):
        values = {mpf(p): f.eval_mp(p) for p in pts}
    tabulated = SimpleNamespace(function_id=f.function_id, eval_mp=values.__getitem__)
    return quadratic_form(assemble_gram(oracles.deflate(k, tabulated, c), pts, bits), [1] * len(pts))


@pytest.mark.parametrize(
    "n",
    [
        3, 33, 120, 129, 200, 513, "decreasing", "gaps-unsorted", "swapped", "repeated",
        "mixed-sign-15", "mixed-sign-59", "unflagged-60", "unflagged-repeated",
    ],
)
def test_dense_and_banded_paths_agree(n):
    """evaluate_ones_form, band-truncated or summing all pairs, agrees with the
    dense Gram matrix of the deflated kernel, the oracle in tests/oracles.py."""
    k, f, c, pts = _agreement_window(n)
    if n in ("repeated", "unflagged-repeated"):
        with pytest.raises(ValueError, match="coincident"):
            evaluate_ones_form(k, f, c, pts, 256)
        return
    r = evaluate_ones_form(k, f, c, pts, 256)
    oracle = _gram_oracle_r(k, f, c, pts)
    with workprec(256):
        assert abs(r - oracle) <= mpf(2) ** -180 * (1 + abs(r))


@st.composite
def _int_windows(draw):
    """(bits, points): a strictly monotone int window of 129-260 points whose
    magnitude lies below or above the int bookkeeping's gate
    2^(bits // 2 - 2), up to points wider than bits; its gaps are sorted or
    not, and it ascends or descends, so rows of every window end at their own
    first pair beyond r*, and some windows skip empty rows."""
    bits = draw(st.sampled_from([64, 128, 256]))
    n = draw(st.integers(min_value=129, max_value=260))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=24), min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        gaps.sort()
    # near the gate, or near the width where the points themselves round
    exponent = draw(
        st.one_of(
            st.integers(min_value=0, max_value=bits // 2 + 2),
            st.integers(min_value=bits - 2, max_value=bits + 8),
        )
    )
    base = draw(st.integers(min_value=-1, max_value=1)) * 2**exponent
    direction = draw(st.sampled_from([1, -1]))
    points = [base]
    for g in gaps:
        points.append(points[-1] + direction * g)
    return bits, points


def _banded_outcome(points, bits):
    try:
        return evaluate_ones_form(make_gaussian(), make_constant(1.0), 0.25, points, bits)._mpf_
    except ValueError as exc:
        assert "coincident" in str(exc)
        return "coincident"


@given(window=_int_windows(), tamper=st.sampled_from([None, "swap", "repeat"]), at=st.integers(0, 127))
@settings(max_examples=40, deadline=None)
def test_int_window_r_equals_libmp_r(window, tamper, at):
    bits, points = window
    if tamper == "swap":
        points[at], points[at + 1] = points[at + 1], points[at]
    elif tamper == "repeat":
        points[at + 1] = points[at]
    with workprec(bits):
        mp_points = [mpf(p) for p in points]  # mpf points get their keys through conversion
    outcome = _banded_outcome(points, bits)
    assert outcome == _banded_outcome(mp_points, bits)
    if tamper == "swap":
        # an unsorted window is evaluated in ascending order
        assert outcome == _banded_outcome(sorted(points), bits)
    elif tamper == "repeat":
        assert outcome == "coincident"


@st.composite
def _oracle_windows(draw):
    """(bits, points): a window of 0-3 or 4-48 points, with gaps of 1-40
    around the gaussian's reach isqrt(256) = 16, ascending, descending,
    shuffled or with one point repeated; packed, or a tuple of ints (some
    beyond 2^63), or 64-bit mpf values a third of those ints."""
    kind = draw(st.sampled_from(["packed", "tuple", "wide", "mpf"]))
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 48)))
    gaps = draw(st.lists(st.integers(1, 40), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    base = draw(st.integers(-(2**40), 2**40)) + (2**64 if kind == "wide" else 0)
    points = list(accumulate([base, *gaps]))[:n]
    order = draw(st.sampled_from(["ascending", "descending", "shuffled", "repeated"]))
    if order == "descending":
        points.reverse()
    elif order == "shuffled":
        points = draw(st.permutations(points))
    elif order == "repeated" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        points[j] = points[i]
    if kind == "mpf":
        with workprec(64):
            return 64, tuple(mpf(p) / 3 for p in points)
    bits = draw(st.sampled_from([64, 256]))
    if kind == "packed":
        window = pack(points)
        assert is_packed(window)
        return bits, window
    return bits, tuple(points)


def _recorded_outcome(evaluate, calls, points, bits):
    """(r bits or the ValueError's text, the calls ``calls`` recorded) of one evaluation."""
    calls.clear()
    try:
        outcome = evaluate(points, bits)._mpf_
    except ValueError as exc:
        outcome = str(exc)
    return outcome, list(calls)


@given(
    window=_oracle_windows(),
    kernel=st.sampled_from([make_gaussian(), custom_radial_from_expression("1/(1 + abs(r - 1000))")]),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_evaluator_matches_the_two_pass_oracle(window, kernel):
    """The band rows one pass selects are the rows the oracle's per-row loop
    fills: the same r bits, the same profile arguments and the same terms
    summed, in the same order, and the same refusal of a window with a
    repeated point, with and without a truncation radius."""
    from rkhs_cert import kernels, witness
    from rkhs_cert.quadform import neumaier_sum

    bits, points = window
    f = make_constant(1.0)
    calls = []
    value_mp = kernels.RadialProfile.value_mp

    def profile_value(self, r):
        calls.append(("phi", getattr(r, "_mpf_", r)))
        return value_mp(self, r)

    def summed(terms):
        calls.append(("sum", [t._mpf_ for t in terms]))
        return neumaier_sum(terms)

    def one_pass(points, bits):
        return evaluate_ones_form(kernel, f, 0.25, points, bits)

    def two_pass(points, bits):
        return oracles.two_pass_ones_form(kernel, f, 0.25, points, bits, witness._window_keys, summed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels.RadialProfile, "value_mp", profile_value)
        patch.setattr(witness, "neumaier_sum", summed)
        expected = _recorded_outcome(two_pass, calls, points, bits)
        assert _recorded_outcome(one_pass, calls, points, bits) == expected


@pytest.mark.parametrize("seed", [*range(4), "reversed"])
def test_shuffled_window_r_equals_ascending_r(seed):
    """The form is symmetric in the points: any order of a window gives the
    ascending window's r, bit for bit, on int points and on mpf points.  The
    reversed window keeps its descending order, and its rows end at their
    own first pair beyond r* on gaps that shrink along that order."""
    import random

    k, f = make_gaussian(), make_paper_example()
    pts = list(triangular_sequence(1).points(2, 300))
    if seed == "reversed":
        shuffled = pts[::-1]
    else:
        shuffled = random.Random(seed).sample(pts, len(pts))
    with workprec(256):
        mp_shuffled = [mpf(p) for p in shuffled]
    expected = evaluate_ones_form(k, f, 0.5, pts, 256)._mpf_
    assert evaluate_ones_form(k, f, 0.5, shuffled, 256)._mpf_ == expected
    assert evaluate_ones_form(k, f, 0.5, mp_shuffled, 256)._mpf_ == expected


@pytest.mark.parametrize("kind", ["int", "float"])
def test_sorted_window_leaves_f_values_at_their_indices(kind):
    """f gets an unsorted window's points in their given order: the table's
    value at each index is f at that index's point."""
    from rkhs_cert.sequences import SequenceSpec, mixed_sign_sequence

    if kind == "int":
        seq = mixed_sign_sequence()
    else:
        seq = SequenceSpec("mixed-float", lambda n: (-1) ** n * 0.75 * n * (n + 1), None)
    k, f = make_gaussian(), make_paper_example()
    table = PointTable(f, seq, 256)
    pts = table.points(1, 235)
    evaluate_ones_form(k, f, 0.25, pts, 256, f_values=partial(table.blocks, 1, 235))
    assert (table.first, table.values_first, table.values_held) == (1, 1, 235)
    with workprec(256):
        assert table.window(1, 235) == [v._mpf_ for v in f.values_mp([mpf(p) for p in table.raw])]


def test_triangular_window_bookkeeping_runs_on_ints(monkeypatch):
    """Every squared gap reaches phi as an exact int, rounded once: on an int
    window as its own keys (exponent 0, no conversion), on a float window as
    keys of one common exponent."""
    from rkhs_cert import witness
    from rkhs_cert.registry import resolve_sequence

    seen = set()

    def recording(man, exp, prec, rnd):
        seen.add((type(man), exp))
        return from_man_exp(man, exp, prec, rnd)

    def refuse(x):
        raise AssertionError("an integer window converted a point")

    monkeypatch.setattr(witness, "from_man_exp", recording)
    monkeypatch.setattr(witness, "as_mpf", refuse)
    pts = triangular_sequence(1).points(2, 300)
    assert evaluate_ones_form(make_gaussian(), make_paper_example(), 0.5, pts, 256) < 0
    assert seen == {(int, 0)}
    monkeypatch.undo()
    monkeypatch.setattr(witness, "from_man_exp", recording)
    seen.clear()
    pts = resolve_sequence("arithmetic:0.1").points(2, 300)
    evaluate_ones_form(make_gaussian(), make_paper_example(), 0.5, pts, 64)
    ((kind, exp),) = seen
    assert kind is int and exp < 0


def test_float_window_converts_each_point_once(monkeypatch):
    from rkhs_cert import witness
    from rkhs_cert.expressions import as_mpf
    from rkhs_cert.registry import resolve_sequence
    from rkhs_cert.serialize import witness_from_dict, witness_to_dict

    # conversions made by the evaluator; the offset probe reads its own two points
    converted, evaluating = [], []

    def counting(x):
        if evaluating:
            converted.append(x)
        return as_mpf(x)

    def evaluate(*args, **kwargs):
        evaluating.append(True)
        try:
            return evaluate_ones_form(*args, **kwargs)
        finally:
            evaluating.pop()

    monkeypatch.setattr(witness, "as_mpf", counting)
    monkeypatch.setattr(witness, "evaluate_ones_form", evaluate)
    k, f = make_gaussian(), make_constant(1.0)
    # 129 float points convert once; f reads the same mpf points
    cert = build_witness(k, f, resolve_sequence("arithmetic:7.5"), 0.125)
    assert cert.n_points == 129 and all(type(p) is float for p in cert.points)
    assert converted == list(cert.points)
    converted.clear()
    assert verify_certificate(cert, k, f)
    assert converted == list(cert.points)
    converted.clear()
    # stored points read back as mpf values, which need no conversion for f
    assert verify_certificate(witness_from_dict(witness_to_dict(cert)), k, f)
    assert len(converted) == 129


def test_phi_gets_each_exact_squared_gap_rounded_once(monkeypatch):
    """A 64-bit mpf window whose gaps need more than 64 bits: phi's argument
    is the exact d^2 rounded once, not a rounded d squared and rounded again."""
    from fractions import Fraction
    from itertools import combinations

    from mpmath.libmp import from_rational, round_nearest, to_rational

    from rkhs_cert import kernels
    from rkhs_cert.kernels import custom_radial_from_expression

    k = custom_radial_from_expression("1/(1 + r)")
    args = []
    value_mp = kernels.RadialProfile.value_mp

    def recording(self, r):
        args.append(r)
        return value_mp(self, r)

    with workprec(64):
        third, seventh = mpf(1) / 3, mpf(5) / 7
        pts = [third, mpf(2) ** 20 + seventh, mpf(2) ** 40 - third, mpf(2) ** 60 + mpf(2) ** -3, -seventh]
    monkeypatch.setattr(kernels.RadialProfile, "value_mp", recording)
    evaluate_ones_form(k, make_constant(1.0), 0.5, pts, 64)
    exact = [Fraction(*to_rational(p._mpf_)) for p in pts]
    expected = []
    for a, b in combinations(sorted(exact), 2):
        d2 = (b - a) ** 2
        expected.append(from_rational(d2.numerator, d2.denominator, 64, round_nearest))
    assert sorted(a._mpf_ for a in args if a != 0) == sorted(expected)


@given(
    window=st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=2, max_size=40, unique=True),
    bits=st.sampled_from([64, 128, 256]),
)
@settings(max_examples=30, deadline=None)
def test_window_as_ints_floats_and_mpf_gives_one_r(window, bits):
    k, f = make_gaussian(), make_paper_example()
    with workprec(bits):
        forms = [window, [float(x) for x in window], [mpf(x) for x in window]]
    r_ints, r_floats, r_mpf = (evaluate_ones_form(k, f, 0.5, pts, bits)._mpf_ for pts in forms)
    assert r_ints == r_floats == r_mpf


def test_window_of_too_wide_span_or_non_finite_point_is_refused():
    f, calls = _counting(make_paper_example())
    k = make_gaussian()
    with workprec(256):
        tiny = mpf("1e-3000000")
    with pytest.raises(ValueError, match="span"):
        evaluate_ones_form(k, f, 0.5, [tiny] + list(triangular_sequence(1).points(1, 128)), 256)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_ones_form(k, f, 0.5, [1.0, 2.0, bad], 256)
    assert calls == []
    # doubles from the least subnormal to the largest finite value stay inside the span
    pts = [5e-324, 1.0, 1.7976931348623157e308]
    assert evaluate_ones_form(k, f, 1.0, pts, 64) == evaluate_ones_form(k, f, 1.0, pts[::-1], 64)


# --- shared f values ----------------------------------------------------------------


def _counting(f):
    """f with every extended-precision evaluation recorded (as a float argument)."""
    calls = []

    def fn_mp(x):
        calls.append(float(x))
        return f.fn_mp(x)

    return replace(f, fn_mp=fn_mp), calls


def test_dense_window_evaluates_f_once_per_point():
    k = make_gaussian()
    f, calls = _counting(make_paper_example())
    pts = triangular_sequence(1).points(2, 60)
    # At this scale r = 60 - c^2 (sum f)^2 + (off-diagonal mass) nearly
    # cancels, so the rounding of every entry K - c^2 f_i f_j shows in r.
    with workprec(256):
        c = math.sqrt(60) / float(mpmath.fsum(make_paper_example().eval_mp(x) for x in pts))
    r = evaluate_ones_form(k, f, c, pts, 256)
    assert len(calls) == 60
    with workprec(256):
        assert abs(r - _gram_oracle_r(k, make_paper_example(), c, pts)) <= mpf(2) ** -180 * (1 + abs(r))


def test_doublings_evaluate_f_once_per_index():
    k, n = make_gaussian(), n_threshold(1.0, 1.0, 0.5)
    # without a ray bound every window is summed whole: windows of N, 2N,
    # ..., 64N points at one offset, 64N distinct indices; with it, each
    # window ends after the N values of the first, the rest proved dropped
    for member, evaluated in [(replace(kernel_section(k, 0.0), fn_iv=None), 64 * n), (kernel_section(k, 0.0), n)]:
        member, calls = _counting(member)
        with pytest.raises(WitnessSearchError) as exc:
            build_witness(k, member, triangular_sequence(1), 1.0, alpha=0.5)
        assert exc.value.reason == "doubling-cap-exhausted"
        assert len(calls) == len(set(calls)) == evaluated


def test_sweep_evaluates_f_once_per_index():
    f, calls = _counting(make_paper_example())
    sweep = sweep_c(make_gaussian(), f, triangular_sequence(1), c_grid=(1.0, 0.5, 0.25))
    assert len(sweep.certificates) == 3
    assert len(calls) == len(set(calls))
    assert set(calls) >= {float(p) for cert in sweep.certificates for p in cert.points}


@pytest.mark.parametrize("search", ["sweep_c", "build_witness"])
def test_tail_sample_shares_the_search_table(search):
    # no declared tail bound: alpha is sampled at x_1 .. x_32, which the windows reuse
    from rkhs_cert.functions import tail_lower_bound
    from rkhs_cert.registry import resolve_function

    k, seq = make_gaussian(), triangular_sequence(1)
    f, calls = _counting(resolve_function("expr:2 + cos(x)", k))
    if search == "sweep_c":
        sweep = sweep_c(k, f, seq, c_grid=(1.0, 0.5, 0.25))
        alpha, provenance = sweep.alpha, sweep.alpha_provenance
    else:
        cert = build_witness(k, f, seq, 0.5)
        alpha, provenance = cert.alpha, cert.alpha_provenance
    assert len(calls) == len(set(calls)) >= 32
    assert (alpha, provenance) == (tail_lower_bound(f, seq, 1, 32).alpha, "empirical")


@pytest.mark.parametrize("sequence", ["custom:n*n", "mixed_sign_triangular"])
def test_unordered_sequence_points_are_generated_once_per_sweep(monkeypatch, sequence):
    # the offset probes of a sequence without ordered gaps read the search's table
    from collections import Counter

    from rkhs_cert.registry import resolve_sequence
    from rkhs_cert.sequences import SequenceSpec

    generated = Counter()
    points = SequenceSpec.points

    def counting(self, start, count):
        generated.update(range(start, start + count))
        return points(self, start, count)

    monkeypatch.setattr(SequenceSpec, "points", counting)
    grid = [2.0**-k for k in range(5)]
    sweep = sweep_c(make_gaussian(), make_paper_example(), resolve_sequence(sequence), grid)
    assert len(sweep.certificates) == 5
    assert set(generated.values()) == {1}


def test_far_offset_probes_leave_the_search_table_as_it_is(monkeypatch):
    # slow decay drives the offset probes far past each window; read through
    # the table they restarted it, and the sweep generated 2,741 points
    from collections import Counter

    from rkhs_cert.kernels import custom_radial_from_expression
    from rkhs_cert.registry import resolve_function, resolve_sequence
    from rkhs_cert.sequences import SequenceSpec

    k = custom_radial_from_expression("100/(100+r)")
    f, seq, grid = resolve_function("constant:1", k), resolve_sequence("custom:2*n"), [1, 0.5, 0.25, 0.125]
    alone = []
    for c in grid:
        with pytest.raises(WitnessSearchError) as exc:
            build_witness(k, f, seq, c)
        alone.append((c, f"{exc.value.reason}: {exc.value}"))
    generated = Counter()
    points = SequenceSpec.points

    def counting(self, start, count):
        generated.update(range(start, start + count))
        return points(self, start, count)

    monkeypatch.setattr(SequenceSpec, "points", counting)
    sweep = sweep_c(k, f, seq, grid)
    assert sweep.certificates == () and list(sweep.failures) == alone
    assert {reason.split(":")[0] for _, reason in alone} == {"decay-horizon-exhausted"}
    assert sum(generated.values()) <= 2575


def test_sampled_tail_is_resolved_once_per_sweep():
    # slow decay puts every window beyond the sample x_1 .. x_32, so each
    # window restarts the table's points; the sample must not be taken again
    from rkhs_cert.kernels import custom_radial_from_expression
    from rkhs_cert.registry import resolve_function

    k = custom_radial_from_expression("100/(100 + r)")
    f, calls = _counting(resolve_function("expr:2 + cos(x)", k))
    sweep = sweep_c(k, f, triangular_sequence(1), c_grid=(0.3, 0.25))
    assert [cert.ell for cert in sweep.certificates] == [64, 64]
    assert len(calls) == len(set(calls))


def test_function_without_x_is_evaluated_once_per_window(monkeypatch):
    from rkhs_cert.functions import CandidateFunction

    f, calls = _counting(make_constant(1.0))
    windows = []
    values_mp = CandidateFunction.values_mp

    def recording(self, points):
        before = len(calls)
        values = values_mp(self, points)
        windows.append((len(points), len(calls) - before))
        return values

    monkeypatch.setattr(CandidateFunction, "values_mp", recording)
    sweep = sweep_c(make_gaussian(), f, triangular_sequence(1), [2.0**-k for k in range(5)])
    assert len(sweep.certificates) == 5
    assert max(n for n, _ in windows) > 1
    assert all(evals <= 1 for _, evals in windows)


def test_once_per_window_values_give_the_per_point_certificates():
    k, seq, grid = make_gaussian(), triangular_sequence(1), [2.0**-j for j in range(4)]
    for f in (make_constant(-2.5), make_expression_function("1/3")):
        once = sweep_c(k, f, seq, grid)
        assert not f.reads_x and len(once.certificates) == len(grid)
        assert once == sweep_c(k, replace(f, reads_x=True), seq, grid)
        for cert in once.certificates:
            assert verify_certificate(cert, k, f) and verify_certificate(cert, k, replace(f, reads_x=True))


@pytest.mark.parametrize("ell_max,reason", [(10**6, "decay-horizon-exhausted"), (500, "tail-unreachable")])
def test_tail_entry_offset_is_scanned_once_per_sweep(monkeypatch, ell_max, reason):
    # x_n = n enters the tail of x - 1000 (threshold 1001) at offset 1000
    from collections import Counter

    from rkhs_cert.registry import resolve_function, resolve_sequence
    from rkhs_cert.sequences import SequenceSpec

    k = make_gaussian()
    f, seq = resolve_function("poly:-1000,1", k), resolve_sequence("arithmetic:1")
    read = Counter()
    point = SequenceSpec.point

    def counting(self, n):
        read[n] += 1
        return point(self, n)

    monkeypatch.setattr(SequenceSpec, "point", counting)
    sweep = sweep_c(k, f, seq, [2.0**-j for j in range(4)], ell_max=ell_max)
    assert [why.split(":")[0] for _, why in sweep.failures] == [reason] * 4
    assert max(read[n] for n in range(1, 501)) == 1


@pytest.mark.parametrize(
    "function,alpha,min_ell",
    [("constant:1.0", 0.5, 0), ("expr:2 + cos(x)", None, 0), ("poly:-30,1", None, 7)],
    ids=["declared", "empirical", "tail-entry"],
)
def test_sweep_with_declared_alpha_matches_single_searches(function, alpha, min_ell):
    # the sweep resolves the tail once and shares its table across scales out
    # of order; each scale's certificate is still the single search's
    from rkhs_cert.registry import resolve_function

    k, seq, grid = make_gaussian(), triangular_sequence(1), (0.5, 1.0, 0.25)
    f = resolve_function(function, k)
    sweep = sweep_c(k, f, seq, c_grid=grid, alpha=alpha)
    alone = [build_witness(k, f, seq, c, alpha=alpha) for c in grid]
    assert list(sweep.certificates) == alone
    assert [cert.r_value._mpf_ for cert in sweep.certificates] == [cert.r_value._mpf_ for cert in alone]
    assert {(cert.alpha, cert.alpha_provenance) for cert in alone} == {(sweep.alpha, sweep.alpha_provenance)}
    assert min(cert.ell for cert in alone) == min_ell
    for cert in sweep.certificates:
        # recomputed from the stored points alone, as verification does
        assert evaluate_ones_form(k, f, cert.c, cert.points, 256)._mpf_ == cert.r_value._mpf_


@pytest.mark.parametrize("search", ["build_witness", "sweep_c"])
def test_nonpositive_declared_alpha_is_refused_before_any_point(search):
    from rkhs_cert.sequences import SequenceSpec

    f, calls = _counting(make_paper_example())
    points = []
    seq = SequenceSpec("counted", lambda n: points.append(n) or n, 1)
    with pytest.raises(ValueError, match="^tail bound alpha must be positive$"):
        if search == "build_witness":
            build_witness(make_gaussian(), f, seq, 1.0, alpha=0.0)
        else:
            sweep_c(make_gaussian(), f, seq, c_grid=(1.0, 0.5), alpha=-1.0)
    assert calls == [] and points == []


def test_negative_doubling_cap_is_rejected():
    k, f, seq = make_gaussian(), make_constant(1.0), triangular_sequence(1)
    with pytest.raises(ValueError, match="doubling cap"):
        build_witness(k, f, seq, 1.0, doubling_cap=-1)
    with pytest.raises(ValueError, match="doubling cap"):
        sweep_c(k, f, seq, c_grid=(1.0,), doubling_cap=-1)


def test_window_no_path_can_take_costs_no_f_values():
    from rkhs_cert.kernels import custom_radial_from_expression

    # never below 2^-(precision + 64): offsets are found from the first gap,
    # yet a window above the dense limit has no evaluation path
    k = custom_radial_from_expression("1/(1 + r) + 1/2**300")
    f, calls = _counting(make_constant(1.0))
    with pytest.raises(WitnessSearchError) as exc:
        build_witness(k, f, triangular_sequence(1), 2.0**-6)
    assert exc.value.reason == "window-too-large"
    assert calls == []


def test_doubling_beyond_the_window_limit_is_refused_before_its_points(monkeypatch):
    from rkhs_cert import witness

    # kernel sections never certify: windows of N, 2N and 4N points, then 8N is refused;
    # without a ray bound each window is summed whole, so f runs at all 4N indices
    k = make_gaussian()
    n = n_threshold(1.0, 1.0, 0.5)
    monkeypatch.setattr(witness, "MAX_WINDOW_POINTS", 4 * n)
    member, calls = _counting(replace(kernel_section(k, 0.0), fn_iv=None))
    with pytest.raises(WitnessSearchError) as exc:
        build_witness(k, member, triangular_sequence(1), 1.0, alpha=0.5)
    assert exc.value.reason == "window-too-large"
    assert str(exc.value) == f"window of {mpmath.nstr(mpf(8 * n), 6)} points exceeds the search limit of {4 * n}"
    assert len(calls) == len(set(calls)) == 4 * n


def test_kernel_without_radial_profile_is_refused():
    # bounded but not radial: the offset search refuses it before any point,
    # and so does the evaluator
    from rkhs_cert.sequences import SequenceSpec

    k = replace(make_gaussian(), kernel_id="gaussian-unprofiled", profile=None)
    f, calls = _counting(make_constant(1.0))
    points = []
    # ascending, so the constant's declared tail bound needs no sample
    seq = SequenceSpec("counted", lambda n: points.append(n) or n, 1)
    for search in (lambda: build_witness(k, f, seq, 1.0), lambda: evaluate_ones_form(k, f, 1.0, [1, 2, 3])):
        with pytest.raises(WitnessSearchError) as exc:
            search()
        assert exc.value.reason == "no-radial-profile" and "\n" not in str(exc.value)
    assert calls == [] and points == []


def test_point_table_extends_and_restarts():
    f, calls = _counting(make_paper_example())
    seq = triangular_sequence(1)
    table = PointTable(f, seq, 256)
    table.window(5, 4)
    values = table.window(3, 8)  # extends on both sides
    table.window(1, 2)  # adjoins the stored range
    assert len(calls) == 10
    raw = table.points(3, 8)
    assert list(raw) == list(seq.points(3, 8))
    with workprec(256):
        assert values == [make_paper_example().eval_mp(x)._mpf_ for x in raw]
    table.window(20, 2)  # disjoint: the table starts over there
    assert len(calls) == 12 and table.first == 20 and len(table.raw) == 2


def test_point_table_probe_beyond_its_points_stores_nothing():
    f, calls = _counting(make_paper_example())
    seq = triangular_sequence(1)
    table = PointTable(f, seq, 256)
    assert list(table.probe(5, 4)) == list(seq.points(5, 4))  # an empty table stores it
    table.window(5, 4)
    assert list(table.probe(9, 3)) == list(seq.points(9, 3))  # adjoins: stored
    assert (table.first, len(table.raw), table.values_held) == (5, 7, 4)
    assert list(table.probe(20, 2)) == list(seq.points(20, 2))  # disjoint: read, not stored
    assert (table.first, len(table.raw), table.values_held) == (5, 7, 4)
    assert len(calls) == 4


@pytest.mark.parametrize("reason", ["coincident", "window-too-large"])
def test_window_failing_point_checks_costs_no_f_values(reason):
    from rkhs_cert.kernels import custom_radial_from_expression
    from rkhs_cert.sequences import SequenceSpec
    from rkhs_cert.witness import WitnessCertificate

    f, calls = _counting(make_paper_example())
    if reason == "coincident":
        # declared ascending with nondecreasing gaps, so find_ell reads only
        # the first gap; x_100 repeats x_99 inside the window at ell = 1
        tri = triangular_sequence(1).generator
        seq = SequenceSpec("repeats", lambda n: tri(n - (n == 100)), 1, gaps_nondecreasing=True)
        with pytest.raises(ValueError, match="coincident"):
            build_witness(make_gaussian(), f, seq, 0.25)
    else:
        # no truncation radius: the verifier refuses a stored window above the
        # full-sum limit before it computes any f value
        k = custom_radial_from_expression("1/(1 + r) + 1/2**300")
        n = n_threshold(k.diag_sup, 2.0**-5, 0.5)
        cert = WitnessCertificate(
            k.kernel_id, f.function_id, "triangular+", 2.0**-5, 0.5, "declared", k.diag_sup,
            n, 0, mpf(-1), triangular_sequence(1).points(1, n), 256,
        )
        with pytest.raises(WitnessSearchError) as exc:
            verify_certificate(cert, k, f)
        assert exc.value.reason == reason and n > 4096
    assert calls == []


# Full-precision r on banded windows (N > 128), recorded before the banded
# bookkeeping moved to raw libmp values and the sums to mpmath.fsum.  The
# 64-bit window of float points is the one whose squared gaps get rounded.
BANDED_R = [
    ("gaussian", "paper_example", "triangular+", 300, 0.5, 256,
     "-9576.839670799254575503950140541343301571294757980311787022107730341513012163307304574"),
    ("inverse_quadratic", "paper_example", "triangular+", 200, 0.25, 256,
     "-930.4355955033121171780907821624137410038033676244756380919382885928552341466918294735"),
    ("laplace", "sin_squared_shifted", "triangular+", 257, 0.5, 256,
     "-16255.0903538565734055722484115086149218440095537658600475706890821197657923431232783"),
    ("laplace", "paper_example", "triangular+", 1025, 0.125, 256,
     "-6182.27880496289262307404941674464260441466027186952612863084328720472018133338542814"),
    ("gaussian", "constant:1.0", "triangular+", 2049, 0.0625, 256,
     "-14351.00365920529370085074618445457887303190527159157620547816905194514904113929222077"),
    ("gaussian", "paper_example", "triangular-", 300, 0.25, 256,
     "-2169.209732416283919514047173476269980166752643188760100864153721544240033895260617977"),
    ("inverse_quadratic", "constant:-0.5", "triangular-", 300, 0.125, 256,
     "-50.49993800712895721361296544703245238534044409313142727381332909300954655799856163749"),
    ("gaussian", "paper_example", "arithmetic:0.1", 300, 0.5, 64,
     "-7241.01217760895331965187438"),
    # Windows whose gaps do not grow along their order, recorded while a
    # window-wide scan of gap order could also end the band: sorted
    # mixed-sign points, gaps that shrink, and every row holding pairs.
    ("gaussian", "paper_example", "mixed_sign_triangular", 300, 0.5, 256,
     "-9576.839917843960874653202907509631755820043343229352077415979936859052252764959985225"),
    ("gaussian", "paper_example", "arithmetic:7.5", 300, 0.5, 256,
     "-9094.184091014709836526665686905567855243224911843720562225591700502748213238258124859"),
    ("laplace", "paper_example", "custom:1000*sqrt(n)", 300, 0.5, 256,
     "-9151.142456144497373063845714625332377486065453273859089122123546161732387064341066212"),
    ("gaussian", "paper_example", "custom:1000*sqrt(n)", 300, 0.5, 256,
     "-9151.142456144508932689781844888708181352369592418751369334519168962525498771921162157"),
]


@pytest.mark.parametrize(
    "kernel,function,sequence,n,c,bits,expected",
    BANDED_R,
    ids=[f"{k}-{f}-{s}-{n}" for k, f, s, n, _, _, _ in BANDED_R],
)
def test_banded_r_bits_are_pinned(kernel, function, sequence, n, c, bits, expected):
    from rkhs_cert.registry import resolve_function, resolve_kernel, resolve_sequence
    from rkhs_cert.serialize import number_to_str

    k = resolve_kernel(kernel)
    pts = resolve_sequence(sequence).points(2, n)
    r = evaluate_ones_form(k, resolve_function(function, k), c, pts, bits)
    assert number_to_str(r, bits) == expected


# r at 64 bits on triangular windows whose points exceed 2^30, recorded while
# only ints below 2^30 got exact-integer bookkeeping at 64 bits and wider ones
# were computed in libmp.  In the second window the squared differences
# exceed 2^64 and round.
WIDE_INT_R = [
    ("inverse_quadratic", "paper_example", 50000, 300, 0.25,
     "-2104.60844039844876407485685"),
    ("inverse_quadratic", "paper_example", 2**25, 200, 0.25,
     "-850.694634552587535036849431"),
]


@pytest.mark.parametrize("kernel,function,start,n,c,expected", WIDE_INT_R)
def test_wide_int_r_bits_are_pinned(kernel, function, start, n, c, expected):
    from rkhs_cert.registry import resolve_function, resolve_kernel, resolve_sequence
    from rkhs_cert.serialize import number_to_str

    k = resolve_kernel(kernel)
    pts = resolve_sequence("triangular+").points(start, n)
    assert min(pts) > 2**30
    r = evaluate_ones_form(k, resolve_function(function, k), c, pts, 64)
    assert number_to_str(r, 64) == expected


def test_ones_form_matches_double_oracle():
    k = make_inverse_quadratic()
    f = make_paper_example()
    seq = triangular_sequence(1)
    pts = seq.points(1, 12)
    r = evaluate_ones_form(k, f, 1.0, pts, 256)
    ref = oracles.ones_form_double(
        oracles.invq_double, oracles.paper_f_double, 1.0, [float(p) for p in pts]
    )
    assert float(r) == pytest.approx(ref, rel=1e-12)


# --- build_witness ---------------------------------------------------------------


def test_gaussian_witness_matches_frozen_oracle():
    cert = build_witness(make_gaussian(), make_constant(1.0), triangular_sequence(1), 1.0)
    assert cert.n_points == 3
    assert cert.ell == 0
    assert tuple(cert.points) == (1, 3, 6)
    assert float(cert.r_value) == pytest.approx(oracles.GAUSSIAN_C1_R, rel=1e-12)
    assert cert.r_value < -5
    assert cert.alpha == 1.0
    assert cert.alpha_provenance == "declared"


def test_invq_witness_matches_frozen_oracle():
    cert = build_witness(
        make_inverse_quadratic(), make_constant(1.0), triangular_sequence(1), 1.0
    )
    assert cert.n_points == 3
    assert float(cert.r_value) == pytest.approx(oracles.INVQ_C1_R, rel=1e-12)
    assert cert.r_value < -5


def test_witness_negative_direction_sequence():
    cert = build_witness(make_gaussian(), make_constant(1.0), triangular_sequence(-1), 1.0)
    assert cert.r_value < 0
    assert verify_certificate(cert, make_gaussian(), make_constant(1.0))


@pytest.mark.parametrize("function", ["constant:-2.5", "poly:3", "poly:1,-0.5,0.25"])
def test_threshold_of_one_point_starts_at_two(function):
    # c^2 alpha^2 > 2 sup K puts the size threshold at N = 1
    from rkhs_cert.registry import resolve_function

    k = make_gaussian()
    f = resolve_function(function, k)
    assert n_threshold(k.diag_sup, 1.0, resolve_alpha(f, triangular_sequence(1)).alpha) == 1
    cert = build_witness(k, f, triangular_sequence(1), 1.0)
    assert cert.n_points == 2
    assert cert.r_value < 0
    assert verify_certificate(cert, k, f)


def test_member_exhausts_doubling_cap():
    k = make_gaussian()
    member = kernel_section(k, 0.0)
    with pytest.raises(WitnessSearchError) as exc:
        build_witness(k, member, triangular_sequence(1), 1.0, alpha=1.0)
    assert exc.value.reason == "doubling-cap-exhausted"


def test_unbounded_kernel_is_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        build_witness(make_exp_product(), make_constant(1.0), triangular_sequence(1), 1.0)


def test_zero_function_has_no_tail():
    with pytest.raises(WitnessSearchError) as exc:
        resolve_alpha(make_constant(0.0), triangular_sequence(1))
    assert exc.value.reason == "no-tail-bound"


def test_resolve_alpha_prefers_declared():
    tail = resolve_alpha(make_paper_example(), triangular_sequence(1))
    assert tail.provenance == "declared"
    assert tail.alpha == oracles.PAPER_ALPHA


def test_resolve_alpha_empirical_for_sin_squared():
    tail = resolve_alpha(make_sin_squared_shifted(), triangular_sequence(1))
    assert tail.provenance == "empirical"
    assert tail.alpha == pytest.approx(1.0, abs=1e-12)


# --- verification ----------------------------------------------------------------


def _small_cert():
    return build_witness(make_gaussian(), make_constant(1.0), triangular_sequence(1), 1.0)


def test_verify_accepts_built_certificate():
    cert = _small_cert()
    assert verify_certificate(cert, make_gaussian(), make_constant(1.0))


def test_verify_rejects_tampered_r():
    from dataclasses import replace

    cert = replace(_small_cert(), r_value=mpf(1.0))
    assert not verify_certificate(cert, make_gaussian(), make_constant(1.0))


def test_verify_rejects_flipped_sign_r():
    from dataclasses import replace

    cert = _small_cert()
    assert not verify_certificate(
        replace(cert, r_value=-cert.r_value), make_gaussian(), make_constant(1.0)
    )


def test_verify_rejects_lowered_n():
    from dataclasses import replace

    cert = replace(_small_cert(), n_points=2, points=(1, 3))
    assert not verify_certificate(cert, make_gaussian(), make_constant(1.0))


def test_verify_rejects_inconsistent_point_count():
    from dataclasses import replace

    cert = _small_cert()
    assert not verify_certificate(
        replace(cert, points=cert.points[:-1]), make_gaussian(), make_constant(1.0)
    )


def test_verify_rejects_understated_diag_sup():
    from dataclasses import replace

    cert = _small_cert()
    # 0 and -1 would make n_threshold raise; the verifier must refuse them first.
    for diag_sup in (0.5, 0.0, -1.0):
        assert not verify_certificate(
            replace(cert, kernel_diag_sup=diag_sup), make_gaussian(), make_constant(1.0)
        )


def test_verify_identifier_mismatch_raises():
    cert = _small_cert()
    with pytest.raises(ValueError, match="does not match"):
        verify_certificate(cert, make_inverse_quadratic(), make_constant(1.0))
    with pytest.raises(ValueError, match="does not match"):
        verify_certificate(cert, make_gaussian(), make_constant(2.0))


def test_verify_rejects_perturbed_low_bits():
    from dataclasses import replace

    cert = _small_cert()
    with workprec(cert.precision_bits):
        nudged = cert.r_value * (1 + mpf(2) ** -80)  # beyond the 2^-100 match window
    assert not verify_certificate(
        replace(cert, r_value=nudged), make_gaussian(), make_constant(1.0)
    )


def test_shared_store_gives_standalone_verdicts_and_r(monkeypatch):
    import rkhs_cert.witness as witness_module

    k, f, seq = make_gaussian(), make_paper_example(), triangular_sequence(1)
    certs = list(sweep_c(k, f, seq, c_grid=(1.0, 0.5, 0.25, 0.125)).certificates)
    largest = certs[-1]
    inner = certs[1]  # the 60-point window at ell = 1 lies inside the 946-point one
    assert set(inner.points) < set(largest.points)
    moved = list(inner.points)
    moved[30] += 1
    with workprec(inner.precision_bits):
        nudged = inner.r_value * (1 + mpf(2) ** -80)
    certs += [
        replace(inner, r_value=nudged),
        replace(inner, points=tuple(moved)),
        replace(inner, ell=inner.ell + 1, points=tuple(seq.points(inner.ell + 2, inner.n_points))),
        replace(inner, precision_bits=128),
    ]
    recomputed = []
    evaluate = witness_module.evaluate_ones_form

    def recording(*args, **kwargs):
        r = evaluate(*args, **kwargs)
        recomputed.append(r._mpf_)
        return r

    monkeypatch.setattr(witness_module, "evaluate_ones_form", recording)
    order = sorted(range(len(certs)), key=lambda i: -certs[i].n_points)
    alone = [verify_certificate(certs[i], k, f) for i in order]
    alone_r, recomputed[:] = list(recomputed), []
    counted, calls = _counting(f)
    store = PointTable(counted, None, 256)
    shared, fresh = [], []
    for i in order:
        before = len(calls)
        shared.append(verify_certificate(certs[i], k, counted, store))
        fresh.append(len(calls) - before)
    assert shared == alone
    assert recomputed == alone_r
    assert alone.count(True) == 5  # the sweep's four and the relabelled precision
    # the sweep's certificates cost one f value per distinct point; the
    # relabelled precision reuses nothing computed at 256 bits
    swept = sum(n for i, n in zip(order, fresh) if i < 4)
    assert swept == len({p for cert in certs[:4] for p in cert.points})
    assert fresh[order.index(len(certs) - 1)] == inner.n_points
    with pytest.raises(ValueError, match="another function"):
        verify_certificate(inner, k, f, PointTable(make_paper_example(), None, 256))


def test_rejected_stored_window_costs_no_f_values():
    k, f, seq = make_gaussian(), make_paper_example(), triangular_sequence(1)
    largest, inner = [sweep_c(k, f, seq, c_grid=(c,)).certificates[0] for c in (0.125, 0.25)]
    repeated = list(inner.points)
    repeated[11] = repeated[10]
    bad = replace(inner, points=tuple(repeated))
    counted, calls = _counting(f)
    store = PointTable(counted, None, 256)
    assert verify_certificate(largest, k, counted, store)
    for verifier_store in (store, None):
        before = len(calls)
        with pytest.raises(ValueError, match="coincident"):
            verify_certificate(bad, k, counted, verifier_store)
        assert len(calls) == before


def test_rejected_far_window_leaves_no_values_for_other_points():
    k, f, seq = make_gaussian(), make_paper_example(), triangular_sequence(1)
    a = sweep_c(k, f, seq, c_grid=(0.25,)).certificates[0]
    repeated = list(a.points)
    repeated[11] = repeated[10]
    # a window far from a's, rejected before f is asked for
    b = replace(a, ell=a.ell + 10 * a.n_points, points=tuple(repeated))
    moved = list(a.points)
    moved[30] += 1
    with workprec(a.precision_bits):
        a_values = [Block([v._mpf_ for v in f.values_mp(a.points)])]  # raw, in a Block as a table may hold them
    # r as it would come out with a's f values under c's points
    forged = evaluate_ones_form(k, f, a.c, moved, a.precision_bits, f_values=lambda: a_values)
    c = replace(a, points=tuple(moved), r_value=forged)
    counted, calls = _counting(f)
    table = PointTable(counted, None, 256)
    assert verify_certificate(a, k, counted, table)
    with pytest.raises(ValueError, match="coincident"):
        verify_certificate(b, k, counted, table)
    before = len(calls)
    assert verify_certificate(c, k, counted, table) == verify_certificate(c, k, f)
    assert len(calls) - before == c.n_points


def test_verifier_table_converts_no_integer_point(monkeypatch):
    from rkhs_cert import witness
    from rkhs_cert.expressions import as_mpf

    k, f = make_gaussian(), make_constant(1.0)
    # N = 129, 513 and 2,049: nested banded windows of integer points
    certs = sweep_c(k, f, triangular_sequence(1), c_grid=(0.125, 0.0625, 0.03125)).certificates
    converted = []

    def counting(x):
        converted.append(x)
        return as_mpf(x)

    monkeypatch.setattr(witness, "as_mpf", counting)
    table = PointTable(f, None, 256)
    assert all(verify_certificate(cert, k, f, table) for cert in reversed(certs))
    assert converted == []


def test_verifier_table_compares_points_as_given():
    f, calls = _counting(make_paper_example())
    table = PointTable(f, None, 256)
    table.points(1, 3, (1, 3, 6))
    table.window(1, 3)
    table.points(2, 3, (3.0, mpf(6), 10))  # equal values of other types
    table.window(2, 3)
    assert calls == [1.0, 3.0, 6.0, 10.0]
    with pytest.raises(ValueError, match="differ"):
        table.points(1, 2, (1, 4))
    assert (table.first, table.raw) == (1, [1, 3, 6, 10])


def test_table_keeps_its_values_when_f_fails_mid_window():
    from rkhs_cert.errors import EvaluationError
    from rkhs_cert.functions import make_expression_function

    f = make_expression_function("1/(x - 45)")
    table = PointTable(f, None, 256)
    table.points(3, 3, (6, 10, 15))
    held = table.window(3, 3)
    # extends on both sides; f is undefined at 45, on the right
    table.points(1, 9, (1, 3, 6, 10, 15, 21, 28, 36, 45))
    with pytest.raises(EvaluationError):
        table.window(1, 9)
    assert table.window(3, 3) == held


@pytest.mark.parametrize("table", ["search", "other function"])
def test_verify_rejects_a_search_table_or_another_functions(table):
    k, f, seq = make_gaussian(), make_constant(1.0), triangular_sequence(1)
    cert = build_witness(k, f, seq, 1.0)
    made = {"search": PointTable(f, seq, 256), "other function": PointTable(make_paper_example(), None, 256)}
    with pytest.raises(ValueError, match="another function or for a search"):
        verify_certificate(cert, k, f, made[table])


# --- raw f values -------------------------------------------------------------------


@given(
    kernel=st.sampled_from([make_gaussian, make_inverse_quadratic, make_laplace]),
    function=st.sampled_from(
        [lambda: make_constant(1.0), make_paper_example, lambda: make_expression_function("cos(x/7) - 1/5")]
    ),
    kind=st.sampled_from(["int", "float", "mpf"]),
    window=st.lists(st.integers(min_value=-300, max_value=300), min_size=2, max_size=40, unique=True),
    bits=st.sampled_from([64, 256]),
    c=st.sampled_from([1.0, 0.25, 0.0625]),
)
@settings(max_examples=80, deadline=None)
def test_table_values_give_the_bits_of_mpf_values(kernel, function, kind, window, bits, c):
    """A PointTable's values give the r of the path without a table, bit
    for bit, and neumaier_sum on a Block of raw tuples is mpmath.fsum on their mpf values."""
    from rkhs_cert.quadform import neumaier_sum

    k, f = kernel(), function()
    with workprec(bits):
        pts = {"int": window, "float": [x / 8 for x in window], "mpf": [mpf(x) / 3 for x in window]}[kind]
    n = len(pts)
    table = PointTable(f, None, bits)
    table.points(1, n, pts)
    with_table = evaluate_ones_form(k, f, c, pts, bits, f_values=partial(table.blocks, 1, n))
    assert with_table._mpf_ == evaluate_ones_form(k, f, c, pts, bits)._mpf_
    with workprec(bits):
        values = f.values_mp(pts)
        assert table.window(1, n) == [v._mpf_ for v in values]
        assert all(type(v) is tuple for v in table.window(1, n))
        assert neumaier_sum([Block([v._mpf_ for v in values])])._mpf_ == mpmath.fsum(values)._mpf_


def test_point_table_holds_raw_values_filled_a_block_at_a_time():
    """2^12 paper_example values at 256 bits take at most 200 bytes each in
    the table (about 220 as mpf values), and filling it holds at most one
    block of mpf values, 255 bytes each at most, on top of that."""
    import tracemalloc

    from rkhs_cert.witness import VALUE_BLOCK

    f, n = make_paper_example(), 2**12
    assert VALUE_BLOCK < n
    table = PointTable(f, None, 256)
    table.points(1, n, triangular_sequence(1).points(1, n))
    tracemalloc.start()
    try:
        table.blocks(1, n)
        filled, peak = tracemalloc.get_traced_memory()
        del table
        held = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 200 * n
    assert peak - filled <= 255 * VALUE_BLOCK


_BLOCK_FUNCTIONS = {
    "paper_example": make_paper_example,
    "cos(x/7) - 1/5": lambda: make_expression_function("cos(x/7) - 1/5"),
    "exp(x*x)": lambda: make_expression_function("exp(x*x)"),
    "kernel_section:0.0": lambda: kernel_section(make_gaussian(), 0.0),
    "cos(3*x) * exp(x/2)": lambda: make_expression_function("cos(3*x) * exp(x/2)"),
    "x - 45": lambda: make_expression_function("x - 45"),
    "0*x": lambda: make_expression_function("0*x"),
    "constant:-0.1": lambda: make_constant(-0.1),
}


@given(
    name=st.sampled_from(sorted(_BLOCK_FUNCTIONS)),
    bits=st.sampled_from([64, 256]),
    block=st.sampled_from([1, 3, 8]),
    requests=st.lists(st.tuples(st.integers(1, 120), st.integers(1, 40)), min_size=1, max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_window_sum_of_blocks_is_mpf_sum_of_raw_values(name, bits, block, requests):
    """A table's window sum is ``mpf_sum`` on the window's raw tuples, bit
    for bit, and ``window`` gives those tuples, whatever blocks the window
    crosses and however the table grew to hold it: by prepending, by
    appending or by a restart.  The points run from x = -39 to 80, so f
    spans narrow and wide ranges, with zeros and both signs."""
    from unittest.mock import patch

    from mpmath.libmp import mpf_sum

    from rkhs_cert import witness
    from rkhs_cert.quadform import neumaier_sum
    from rkhs_cert.sequences import SequenceSpec

    f, seq = _BLOCK_FUNCTIONS[name](), SequenceSpec("shifted", lambda n: n - 40, None)
    table = PointTable(f, seq, bits)
    with patch.object(witness, "VALUE_BLOCK", block), workprec(bits):
        for start, count in requests:
            raw = [v._mpf_ for v in f.values_mp(seq.points(start, count))]
            summed = neumaier_sum(table.blocks(start, count))
            assert summed._mpf_ == mpf_sum(raw, *mpmath.mp._prec_rounding)
            assert table.window(start, count) == raw


_CUT_FUNCTIONS = {
    "gaussian section": lambda x0: kernel_section(make_gaussian(), x0),
    "laplace section": lambda x0: kernel_section(make_laplace(), x0),
    "exp(-x*x)": lambda x0: make_expression_function("exp(-x*x)"),
}

# Where a section's centre lies on the points' way: before them, among them (about x_24) or beyond them.
_CENTRES = {"before": -5.0, "inside": 300.5, "after": 1e7}


@given(
    name=st.sampled_from(sorted(_CUT_FUNCTIONS)),
    centre=st.sampled_from(sorted(_CENTRES)),
    descending=st.booleans(),
    bits=st.sampled_from([64, 256]),
    block=st.sampled_from([4, 16, 64]),
    requests=st.lists(st.tuples(st.integers(1, 120), st.integers(1, 4), st.integers(0, 63)), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_search_window_sum_ending_early_is_mpf_sum_of_every_value(name, centre, descending, bits, block, requests):
    """A search table's window sum, which may end at the first fill past
    which every value is proved dropped, is ``mpf_sum`` on all N values
    computed directly, bit for bit; and ``window`` still gives every value.
    The points are +-n(n+1)/2, ascending or descending, each window 1 to 4
    fills long, starting where the table's earlier fills do not align."""
    from unittest.mock import patch

    from mpmath.libmp import mpf_sum

    from rkhs_cert import witness
    from rkhs_cert.quadform import neumaier_sum
    from rkhs_cert.sequences import SequenceSpec

    sign = -1 if descending else 1
    f = _CUT_FUNCTIONS[name](sign * _CENTRES[centre])
    seq = SequenceSpec("signed triangular", lambda n: sign * n * (n + 1) // 2, None)
    table = PointTable(f, seq, bits)
    with patch.object(witness, "VALUE_BLOCK", block), workprec(bits):
        for start, fills, less in requests:
            count = max(fills * block - less, 1)
            raw = [v._mpf_ for v in f.values_mp(seq.points(start, count))]
            assert neumaier_sum(table.blocks(start, count))._mpf_ == mpf_sum(raw, *mpmath.mp._prec_rounding)
            assert table.window(start, count) == raw


@pytest.mark.parametrize(
    "prefix, ends_early",
    [
        ([1, -1, 2**-200, -(2**-200)], False),
        # mpf_sum drops 2^-300, so its running sum is 0 although the exact sum is not
        ([1, 2**-300, -1, 0], False),
        ([1, -1, 2**-200, 0], True),
    ],
    ids=["exact sum 0", "running sum 0", "running sum 2^-200"],
)
def test_window_sum_goes_on_past_a_prefix_whose_running_sum_is_zero(prefix, ends_early):
    """After a prefix whose running mpf_sum is 0, mpf_sum takes the next
    value however small, so the window is summed whole; with a nonzero one
    it ends after the prefix.  Either way its sum is mpf_sum's on every
    value.  The prefix is one fill too wide for ints at 64 bits; the values
    after it are 2^-1000, below the bound 2^-900 its interval form gives."""
    from unittest.mock import patch

    from mpmath.libmp import mpf_sum

    from rkhs_cert import witness
    from rkhs_cert.functions import CandidateFunction
    from rkhs_cert.quadform import neumaier_sum
    from rkhs_cert.sequences import SequenceSpec

    values = [*prefix, *[2**-1000] * 4]
    tail = mpmath.iv.mpf([0, mpf(2) ** -900])
    f = CandidateFunction("hand-made", lambda x: mpf(values[int(x) - 1]), fn_iv=lambda x: tail)
    f, calls = _counting(f)
    table = PointTable(f, SequenceSpec("n", lambda n: n, None), 64)
    with patch.object(witness, "VALUE_BLOCK", 4), workprec(64):
        summed = neumaier_sum(table.blocks(1, 8))
        assert summed._mpf_ == mpf_sum([mpf(v)._mpf_ for v in values], *mpmath.mp._prec_rounding)
    assert summed == (2**-200 if ends_early else 2**-998)
    assert len(calls) == (4 if ends_early else 8)


def test_verifier_evaluates_f_at_every_point_of_a_window_a_search_ends_early():
    """On a window whose values past the first fill are all dropped (a
    gaussian section at 0, points 0, 1, 3, 6, ...), a search's table
    computes one fill and gives r to the bit, while ``verify_certificate``
    evaluates f at every stored point and accepts that r."""
    from rkhs_cert.functions import DECLARED
    from rkhs_cert.sequences import SequenceSpec
    from rkhs_cert.witness import VALUE_BLOCK, WitnessCertificate

    k, bits, c, n = make_gaussian(), 256, 64.0, 2 * VALUE_BLOCK
    seq = SequenceSpec("triangular from 0", lambda m: m * (m - 1) // 2, None)
    points = seq.points(1, n)
    f, calls = _counting(kernel_section(k, 0.0))
    searched = evaluate_ones_form(k, f, c, points, bits, f_values=partial(PointTable(f, seq, bits).blocks, 1, n))
    assert len(calls) == VALUE_BLOCK
    r = evaluate_ones_form(k, f, c, points, bits)
    assert searched._mpf_ == r._mpf_ and r < 0
    cert = WitnessCertificate(
        kernel_id=k.kernel_id, function_id=f.function_id, sequence_id=seq.name, c=c, alpha=0.5,
        alpha_provenance=DECLARED, kernel_diag_sup=k.diag_sup, n_points=n, ell=0, r_value=r,
        points=points, precision_bits=bits,
    )
    del calls[:]
    assert verify_certificate(cert, k, f)
    assert len(calls) == n


def test_bounded_away_functions_never_ask_for_a_ray_bound(monkeypatch):
    """paper_example and constant:1.0 fill only fixed-point blocks, so their
    sweeps ask for no ray bound; a kernel section's search does."""
    from rkhs_cert.functions import CandidateFunction

    asked = []
    ray_bound = CandidateFunction.ray_bound
    monkeypatch.setattr(
        CandidateFunction, "ray_bound", lambda self, x, d: asked.append(self.function_id) or ray_bound(self, x, d)
    )
    k, seq = make_gaussian(), triangular_sequence(1)
    assert len(sweep_c(k, make_paper_example(), seq, c_grid=(1.0, 0.5, 0.25)).certificates) == 3
    assert len(sweep_c(k, make_constant(1.0), seq, c_grid=tuple(2.0**-j for j in range(7))).certificates) == 7
    assert asked == []
    with pytest.raises(WitnessSearchError):
        build_witness(k, kernel_section(k, 0.0), seq, 1.0, alpha=0.5)
    assert asked


def test_value_blocks_hold_ints_where_the_exponents_are_close():
    """A narrow-range f fills its blocks with ints over one exponent, packed
    in one bytes object; a kernel section, whose values fall by more than 64
    bits within a block, keeps its raw tuples; a function without x holds
    one int a block, in a list of its values."""

    def form(b):
        if b.exp is None:
            return "raw"
        if b.width:
            return f"{type(b.values).__name__} of {b.size()} fields"
        return f"{len({id(q) for q in b.values})} int"

    pts = triangular_sequence(1).points(1, 2048)
    kinds = {}
    for name, f in [
        ("paper_example", make_paper_example()),
        ("kernel_section", kernel_section(make_gaussian(), 0.0)),
        ("sqrt(2)/7", make_expression_function("sqrt(2)/7")),
    ]:
        table = PointTable(f, None, 256)
        table.points(1, 2048, pts)
        blocks = table.blocks(1, 2048)
        assert all(type(b) is Block for b in blocks) and sum(b.size() for b in blocks) == 2048
        kinds[name] = [form(b) for b in blocks]
    assert kinds == {
        "paper_example": ["bytes of 1024 fields", "bytes of 1024 fields"],
        "kernel_section": ["raw", "raw"],
        "sqrt(2)/7": ["1 int", "1 int"],
    }


@pytest.mark.parametrize(
    "function, per_value",
    [
        (make_paper_example, 48),
        (lambda: make_expression_function("sqrt(2)/7"), 16),
    ],
    ids=["paper_example", "without x"],
)
def test_point_table_holds_values_as_fixed_point_ints(function, per_value):
    """2^12 f values at 256 bits take at most 48 bytes each in the table for
    paper_example (about 33 packed; about 72 as a list of ints and 138 as
    raw tuples), and at most 16 for a function without x (about 9), whose
    blocks share one int each.  A kernel section's fills are too wide for
    ints; its search holds few of them
    (``test_kernel_section_searches_hold_one_block_of_values``)."""
    import tracemalloc

    f, n = function(), 2**12
    table = PointTable(f, None, 256)
    table.points(1, n, triangular_sequence(1).points(1, n))
    tracemalloc.start()
    try:
        table.blocks(1, n)
        filled = tracemalloc.get_traced_memory()[0]
        del table
        held = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= per_value * n


@pytest.mark.parametrize(
    "kernel, x0", [(make_gaussian, 0.0), (make_laplace, 1.5)], ids=["gaussian at 0", "laplace at 1.5"]
)
def test_kernel_section_searches_hold_one_block_of_values(monkeypatch, kernel, x0):
    """The positive controls, a kernel section with alpha 0.5 at the scales
    2^0 ... 2^-3, exhaust the doubling cap at every scale, and their sweep's
    one table computes and holds at most VALUE_BLOCK f values, at most
    128 KB of them: each search ends its window sums after the first fill
    (``PointTable._drops_rest``), so the raw tuples of the wide fills stay
    few: 9 values, about 1.1 KB, under the gaussian and 576, about 58 KB,
    under laplace, where without the stop they were 32,833 and 32,839."""
    import tracemalloc

    from rkhs_cert import witness
    from rkhs_cert.witness import VALUE_BLOCK

    tables = []

    class Table(PointTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(witness, "PointTable", Table)
    k = kernel()
    f, calls = _counting(kernel_section(k, x0))
    tracemalloc.start()
    try:
        result = sweep_c(k, f, triangular_sequence(1), c_grid=(1.0, 0.5, 0.25, 0.125), alpha=0.5)
        (table,) = tables
        filled = tracemalloc.get_traced_memory()[0]
        held, table.value_blocks = table.values_held, []
        held_bytes = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not result.certificates
    assert [reason.split(":")[0] for _, reason in result.failures] == ["doubling-cap-exhausted"] * 4
    assert held <= len(calls) <= VALUE_BLOCK
    assert held_bytes <= 128 * 1024


@pytest.mark.parametrize("special", [finf, fnan], ids=["inf", "nan"])
def test_a_fill_with_inf_or_nan_keeps_raw_tuples(special):
    """A fill that holds inf or nan keeps its raw tuples, and its block sums
    as mpf_sum does on them; so does the same fill without it where its ints
    would be too wide."""
    from mpmath.libmp import mpf_sum, round_nearest

    from rkhs_cert.quadform import neumaier_sum
    from rkhs_cert.witness import _value_block

    finite = [from_man_exp(3, -2), from_man_exp(-1, 900), from_man_exp(0, 0)]
    raw = [*finite, special]
    block = _value_block(raw, 256)
    assert block == Block(raw)
    with workprec(256):
        assert neumaier_sum([block])._mpf_ == mpf_sum(raw, 256, round_nearest)
    assert _value_block(finite, 64) == Block(finite)


WINDOW_POINTS = 2**16


def _evaluator_peak(order):
    """(r, tracemalloc peak) of evaluate_ones_form on the 2^16-point
    triangular window, ascending or descending, with its f values given."""
    import tracemalloc

    k, f, n = make_gaussian(), make_constant(1.0), WINDOW_POINTS
    pts = triangular_sequence(1).points(1, n)
    if order == "descending":
        pts = pts[::-1]
    table = PointTable(f, None, 256)
    table.points(1, n, pts)
    table.blocks(1, n)
    evaluate_ones_form(k, f, 0.5, pts[:8], 256)  # the profile's truncation radius, cached
    tracemalloc.start()
    try:
        r = evaluate_ones_form(k, f, 0.5, pts, 256, f_values=partial(table.blocks, 1, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return r, peak


def test_evaluator_holds_nothing_per_point_beyond_its_inputs():
    """On a monotone 2^16-point triangular window with its f values given,
    evaluate_ones_form holds at most 4 bytes a point beyond its inputs
    (under 0.1): it reads consecutive keys in place.  A list of the
    window's gaps takes about 47."""
    r, peak = _evaluator_peak("ascending")
    assert r < 0
    assert peak <= 4 * WINDOW_POINTS


def test_descending_window_holds_nothing_per_point_beyond_its_inputs():
    """The same window descending holds at most 4 bytes a point too (under
    0.1), and gives the ascending window's r bit for bit: a row whose
    nearest pair lies beyond r* is skipped with no term.  One term for
    every empty row takes about 97."""
    r, peak = _evaluator_peak("descending")
    assert r._mpf_ == _evaluator_peak("ascending")[0]._mpf_
    assert peak <= 4 * WINDOW_POINTS


@pytest.mark.parametrize("through_table", [False, True])
def test_float_window_keeps_no_mpf_points(through_table):
    """A float window is converted once for its keys and once more by f,
    never held as mpf points while f runs: 2^14 points at 256 bits peak at
    no more than 400 bytes each (about 300), with or without a PointTable.
    A list of the window's mpf points kept alive while f runs takes the peak
    to about 490."""
    import tracemalloc

    k, f, n = make_gaussian(), make_constant(1.0), 2**14
    pts = [7.5 * j for j in range(1, n + 1)]
    f_values = None
    if through_table:
        table = PointTable(f, None, 256)
        table.points(1, n, pts)
        f_values = partial(table.blocks, 1, n)
    evaluate_ones_form(k, f, 0.5, pts[:8], 256)  # the profile's truncation radius, cached
    tracemalloc.start()
    try:
        r = evaluate_ones_form(k, f, 0.5, pts, 256, f_values=f_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r < 0
    assert peak <= 400 * n


# --- sweep ------------------------------------------------------------------------


def test_sweep_partition_and_scaling():
    k = make_gaussian()
    f = make_constant(1.0)
    seq = triangular_sequence(1)
    grid = (1.0, 0.5, 0.25)
    sweep = sweep_c(k, f, seq, c_grid=grid)
    assert sweep.c_values == grid
    assert len(sweep.certificates) + len(sweep.failures) == len(grid)
    assert len(sweep.certificates) == 3
    for cert in sweep.certificates:
        assert 2.0 <= cert.n_points * cert.c**2 <= 3.0
        assert verify_certificate(cert, k, f)


def test_sweep_member_all_failures():
    # a member with an over-optimistic declared tail: every scale must fail
    from dataclasses import replace

    k = make_gaussian()
    member = kernel_section(k, 0.0)
    fake = TailBound(alpha=1.0, sign=1, threshold=0.0)
    optimistic = replace(member, tail_pos=fake, tail_neg=fake)
    sweep = sweep_c(k, optimistic, triangular_sequence(1), c_grid=(1.0, 0.5))
    assert len(sweep.certificates) == 0
    assert len(sweep.failures) == 2
    for _, reason in sweep.failures:
        assert reason.startswith("doubling-cap-exhausted")
    assert sweep.alpha_provenance == "declared"


def test_member_empirical_tail_is_rejected():
    # section values shrink below double range along the sequence, so the
    # sampled bound rounds to zero and must be refused outright
    k = make_gaussian()
    member = kernel_section(k, 0.0)
    with pytest.raises(WitnessSearchError) as exc:
        resolve_alpha(member, triangular_sequence(1))
    assert exc.value.reason == "no-tail-bound"


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_c(make_gaussian(), make_constant(1.0), triangular_sequence(1), c_grid=())
    with pytest.raises(ValueError):
        sweep_c(make_gaussian(), make_constant(1.0), triangular_sequence(1), c_grid=(0.0,))


def test_sweep_certificates_hold_at_most_10_bytes_a_point():
    """The certificates of a sweep of constant:1.0 down to 2^-6 (10,929 points
    in all) hold their points packed: no int object and no reference per point."""
    import tracemalloc

    k, f, seq = make_gaussian(), make_constant(1.0), triangular_sequence(1)
    grid = [2.0**-j for j in range(7)]
    sweep_c(k, f, seq, grid)  # mpmath's caches, filled once
    tracemalloc.start()
    try:
        sweep = sweep_c(k, f, seq, grid)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sum(cert.n_points for cert in sweep.certificates)
    assert len(sweep.certificates) == len(grid) and n == 10929
    assert held <= 10 * n


# r of certificates whose windows hold a point that is no 64-bit int, which
# stay tuples: gaussian, constant:1.0, c = 0.25, 256 bits, 33 points each.
TUPLE_WINDOW_R = [
    ("arithmetic:1e19", 0, int, "-35.0625"),  # every point at least 2^63
    ("arithmetic:1e18", 0, int, "-35.0625"),  # x_10 = 10^19 leaves the word
    ("arithmetic:7.5", 0, float,
     "-35.06249999999999999999997617047602079673325254995102598089264731923046355140423749011"),
    ("custom:n**2/2 + 1/4", 1, float,
     "-35.05862951828215799384414086329939595551065478469881421866710074692019308527023730643"),
]


@pytest.mark.parametrize("sequence,ell,kind,expected", TUPLE_WINDOW_R, ids=[s for s, *_ in TUPLE_WINDOW_R])
def test_a_window_with_a_point_beyond_64_bit_ints_keeps_a_tuple_and_its_r_bits(sequence, ell, kind, expected):
    from rkhs_cert.registry import resolve_sequence
    from rkhs_cert.serialize import number_to_str

    k, f, seq = make_gaussian(), make_constant(1.0), resolve_sequence(sequence)
    cert = build_witness(k, f, seq, 0.25)
    assert (cert.n_points, cert.ell) == (33, ell)
    assert type(cert.points) is tuple and {type(p) for p in cert.points} == {kind}
    assert cert.points == tuple(seq.point(n) for n in range(ell + 1, ell + 34))
    assert number_to_str(cert.r_value, 256) == expected
    assert verify_certificate(cert, k, f)


def test_a_packed_window_below_64_bits_takes_the_checked_path():
    from rkhs_cert.sequences import is_packed
    from rkhs_cert.witness import _window_keys

    points = triangular_sequence(1).points(2**27, 5)  # each above 2^53
    assert is_packed(points) and min(points) > 2**53
    assert _window_keys(points, 64) == (points, 0)
    keys, e = _window_keys(points, 53)
    assert e > 0 and (list(keys), e) == (list(_window_keys(tuple(points), 53)[0]), e)
    k, f = make_gaussian(), make_paper_example()
    for bits in (53, 64):
        r = evaluate_ones_form(k, f, 0.5, points, bits)
        assert r._mpf_ == evaluate_ones_form(k, f, 0.5, tuple(points), bits)._mpf_
