import math
import random
from dataclasses import replace

import pytest
from mpmath import mpf, workprec

import oracles
from rkhs_cert.functions import (
    kernel_section,
    make_constant,
    make_paper_example,
)
from rkhs_cert.interpolant import min_norm_interpolant_norm, norm_growth_trace
from rkhs_cert.kernels import custom_radial_from_expression, make_gaussian
from rkhs_cert.sequences import triangular_sequence


def test_two_point_closed_form():
    # f = 1 on {0, t}: squared norm is 2 / (1 + K(0, t))
    kernel = make_gaussian()
    f = make_constant(1.0)
    for t, expected_sq in oracles.INTERP_NORM_SQ.items():
        norm = min_norm_interpolant_norm(kernel, f, [0.0, t])
        assert float(norm) ** 2 == pytest.approx(expected_sq, rel=1e-12)


def test_matches_dense_double_solve():
    import numpy as np

    kernel = make_gaussian()
    f = make_paper_example()
    points = [0.3, 1.7, 2.9, 4.2]
    entries = np.array(oracles.gram_double(oracles.gaussian_double, points))
    values = np.array([oracles.paper_f_double(p) for p in points])
    expected = math.sqrt(float(values @ np.linalg.solve(entries, values)))
    norm = min_norm_interpolant_norm(kernel, f, points)
    assert float(norm) == pytest.approx(expected, rel=1e-9)


def test_zero_function_has_zero_norm():
    norm = min_norm_interpolant_norm(make_gaussian(), make_constant(0.0), [0.0, 1.0, 2.5])
    assert norm == 0


def test_member_section_norm_is_exact():
    # values of K(., 0) on a set containing 0 are interpolated by the section
    # itself, so the minimum norm equals sqrt(K(0, 0)) = 1 on the nose
    kernel = make_gaussian()
    member = kernel_section(kernel, 0.0)
    norm = min_norm_interpolant_norm(kernel, member, [0.0, 1.0, 3.0, 6.0])
    with workprec(256):
        assert abs(norm - 1) <= mpf(2) ** -240


def test_nesting_monotonicity_seeded():
    kernel = make_gaussian()
    f = make_paper_example()
    rng = random.Random(7)
    for _ in range(10):
        points = sorted(rng.uniform(-3.0, 3.0) for _ in range(6))
        if min(b - a for a, b in zip(points, points[1:])) < 1e-3:
            continue
        norms = [
            min_norm_interpolant_norm(kernel, f, points[: k + 2]) for k in range(5)
        ]
        with workprec(256):
            for a, b in zip(norms, norms[1:]):
                assert b >= a - mpf(2) ** -60


def test_ridge_damps_toward_exact():
    kernel = make_gaussian()
    f = make_paper_example()
    points = [0.0, 0.5, 1.0, 2.0]
    exact = min_norm_interpolant_norm(kernel, f, points)
    ridged = [
        min_norm_interpolant_norm(kernel, f, points, ridge=eps)
        for eps in (1e-2, 1e-6, 1e-10)
    ]
    for norm in ridged:
        assert norm <= exact
    assert ridged[0] <= ridged[1] <= ridged[2]


def test_member_trace_stays_flat():
    kernel = make_gaussian()
    member = kernel_section(kernel, 0.0)
    trace = norm_growth_trace(kernel, member, [0.0, 1.0, 3.0], steps=4)
    assert trace.truncated_reason is None
    assert len(trace.norms) == 5
    for norm in trace.norms:
        assert abs(float(norm) - 1.0) <= 1e-10
    assert not trace.divergence_evidence
    # widening skips the base nodes already present
    assert [len(s) for s in trace.point_sets] == [3, 4, 5, 6, 7]
    assert float(trace.point_sets[1][-1]) == 6.0


def test_candidate_trace_grows():
    kernel = make_gaussian()
    f = make_paper_example()
    trace = norm_growth_trace(
        kernel, f, [1.0, 3.0, 6.0], steps=6, divergence_factor=1.1
    )
    assert trace.rule == "widen"
    assert trace.truncated_reason is None
    assert len(trace.norms) == 7
    for a, b in zip(trace.norms, trace.norms[1:]):
        assert b >= a
    assert trace.divergence_evidence
    assert trace.precision_bits == (256,) * 7
    for small, large in zip(trace.point_sets, trace.point_sets[1:]):
        assert set(map(float, small)) <= set(map(float, large))


def test_refine_rule_inserts_midpoints():
    kernel = make_gaussian()
    f = make_paper_example()
    trace = norm_growth_trace(kernel, f, [0.0, 2.0], extension_rule="refine", steps=3)
    assert [len(s) for s in trace.point_sets] == [2, 3, 5, 9]
    for a, b in zip(trace.norms, trace.norms[1:]):
        assert b >= a


def test_singular_gram_truncates_honestly():
    # constant kernel: Gram is all-ones, rank one at every precision
    kernel = custom_radial_from_expression("1 + 0 * r", kernel_id="flat")
    f = make_paper_example()
    trace = norm_growth_trace(kernel, f, [0.0], steps=3)
    assert len(trace.norms) == 1
    assert trace.truncated_reason is not None
    assert "singular" in trace.truncated_reason
    assert len(trace.point_sets) == 1


def test_ridge_rescues_singular_gram():
    kernel = custom_radial_from_expression("1 + 0 * r", kernel_id="flat")
    f = make_paper_example()
    trace = norm_growth_trace(kernel, f, [0.0], steps=3, ridge=1e-6)
    assert trace.truncated_reason is None
    assert len(trace.norms) == 4


def test_argument_validation():
    kernel = make_gaussian()
    f = make_constant(1.0)
    with pytest.raises(ValueError):
        norm_growth_trace(kernel, f, [0.0, 1.0], steps=0)
    with pytest.raises(ValueError):
        norm_growth_trace(kernel, f, [0.0, 1.0], extension_rule="shrink")
    with pytest.raises(ValueError):
        norm_growth_trace(kernel, f, [])
    with pytest.raises(ValueError):
        norm_growth_trace(kernel, f, [0.5], extension_rule="refine")


def _counted(sequence, calls):
    """``sequence`` with each index it is asked for appended to ``calls``."""
    return replace(sequence, generator=lambda n: calls.append(n) or sequence.point(n))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_widen_from_the_first_points_of_the_sequence_scans_one_index_more(k):
    # base = x_1..x_k: the step scans indices 1..k + 1, the most the limit allows, and adds x_{k+1}
    sequence, calls = triangular_sequence(1), []
    base = list(sequence.points(1, k))
    trace = norm_growth_trace(make_gaussian(), make_constant(1.0), base, steps=1, sequence=_counted(sequence, calls))
    assert trace.point_sets[1] == tuple(base) + (sequence.point(k + 1),)
    assert calls == list(range(1, k + 2))


def test_widen_refuses_a_sequence_that_repeats_past_the_limit():
    # x_1..x_4 = 1, 2, 3, 3 repeat the base 1, 2, 3: the new x_5 = 5 lies beyond the limit of 4 indices
    values = [1.0, 2.0, 3.0, 3.0, 5.0]
    sequence = replace(triangular_sequence(1), name="repeating", generator=lambda n: values[n - 1])
    with pytest.raises(ValueError, match="sequence repeating repeats: its indices 1 to 4 give no point new"):
        norm_growth_trace(make_gaussian(), make_constant(1.0), [1.0, 2.0, 3.0], steps=1, sequence=sequence)
