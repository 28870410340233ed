"""End-to-end acceptance checks, one criterion per test.

Each test covers one advertised guarantee of the toolkit and records a
single [PASS]/[FAIL] line (echoed in the terminal summary).  Oracles live in
``oracles.py`` and are computed with the standard library only.
"""

import itertools
import math
import random
from contextlib import contextmanager

import pytest
from mpmath import mpf, workprec

import conftest
import oracles
from rkhs_cert import (
    WitnessSearchError,
    arithmetic_sequence,
    build_witness,
    dnn_diagonal,
    envelope_dominates,
    fd_cross_derivative,
    gap_lower_bound,
    kernel_section,
    make_constant,
    make_exp_product,
    make_gaussian,
    make_inverse_quadratic,
    make_laplace,
    make_sin_squared_shifted,
    min_norm_interpolant_norm,
    mixed_sign_sequence,
    norm_growth_trace,
    schur_deflation_control,
    sign_obstruction_check,
    sweep_c,
    tail_lower_bound,
    triangular_sequence,
    verify_certificate,
    verify_decay,
    witness_to_dict,
    write_json,
)
from rkhs_cert.cli import main as cli_main


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        conftest.acceptance_lines.append(f"[FAIL] criterion {number}: {description}")
        raise
    else:
        conftest.acceptance_lines.append(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def unit_scale_certs():
    seq = triangular_sequence(1)
    ones = make_constant(1.0)
    return {
        "gaussian": build_witness(make_gaussian(), ones, seq, 1.0),
        "inverse_quadratic": build_witness(make_inverse_quadratic(), ones, seq, 1.0),
    }


@pytest.fixture(scope="module")
def gaussian_grid_sweep():
    return sweep_c(make_gaussian(), make_constant(1.0), triangular_sequence(1))


@pytest.fixture(scope="module")
def sin_squared_sweep():
    return sweep_c(
        make_gaussian(),
        make_sin_squared_shifted(),
        triangular_sequence(1),
        c_grid=(1.0, 0.5, 0.25),
    )


def test_criterion_1_unit_scale_witnesses(unit_scale_certs):
    with criterion(1, "unit-scale certificates reproduce the independent double-sum oracle"):
        expected = {
            "gaussian": oracles.GAUSSIAN_C1_R,
            "inverse_quadratic": oracles.INVQ_C1_R,
        }
        for name, cert in unit_scale_certs.items():
            assert cert.n_points == 3
            assert float(cert.r_value) == pytest.approx(expected[name], rel=1e-12)
            assert cert.r_value < -5


def test_criterion_2_grid_scaling_law(gaussian_grid_sweep):
    with criterion(2, "every scale 2^0..2^-8 yields a verified certificate, N(c)*c^2 in [2,3]"):
        sweep = gaussian_grid_sweep
        assert sweep.c_values == tuple(2.0**-k for k in range(9))
        assert sweep.failures == ()
        assert len(sweep.certificates) == 9
        kernel = make_gaussian()
        ones = make_constant(1.0)
        for cert in sweep.certificates:
            assert verify_certificate(cert, kernel, ones)
            assert 2.0 <= cert.n_points * cert.c**2 <= 3.0


def test_criterion_3_member_positive_controls():
    with criterion(3, "member controls stay nonnegative: PSD Schur deflation, no false witness"):
        kernel = make_gaussian()
        rng = random.Random(12345)
        points = []
        while len(points) < 50:
            x = rng.uniform(-3.0, 3.0)
            if all(abs(x - p) > 1e-4 for p in points):
                points.append(x)
        verdict = schur_deflation_control(kernel, 0.0, points, 256)
        assert verdict.is_psd
        member = kernel_section(kernel, 0.0)
        scale = 1.0 / math.sqrt(kernel.diag_sup)
        with pytest.raises(WitnessSearchError) as exc:
            build_witness(kernel, member, triangular_sequence(1), scale, alpha=1.0)
        assert exc.value.reason == "doubling-cap-exhausted"


def test_criterion_4_gap_identity_exact():
    with criterion(4, "window gap identity holds exactly over all small windows and offsets"):
        for seq in (triangular_sequence(1), triangular_sequence(-1)):
            for ell in range(101):
                for n in range(1, 7):
                    for m in range(n + 1, 7):
                        direct = abs(seq.point(ell + n) - seq.point(ell + m))
                        assert 2 * direct == abs(n - m) * (2 * ell + n + m + 1)
                        assert direct >= ell
                        assert gap_lower_bound(seq, n, m, ell) == direct


def test_criterion_5_decay_verdicts():
    with criterion(5, "decay passes for decaying kernels, diverges for exp(x*y), obstructions found"):
        tri = triangular_sequence(1)
        assert verify_decay(make_gaussian(), tri, 3, 10, math.exp(-100)).passed
        # the inverse quadratic needs a deeper offset before its polynomial
        # tail clears 1e-3: the window's smallest gap is ell + 2
        assert verify_decay(make_inverse_quadratic(), tri, 3, 40, 1e-3).passed
        assert verify_decay(make_laplace(), tri, 3, 10, math.exp(-5)).passed
        grower = make_exp_product()
        for seq in (tri, arithmetic_sequence(1.0), mixed_sign_sequence()):
            report = verify_decay(grower, seq, 3, 10, 1e-8)
            assert not report.passed
            assert report.reason == "divergent"
            assert report.sign_obstruction is not None
        for pattern in itertools.product((-1, 1), repeat=3):
            i, j, k = sign_obstruction_check(pattern)
            assert 1 <= i < j < k <= 3
            assert pattern[i - 1] == pattern[j - 1] or pattern[i - 1] == pattern[k - 1] or pattern[j - 1] == pattern[k - 1]


def test_criterion_6_derivative_formula():
    with criterion(6, "diagonal derivatives match finite differences; envelope dominates exactly"):
        rng = random.Random(2024)
        xs = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        for kernel in (make_gaussian(), make_inverse_quadratic()):
            for n in (1, 2):
                exact = dnn_diagonal(kernel, n)
                for x in xs:
                    fd = fd_cross_derivative(kernel, n, x, step=1e-4, precision_bits=256)
                    assert abs(float(fd) - exact) / exact <= 1e-6
            for n in range(31):
                assert envelope_dominates(kernel, n)


def test_criterion_7_interpolant_norms():
    with criterion(7, "interpolant norms: closed form, nesting monotonicity, flat member trace"):
        kernel = make_gaussian()
        ones = make_constant(1.0)
        for t in (0.5, 1.0, 2.0):
            norm = min_norm_interpolant_norm(kernel, ones, [0.0, t])
            closed = 2.0 / (1.0 + math.exp(-t * t))
            assert closed == pytest.approx(oracles.INTERP_NORM_SQ[t], rel=1e-15)
            assert float(norm) ** 2 == pytest.approx(closed, rel=1e-12)
        from rkhs_cert import make_paper_example

        f = make_paper_example()
        rng = random.Random(77)
        for _ in range(20):
            chain = []
            while len(chain) < 6:
                x = rng.uniform(-3.0, 3.0)
                if all(abs(x - p) > 0.05 for p in chain):
                    chain.append(x)
            norms = [
                min_norm_interpolant_norm(kernel, f, chain[: size])
                for size in range(2, 7)
            ]
            with workprec(256):
                for a, b in zip(norms, norms[1:]):
                    assert b >= a - mpf(1e-20)
        member = kernel_section(kernel, 0.0)
        trace = norm_growth_trace(kernel, member, [0.0, 1.0, 3.0], steps=6)
        assert trace.truncated_reason is None
        for norm in trace.norms:
            assert abs(float(norm) - 1.0) <= 1e-10


def test_criterion_8_unit_tail_from_sampling(sin_squared_sweep):
    with criterion(8, "sampled unit tail of the shifted sine square yields verified certificates"):
        tail = tail_lower_bound(make_sin_squared_shifted(), triangular_sequence(1), 1, 32)
        assert tail is not None
        assert tail.sign == 1
        assert abs(tail.alpha - 1.0) <= 1e-10
        assert tail.provenance == "empirical"
        sweep = sin_squared_sweep
        assert sweep.failures == ()
        assert len(sweep.certificates) == 3
        assert sweep.alpha_provenance == "empirical"
        kernel = make_gaussian()
        f = make_sin_squared_shifted()
        for cert in sweep.certificates:
            assert cert.alpha_provenance == "empirical"
            assert verify_certificate(cert, kernel, f)


def test_criterion_9_audit_from_json_alone(
    tmp_path, unit_scale_certs, gaussian_grid_sweep, sin_squared_sweep
):
    with criterion(9, "certificates verify from their JSON alone; reruns are byte-identical"):
        all_certs = list(unit_scale_certs.values())
        all_certs += list(gaussian_grid_sweep.certificates)
        all_certs += list(sin_squared_sweep.certificates)
        assert len(all_certs) == 14
        for idx, cert in enumerate(all_certs):
            path = tmp_path / f"cert_{idx:02d}.json"
            write_json(path, witness_to_dict(cert))
            assert cli_main(["verify", str(path)]) == 0
        args = [
            "--function",
            "paper_example",
            "--c-grid",
            "1,0.5",
            "--tasks",
            "witness,decay,psd",
        ]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(["run", "--out", str(first)] + args) == 0
        assert cli_main(["run", "--out", str(second)] + args) == 0
        assert first.read_bytes() == second.read_bytes()
