import hashlib
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, workprec

from rkhs_cert.functions import make_constant
from rkhs_cert.kernels import make_gaussian
from rkhs_cert.sequences import triangular_sequence
from rkhs_cert.serialize import (
    canonical_dumps,
    load_json,
    number_to_str,
    points_sha256,
    str_to_number,
    witness_from_dict,
    witness_summary,
    witness_to_dict,
    write_json,
)
from rkhs_cert.witness import build_witness, verify_certificate


# --- number round-trips -----------------------------------------------------


def test_int_round_trip_is_exact():
    for v in (0, 1, -7, 131073, 10**40):
        s = number_to_str(v)
        assert s == str(v)
        assert str_to_number(s) == v
        assert isinstance(str_to_number(s), int)


def test_fraction_round_trip():
    s = number_to_str(Fraction(-346, 65))
    assert s == "-346/65"
    back = str_to_number(s)
    assert back == Fraction(-346, 65)
    assert isinstance(back, Fraction)


def test_infinity_round_trip():
    assert number_to_str(float("inf")) == "inf"
    assert number_to_str(mpf("-inf")) == "-inf"
    assert str_to_number("inf") == mpf("inf")
    assert str_to_number("-inf") == mpf("-inf")


def test_nan_refused():
    with pytest.raises(ValueError, match="NaN"):
        number_to_str(float("nan"))


def test_bool_refused():
    with pytest.raises(TypeError):
        number_to_str(True)


@settings(max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_round_trip_exact(x):
    s = number_to_str(x, 256)
    with workprec(256):
        assert str_to_number(s, 256) == mpf(x)


@settings(max_examples=100)
@given(
    mantissa=st.integers(min_value=-(2**255), max_value=2**255),
    exponent=st.integers(min_value=-300, max_value=300),
)
def test_mpf_round_trip_exact_at_256_bits(mantissa, exponent):
    with workprec(256):
        x = mpf(mantissa) * mpf(2) ** exponent
        s = number_to_str(x, 256)
        assert str_to_number(s, 256) == x


def test_higher_precision_needs_more_digits():
    with workprec(512):
        x = mpmath.exp(mpf(1)) / 3
        s = number_to_str(x, 512)
        assert str_to_number(s, 512) == x
        assert len(s) > 150


# --- canonical JSON ---------------------------------------------------------


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert json.loads(text) == {"b": 1, "a": {"d": 2, "c": 3}}


def test_canonical_dumps_deterministic():
    payload = {"values": [1, 2, 3], "name": "x", "nested": {"z": 0, "y": 1}}
    assert canonical_dumps(payload) == canonical_dumps(dict(reversed(payload.items())))


def test_write_and_load_json(tmp_path):
    path = tmp_path / "out.json"
    payload = {"schema": "rkhs-cert/witness/v1", "n": 3}
    write_json(path, payload)
    raw = path.read_text(encoding="utf-8")
    assert raw == canonical_dumps(payload)
    assert load_json(path) == payload


# --- certificate round-trip --------------------------------------------------


def _cert():
    return build_witness(make_gaussian(), make_constant(1.0), triangular_sequence(1), 1.0)


def test_witness_round_trip_preserves_everything():
    cert = _cert()
    data = witness_to_dict(cert)
    assert data["coefficients"] == "ones"
    assert data["n_points"] == 3
    assert isinstance(data["n_points"], int)
    assert isinstance(data["r_value"], str)
    back = witness_from_dict(data)
    assert back.kernel_id == cert.kernel_id
    assert back.function_id == cert.function_id
    assert back.sequence_id == cert.sequence_id
    assert back.c == cert.c
    assert back.alpha == cert.alpha
    assert back.n_points == cert.n_points
    assert back.ell == cert.ell
    with workprec(cert.precision_bits):
        assert back.r_value == cert.r_value
    assert back.points == cert.points
    assert all(isinstance(p, int) for p in back.points)
    assert witness_to_dict(back)["coefficients"] == "ones"
    assert verify_certificate(back, make_gaussian(), make_constant(1.0))


def test_witness_round_trip_through_file(tmp_path):
    cert = _cert()
    path = tmp_path / "cert.json"
    write_json(path, witness_to_dict(cert))
    back = witness_from_dict(load_json(path))
    with workprec(cert.precision_bits):
        assert back.r_value == cert.r_value


def test_witness_summary_is_the_dict_without_points_plus_their_digest():
    data = witness_to_dict(_cert())
    assert data["points"] == ["1", "3", "6"]
    summary = witness_summary(data)
    assert "points" not in summary and "points" in data
    assert summary.pop("points_sha256") == points_sha256(["1", "3", "6"])
    assert summary == {key: value for key, value in data.items() if key != "points"}
    assert points_sha256(["1", "3", "6"]) == hashlib.sha256(b"1\n3\n6\n").hexdigest()
    assert points_sha256(["1", "3", "6"]) != points_sha256(["1", "36"])


def test_witness_dict_rejects_wrong_schema():
    data = witness_to_dict(_cert())
    data["schema"] = "rkhs-cert/witness/v999"
    with pytest.raises(ValueError, match="schema"):
        witness_from_dict(data)
    with pytest.raises(ValueError):
        witness_from_dict([1, 2, 3])


def test_witness_dict_rejects_missing_fields():
    data = witness_to_dict(_cert())
    del data["r_value"]
    del data["alpha"]
    with pytest.raises(ValueError, match="missing"):
        witness_from_dict(data)


def test_witness_dict_rejects_low_precision():
    data = witness_to_dict(_cert())
    data["precision_bits"] = 32
    with pytest.raises(ValueError, match="64"):
        witness_from_dict(data)


def test_explicit_coefficients_are_refused():
    # the all-ones vector is the only one built or verified, and only as "ones"
    data = witness_to_dict(_cert())
    data["coefficients"] = ["1", "1", "1"]
    with pytest.raises(ValueError, match="'coefficients' is malformed"):
        witness_from_dict(data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
_FIELDS = sorted(witness_to_dict(_cert()))


@given(field=st.sampled_from(_FIELDS), value=_JSON)
@settings(max_examples=300, deadline=None)
def test_witness_dict_of_any_json_is_a_certificate_or_value_error(field, value):
    data = witness_to_dict(_cert())
    data[field] = value
    try:
        witness_from_dict(json.loads(json.dumps(data)))
    except ValueError as exc:
        assert "\n" not in str(exc)
