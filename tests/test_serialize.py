import hashlib
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf, workprec

from rkhs_cert.functions import make_constant
from rkhs_cert.kernels import make_gaussian
from rkhs_cert.sequences import triangular_sequence
from rkhs_cert import serialize
from rkhs_cert.serialize import (
    POINT_CHUNK,
    canonical_dumps,
    load_json,
    number_to_str,
    points_sha256,
    str_to_number,
    stream_certificate,
    witness_from_dict,
    witness_summary,
    witness_to_dict,
    write_json,
)
from rkhs_cert.witness import WitnessCertificate, build_witness, verify_certificate


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


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# json escapes the quote, the backslash and U+0000-U+001F; it writes U+2028 and non-ASCII text as they are
_texts = st.text(
    st.sampled_from(["0", "7", ".", "-", "e", " ", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "𝄞"])
)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _texts
_json_trees = st.recursive(
    _scalars | st.lists(st.text("0123456789.-e")) | st.lists(_texts),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_texts, children)
        | st.dictionaries(st.integers(), children)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
@example([])
@example({"a": [], "b": {}, "c": [[]]})
@example([float("inf"), float("-inf"), float("nan"), -0.0, 1e300, True, None])
@example({"points": ["1", "22", "333"], "nested": {"deeper": ["x", 'say "hi"', "a\\b", "\t"]}})
@example({"by number": {2: ["a"], 1: {"c": [1.5]}}})
@example(("tuple", ["of", ("strings",)]))
@example(["\u2028", "é", "\x7f"])
def test_canonical_dumps_is_json_text(obj):
    assert canonical_dumps(obj) == _json_text(obj)


def test_canonical_dumps_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        _json_text({"a": {1: 0, "b": 1}})
    with pytest.raises(TypeError):
        canonical_dumps({"a": {1: 0, "b": 1}})  # mixed keys do not sort
    with pytest.raises(TypeError):
        canonical_dumps({"a": [mpf(1)]})


def _certificate(points, bits=256):
    n = len(points)
    return WitnessCertificate(
        "gaussian", "constant:1.0", "triangular+", 0.5, 1.0, "declared", 1.0, n, 0, mpf(-1), points, bits
    )


_POINT_KINDS = {"int": lambda x: x, "float": lambda x: x / 7, "mpf": lambda x: mpf(x) / 3}


def _window(kind, start, step, n, bits):
    """n points start, start + step, ... as ints, floats (/ 7), mpf values (/ 3) or the three in turn."""
    kinds = [_POINT_KINDS[k] for k in (sorted(_POINT_KINDS) if kind == "mixed" else [kind])]
    with workprec(bits):
        return tuple(kinds[i % len(kinds)](start + step * i) for i in range(n))


@given(
    kind=st.sampled_from(["int", "float", "mpf", "mixed"]),
    chunk=st.sampled_from([1, 2, 5, POINT_CHUNK]),
    size=st.sampled_from(["one", "chunk - 1", "chunk", "chunk + 1"]),
    start=st.integers(-(10**9), 10**9),
    step=st.integers(1, 10**6),
    bits=st.sampled_from([64, 256]),
)
@settings(max_examples=60, deadline=None)
def test_streamed_certificate_is_canonical_dumps_of_its_dict(kind, chunk, size, start, step, bits):
    """A certificate written POINT_CHUNK point strings at a time is
    ``canonical_dumps(witness_to_dict(cert))`` byte for byte, and its summary
    is ``witness_summary`` of that dict, with or without a file, for windows
    of 1, chunk - 1 (none when the chunk is 1), chunk and chunk + 1 points."""
    import tempfile
    from pathlib import Path
    from unittest.mock import patch

    n = {"one": 1, "chunk - 1": chunk - 1, "chunk": chunk, "chunk + 1": chunk + 1}[size]
    cert = _certificate(_window(kind, start, step, n, bits), bits)
    data = witness_to_dict(cert)
    with patch.object(serialize, "POINT_CHUNK", chunk), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "certificate_00.json"
        summary = stream_certificate(cert, path)
        assert path.read_bytes() == canonical_dumps(data).encode("utf-8")
        assert [p.name for p in Path(tmp).iterdir()] == [path.name]
        assert stream_certificate(cert) == summary
    assert summary == witness_summary(data)
    assert summary["points_sha256"] == points_sha256(data["points"])


def test_streamed_certificate_holds_no_string_per_point(tmp_path):
    """Writing a 2^16-point certificate holds at most 16 bytes a point beyond
    the certificate (about 9): a chunk of POINT_CHUNK point strings at a time.
    Writing ``canonical_dumps(witness_to_dict(cert))`` holds about 158:
    the dict's point strings and json's string per item."""
    import tracemalloc

    n = 2**16
    cert = _certificate(triangular_sequence(1).points(1, n))
    stream_certificate(_certificate([1, 3]), tmp_path / "warm.json")
    tracemalloc.start()
    try:
        summary = stream_certificate(cert, tmp_path / "cert.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = witness_to_dict(cert)
    assert (tmp_path / "cert.json").read_text(encoding="utf-8") == canonical_dumps(data)
    assert summary == witness_summary(data)
    assert peak <= 16 * n


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
    # every field is named, in the certificate's order, with the coefficient kind last
    with pytest.raises(ValueError) as info:
        witness_from_dict({"schema": data["schema"]})
    assert str(info.value) == (
        "certificate is missing fields: ['kernel_id', 'function_id', 'sequence_id', 'c', 'alpha', "
        "'alpha_provenance', 'kernel_diag_sup', 'n_points', 'ell', 'r_value', 'points', 'precision_bits', "
        "'coefficients']"
    )


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


_WHITESPACE = st.sampled_from(["", " ", "\t", "\n", "\x1c", "\x85", "　"])
_POINT_TEXTS = st.one_of(
    st.integers(-(2**1030), 2**1030).map(str),
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: f"{x:.40e}"),
    st.sampled_from(
        ["1/2", "1/0", "a/b", "inf", "-Infinity", "nan", "1e99999999", "1_000", "1.5e1_0", "٣", "0x10", "", "abc"]
    ),
    st.text(alphabet="0123456789.e+-_ /", max_size=8),
)


@given(texts=st.lists(st.tuples(_WHITESPACE, _POINT_TEXTS | _JSON, _WHITESPACE), max_size=6))
@settings(max_examples=300, deadline=None)
def test_points_parse_in_one_pass_as_each_point_alone(texts):
    """A certificate's point list gives the points, or the refusal, that
    str_to_number and point_in_range give each point on its own: the same
    type and bits, or the message of the first point refused."""
    from rkhs_cert.witness import point_in_range

    values = [f"{a}{t}{b}" if isinstance(t, str) else t for a, t, b in texts]

    def point(text):
        value = str_to_number(text, 256)
        if isinstance(value, Fraction):
            raise ValueError(f"expected an integer or a decimal, not the fraction {text!r}")
        if not point_in_range(value):
            raise ValueError(f"expected a finite point below 2**1024 in magnitude, not {text!r}")
        return type(value), value._mpf_ if isinstance(value, mpf) else value

    expected = []
    for v in values:
        try:
            expected.append(point(str(v)))
        except (TypeError, ValueError, ArithmeticError) as exc:
            expected.append(str(exc))
            break
    data = dict(witness_to_dict(_cert()), points=values)
    try:
        points = witness_from_dict(data).points
    except ValueError as exc:
        assert str(exc) == f"certificate field 'points' is malformed: {expected[-1]}"
    else:
        assert [(type(p), p._mpf_ if isinstance(p, mpf) else p) for p in points] == expected


# 2^-8 + 2^-60, a double, written out in full: 60 fraction digits
_DOUBLE_EXPANSION = "0.003906250000000000867361737988403547205962240695953369140625"


@given(text=st.tuples(_WHITESPACE, _POINT_TEXTS, _WHITESPACE).map("".join), bits=st.sampled_from([32, 64, 113, 256]))
@settings(max_examples=300, deadline=None)
@example(text="7.5", bits=256)
@example(text="-0.0078125", bits=64)
@example(text="2.50", bits=113)
@example(text=_DOUBLE_EXPANSION, bits=32)
@example(text="-" + _DOUBLE_EXPANSION, bits=256)
@example(text="1.0000000000000000000542101086242752217003726400434970855712890625", bits=64)  # 1 + 2^-64: a tie
@example(text="0.0000000000000000000542101086242752217003726400434970855712890625", bits=64)  # 2^-64
# 1 + 2^-64 + 2^-500: just above a tie, with more fraction digits than from_str divides exactly
@example(text="1." + str(5**64 * 10**436 + 5**500).zfill(500), bits=64)
@example(text=" 12.000 ", bits=256)
def test_decimal_text_parses_as_mpf_does_at_the_working_precision(text, bits):
    """str_to_number gives the bits, or the error, that ``mpf(text)`` gives
    under ``workprec(max(bits, 64))`` for a text that is no int or fraction."""
    s = text.strip()
    if "/" in s or s in ("inf", "+inf", "-inf"):
        return
    try:
        int(s)
        return
    except ValueError:
        pass

    def outcome(parse):
        try:
            value = parse()
        except (TypeError, ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        return type(value), value._mpf_

    def reference():
        with workprec(max(bits, 64)):
            return mpf(s)

    assert outcome(lambda: str_to_number(text, bits)) == outcome(reference)
