"""Canonical JSON serialization for certificates and diagnostic reports.

Real-valued measurements are emitted as decimal strings with enough digits to
round-trip the working precision exactly; structural integers (sizes,
offsets, orders, precisions) stay JSON integers.  Every file's text is
``canonical_dumps``, which is
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"``:
sorted keys, two-space indentation and a trailing newline, so identical runs
produce byte-identical files.  No other module of the package writes or
reads JSON.

A report does not repeat the points of its certificates: each report entry is
the certificate's dict without ``points``, plus ``points_sha256``, the
SHA-256 (hex) of the point strings, each followed by a newline.  The points
live only in the certificate files.  A certificate file and its summary are
streamed from the certificate itself (``stream_certificate``): the canonical
text of its other fields, with its point strings written into it
POINT_CHUNK at a time in json's layout, so writing one holds neither a
string per point nor the file's whole text.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

try:  # CPython's own SHA-256, as random.py takes _sha512: hashlib also loads OpenSSL (3.6 MB of RSS)
    from _sha256 import sha256
except ImportError:  # renamed _sha2 in Python 3.12
    from hashlib import sha256

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, from_str, mpf_pos

from .analytic import DerivativeReport
from .interpolant import NormTrace
from .quadform import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS, PsdVerdict
from .sequences import DecayReport
from .witness import MAX_POINT_BITS, WITNESS_SCHEMA, SweepResult, WitnessCertificate, point_in_range

REPORT_SCHEMA = "rkhs-cert/report/v2"

_make_mpf = mpmath.mp.make_mpf


def _digits_for(precision_bits: int) -> int:
    return int(precision_bits * 0.30103) + 8


def number_to_str(value: Any, precision_bits: int = DEFAULT_PRECISION_BITS) -> str:
    """Decimal-string form of an int, float, Fraction or mpf."""
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    with workprec(max(precision_bits, 64)):
        x = mpf(value)
        if mpmath.isinf(x):
            return "inf" if x > 0 else "-inf"
        if mpmath.isnan(x):
            raise ValueError("refusing to serialize NaN")
        return mpmath.nstr(x, _digits_for(precision_bits), strip_zeros=True)


# A plain decimal text, [-]digits.digits: its integer part and its fraction digits.
_PLAIN_DECIMAL = re.compile(r"(-?[0-9]+)\.([0-9]+)")

# libmp's from_str rounds a decimal correctly, dividing by 10^k, up to k = 400
# fraction digits after their trailing zeros: the ``abs(exp) > 400`` cutoff in
# mpmath 1.3's from_str, a private choice another mpmath may change.  Beyond it
# from_str multiplies by a rounded 10^-k, so such texts keep from_str here;
# the 500-digit @example in test_decimal_text_parses_as_mpf_does_at_the_working_precision
# fails if the cutoff moves below this.
_EXACT_FRACTION_DIGITS = 400


def str_to_number(text: str, precision_bits: int = DEFAULT_PRECISION_BITS) -> Any:
    """Inverse of number_to_str: exact ints stay int, the rest become mpf."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    if s in ("inf", "+inf"):
        return mpf("inf")
    if s == "-inf":
        return mpf("-inf")
    try:
        return int(s)
    except ValueError:
        pass
    # What ``mpf(s)`` does under ``workprec``, without entering a context.
    prec, rnd = max(precision_bits, 64), mpmath.mp._prec_rounding[1]
    plain = _PLAIN_DECIMAL.fullmatch(s)
    fraction = plain[2].rstrip("0") if plain else ""
    if plain and len(fraction) <= _EXACT_FRACTION_DIGITS:
        # digits M with k after the point: M / 10^k is (M / 5^k) * 2^-k exactly when 5^k divides M
        k = len(fraction)
        q, rest = divmod(int(plain[1] + fraction), 5**k)
        if not rest:
            return _make_mpf(from_man_exp(q, -k, prec, rnd))
    return _make_mpf(mpf_pos(from_str(s, prec, rnd), prec, rnd))


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``: every file's text.

    Sorted keys, two-space indentation and a trailing newline, so equal
    objects give equal bytes.  json's indented encoder makes a string per
    list item; a certificate's points are written by ``stream_certificate``,
    which holds a chunk of them at a time.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _num_list(values: Iterable[Any], precision_bits: int) -> List[str]:
    return [number_to_str(v, precision_bits) for v in values]


def witness_to_dict(cert: WitnessCertificate) -> Dict[str, Any]:
    """The certificate as a dict, every point a decimal string: a certificate file's content."""
    return _witness_fields(cert, _num_list(cert.points, cert.precision_bits))


def _witness_fields(cert: WitnessCertificate, points: Any) -> Dict[str, Any]:
    """The certificate's fields as a certificate file writes them, with ``points`` for its point list."""
    bits = cert.precision_bits
    return {
        "schema": cert.schema,
        "kernel_id": cert.kernel_id,
        "function_id": cert.function_id,
        "sequence_id": cert.sequence_id,
        "c": number_to_str(cert.c, bits),
        "alpha": number_to_str(cert.alpha, bits),
        "alpha_provenance": cert.alpha_provenance,
        "kernel_diag_sup": number_to_str(cert.kernel_diag_sup, bits),
        "n_points": cert.n_points,
        "ell": cert.ell,
        "r_value": number_to_str(cert.r_value, bits),
        "points": points,
        "precision_bits": bits,
        "coefficients": "ones",
    }


def points_sha256(points: Sequence[str]) -> str:
    """SHA-256 (hex) of the UTF-8 bytes of ``points``, each string followed by a newline."""
    digest = sha256()
    _digest_lines(digest, points)
    return digest.hexdigest()


def _digest_lines(digest: Any, points: Sequence[str]) -> None:
    """Feed ``points`` to ``digest`` as ``points_sha256`` reads them, each string followed by a newline."""
    digest.update("\n".join([*points, ""]).encode("utf-8"))


def witness_summary(data: Dict[str, Any]) -> Dict[str, Any]:
    """A certificate dict's report entry: every field but ``points``, plus ``points_sha256``."""
    summary = {key: value for key, value in data.items() if key != "points"}
    summary["points_sha256"] = points_sha256(data["points"])
    return summary


# Point strings a certificate is streamed in: writing one holds a chunk of them, not one string per point.
POINT_CHUNK = 4096


def stream_certificate(cert: WitnessCertificate, path: Optional[str | Path] = None) -> Dict[str, Any]:
    """``witness_summary(witness_to_dict(cert))``, made POINT_CHUNK point strings at a time.

    With ``path``, the certificate's file, ``canonical_dumps(witness_to_dict(cert))``
    byte for byte, is written there from the same chunks: the canonical text
    of the fields with an empty point list, split at ``"points": []``, with
    the point strings between its two parts in json's indented layout.  The
    split is unambiguous, as json escapes every quote inside a string value.
    No string per point, no whole text and no whole digest input is held.
    The file is written under a temporary name in its directory and moved
    into place with ``os.replace``, so a write that fails (an OSError, which
    propagates) leaves no partial file and no temporary one.
    """
    digest = sha256()
    points, bits = cert.points, cert.precision_bits

    def chunks() -> Iterator[List[str]]:
        for start in range(0, len(points), POINT_CHUNK):
            chunk = _num_list(points[start : start + POINT_CHUNK], bits)
            _digest_lines(digest, chunk)
            yield chunk

    data = _witness_fields(cert, [])
    if path is None:
        for _ in chunks():
            pass
    else:
        head, _, tail = canonical_dumps(data).partition('"points": []')
        path = Path(path)
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(temporary, "w", encoding="utf-8") as out:
                out.write(head + '"points": [')
                separator = '\n    "'
                for chunk in chunks():
                    out.write(separator + '",\n    "'.join(chunk) + '"')
                    separator = ',\n    "'
                out.write(("\n  ]" if points else "]") + tail)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    summary = {key: value for key, value in data.items() if key != "points"}
    summary["points_sha256"] = digest.hexdigest()
    return summary


# The fields a certificate file must carry: the certificate's own, in order,
# but the schema (checked first), and the coefficient kind.
_CERTIFICATE_FIELDS = (*(f.name for f in fields(WitnessCertificate) if f.name != "schema"), "coefficients")


def witness_from_dict(data: Dict[str, Any]) -> WitnessCertificate:
    """The certificate a JSON object describes; a malformed field is a ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    if data.get("schema") != WITNESS_SCHEMA:
        raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
    missing = [k for k in _CERTIFICATE_FIELDS if k not in data]
    if missing:
        raise ValueError(f"certificate is missing fields: {missing}")
    bits = _field(data, "precision_bits", _integer)
    if not MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"certificate precision must be {MIN_PRECISION_BITS} to {MAX_PRECISION_BITS} bits")
    _field(data, "coefficients", _ones)
    real = partial(_real, precision_bits=bits)
    return WitnessCertificate(
        kernel_id=str(data["kernel_id"]),
        function_id=str(data["function_id"]),
        sequence_id=str(data["sequence_id"]),
        c=_field(data, "c", float),
        alpha=_field(data, "alpha", float),
        alpha_provenance=str(data["alpha_provenance"]),
        kernel_diag_sup=_field(data, "kernel_diag_sup", float),
        n_points=_field(data, "n_points", _integer),
        ell=_field(data, "ell", _offset),
        r_value=_field(data, "r_value", lambda value: real(str(value))),
        points=_field(data, "points", partial(_points, precision_bits=bits)),
        precision_bits=bits,
    )


def _field(data: Dict[str, Any], key: str, parse: Callable[[Any], Any]) -> Any:
    """``parse(data[key])``, with a value it cannot take reported as a ValueError naming ``key``."""
    try:
        return parse(data[key])
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"certificate field {key!r} is malformed: {exc}") from None


def _points(value: Any, precision_bits: int) -> Tuple[Any, ...]:
    """A list of stored points: each ``_real(str(v))``, finite and below 2**1024 in magnitude."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, not {value!r}")
    points = []
    for v in value:
        text = str(v)
        point = _real(text, precision_bits)
        if not point_in_range(point):
            raise ValueError(f"expected a finite point below 2**{MAX_POINT_BITS} in magnitude, not {text!r}")
        points.append(point)
    return tuple(points)


def _ones(value: Any) -> None:
    """The all-ones coefficient vector is the only one a certificate may name."""
    if value != "ones":
        raise ValueError('only the all-ones vector, "ones", is supported')


def _integer(value: Any) -> int:
    """A JSON integer as it is; a bool, a float or a string is no integer here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def _offset(value: Any) -> int:
    """A window offset: a JSON integer, at least 0."""
    if _integer(value) < 0:
        raise ValueError(f"expected an offset at least 0, not {value!r}")
    return value


def _real(text: str, precision_bits: int) -> Any:
    """``str_to_number(text)``, refusing a fraction, which mpf arithmetic does not take."""
    value = str_to_number(text, precision_bits)
    if isinstance(value, Fraction):
        raise ValueError(f"expected an integer or a decimal, not the fraction {text!r}")
    return value


def psd_to_dict(verdict: PsdVerdict, precision_bits: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "is_psd": verdict.is_psd,
        "min_pivot_or_eigenvalue": number_to_str(verdict.min_pivot_or_eigenvalue, precision_bits),
        "tolerance_used": number_to_str(verdict.tolerance_used, precision_bits),
    }
    if verdict.witness_vector is not None:
        out["witness_vector"] = _num_list(verdict.witness_vector, precision_bits)
        out["witness_value"] = number_to_str(verdict.witness_value, precision_bits)
    return out


def decay_to_dict(report: DecayReport, precision_bits: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kernel_id": report.kernel_id,
        "sequence_id": report.sequence_name,
        "window": report.window,
        "threshold": number_to_str(report.threshold, precision_bits),
        "ell_values": list(report.ell_values),
        "max_offdiag": _num_list(report.max_offdiag, precision_bits),
        "passed": report.passed,
        "evidence": report.evidence,
    }
    if report.reason is not None:
        out["reason"] = report.reason
    if report.sign_obstruction is not None:
        out["sign_obstruction"] = list(report.sign_obstruction)
    return out


def derivative_report_to_dict(report: DerivativeReport, precision_bits: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kernel_id": report.kernel_id,
        "norm_f": number_to_str(report.norm_f, precision_bits),
        "orders": list(report.orders),
        "dnn_values": _num_list(report.dnn_values, precision_bits),
        "exact_bounds": _num_list(report.exact_bounds, precision_bits),
        "bound_curve": _num_list(report.bound_curve, precision_bits),
        "growth_constants": _num_list(report.growth_constants, precision_bits),
    }
    if report.fd_values is not None:
        out["fd_values"] = _num_list(report.fd_values, precision_bits)
    return out


def norm_trace_to_dict(trace: NormTrace, precision_bits: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kernel_id": trace.kernel_id,
        "function_id": trace.function_id,
        "rule": trace.rule,
        "point_sets": [_num_list(pts, precision_bits) for pts in trace.point_sets],
        "norms": _num_list(trace.norms, precision_bits),
        "precision_bits": list(trace.precision_bits),
        "ridge": number_to_str(trace.ridge, precision_bits),
        "divergence_factor": number_to_str(trace.divergence_factor, precision_bits),
        "divergence_evidence": trace.divergence_evidence,
    }
    if trace.truncated_reason is not None:
        out["truncated_reason"] = trace.truncated_reason
    return out


def sweep_to_dict(
    result: SweepResult,
    precision_bits: int,
    certs_dir: Optional[str | Path] = None,
) -> Dict[str, Any]:
    """The sweep's report entry, with a summary of each certificate (``stream_certificate``).

    With ``certs_dir`` (made if need be), certificate ``index`` in grid order
    is also written to ``certs_dir/certificate_<index>.json``, two digits at
    least; an OSError propagates.
    """
    if certs_dir is not None:
        Path(certs_dir).mkdir(parents=True, exist_ok=True)
    summaries = [
        stream_certificate(cert, None if certs_dir is None else Path(certs_dir) / f"certificate_{index:02d}.json")
        for index, cert in enumerate(result.certificates)
    ]
    return {
        "c_values": _num_list(result.c_values, precision_bits),
        "alpha": number_to_str(result.alpha, precision_bits),
        "alpha_provenance": result.alpha_provenance,
        "certificates": summaries,
        "failures": [
            {"c": number_to_str(c, precision_bits), "reason": reason}
            for c, reason in result.failures
        ],
        "scaling": [
            {
                "c": number_to_str(cert.c, precision_bits),
                "n_times_c_squared": number_to_str(cert.n_points * cert.c * cert.c, precision_bits),
            }
            for cert in result.certificates
        ],
    }
