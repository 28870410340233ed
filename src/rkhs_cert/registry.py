"""Resolution of kernels, functions and sequences from config identifiers.

Identifier grammar (the same strings appear in configs, certificates and
reports, so resolution must be a pure function of the string):

kernels:    "gaussian" | "inverse_quadratic" | "laplace" | "exp_product"
            | "custom:<expression in r>"
            | {"id": "custom", "profile": "<expr in r>", "decays_to_zero": b,
               "nonneg": b, "monotone_decreasing": b}
functions:  "constant:<v>" | "poly:<c0>,<c1>,..." | "paper_example"
            | "sin_squared_shifted" | "expr:<expression in x>"
            | "kernel_section:<x0>"   (requires the kernel as context)
sequences:  "triangular+" | "triangular-" | "arithmetic:<step>"
            | "mixed_sign_triangular" | "custom:<expression in n>"
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Union

import mpmath
from mpmath import workprec

from .errors import ConfigError, EvaluationError, ExpressionError
from .functions import (
    CandidateFunction,
    kernel_section,
    make_constant,
    make_expression_function,
    make_paper_example,
    make_polynomial,
    make_sin_squared_shifted,
)
from .kernels import (
    BUILTIN_KERNELS,
    KernelSpec,
    builtin_kernel,
    custom_radial_from_expression,
)
from .sequences import (
    SequenceSpec,
    arithmetic_sequence,
    custom_sequence,
    mixed_sign_sequence,
    triangular_sequence,
)


_KERNEL_FLAGS = ("decays_to_zero", "nonneg", "monotone_decreasing")

# The declared flags of a custom profile are sampled at r = 0 and r = 2**k for
# k = -16 .. 512, at 53 bits.  At the ladder's end 1/(1+r) and exp(-sqrt(r))
# are far below 2**-64 * phi(0); a profile must be there too to decay.
_FLAG_LADDER_EXPONENTS = range(-16, 513)


def _check_declared_flags(kernel: KernelSpec, source: str, flags: Dict[str, bool]) -> None:
    """ConfigError unless phi, sampled on the ladder, keeps every flag declared true.

    nonneg: phi >= 0; monotone_decreasing: phi nonincreasing; decays_to_zero:
    |phi| at the ladder's end below 2**-64 * phi(0).  Samples are evidence,
    not proof: a profile may still break a flag between them.
    """
    if not any(flags.values()):
        return
    labels = ["0"] + [f"2**{k}" for k in _FLAG_LADDER_EXPONENTS]
    ladder = [0] + [mpmath.ldexp(1, k) for k in _FLAG_LADDER_EXPONENTS]
    values = []
    with workprec(53):
        for label, r in zip(labels, ladder):
            try:
                values.append(kernel.profile.value_mp(r))
            except (ArithmeticError, ValueError) as exc:
                undefined = EvaluationError.undefined(f"custom kernel profile {source}", f"r = {label}", exc)
                raise ConfigError(f"{undefined}, where its declared flags are checked") from None

    def refuted(flag: str, why: str) -> ConfigError:
        return ConfigError(f"custom kernel flag {flag!r} is false for {source}: {why}")

    def phi(i: int) -> str:
        return f"phi({labels[i]}) = {mpmath.nstr(values[i], 6)}"

    if flags["nonneg"]:
        for i, v in enumerate(values):
            if v < 0:
                raise refuted("nonneg", phi(i))
    if flags["monotone_decreasing"]:
        for i in range(1, len(values)):
            if values[i] > values[i - 1]:
                raise refuted("monotone_decreasing", f"{phi(i)} exceeds {phi(i - 1)}")
    if flags["decays_to_zero"] and not abs(values[-1]) < mpmath.ldexp(values[0], -64):
        raise refuted("decays_to_zero", f"{phi(-1)} is not below 2**-64 * phi(0)")


def resolve_kernel(spec: Union[str, Dict[str, Any]]) -> KernelSpec:
    if isinstance(spec, dict):
        if spec.get("id") != "custom":
            raise ConfigError("kernel config objects are only for custom kernels")
        try:
            profile = spec["profile"]
        except KeyError:
            raise ConfigError("custom kernel config needs a 'profile' expression") from None
        if not isinstance(profile, str):
            raise ConfigError(f"custom kernel profile must be an expression string, not {profile!r}")
        flags = {key: spec.get(key, False) for key in _KERNEL_FLAGS}
        for key, value in flags.items():
            # The flags gate banded truncation, so "false" must not read as True.
            if not isinstance(value, bool):
                raise ConfigError(f"custom kernel flag {key!r} must be true or false, not {value!r}")
        try:
            kernel = custom_radial_from_expression(profile, **flags)
        except (ExpressionError, ValueError) as exc:
            raise ConfigError(f"invalid custom kernel: {exc}") from exc
        _check_declared_flags(kernel, profile, flags)
        return kernel
    if not isinstance(spec, str):
        raise ConfigError("kernel must be an identifier string or a config object")
    if spec in BUILTIN_KERNELS:
        return builtin_kernel(spec)
    if spec.startswith("custom:"):
        try:
            return custom_radial_from_expression(spec[len("custom:") :])
        except (ExpressionError, ValueError) as exc:
            raise ConfigError(f"invalid custom kernel: {exc}") from exc
    raise ConfigError(f"unknown kernel identifier {spec!r}")


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, not {text!r}")
    return value


def resolve_function(spec: str, kernel: Optional[KernelSpec] = None) -> CandidateFunction:
    if not isinstance(spec, str):
        raise ConfigError("function must be an identifier string")
    if spec == "paper_example":
        return make_paper_example()
    if spec == "sin_squared_shifted":
        return make_sin_squared_shifted()
    if spec.startswith("constant:"):
        return make_constant(_parse_float(spec[len("constant:") :], "constant value"))
    if spec.startswith("poly:"):
        body = spec[len("poly:") :]
        coeffs = [_parse_float(part, "polynomial coefficient") for part in body.split(",") if part != ""]
        if not coeffs:
            raise ConfigError("poly: needs at least one coefficient")
        return make_polynomial(coeffs)
    if spec.startswith("expr:"):
        try:
            return make_expression_function(spec[len("expr:") :])
        except ExpressionError as exc:
            raise ConfigError(f"invalid function expression: {exc}") from exc
    if spec.startswith("kernel_section:"):
        if kernel is None:
            raise ConfigError("kernel_section functions need the kernel as context")
        return kernel_section(kernel, _parse_float(spec[len("kernel_section:") :], "section center"))
    raise ConfigError(f"unknown function identifier {spec!r}")


def resolve_sequence(spec: str) -> SequenceSpec:
    if not isinstance(spec, str):
        raise ConfigError("sequence must be an identifier string")
    if spec == "triangular+":
        return triangular_sequence(1)
    if spec == "triangular-":
        return triangular_sequence(-1)
    if spec == "mixed_sign_triangular":
        return mixed_sign_sequence()
    if spec.startswith("arithmetic:"):
        step = _parse_float(spec[len("arithmetic:") :], "arithmetic step")
        if step == 0:
            raise ConfigError("arithmetic step must be nonzero")
        return arithmetic_sequence(step)
    if spec.startswith("custom:"):
        try:
            return custom_sequence(spec[len("custom:") :])
        except ExpressionError as exc:
            raise ConfigError(f"invalid sequence expression: {exc}") from exc
    raise ConfigError(f"unknown sequence identifier {spec!r}")
