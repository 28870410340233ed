"""Point sequences, exact gap bounds and kernel decay verification.

The triangular sequence x_n = n(n+1)/2 is the workhorse: its window gaps obey
the exact identity |x_{l+n} - x_{l+m}| = |n - m| (2l + n + m + 1) / 2 >= l for
n != m, so shifting the window far enough makes every off-diagonal kernel
entry small for any radial profile that decays to zero.  ``verify_decay``
measures that numerically on a geometric ladder of offsets and labels the
conclusion "proved" only when the exact gap identity and the profile's
interval form back it: the sequence is triangular and the profile has a
``truncation_radius`` beyond which |phi| is provably negligible.  Otherwise
the evidence stays "empirical".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import mpmath
from mpmath import mpf, workprec

from .errors import EvaluationError
from .expressions import compile_expression
from .kernels import KernelSpec
from .quadform import DEFAULT_PRECISION_BITS


@dataclass(frozen=True)
class SequenceSpec:
    """A point sequence indexed from 1.

    ``direction`` is +1 for sequences marching to +inf, -1 toward -inf, None
    for custom generators with no monotonicity promise.  ``gaps_nondecreasing``
    declares |x_{n+1} - x_n| nondecreasing in n (true for the built-ins).
    """

    name: str
    generator: Callable[[int], Any]
    direction: Optional[int]
    gaps_nondecreasing: bool = False
    is_triangular: bool = False

    def point(self, n: int) -> Any:
        if n < 1:
            raise ValueError("sequence indices start at 1")
        return self.generator(n)

    def points(self, start: int, count: int) -> Tuple[Any, ...]:
        return tuple(self.point(n) for n in range(start, start + count))


def triangular_sequence(direction: int = 1) -> SequenceSpec:
    """x_n = +- n(n+1)/2, exact integers with gaps growing linearly in n."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    sign = direction

    def gen(n: int) -> int:
        return sign * (n * (n + 1) // 2)

    return SequenceSpec(
        name="triangular+" if sign > 0 else "triangular-",
        generator=gen,
        direction=sign,
        gaps_nondecreasing=True,
        is_triangular=True,
    )


def arithmetic_sequence(step: float) -> SequenceSpec:
    """x_n = n * step: constant gaps, so no kernel decay along the window."""
    if step == 0:
        raise ValueError("step must be nonzero")
    s = float(step)
    exact = s == int(s)

    def gen(n: int) -> Any:
        return n * int(s) if exact else n * s

    return SequenceSpec(
        name=f"arithmetic:{s!r}",
        generator=gen,
        direction=1 if s > 0 else -1,
        gaps_nondecreasing=True,
        is_triangular=False,
    )


def custom_sequence(source: str) -> SequenceSpec:
    """Sequence from a whitelisted expression in ``n`` (no structural promises).

    Point n is the expression's value at 53 bits, as a double.  An index
    where the expression is undefined, or where its value is no finite
    double, raises EvaluationError naming the sequence and n.
    """
    expr = compile_expression(source, "n")

    def gen(n: int) -> float:
        try:
            with workprec(53):
                value = float(expr.eval_mp(n))
            if not math.isfinite(value):
                raise OverflowError("its value is not a finite double")
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError.undefined(f"sequence custom:{source}", f"n = {n}", exc) from exc
        return value

    return SequenceSpec(
        name=f"custom:{source}",
        generator=gen,
        direction=None,
        gaps_nondecreasing=False,
        is_triangular=False,
    )


def mixed_sign_sequence() -> SequenceSpec:
    """x_n = (-1)^n * n(n+1)/2: alternating signs, gaps still grow."""

    def gen(n: int) -> int:
        return (-1) ** n * (n * (n + 1) // 2)

    return SequenceSpec(
        name="mixed_sign_triangular",
        generator=gen,
        direction=None,
        gaps_nondecreasing=False,
        is_triangular=False,
    )


def gap_lower_bound(sequence: SequenceSpec, n: int, m: int, ell: int) -> int:
    """Exact window gap |x_{ell+n} - x_{ell+m}| for the triangular sequence.

    Cross-checks the closed form |n - m| (2*ell + n + m + 1) / 2 against the
    directly computed gap and returns the (integer) value, which is >= ell.
    """
    if not sequence.is_triangular:
        raise ValueError("exact gap bounds are only available for the triangular sequence")
    if n == m:
        raise ValueError("gap requires two distinct window indices")
    if n < 1 or m < 1 or ell < 0:
        raise ValueError("window indices start at 1 and the offset must be >= 0")
    direct = abs(sequence.point(ell + n) - sequence.point(ell + m))
    twice = abs(n - m) * (2 * ell + n + m + 1)
    if twice % 2 != 0 or twice // 2 != direct:
        raise AssertionError("gap identity violated; sequence generator is corrupt")
    if direct < ell:
        raise AssertionError("gap fell below the window offset; generator is corrupt")
    return direct


def sign_obstruction_check(signs: Tuple[int, ...] | list) -> Tuple[int, int, int]:
    """First triple of indices (1-based, i < j < k) containing an equal-sign pair.

    Any three signs from {-1, +1} contain two equal ones, so for kernels like
    exp(x*y) with K(x, y) >= 1 whenever sign(x) = sign(y), windows of size >= 3
    can never make all off-diagonal entries small.  The first triple, (1, 2, 3),
    is therefore always the answer.
    """
    entries = tuple(signs)
    if len(entries) < 3:
        raise ValueError("need at least three signs")
    if any(s not in (-1, 1) for s in entries):
        raise ValueError("signs must be -1 or +1")
    return (1, 2, 3)


@dataclass(frozen=True)
class DecayReport:
    """Measured off-diagonal kernel maxima over a ladder of window offsets."""

    kernel_id: str
    sequence_name: str
    window: int
    threshold: float
    ell_values: Tuple[int, ...]
    max_offdiag: Tuple[Any, ...]
    passed: bool
    evidence: str
    reason: Optional[str] = None
    sign_obstruction: Optional[Tuple[int, int, int]] = None


def offset_ladder(ell_max: int) -> Tuple[int, ...]:
    """The offsets 1, 2, 4, ... below ``ell_max``, then ``ell_max`` itself (ell_max >= 1)."""
    ladder = [1]
    while ladder[-1] * 2 < ell_max:
        ladder.append(ladder[-1] * 2)
    if ladder[-1] != ell_max:
        ladder.append(ell_max)
    return tuple(ladder)


def max_offdiag(
    kernel: KernelSpec,
    sequence: SequenceSpec,
    ell: int,
    window: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Any:
    """max over 1 <= n < m <= window of |K(x_{ell+n}, x_{ell+m})| as an mpf."""
    with workprec(precision_bits):
        pts = [mpf(sequence.point(ell + i)) for i in range(1, window + 1)]
        best = mpf(0)
        for i in range(window):
            for j in range(i + 1, window):
                v = abs(kernel.eval_mp(pts[i], pts[j]))
                if v > best:
                    best = v
        return best


def verify_decay(
    kernel: KernelSpec,
    sequence: SequenceSpec,
    window: int,
    ell_max: int,
    threshold: float,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> DecayReport:
    """Check whether off-diagonal kernel values fall below ``threshold``.

    Measures the window maximum on offsets 1, 2, 4, ... up to ell_max and
    passes iff the final maximum is <= threshold and the trace is
    nonincreasing over its second half.  Failure reasons distinguish values
    that merely sit above the threshold from divergent traces.  When decay
    fails on windows of size >= 3, the report attaches the sign-obstruction
    triple for the final window.
    """
    if window < 2:
        raise ValueError("decay checks need a window of at least two points")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    ladder = offset_ladder(ell_max)
    with workprec(precision_bits):
        trace = [max_offdiag(kernel, sequence, ell, window, precision_bits) for ell in ladder]
        bound = mpf(threshold)
        finite = all(mpmath.isfinite(v) for v in trace)
        half = trace[len(trace) // 2 :]
        nonincreasing = all(half[i + 1] <= half[i] for i in range(len(half) - 1))
        passed = bool(finite and nonincreasing and trace[-1] <= bound)
        reason = None
        if not passed:
            if not finite or not nonincreasing:
                reason = "divergent"
            else:
                reason = "final window maximum above threshold"
        proved = (
            sequence.is_triangular
            and kernel.profile is not None
            and kernel.profile.truncation_radius() is not None
        )
        evidence = "proved" if proved else "empirical"
        obstruction = None
        if not passed and window >= 3:
            final_pts = [sequence.point(ladder[-1] + i) for i in range(1, window + 1)]
            signs = tuple(-1 if p < 0 else 1 for p in final_pts)
            obstruction = sign_obstruction_check(signs)
    return DecayReport(
        kernel_id=kernel.kernel_id,
        sequence_name=sequence.name,
        window=window,
        threshold=float(threshold),
        ell_values=ladder,
        max_offdiag=tuple(trace),
        passed=passed,
        evidence=evidence,
        reason=reason,
        sign_obstruction=obstruction,
    )
