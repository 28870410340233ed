"""Construction and verification of non-membership witness certificates.

A certificate for (K, f) consists of a scale c > 0, a tail bound alpha for
|f| along the sequence, a window offset ell and a window size N with
N > 2 * sup K(x,x) / (c^2 alpha^2), such that the all-ones quadratic form

    r = sum_{n,m <= N} [ K(x_{ell+n}, x_{ell+m}) - c^2 f(x_{ell+n}) f(x_{ell+m}) ]

is negative.  Any such r < 0 refutes positive semidefiniteness of the
deflated kernel at scale c; a verified certificate for every c on a grid is
the non-membership verdict.  Certificates are self-contained: verification
recomputes r from the stored points and re-checks the size threshold, and
never trusts the builder.

Window sizes reach 2^17 + 1 at the smallest default scale, where a dense
Gram matrix is out of reach.  For monotone point sets under a radial profile
that is nonincreasing and decays to zero, the kernel part of r is evaluated
in banded form: pairs whose squared gap exceeds a radius r* with
phi(r*) < 2^-(precision + 64) are dropped.  Since 0 <= phi <= phi(r*) on the
dropped pairs, the omitted mass is below N^2 * 2^-(precision + 64), far under
the certificate's comparison tolerance.  Builder and verifier select the
evaluation path by the same rule, so reverification reproduces r to working
accuracy.

The banded path's bookkeeping (monotonicity, gaps, the band test) runs on
Python ints when every point is an int below 2^(precision // 2 - 2) in
magnitude, as the built-in integer sequences are at 256 bits: libmp computes
every difference and square of such points exactly, so r is bit-identical to
the libmp path that every other window takes.  Points are handed around as
the sequence or the certificate gives them.  The points of an int window
become mpf values only where f needs a value; a window on the libmp path
converts its points once and hands the mpf values on to f.

A search evaluates f once per sequence index: its windows are served from
one ``PointTable``, which ``build_witness`` shares across its doublings and
``sweep_c`` across its scales (their windows start at nearby offsets and
mostly contain one another).  A window's f values are computed only after
it passes the evaluator's point checks.  Verification shares nothing with
the builder and recomputes every value from the stored points; certificates
verified together may share the verifier's own f values through a
``VerifierStore``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import fzero, from_int, mpf_gt, mpf_mul, mpf_neg, mpf_sub, to_int

from .errors import WitnessSearchError
from .expressions import as_mpf
from .functions import CandidateFunction, TailBound, tail_lower_bound, DECLARED
from .kernels import KernelSpec
from .quadform import (
    DEFAULT_PRECISION_BITS,
    assemble_gram,
    deflate,
    neumaier_sum,
    quadratic_form,
)
from .sequences import SequenceSpec, max_offdiag

WITNESS_SCHEMA = "rkhs-cert/witness/v1"

_make_mpf = mpmath.mp.make_mpf

# Dense Gram evaluation is used up to this window size; beyond it the banded
# path applies (and requires monotone decay metadata).
DENSE_EVAL_CAP = 128

# Hard stop for dense evaluation without decay metadata.
DENSE_FALLBACK_LIMIT = 4096

DEFAULT_DOUBLING_CAP = 6


def default_c_grid() -> Tuple[float, ...]:
    """The default scale grid 2^0, 2^-1, ..., 2^-8."""
    return tuple(2.0 ** -k for k in range(9))


def n_threshold(c_k: Any, c: float, alpha: float) -> int:
    """Smallest admissible window size: floor(2 c_k / (c^2 alpha^2)) + 1.

    Beyond this size, the diagonal of the deflated window quadratic form is
    forced negative once off-diagonal kernel terms are small enough.
    """
    if not c > 0:
        raise ValueError("scale c must be positive")
    if not alpha > 0:
        raise ValueError("tail bound alpha must be positive")
    if math.isinf(float(c_k)):
        raise ValueError(
            "kernel diagonal is unbounded; no finite window size threshold exists"
        )
    if not float(c_k) > 0:
        raise ValueError("kernel diagonal bound must be positive")
    with workprec(320):
        ratio = 2 * mpf(c_k) / (mpf(c) ** 2 * mpf(alpha) ** 2)
        return int(mpmath.floor(ratio)) + 1


def find_ell(
    kernel: KernelSpec,
    sequence: SequenceSpec,
    window: int,
    bound: Any,
    ell_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    min_ell: int = 0,
) -> int:
    """Smallest probed offset ell with max off-diagonal |K| <= bound.

    Probes ell = min_ell, min_ell + 1, then doubles up to ell_max (always
    including ell_max itself).  For monotone sequences with nondecreasing
    gaps under a nonincreasing profile, the window maximum is phi(g^2) for
    the smallest consecutive gap g, which avoids the O(window^2) scan.
    """
    if window < 2:
        raise ValueError("window must contain at least two points")
    if ell_max < min_ell:
        raise ValueError("ell_max is below the initial offset")
    ladder = [min_ell, min_ell + 1]
    step = 2
    while min_ell + step < ell_max:
        ladder.append(min_ell + step)
        step *= 2
    ladder.append(ell_max)
    seen = set()
    fast = (
        kernel.profile is not None
        and kernel.profile.monotone_decreasing
        and sequence.direction is not None
        and sequence.gaps_nondecreasing
    )
    with workprec(precision_bits):
        limit = mpf(bound)
        for ell in ladder:
            if ell in seen or ell > ell_max:
                continue
            seen.add(ell)
            if fast:
                gap = abs(mpf(sequence.point(ell + 2)) - mpf(sequence.point(ell + 1)))
                value = kernel.profile.value_mp(gap * gap)
            else:
                if window > 512:
                    raise WitnessSearchError(
                        "window too large for an exhaustive off-diagonal scan; "
                        "the kernel lacks monotone decay metadata",
                        reason="no-decay-metadata",
                    )
                value = max_offdiag(kernel, sequence, ell, window, precision_bits)
            if value <= limit:
                return ell
    raise WitnessSearchError(
        f"no window offset up to {ell_max} brings off-diagonal kernel values "
        f"below {mpmath.nstr(mpf(bound), 8)}; decay condition not met at this horizon",
        reason="decay-horizon-exhausted",
    )


def _negligible_radius(profile: Any, cutoff: Any) -> Any:
    """A radius beyond which the (nonincreasing, decaying) profile stays below cutoff."""
    r = mpf(1)
    for _ in range(4000):
        if profile.value_mp(r) < cutoff:
            return r
        r *= 4
    raise WitnessSearchError(
        "profile decays too slowly to truncate the banded sum",
        reason="truncation-failed",
    )


def _exact_int_window(points: Sequence[Any], prec: int) -> bool:
    """Whether every point is an ``int`` below 2^(prec // 2 - 2) in magnitude.

    Then every difference d of two points has |d| < 2^(prec // 2 - 1) and
    d^2 < 2^(prec - 2), so the points, their differences and the squares all
    fit in prec bits: libmp would compute each of them exactly.
    """
    if set(map(type, points)) != {int}:
        return False
    limit = 1 << (prec // 2 - 2)
    return -limit < min(points) and max(points) < limit


class _Arithmetic(NamedTuple):
    """How the banded bookkeeping computes with points: on ints, or on raw libmp values."""

    keys: Sequence[Any]  # the points, as ints or as raw libmp values
    mp: Optional[List[Any]]  # the points as mpf values; None on ints, which convert only for f
    sub: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    gt: Callable[[Any, Any], bool]
    neg: Callable[[Any], Any]
    zero: Any
    from_raw: Callable[[Any], Any]  # the radius r*, a raw libmp value, for comparing with d^2
    to_raw: Callable[[Any], Any]  # a squared difference d^2 as a raw libmp value, for phi


def _arithmetic(points: Sequence[Any], prec: int, rnd: str) -> _Arithmetic:
    """Exact ints for a window that ``_exact_int_window`` admits, else libmp at (prec, rnd)."""
    if _exact_int_window(points, prec):
        return _Arithmetic(
            points, None, operator.sub, operator.mul, operator.gt, operator.neg, 0,
            # d^2 > r* iff d^2 > floor(r*) for an integer d^2
            lambda r: to_int(r, "f"), lambda d2: from_int(d2, prec, rnd),
        )
    mp = [as_mpf(p) for p in points]
    return _Arithmetic(
        [p._mpf_ for p in mp], mp,
        lambda a, b: mpf_sub(a, b, prec, rnd), lambda a, b: mpf_mul(a, b, prec, rnd),
        mpf_gt, mpf_neg, fzero, _same, _same,
    )


def _same(x: Any) -> Any:
    return x


# f at a window's points, given them as mpf values or None; see evaluate_ones_form.
FValues = Callable[[Optional[List[Any]]], Sequence[Any]]


def _banded_ones_form(
    kernel: KernelSpec,
    f: CandidateFunction,
    c: float,
    points: Sequence[Any],
    precision_bits: int,
    f_values: Optional[FValues] = None,
) -> Any:
    """r for the all-ones vector via banded kernel summation.

    Requires a monotone nonincreasing decaying profile and strictly monotone
    points.  The rank-one part uses the algebraic identity
    sum_{i,j} f_i f_j = (sum_i f_i)^2.

    The bookkeeping (the monotonicity check, the gaps, the early break and
    the band test d^2 > r*) runs on Python ints when every point is an int
    below 2^(precision_bits // 2 - 2) in magnitude, as the points of the
    built-in integer sequences are at 256 bits.  libmp computes every
    difference and square of such points exactly, so each int result, and
    each d^2 passed to phi through ``from_int``, equals libmp's bit for bit.
    Any other window (floats, decimals, mpf, wider ints) runs on raw libmp
    values, rounded as mpf arithmetic rounds; there a nan difference fails
    the monotonicity check.  Its points convert to mpf once, for the
    bookkeeping and for f; the points of an int window convert only for f.
    """
    profile = kernel.profile
    assert profile is not None
    n = len(points)
    with workprec(precision_bits):
        prec, rnd = mpmath.mp._prec_rounding
        a = _arithmetic(points, prec, rnd)
        keys, sub, mul, gt = a.keys, a.sub, a.mul, a.gt
        diffs = list(map(sub, keys[1:], keys))
        if all(map(gt, diffs, repeat(a.zero))):
            gaps = diffs
        elif all(map(gt, repeat(a.zero), diffs)):
            gaps = list(map(a.neg, diffs))
        else:
            raise WitnessSearchError(
                "banded evaluation needs strictly monotone points",
                reason="not-monotone",
            )
        gaps_sorted = not any(map(gt, gaps, gaps[1:]))
        cutoff = mpf(2) ** (-(precision_bits + 64)) * max(profile.value_mp(0), mpf(1))
        r_star = a.from_raw(_negligible_radius(profile, cutoff)._mpf_)
        off_terms: List[Any] = []
        for i in range(n - 1):
            if gaps_sorted and gt(mul(gaps[i], gaps[i]), r_star):
                break
            acc = mpf(0)
            x = keys[i]
            for j in range(i + 1, n):
                d = sub(keys[j], x)
                d2 = mul(d, d)
                if gt(d2, r_star):
                    break
                acc += profile.value_mp(_make_mpf(a.to_raw(d2)))
            off_terms.append(2 * acc)
        mp = a.mp
        del a, keys, diffs, gaps  # garbage before f, which may keep mpf points of its own
        diag = n * profile.value_mp(0)
        if f_values is None:
            fsum = neumaier_sum(f.values_mp(points if mp is None else mp))
        else:
            fsum = neumaier_sum(f_values(mp))
        return diag + neumaier_sum(off_terms) - mpf(c) ** 2 * fsum * fsum


def _dense_ones_form(
    kernel: KernelSpec,
    f: CandidateFunction,
    c: float,
    points: Sequence[Any],
    precision_bits: int,
    f_values: Optional[FValues] = None,
) -> Any:
    """r for the all-ones vector via the Gram matrix of ``deflate(kernel, f, c)``.

    The deflated kernel reads f from a table keyed by point, so f runs once
    per point rather than twice per entry.
    """
    with workprec(precision_bits):
        pts = [as_mpf(p) for p in points]
        values = dict(zip(pts, f.values_mp(pts) if f_values is None else f_values(pts)))
    tabulated = SimpleNamespace(function_id=f.function_id, eval_mp=values.__getitem__)
    gram = assemble_gram(deflate(kernel, tabulated, c), pts, precision_bits)
    return quadratic_form(gram, [1] * len(points))


def evaluate_ones_form(
    kernel: KernelSpec,
    f: CandidateFunction,
    c: float,
    points: Sequence[Any],
    precision_bits: int = DEFAULT_PRECISION_BITS,
    f_values: Optional[FValues] = None,
) -> Any:
    """The witness quadratic form r on the given window, all-ones coefficients.

    Dense evaluation through the deflated Gram matrix up to DENSE_EVAL_CAP
    points; beyond that, banded evaluation when the kernel's metadata makes
    truncation sound.  The selection rule depends only on (kernel, window
    size), so verification reproduces the builder's path.

    ``f_values``, when given, returns f at the points, computed at
    ``precision_bits``.  It is passed the points as mpf values when the
    evaluator has converted them, else None (an int window on the banded
    path converts none).  The banded path calls it only once the window has
    passed its point checks, so a window rejected as not monotone costs no
    f values.  Without it, f is evaluated once per point.
    """
    if _is_dense(kernel, len(points)):
        return _dense_ones_form(kernel, f, c, points, precision_bits, f_values)
    return _banded_ones_form(kernel, f, c, points, precision_bits, f_values)


def _is_dense(kernel: KernelSpec, n: int) -> bool:
    """Whether a window of n points takes the dense path; raises when no path can take it."""
    profile = kernel.profile
    banded_ok = (
        profile is not None
        and profile.monotone_decreasing
        and profile.decays_to_zero
        and profile.nonneg
    )
    if n > DENSE_EVAL_CAP and banded_ok:
        return False
    if n > DENSE_FALLBACK_LIMIT:
        raise WitnessSearchError(
            f"window of {n} points exceeds the dense evaluation limit and the "
            "kernel lacks the decay metadata needed for banded summation",
            reason="window-too-large",
        )
    return True


class PointTable:
    """Points x_k and values f(x_k), each over a contiguous range of indices k.

    ``points`` and ``window`` compute only what they have not stored, so a
    search that serves all its windows from one table evaluates f at most
    once per index, and only at indices of windows whose values it asked
    for.  The table keeps no mpf points: a point converts only when f is
    evaluated there, unless the caller passes the window already converted.
    A request that neither overlaps nor adjoins a stored range restarts that
    range there, so no index outside a requested window is ever computed.
    Windows are list slices: the caller may keep them, but not modify them.
    """

    def __init__(
        self,
        f: CandidateFunction,
        sequence: SequenceSpec,
        precision_bits: int = DEFAULT_PRECISION_BITS,
    ) -> None:
        self.f = f
        self.sequence = sequence
        self.precision_bits = precision_bits
        self.first = 1
        self.raw: List[Any] = []
        self.values_first = 1
        self.values: List[Any] = []

    def points(self, start: int, count: int) -> List[Any]:
        """The points at indices start, ..., start + count - 1, as the sequence gives them."""
        self.first, (self.raw,) = _cover(
            self.first, (self.raw,), start, count, lambda a, k: (self.sequence.points(a, k),)
        )
        i = start - self.first
        return self.raw[i : i + count]

    def window(self, start: int, count: int, mp: Optional[List[Any]] = None) -> List[Any]:
        """f values at indices start, ..., start + count - 1.

        ``mp``, when given, is the window's points as mpf values at the
        table's precision; f reads its points from there instead of
        converting them again.
        """
        raw = self.points(start, count)

        def new_values(first: int, n: int) -> Tuple[List[Any]]:
            lo = first - start
            with workprec(self.precision_bits):
                pts = mp[lo : lo + n] if mp is not None else [as_mpf(x) for x in raw[lo : lo + n]]
                return (self.f.values_mp(pts),)

        self.values_first, (self.values,) = _cover(
            self.values_first, (self.values,), start, count, new_values
        )
        i = start - self.values_first
        return self.values[i : i + count]


def _cover(
    first: int,
    lists: Tuple[List[Any], ...],
    start: int,
    count: int,
    new: Callable[[int, int], Tuple[Sequence[Any], ...]],
) -> Tuple[int, Tuple[List[Any], ...]]:
    """Grow parallel lists over indices first, first + 1, ... to cover start, ..., start + count - 1.

    ``new(a, k)`` returns, for each list, its items at indices a, ..., a + k - 1.
    A request that neither overlaps nor adjoins the covered range restarts it
    there.  Returns the new first index and the lists.
    """
    stop = first + len(lists[0])
    if start > stop or start + count < first:
        first, lists, stop = start, tuple([] for _ in lists), start
    if start < first:
        for items, added in zip(lists, new(start, first - start)):
            items[0:0] = added
        first = start
    if start + count > stop:
        for items, added in zip(lists, new(stop, start + count - stop)):
            items += added
    return first, lists


@dataclass(frozen=True)
class WitnessCertificate:
    """Self-contained negativity certificate for the deflated kernel at scale c.

    ``coefficients`` is None for the all-ones vector (the only kind the
    builder emits; the field exists so externally produced certificates with
    general coefficients can be represented).
    """

    kernel_id: str
    function_id: str
    sequence_id: str
    c: float
    alpha: float
    alpha_provenance: str
    kernel_diag_sup: float
    n_points: int
    ell: int
    r_value: Any
    points: Tuple[Any, ...]
    precision_bits: int
    coefficients: Optional[Tuple[Any, ...]] = None
    schema: str = WITNESS_SCHEMA

    def coefficient_vector(self) -> Tuple[Any, ...]:
        if self.coefficients is not None:
            return self.coefficients
        return tuple([1] * self.n_points)


def resolve_alpha(
    f: CandidateFunction,
    sequence: SequenceSpec,
    start: int = 1,
    count: int = 32,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> TailBound:
    """Tail bound to use along the sequence: declared if available, else sampled.

    Raises WitnessSearchError when neither a declared bound matching the
    sequence direction nor a clean empirical sample exists.
    """
    declared = None
    if sequence.direction == 1:
        declared = f.tail_pos
    elif sequence.direction == -1:
        declared = f.tail_neg
    if declared is not None:
        return declared
    sampled = tail_lower_bound(f, sequence, start, count, precision_bits)
    if sampled is None:
        raise WitnessSearchError(
            "no usable tail bound: the function has no declared bound along this "
            "sequence and sampled values mix signs or vanish",
            reason="no-tail-bound",
        )
    return sampled


def _tail_entry_offset(sequence: SequenceSpec, tail: TailBound) -> int:
    """Smallest offset ell such that x_{ell+1} lies in the tail's validity region."""
    if tail.threshold <= 0 or sequence.direction is None:
        return 0
    target = tail.threshold
    ell = 0
    while abs(sequence.point(ell + 1)) < target:
        ell += 1
        if ell > 10**7:
            raise WitnessSearchError(
                "sequence never reaches the tail bound's validity region",
                reason="tail-unreachable",
            )
    return ell


def build_witness(
    kernel: KernelSpec,
    f: CandidateFunction,
    sequence: SequenceSpec,
    c: float,
    alpha: Optional[float] = None,
    alpha_provenance: Optional[str] = None,
    ell_max: int = 10**6,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    doubling_cap: int = DEFAULT_DOUBLING_CAP,
    table: Optional[PointTable] = None,
) -> WitnessCertificate:
    """Search for a negativity certificate at scale c.

    Window size starts at the threshold N(c, alpha) and doubles up to
    ``doubling_cap`` times when r fails to come out negative; exhausting the
    cap raises, which is the expected outcome when f actually lies in the
    kernel's space (or alpha was declared too optimistically).

    Windows are served from ``table``, which callers share across scales;
    without one, the search makes its own for its doublings.
    """
    if not c > 0:
        raise ValueError("scale c must be positive")
    if table is None:
        table = PointTable(f, sequence, precision_bits)
    elif (table.f, table.sequence, table.precision_bits) != (f, sequence, precision_bits):
        raise ValueError("point table was made for another function, sequence or precision")
    if alpha is None:
        tail = resolve_alpha(f, sequence, precision_bits=precision_bits)
        alpha_value = tail.alpha
        provenance = tail.provenance
        min_ell = _tail_entry_offset(sequence, tail)
    else:
        if not alpha > 0:
            raise ValueError("tail bound alpha must be positive")
        alpha_value = float(alpha)
        provenance = alpha_provenance or DECLARED
        min_ell = 0
    c_k = kernel.diag_sup
    with workprec(precision_bits):
        bound = mpf(c) ** 2 * mpf(alpha_value) ** 2 / 2
    # A threshold of 1 still admits two points, the smallest window find_ell probes.
    n = max(n_threshold(c_k, c, alpha_value), 2)
    last_r = None
    for _ in range(doubling_cap + 1):
        ell = find_ell(kernel, sequence, n, bound, ell_max, precision_bits, min_ell=min_ell)
        points = table.points(ell + 1, n)
        r = evaluate_ones_form(
            kernel, f, c, points, precision_bits, f_values=partial(table.window, ell + 1, n)
        )
        if r < 0:
            return WitnessCertificate(
                kernel_id=kernel.kernel_id,
                function_id=f.function_id,
                sequence_id=sequence.name,
                c=float(c),
                alpha=alpha_value,
                alpha_provenance=provenance,
                kernel_diag_sup=float(c_k),
                n_points=n,
                ell=ell,
                r_value=r,
                points=tuple(points),
                precision_bits=precision_bits,
            )
        last_r = r
        n *= 2
    raise WitnessSearchError(
        f"quadratic form stayed nonnegative after {doubling_cap} doublings "
        f"(last r = {mpmath.nstr(last_r, 8)}); either f belongs to the kernel's "
        "space or the declared tail bound is unreliable",
        reason="doubling-cap-exhausted",
    )


# Relative tolerance for matching a recomputed r against the stored value.
VERIFY_REL_TOL_BITS = 100


_raw = attrgetter("_mpf_")


class VerifierStore:
    """f values the verifier has computed, kept per certificate for the ones checked later.

    A later certificate reuses a kept certificate's values where the two
    offsets ``ell`` place their points over each other and the raw libmp
    values of those points are equal at the same precision, so it reuses only
    f computed by the verifier itself at equal points; nothing comes from the
    builder.  ``ell`` only says where to compare: a wrong one costs f
    evaluations, never a wrong value.  Reused values are slices of the kept
    lists, so sharing allocates no numbers and hashes no points.
    """

    def __init__(self, f: CandidateFunction) -> None:
        self.f = f
        self._kept: List[Tuple[int, int, List[Any], List[Any]]] = []  # bits, ell, keys, values

    def values(self, cert: WitnessCertificate, points: Sequence[Any]) -> List[Any]:
        """f at the certificate's mpf ``points``: kept values where they match, the rest now."""
        values: List[Any] = [None] * len(points)
        keys = list(map(_raw, points)) if self._kept else []
        reused = False
        for bits, ell, kept_keys, kept_values in self._kept:
            shift = cert.ell - ell  # point i sits over kept point i + shift
            lo, hi = max(0, -shift), min(len(keys), len(kept_keys) - shift)
            if bits != cert.precision_bits or lo >= hi:
                continue
            if keys[lo:hi] == kept_keys[lo + shift : hi + shift]:
                values[lo:hi] = kept_values[lo + shift : hi + shift]
                reused = True
        with workprec(cert.precision_bits):
            if not reused:
                return self.f.values_mp(points)
            fresh = iter(self.f.values_mp([p for p, v in zip(points, values) if v is None]))
        return [next(fresh) if v is None else v for v in values]

    def keep(self, cert: WitnessCertificate, points: Sequence[Any], values: List[Any]) -> None:
        """Keep ``values``, f at the certificate's mpf ``points``, for later certificates."""
        self._kept.append((cert.precision_bits, cert.ell, list(map(_raw, points)), values))


def verify_certificate(
    cert: WitnessCertificate,
    kernel: KernelSpec,
    f: CandidateFunction,
    store: Optional[VerifierStore] = None,
) -> bool:
    """Recompute everything a certificate claims; True iff it all checks out.

    Checks: identifier match (raises on mismatch: verifying against the wrong
    objects is a caller bug, not a bad certificate), positive c and alpha,
    window size above the threshold, as many stored points as n_points (the
    points are not regenerated from the sequence), and the recomputed r
    matching the stored value to 2^-100 relative accuracy while being negative.

    f comes from ``store``; without one, from a new store, so a certificate
    checked alone costs one f value per stored point.  A caller checking
    several certificates of one function may pass one ``store`` to all of
    them, largest first: where their windows overlap, as the nested windows
    of one run do, f is then evaluated once per distinct stored point.  This
    is still a recomputation: every certificate's r is computed afresh from
    its own stored points, and the only values shared are f computed here,
    by the verifier, at equal points and precision.  f is asked for only once
    the window has passed the evaluator's point checks, so a window rejected
    there costs no f values; stored int points convert to mpf only then.  A
    point where f is undefined raises EvaluationError; a banded window that is
    not strictly monotone raises WitnessSearchError with reason
    ``not-monotone``.
    """
    if cert.kernel_id != kernel.kernel_id:
        raise ValueError(
            f"certificate kernel {cert.kernel_id!r} does not match {kernel.kernel_id!r}"
        )
    if cert.function_id != f.function_id:
        raise ValueError(
            f"certificate function {cert.function_id!r} does not match {f.function_id!r}"
        )
    if store is not None and store.f is not f:
        raise ValueError("verifier store was made for another function")
    if not (cert.c > 0 and cert.alpha > 0):
        return False
    if cert.coefficients is not None and any(a != 1 for a in cert.coefficients):
        return False
    if len(cert.points) != cert.n_points:
        return False
    with workprec(320):
        threshold = 2 * mpf(cert.kernel_diag_sup) / (mpf(cert.c) ** 2 * mpf(cert.alpha) ** 2)
        if not mpf(cert.n_points) > threshold:
            return False
    if math.isinf(cert.kernel_diag_sup) or not kernel.is_bounded:
        return False
    if cert.kernel_diag_sup < kernel.diag_sup:
        return False
    bits = cert.precision_bits
    store = store if store is not None else VerifierStore(f)
    computed: List[Tuple[List[Any], List[Any]]] = []

    def f_values(points: Optional[List[Any]]) -> List[Any]:
        if points is None:
            with workprec(bits):
                points = [as_mpf(p) for p in cert.points]
        computed.append((points, store.values(cert, points)))
        return computed[0][1]

    r = evaluate_ones_form(kernel, f, cert.c, cert.points, bits, f_values=f_values)
    if computed:
        # Kept only now, so the kept keys never add to the evaluator's peak memory.
        store.keep(cert, *computed[0])
    if not r < 0:
        return False
    with workprec(bits):
        stored = mpf(cert.r_value)
        if stored >= 0:
            return False
        tol = mpf(2) ** (-VERIFY_REL_TOL_BITS)
        return bool(abs(r - stored) <= tol * abs(stored))


@dataclass(frozen=True)
class SweepResult:
    """Witness construction across a grid of scales.

    Every grid entry lands in exactly one of ``certificates`` (by scale) or
    ``failures`` (scale, reason).  ``scaling`` records N(c) * c^2 per
    successful scale, which should hover near 2 * sup K / alpha^2.
    """

    c_values: Tuple[float, ...]
    certificates: Tuple[WitnessCertificate, ...]
    failures: Tuple[Tuple[float, str], ...]
    scaling: Tuple[Tuple[float, float], ...]
    alpha: float
    alpha_provenance: str


def sweep_c(
    kernel: KernelSpec,
    f: CandidateFunction,
    sequence: SequenceSpec,
    c_grid: Optional[Sequence[float]] = None,
    ell_max: int = 10**6,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    doubling_cap: int = DEFAULT_DOUBLING_CAP,
) -> SweepResult:
    """Run build_witness for every scale on the grid, collecting outcomes.

    All scales share one PointTable, so f runs once per sequence index.
    """
    grid = tuple(float(c) for c in (c_grid if c_grid is not None else default_c_grid()))
    if not grid:
        raise ValueError("scale grid must be nonempty")
    if any(not c > 0 for c in grid):
        raise ValueError("scales must be positive")
    tail = resolve_alpha(f, sequence, precision_bits=precision_bits)
    table = PointTable(f, sequence, precision_bits)
    certs: List[WitnessCertificate] = []
    failures: List[Tuple[float, str]] = []
    scaling: List[Tuple[float, float]] = []
    for c in grid:
        try:
            cert = build_witness(
                kernel,
                f,
                sequence,
                c,
                alpha=tail.alpha,
                alpha_provenance=tail.provenance,
                ell_max=ell_max,
                precision_bits=precision_bits,
                doubling_cap=doubling_cap,
                table=table,
            )
        except WitnessSearchError as exc:
            failures.append((c, f"{exc.reason}: {exc}"))
            continue
        certs.append(cert)
        scaling.append((c, cert.n_points * c * c))
    return SweepResult(
        c_values=grid,
        certificates=tuple(certs),
        failures=tuple(failures),
        scaling=tuple(scaling),
        alpha=tail.alpha,
        alpha_provenance=tail.provenance,
    )
