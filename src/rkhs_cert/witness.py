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

Window sizes reach 968,499 points at the smallest default scale (the
default paper_example at c = 2^-8), where a dense Gram matrix is out of
reach.  One evaluator computes r as
n phi(0) + 2 sum_{i<j} phi((x_j - x_i)^2) - c^2 (sum_i f(x_i))^2 for a radial
profile phi, holding O(N) numbers.  The form is symmetric in the points, so
a window that is not strictly monotone is evaluated in sorted order.  When
the profile's interval form proves |phi| < 2^-(precision + 64) * max(phi(0), 1)
on [r*, +inf) for a radius r* (``RadialProfile.truncation_radius``), every
window is band-truncated: pairs whose squared gap exceeds r* are dropped, so
the omitted mass is below N^2 times that cutoff, far under the
certificate's comparison tolerance, whatever phi's sign or shape.  Without
such an r* a window sums all of its pairs, up to DENSE_FALLBACK_LIMIT
points.  In a strictly monotone order a row's pairs move apart as they go,
so each row ends at its own first pair beyond r*, and a row whose nearest
pair lies beyond r* adds nothing.  One C-level pass over the window's
consecutive gaps selects the band rows, those whose first gap lies within
r*, and checking the order on those rows alone proves the window monotone;
only band rows get a Python frame, about a dozen on a triangular window
however long it is.  A window that is not monotone is sorted and takes the
same pass, as before.  The rule depends only on the profile's
expression, which the kernel identifier names, so builder and verifier
select the same path and reverification reproduces r to working accuracy.

The evaluator's bookkeeping (point checks, gaps, the band test) runs on
exact Python ints for every window, read in place with no list of gaps:
``_window_keys`` writes each point, as the working precision gives it, as
k * 2^e for one exponent e, so every difference and square is exact and
phi's argument d^2 is rounded once.  An int window below 2^precision is its
own keys, and a packed window (``sequences.pack``: an ``array('q')``, 8
bytes a point) is its own at 64 bits and more with no scan of its points;
any other window is converted once to read them.  f always gets the points
as given and converts each itself.

A window of the built-in integer sequences is packed from the sequence to
the certificate: a ``PointTable`` holds its points as one packed window,
extended in place, the window a search evaluates is a slice of it, and that
slice is the certificate's ``points``.  A window with a point that is no
64-bit int is a tuple, as the certificate's points are then, and the
table's points a tuple or a list.

``sweep_c`` is the one loop over scales, for the library and for
``rkhs-cert run``; ``build_witness`` is its search at a single scale.  The
tail bound alpha and its entry offset (the first window offset where it
holds) do not depend on c, so ``sweep_c`` resolves them once.  A search
evaluates f once per sequence index: its windows, its tail sample and the
offset probes' windows on a sequence without ordered gaps are served from
one ``PointTable``, shared across doublings and scales (their windows start
at nearby offsets and mostly contain one another); a probe far beyond the
table's points is read from the sequence and not stored, so the table keeps
the points the next windows need.  A window's f values are computed only
after it passes the evaluator's point checks.

A search's window sum ends where ``mpf_sum`` stops reading it.  Its table
fills f from the window's start, VALUE_BLOCK values at a time, and after a
block that is not fixed-point it stops once three facts hold: the rest of
the window is strictly monotone, the blocks so far have a finite nonzero
sum, and f's ``ray_bound`` over the ray from the next point, with
F_ROUNDING_BITS to spare, lies below every term ``mpf_sum`` would then keep
(``quadform.drops_after``).  Every later value is then dropped, so the sum
has the bits of the whole window's without them.  A kernel section's
windows, whose values fall by thousands of bits a point, end after their
first fill.

Verification recomputes r from the stored points with the builder's own
evaluator: it shares ``evaluate_ones_form`` and its ``_band_rows``,
``PointTable`` and ``neumaier_sum``, but not the stop.  A verifier's table,
made without a sequence, never stops, so ``verify_certificate`` computes f
at every stored point and sums every value; certificates verified together
may share those f values through one such table.

At a million window points, f values are most of what a run or a verifier
holds, and r needs only their sum.  A ``PointTable`` keeps the values it
computes together, VALUE_BLOCK at a time, as one ``Block`` of exact
fixed-point ints: an exponent e and, for each value, the int q with
q * 2^e the value, packed as fixed-width fields of one bytes object, no
object per value, plus the exact sum of the q.  ``neumaier_sum``
sums a window's blocks to the bits ``mpf_sum`` gives on the values' raw
tuples: where the values' exponents span at most 2 * prec bits, mpf_sum
drops nothing and rounds the exact sum once, which is the blocks' integer
sums added and rounded once; a wider window streams the values, rebuilt as
raw tuples, through mpf_sum.  A block whose ints would take more than
BLOCK_SPAN_LIMIT bits beyond the precision (a kernel section's values fall
that fast), or that holds inf or nan, keeps its raw tuples; a search's
table holds few such values, as its window sums end after the first fill
whose later values are proved dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice, repeat
from operator import attrgetter, ge, gt, le, lt, sub
from typing import Any, Callable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, mpf_shift, to_int

from .errors import WitnessSearchError
from .expressions import as_mpf
from .functions import DECLARED, CandidateFunction, TailBound, tail_lower_bound
from .kernels import KernelSpec, undefined_pair
from .quadform import DEFAULT_PRECISION_BITS, Block, block_terms, drops_after, fixed_point_block, neumaier_sum
from .quadform import assemble_gram, quadratic_form  # noqa: F401  unused; perfbench/trace_child.py patches them here
from .sequences import SequenceSpec, is_packed, joined, offset_ladder, pack

WITNESS_SCHEMA = "rkhs-cert/witness/v1"

_make_mpf = mpmath.mp.make_mpf

# Most points a full sum takes: without a truncation radius it costs N^2 / 2 profile values.
DENSE_FALLBACK_LIMIT = 4096

# Most points a search window may take, doublings included.  The default grid's
# largest window, 968,499 points at c = 2^-8, stays below it after six
# doublings; a scale whose window is larger (N is about 1.5 * 10^9 for
# paper_example at c = 10^-4) fails before any of its points is generated.
MAX_WINDOW_POINTS = 2**26

# Points lie in the double range, below 2**1024 in magnitude.  A kernel value
# at a point far beyond it costs time that grows with the point's magnitude
# (about 0.5 s at 2**65536 and 256 bits, against 1 ms at 2**1024), so such a
# point would stall the verifier.
MAX_POINT_BITS = 1024


def point_in_range(point: Any) -> bool:
    """Whether ``point`` is finite and below 2**MAX_POINT_BITS in magnitude."""
    # |point| < 2**bits exactly; mag is inf or nan for an infinite or nan value
    bits = point.bit_length() if isinstance(point, int) else mpmath.mag(point)
    return bits <= MAX_POINT_BITS


# The search's defaults: how often a window may double, and the largest window offset.
DEFAULT_DOUBLING_CAP = 6
DEFAULT_ELL_MAX = 10**6


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


def _no_radial_profile(kernel: KernelSpec) -> WitnessSearchError:
    return WitnessSearchError(
        f"kernel {kernel.kernel_id!r} has no radial profile to evaluate the form with",
        reason="no-radial-profile",
    )


def _window_keys(points: Sequence[Any], prec: int) -> Tuple[Sequence[int], int]:
    """Ints k_i and one exponent e with k_i * 2^e each point's value at precision ``prec``, exactly.

    Ints below 2^prec are their own keys, with e = 0: a packed window at
    prec >= 64 with no scan, as |k| <= 2^63 < 2^prec, and any other window
    of ints once its types and extremes are checked.  Any other window is
    converted once, at the working precision, to read each point's raw
    value (``fixed_point_block``); a non-finite point, or keys spanning more
    than prec + 2 MAX_POINT_BITS + 64 bits (one tiny point widens every
    key), raise ValueError before any key is made.
    """
    if prec >= 64 and is_packed(points):
        return points, 0
    if set(map(type, points)) == {int} and -(1 << prec) < min(points) and max(points) < 1 << prec:
        return points, 0
    limit = prec + 2 * MAX_POINT_BITS + 64
    keys = fixed_point_block([as_mpf(p)._mpf_ for p in points], limit)
    if keys is None:
        raise ValueError(f"node set holds a non-finite point, or its points span more than {limit} bits")
    return keys.values, keys.exp


def offdiag_bound(
    kernel: KernelSpec, sequence: SequenceSpec, ell: int, window: int, table: Optional["PointTable"] = None
) -> Any:
    """An upper bound eps on every off-diagonal |K| of the window x_{ell+1}, ..., x_{ell+window}.

    eps = ``abs_bound(g^2)`` of the kernel's profile, g the window's smallest
    gap: on a sequence with a ``direction`` and ``gaps_nondecreasing`` its
    first gap, otherwise the smallest gap of the sorted window, read through
    ``table.probe`` (``table`` a search's table for the sequence) when given.
    g is exact on the window's keys (``_window_keys``) and g^2 is rounded
    down once.
    Raises ``no-radial-profile`` for a kernel without a profile.
    """
    if kernel.profile is None:
        raise _no_radial_profile(kernel)
    if sequence.direction is not None and sequence.gaps_nondecreasing:
        points = sequence.points(ell + 1, 2)
    elif table is not None:
        points = table.probe(ell + 1, window)
    else:
        points = sequence.points(ell + 1, window)
    prec = mpmath.mp.prec
    keys, e = _window_keys(points, prec)
    keys = sorted(keys)
    gap = min(b - a for a, b in zip(keys, keys[1:]))
    return kernel.profile.abs_bound(_make_mpf(from_man_exp(gap * gap, 2 * e, prec, "f")))


def find_ell(
    kernel: KernelSpec,
    sequence: SequenceSpec,
    window: int,
    bound: Any,
    ell_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    min_ell: int = 0,
    table: Optional["PointTable"] = None,
) -> int:
    """Smallest probed offset ell whose ``offdiag_bound`` is at most ``bound``.

    Probes ell = min_ell, min_ell + 1, then doubles up to ell_max (always
    including ell_max itself).  Each probe costs one interval evaluation of
    the profile, plus the window's points on a sequence without ordered
    gaps, served by ``table`` when given.  A kernel without a radial
    profile raises ``no-radial-profile`` before any point is computed.
    """
    if window < 2:
        raise ValueError("window must contain at least two points")
    if ell_max < min_ell:
        raise ValueError("ell_max is below the initial offset")
    ladder = [min_ell]
    if ell_max > min_ell:
        ladder += [min_ell + k for k in offset_ladder(ell_max - min_ell)]
    with workprec(precision_bits):
        limit = mpf(bound)
        for ell in ladder:
            if offdiag_bound(kernel, sequence, ell, window, table) <= limit:
                return ell
    raise WitnessSearchError(
        f"no window offset up to {ell_max} brings off-diagonal kernel values "
        f"below {mpmath.nstr(mpf(bound), 8)}; decay condition not met at this horizon",
        reason="decay-horizon-exhausted",
    )


# f at a window's points, as mpf values or Blocks; see evaluate_ones_form.
FValues = Callable[[], Sequence[Any]]

# How many f values a PointTable computes as mpf values at once, and holds as one Block.
VALUE_BLOCK = 1024

# Bits by which a computed f value may exceed the bound its ray_bound proves on exact values.
F_ROUNDING_BITS = 63


def evaluate_ones_form(
    kernel: KernelSpec,
    f: CandidateFunction,
    c: float,
    points: Sequence[Any],
    precision_bits: int = DEFAULT_PRECISION_BITS,
    f_values: Optional[FValues] = None,
) -> Any:
    """The witness quadratic form r on the given window, all-ones coefficients.

        r = n phi(0) + sum_i 2 sum_{j > i} phi((x_j - x_i)^2) - c^2 (sum_i f(x_i))^2

    with the rank-one part from the identity sum_{i,j} f_i f_j = (sum_i f_i)^2.
    A strictly ascending or descending window keeps its order; any other is
    sorted ascending, and must then have distinct points (else ValueError).
    When the profile has a ``truncation_radius`` r* at ``precision_bits``,
    each row ends at its first squared gap beyond r*, and a row whose nearest
    pair is already beyond r* is skipped and adds no term; |phi| is provably
    below the cutoff on every dropped pair.  Without one the window sums all
    pairs, and may hold at most DENSE_FALLBACK_LIMIT points (else
    ``window-too-large``, raised before any point check).  The rule depends
    only on the kernel, so verification reproduces the builder's choice.  A
    kernel without a radial profile raises ``no-radial-profile``, and a pair
    where the profile is undefined raises EvaluationError naming the pair.

    The bookkeeping (the point checks, the gaps and the band test d^2 > r*)
    runs on the window's exact integer keys (``_window_keys``, which raises
    ValueError for a non-finite point or too wide a span): with points
    k_i * 2^e, d^2 > r* is D^2 > floor(r* / 4^e) for the integer D^2, and
    phi gets D^2 * 4^e rounded once at ``precision_bits``.  One pass
    (``_band_rows``) reads consecutive keys in place, with no list of gaps
    and no Python frame per point: in the order of the first pair, it
    selects the rows whose first gap D has |D| <= isqrt(floor(r* / 4^e))
    (every row without a radius), and checks the strict order on those rows
    alone, before any profile value, since every other gap exceeds that
    reach with the order's sign.  Only the selected rows, the band rows, run
    the Python loop over their pairs.  A window that fails the check is
    sorted and takes the same pass, where a zero gap is a coincident point.
    So a monotone int window, ascending or descending, costs no memory per
    point beyond its inputs (8 bytes a point, packed), its band rows' packed
    indices and one term per band row.  Only that bookkeeping sees the
    sorted order: f gets the points as given.

    ``f_values``, when given, returns f at the points, computed at
    ``precision_bits``: mpf values, or the ``Block``s a ``PointTable``
    holds them in, which ``neumaier_sum`` sums to the same bits (a
    search's table may end them where the rest are dropped).  It is
    called only once the window has passed its point checks, so a window
    rejected there costs no f values.  Without it, f is evaluated once per
    point.
    Either way f converts the points itself, as ``_window_keys`` does.
    """
    profile = kernel.profile
    if profile is None:
        raise _no_radial_profile(kernel)
    n = len(points)
    with workprec(precision_bits):
        radius = profile.truncation_radius()
        if radius is None and n > DENSE_FALLBACK_LIMIT:
            raise WitnessSearchError(
                f"window of {n} points exceeds the full-sum limit of {DENSE_FALLBACK_LIMIT}, and the "
                "kernel's profile has no truncation radius for banded summation",
                reason="window-too-large",
            )
        prec, rnd = mpmath.mp._prec_rounding
        keys, e = _window_keys(points, prec)
        e2 = 2 * e
        # D^2 * 4^e > r* iff D^2 > floor(r* / 4^e) for an integer D^2, and D^2 <= R iff |D| <= isqrt(R)
        r_star = math.inf if radius is None else to_int(mpf_shift(radius._mpf_, -e2), "f")
        reach = math.inf if radius is None else math.isqrt(r_star)
        rows = _band_rows(keys, reach, n > 1 and keys[1] < keys[0])
        if rows is None:
            # the form is symmetric in the points: sort the evaluator's own keys
            keys = sorted(keys)
            rows = _band_rows(keys, reach, False)
            if rows is None:
                raise ValueError("coincident points in node set")
        off_terms: List[Any] = []
        try:
            for i in rows:
                x = keys[i]
                acc = mpf(0)
                for j in range(i + 1, n):
                    d = keys[j] - x
                    d2 = d * d
                    if d2 > r_star:
                        break
                    acc += profile.value_mp(_make_mpf(from_man_exp(d2, e2, prec, rnd)))
                off_terms.append(2 * acc)
        except (ArithmeticError, ValueError) as exc:
            raise undefined_pair(kernel, mpmath.ldexp(keys[i], e), mpmath.ldexp(keys[j], e), exc) from exc
        del keys  # garbage before f
        diag = n * profile.value_mp(0)
        fsum = neumaier_sum(f.values_mp(points) if f_values is None else f_values())
        return diag + neumaier_sum(off_terms) - mpf(c) ** 2 * fsum * fsum


def _band_rows(keys: Sequence[int], reach: Any, descending: bool) -> Optional[Sequence[int]]:
    """The rows i whose first gap |k_{i+1} - k_i| is at most ``reach``, packed; None unless the keys are monotone.

    One C-level pass over consecutive keys, read in place, selects the rows
    whose gap is at most ``reach`` (>= 0) in the order asked for, ascending
    or ``descending``: every gap it leaves out has that order's sign, and
    one of the other sign, or zero, is selected.  So checking the strict
    order on the selected rows alone proves every key strictly ascending
    (or descending), and the band needs no Python frame per point.
    """
    within, order, reach = (ge, gt, -reach) if descending else (le, lt, reach)
    rows = pack(compress(count(), map(within, map(sub, islice(keys, 1, None), keys), repeat(reach))))
    nexts = map(keys.__getitem__, map((1).__add__, rows))
    return rows if all(map(order, map(keys.__getitem__, rows), nexts)) else None


class PointTable:
    """Points x_k and values f(x_k), each over a contiguous range of indices k.

    ``points``, ``window`` and ``blocks`` compute only what they have not
    stored, so a search that serves all its windows from one table
    evaluates f at most once per index, and only at indices of windows
    whose values it asked for.  The table keeps no mpf points: f receives
    the points as they were given and converts each itself.
    A new range of values is computed VALUE_BLOCK points at a time, so at
    most one block of mpf values is alive at once, and each fill is kept as
    one ``Block`` (``_value_block``): ints q_i over one exponent e, each
    value exactly q_i * 2^e, packed in one bytes object with their exact
    sum, about 33 bytes a value at 256 bits against about 140 as raw libmp
    tuples and 220 as mpf values.  A fill whose ints would take more than
    BLOCK_SPAN_LIMIT bits beyond the precision, or that holds inf or nan,
    keeps its raw tuples.  ``blocks`` hands a
    window's blocks to ``neumaier_sum``, which sums them to the bits of
    ``mpf_sum`` on the raw tuples, decoding only the ints of a block the
    window cuts; ``window`` rebuilds each value's raw tuple exactly.
    A request that neither overlaps nor adjoins a stored range restarts that
    range there, so no index outside a requested window is ever computed;
    an offset probe's points, asked for through ``probe``, never restart it.
    Restarting the points drops the values: a value is held only with its point.
    A search's table (one with a ``sequence``) reads a window's values in
    index order from its start, and ``blocks`` may end them early where the
    rest are proved dropped from the sum; values past that end are not
    computed, and new values that end before the held ones replace them.
    The points are one window (``sequences.joined``): packed, 8 bytes a
    point, and extended in place, while every window it holds is; a tuple
    or a list otherwise.  The windows ``points`` returns are slices of it:
    the caller may keep them, but not modify them.
    A verifier's table has no ``sequence``: it holds the certificates' stored
    points, passed to ``points`` as ``given``.
    The table holds points and f values only; the search owns its tail facts.
    """

    def __init__(
        self,
        f: CandidateFunction,
        sequence: Optional[SequenceSpec],
        precision_bits: int = DEFAULT_PRECISION_BITS,
    ) -> None:
        self.f = f
        self.sequence = sequence
        self.precision_bits = precision_bits
        self.first = 1
        self.raw: Sequence[Any] = []
        self.values_first = 1
        self.values_held = 0
        self.value_blocks: List[Block] = []

    def points(self, start: int, count: int, given: Optional[Sequence[Any]] = None) -> Sequence[Any]:
        """The points at indices start, ..., start + count - 1, as the sequence gives them.

        ``given`` supplies them instead.  Where the table holds a point at one
        of those indices, the given one must be ``==`` to it (exact on ints,
        floats and mpf, so equal points convert to the same mpf and share f
        values), else ValueError, and the table is left as it was.  Two
        packed windows are compared as arrays, with no int made per point.
        """
        self._hold(start, count, given)
        i = start - self.first
        return self.raw[i : i + count]

    def _hold(self, start: int, count: int, given: Optional[Sequence[Any]] = None) -> None:
        """Hold the points at indices start, ..., start + count - 1, as ``points`` does, without a copy of them."""
        if given is None:
            # bound late: a verifier's table has no sequence, and window() asks it only for held points
            new = lambda first, n: self.sequence.points(first, n)
        else:
            lo, hi = max(start, self.first), min(start + count, self.first + len(self.raw))
            held = self.raw[lo - self.first : max(lo, hi) - self.first]
            part = given[lo - start : lo - start + len(held)]
            # windows of one type compare as they are: two packed ones with no int made per point
            same = held == part if type(held) is type(part) else tuple(held) == tuple(part)
            if not same:
                raise ValueError("given points differ from the points the table holds")
            new = lambda first, n: given[first - start : first - start + n]
        self.first, self.raw = _cover(self.first, self.raw, start, count, new)
        if not self.first <= self.values_first <= self.first + len(self.raw) - self.values_held:
            # the points restarted: drop the values of the old ones
            self.values_held, self.value_blocks = 0, []

    def probe(self, start: int, count: int) -> Sequence[Any]:
        """The points ``points(start, count)`` gives, for an offset probe of a search.

        A window that neither overlaps nor adjoins the held points is read
        from the sequence and not stored, so a probe far beyond them leaves
        them, and their values, to the windows the search evaluates next.
        An empty table stores it, as it has nothing to lose.
        """
        if self.raw and not _touches(self.first, len(self.raw), start, count):
            return self.sequence.points(start, count)
        return self.points(start, count)

    def blocks(self, start: int, count: int) -> List[Block]:
        """f values at indices start, ..., start + count - 1, as ``Block``s for ``neumaier_sum``.

        A block partly outside the window is cut to its part inside.  A
        search's table (one with a sequence) may end the list early, after
        a block that is not fixed-point, where ``_drops_rest`` proves that
        ``neumaier_sum`` would drop every later value of the window: the
        list then sums to the window's bits without them, and they are not
        computed.  A verifier's table always gives every value.
        """
        return self._values(start, count, self.sequence is not None)

    def window(self, start: int, count: int) -> List[Any]:
        """f values at indices start, ..., start + count - 1, as raw libmp tuples."""
        return list(block_terms(self._values(start, count, False)))

    def _values(self, start: int, count: int, may_stop: bool) -> List[Block]:
        """The window's blocks, as ``blocks`` gives them, computing only what the table does not hold.

        The window is read in index order from ``start``: held blocks, and
        new ones of up to VALUE_BLOCK values (one ``_fill`` each), before,
        among or after them; with ``may_stop``, it ends after a block that
        is not fixed-point once ``_drops_rest`` holds.  The new blocks are
        stored with the held ones when they adjoin them, and instead of
        them when the window ended before reaching them.
        """
        self._hold(start, count)
        end, first, stored = start + count, self.values_first, self.value_blocks
        if not _touches(first, self.values_held, start, count):
            first, stored = start, []
        front: List[Block] = []  # new blocks before the held ones
        back: List[Block] = []  # new blocks after them

        def walk() -> Any:
            """(first index, block) for each block the window crosses, in order, computing the new ones."""
            i = start
            while i < min(first, end):
                front.append(self._fill(i, min(i + VALUE_BLOCK, first)))
                yield i, front[-1]
                i += front[-1].size()
            at = first
            for b in stored:
                if i < at + b.size() and at < end:
                    yield at, b
                at += b.size()
            i = max(i, at)
            while i < end:
                back.append(self._fill(i, min(i + VALUE_BLOCK, end)))
                yield i, back[-1]
                i += back[-1].size()

        parts = []
        for at, b in walk():
            lo, hi = max(start - at, 0), min(end - at, b.size())
            parts.append(b if hi - lo == b.size() else b.cut(lo, hi))
            if may_stop and b.exp is None and at + hi < end and self._drops_rest(parts, at + hi, end):
                break
        if start + sum(map(Block.size, front)) < first:
            # the window ended before the held values: its own replace them
            first, stored = start, front
        elif front:
            first, stored = start, front + stored
        self.values_first, self.value_blocks = first, joined(stored, back)
        self.values_held = sum(map(Block.size, self.value_blocks))
        return parts

    def _fill(self, lo: int, hi: int) -> Block:
        """f at the held points of indices lo, ..., hi - 1, as one Block (``_value_block``)."""
        with workprec(self.precision_bits):
            chunk = self.raw[lo - self.first : hi - self.first]
            # one expression: the mpf values are garbage before the block is made
            return _value_block(list(map(attrgetter("_mpf_"), self.f.values_mp(chunk))), self.precision_bits)

    def _drops_rest(self, parts: List[Block], nxt: int, end: int) -> bool:
        """Whether ``neumaier_sum`` of ``parts`` is that of the window's values at indices up to end - 1.

        ``parts`` are the values of the window up to index nxt - 1.  It holds
        when the points x_nxt, ..., x_{end-1} are strictly monotone, so the
        ray from x_nxt in their direction holds them all as f gets them
        (rounding is monotone), and f's ``ray_bound`` on it, with
        F_ROUNDING_BITS to spare for f's own rounding, lies below the
        values ``quadform.drops_after`` proves dropped after ``parts``.
        The bound is checked first, then the drop, then the order.
        """
        i, j, raw = nxt - self.first, end - self.first, self.raw
        ascending = j - i < 2 or raw[i] < raw[i + 1]
        with workprec(self.precision_bits):
            bound = self.f.ray_bound(raw[i], 1 if ascending else -1)
            if not drops_after(parts, mpmath.ldexp(bound, F_ROUNDING_BITS)):
                return False
        rest = raw[i:j]
        return all(map(lt if ascending else gt, rest, islice(rest, 1, None)))


# Most bits beyond the precision that one block's ints may take for it to be held as ints.
BLOCK_SPAN_LIMIT = 64


def _value_block(raw: List[Any], prec: int) -> Block:
    """One fill's raw f values as a Block: packed ints over their lowest exponent, or the raw tuples themselves.

    The raw tuples stay when the ints would take more than
    prec + BLOCK_SPAN_LIMIT bits, or when a value is inf or nan
    (``fixed_point_block``).  The ints are packed as they are made, so only
    the raw tuples are alive per value meanwhile.  A fill of one value (a
    function without ``x`` gives one value object for a whole fill) holds
    one int, in a list of one reference a value.
    """
    one = raw[-1] is raw[0] and raw.count(raw[0]) == len(raw)
    block = fixed_point_block(raw[:1] if one else raw, prec + BLOCK_SPAN_LIMIT, packed=not one)
    if block is None:
        return Block(raw)
    if one:
        q = block.values[0]
        return block._replace(values=[q] * len(raw), total=q * len(raw))
    return block


def _touches(first: int, held: int, start: int, count: int) -> bool:
    """Whether indices start, ..., start + count - 1 overlap or adjoin first, ..., first + held - 1."""
    return first <= start + count and start <= first + held


def _cover(
    first: int, items: Sequence[Any], start: int, count: int, new: Callable[[int, int], Sequence[Any]]
) -> Tuple[int, Sequence[Any]]:
    """Grow a window of points x_first, x_{first+1}, ... to cover indices start, ..., start + count - 1.

    ``new(a, k)`` returns the points at indices a, ..., a + k - 1, and the
    window grows by ``sequences.joined``.  A request that neither overlaps
    nor adjoins the covered range restarts the window there.  Returns the
    new first index and the window.
    """
    stop = first + len(items)
    if not _touches(first, len(items), start, count):
        first, items, stop = start, [], start
    if start < first:
        items = joined(new(start, first - start), items)  # new() runs first: if it raises, items is whole
        first = start
    if start + count > stop:
        items = joined(items, new(stop, start + count - stop))
    return first, items


@dataclass(frozen=True)
class WitnessCertificate:
    """Self-contained negativity certificate for the deflated kernel at scale c.

    The form's coefficient vector is all ones, the only kind built or verified.
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
    points: Sequence[Any]  # a window (sequences.pack): packed when every point is a 64-bit int, else a tuple
    precision_bits: int
    schema: str = WITNESS_SCHEMA


# Points resolve_alpha samples |f| at, from x_1 on.
TAIL_SAMPLE_COUNT = 32


def resolve_alpha(
    f: CandidateFunction,
    sequence: SequenceSpec,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    table: Optional[PointTable] = None,
) -> TailBound:
    """Tail bound to use along the sequence: declared if available, else sampled.

    The sample is |f| at x_1, ..., x_TAIL_SAMPLE_COUNT.  A search passes
    its ``table``, so f is evaluated once at the sampled points it also puts
    in windows; ``sweep_c`` resolves the bound once, before its scales.
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
    sampled = tail_lower_bound(f, sequence, 1, TAIL_SAMPLE_COUNT, precision_bits, table)
    if sampled is None:
        raise WitnessSearchError(
            "no usable tail bound: the function has no declared bound along this "
            "sequence and sampled values mix signs or vanish",
            reason="no-tail-bound",
        )
    return sampled


def _tail_entry_offset(sequence: SequenceSpec, tail: TailBound, ell_max: int) -> Optional[int]:
    """Smallest offset ell <= ell_max such that x_{ell+1} lies in the tail's validity region.

    None when the sequence does not reach the region by offset ell_max.
    """
    if tail.threshold <= 0 or sequence.direction is None:
        return 0
    ell = 0
    while abs(sequence.point(ell + 1)) < tail.threshold:
        ell += 1
        if ell > ell_max:
            return None
    return ell


def _resolve_tail(
    f: CandidateFunction, sequence: SequenceSpec, alpha: Optional[float],
    ell_max: int, precision_bits: int, table: PointTable,
) -> Tuple[float, str, Optional[int]]:
    """A search's tail facts, which no scale changes: alpha, its provenance and the first window offset.

    A declared ``alpha`` must be positive (else ValueError, before any point
    is computed) and starts at offset 0.  Without one, alpha is
    ``resolve_alpha``'s, sampled through ``table``, and the offset is its
    tail's entry offset, None when the sequence does not reach it by ell_max.
    """
    if alpha is not None:
        if not alpha > 0:
            raise ValueError("tail bound alpha must be positive")
        return float(alpha), DECLARED, 0
    tail = resolve_alpha(f, sequence, precision_bits, table)
    return tail.alpha, tail.provenance, _tail_entry_offset(sequence, tail, ell_max)


def build_witness(
    kernel: KernelSpec,
    f: CandidateFunction,
    sequence: SequenceSpec,
    c: float,
    alpha: Optional[float] = None,
    ell_max: int = DEFAULT_ELL_MAX,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    doubling_cap: int = DEFAULT_DOUBLING_CAP,
) -> WitnessCertificate:
    """Search for a negativity certificate at scale c.

    Window size starts at the threshold N(c, alpha) and doubles up to
    ``doubling_cap`` times when r fails to come out negative; exhausting the
    cap raises, which is the expected outcome when f actually lies in the
    kernel's space (or alpha was declared too optimistically).

    It is ``sweep_c``'s search at a single scale: it resolves its tail facts
    and serves its windows from a PointTable of its own.
    """
    if not c > 0:
        raise ValueError("scale c must be positive")
    if doubling_cap < 0:
        raise ValueError("doubling cap must be nonnegative")
    table = PointTable(f, sequence, precision_bits)
    tail = _resolve_tail(f, sequence, alpha, ell_max, precision_bits, table)
    return _search(kernel, f, sequence, c, tail, ell_max, precision_bits, doubling_cap, table)


def _search(
    kernel: KernelSpec, f: CandidateFunction, sequence: SequenceSpec, c: float,
    tail: Tuple[float, str, Optional[int]], ell_max: int, precision_bits: int, doubling_cap: int, table: PointTable,
) -> WitnessCertificate:
    """The doubling search at scale c, from tail facts already resolved."""
    alpha_value, provenance, min_ell = tail
    if min_ell is None:
        raise WitnessSearchError(
            f"the sequence does not reach the tail bound's validity region by offset {ell_max}",
            reason="tail-unreachable",
        )
    c_k = kernel.diag_sup
    with workprec(precision_bits):
        bound = mpf(c) ** 2 * mpf(alpha_value) ** 2 / 2
    # A threshold of 1 still admits two points, the smallest window find_ell probes.
    n = max(n_threshold(c_k, c, alpha_value), 2)
    last_r = None
    for _ in range(doubling_cap + 1):
        if n > MAX_WINDOW_POINTS:
            raise WitnessSearchError(
                f"window of {mpmath.nstr(mpf(n), 6)} points exceeds the search limit of {MAX_WINDOW_POINTS}",
                reason="window-too-large",
            )
        ell = find_ell(kernel, sequence, n, bound, ell_max, precision_bits, min_ell, table)
        points = table.points(ell + 1, n)
        r = evaluate_ones_form(
            kernel, f, c, points, precision_bits, f_values=partial(table.blocks, ell + 1, n)
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
                points=pack(points),
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


def verify_certificate(
    cert: WitnessCertificate,
    kernel: KernelSpec,
    f: CandidateFunction,
    table: Optional[PointTable] = None,
) -> bool:
    """Recompute everything a certificate claims; True iff it all checks out.

    Checks: identifier match (raises on mismatch: verifying against the wrong
    objects is a caller bug, not a bad certificate), positive finite c and alpha,
    as many stored points as n_points (the points are not regenerated from
    the sequence), a finite stored kernel diagonal sup no lower than the
    kernel's, n_points at least ``n_threshold`` of it, every point in range
    (``point_in_range``), a finite negative stored r, and the recomputed r
    matching it to 2^-100 relative accuracy while being negative.

    Soundness rests on the recomputed r < 0 alone: a negative all-ones form
    on the stored points refutes positive semidefiniteness of the deflated
    kernel at scale c, whatever N is.  The ``n_threshold`` check is the
    builder's sizing rule, kept as a consistency check, and no verdict
    depends on it.  The stored alpha is never checked against f: a declared
    alpha enters only that threshold.

    f comes from ``table``, a ``PointTable(f, None, bits)`` holding the
    stored points at indices ell + 1, ..., ell + N; without one, from a new
    table, so a certificate checked alone costs one f value per stored point.
    A caller checking several certificates of one function may pass one
    table to all of them, largest first: where their windows overlap, as the
    nested windows of one run do, f is then evaluated once per distinct
    stored point.  This is still a recomputation: every certificate's r is
    computed afresh from its own stored points, and the only values shared
    are f computed here, by the verifier, at equal points.  A verifier's
    table never ends a window early, so every stored point's f value is
    computed and summed, even where the search proved the tail dropped.  A certificate
    whose points differ from the table's at a shared index, or whose
    precision differs, gets a new table and leaves the shared one as it was;
    a table for another function, or a search's table, raises ValueError.
    f is asked for only once the window has passed the evaluator's point
    checks, so a window rejected there costs no f values.  A point where f,
    or a pair where the kernel, is undefined raises EvaluationError, and a
    window with coincident points raises ValueError.
    """
    if cert.kernel_id != kernel.kernel_id:
        raise ValueError(
            f"certificate kernel {cert.kernel_id!r} does not match {kernel.kernel_id!r}"
        )
    if cert.function_id != f.function_id:
        raise ValueError(
            f"certificate function {cert.function_id!r} does not match {f.function_id!r}"
        )
    if table is not None and (table.f is not f or table.sequence is not None):
        raise ValueError("point table was made for another function or for a search")
    if not (0 < cert.c < math.inf and 0 < cert.alpha < math.inf):
        return False
    if len(cert.points) != cert.n_points:
        return False
    # Both diagonal sups finite and the stored one no lower, so n_threshold cannot raise.
    if not 0 < kernel.diag_sup <= cert.kernel_diag_sup < math.inf:
        return False
    if cert.n_points < n_threshold(cert.kernel_diag_sup, cert.c, cert.alpha):
        return False
    # The extremes bound every magnitude: a check per point would cost more than these two.
    # A packed window's points are below 2**63 in magnitude, so it needs neither.
    if not is_packed(cert.points) and not (point_in_range(min(cert.points)) and point_in_range(max(cert.points))):
        return False
    bits, start, n = cert.precision_bits, cert.ell + 1, cert.n_points
    if table is None or table.precision_bits != bits:
        table = PointTable(f, None, bits)
    try:
        table._hold(start, n, cert.points)
    except ValueError:  # the stored points differ from those checked before
        table = PointTable(f, None, bits)
        table._hold(start, n, cert.points)
    r = evaluate_ones_form(kernel, f, cert.c, cert.points, bits, f_values=partial(table.blocks, start, n))
    if not r < 0:
        return False
    with workprec(bits):
        stored = mpf(cert.r_value)
        if not -math.inf < stored < 0:
            return False
        tol = mpf(2) ** (-VERIFY_REL_TOL_BITS)
        return bool(abs(r - stored) <= tol * abs(stored))


@dataclass(frozen=True)
class SweepResult:
    """Witness construction across a grid of scales.

    Every grid entry lands in exactly one of ``certificates`` (by scale) or
    ``failures`` (scale, reason).
    """

    c_values: Tuple[float, ...]
    certificates: Tuple[WitnessCertificate, ...]
    failures: Tuple[Tuple[float, str], ...]
    alpha: float
    alpha_provenance: str


def sweep_c(
    kernel: KernelSpec,
    f: CandidateFunction,
    sequence: SequenceSpec,
    c_grid: Optional[Sequence[float]] = None,
    ell_max: int = DEFAULT_ELL_MAX,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    doubling_cap: int = DEFAULT_DOUBLING_CAP,
    alpha: Optional[float] = None,
) -> SweepResult:
    """The doubling search of build_witness at every scale on the grid, collecting outcomes.

    The sweep resolves its tail facts once, before its scales: the declared
    ``alpha``, as for build_witness, or the sampled bound (which raises
    ``no-tail-bound`` here) and its tail's entry offset.  A sequence that
    does not reach the tail by ``ell_max`` fails each scale with
    ``tail-unreachable``.  All scales and the tail sample share one
    PointTable, so f runs once per sequence index; the table only saves
    work, so a scale's outcome depends on c alone.
    """
    grid = tuple(float(c) for c in (c_grid if c_grid is not None else default_c_grid()))
    if not grid:
        raise ValueError("scale grid must be nonempty")
    if any(not c > 0 for c in grid):
        raise ValueError("scales must be positive")
    if doubling_cap < 0:
        raise ValueError("doubling cap must be nonnegative")
    table = PointTable(f, sequence, precision_bits)
    tail = _resolve_tail(f, sequence, alpha, ell_max, precision_bits, table)
    certs: List[WitnessCertificate] = []
    failures: List[Tuple[float, str]] = []
    for c in grid:
        try:
            certs.append(_search(kernel, f, sequence, c, tail, ell_max, precision_bits, doubling_cap, table))
        except WitnessSearchError as exc:
            failures.append((c, f"{exc.reason}: {exc}"))
    return SweepResult(
        c_values=grid,
        certificates=tuple(certs),
        failures=tuple(failures),
        alpha=tail[0],
        alpha_provenance=tail[1],
    )
