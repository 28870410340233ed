"""Gram assembly, quadratic forms and a pivoted-Cholesky PSD test.

Everything here runs in mpmath arithmetic at an explicit binary precision.
The PSD test factors with diagonal pivoting and stops either when the matrix
is exhausted, when the remaining diagonal is numerically zero, or when a
Schur-complement diagonal entry drops below -tau with
tau = eps * n * max_i |G_ii| and eps = 2^(1 - precision_bits).

A "not PSD" verdict is never returned on the factorization's word alone: the
candidate witness vector is lifted back to the full space and the quadratic
form v' G v is re-evaluated by direct summation at twice the working
precision.  Only a confirmed value below -tau flips the verdict, so false
negatives from rounding inside the factorization are impossible; an
unconfirmed suspicion leaves the verdict at "PSD within tolerance".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, mpf_sum

from .errors import SingularGramError
from .kernels import KernelSpec, undefined_pair

DEFAULT_PRECISION_BITS = 256

# Bounds on a requested working precision.  Parsing a single decimal at 2^24
# bits takes minutes, so a config or certificate may not ask for more than this.
MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 1 << 16


class Block(NamedTuple):
    """Terms of a sum held together, as ``witness.PointTable`` holds f.

    With ``exp`` None, ``values`` are the terms' raw libmp tuples, an mpf's
    ``_mpf_``.  With ``exp`` an int, each term is exactly q_i * 2^exp for an
    int q_i below 2^(top - exp) in magnitude (``fixed_point_block``), and
    ``total`` is the exact sum of the q_i.  The q_i are ``values`` itself
    when ``width`` is 0, or else packed in ``values``, one ``bytes``, as
    fields of ``width`` bytes each, little-endian two's complement.
    """

    values: Sequence[Any]
    exp: Optional[int] = None
    top: int = 0
    total: int = 0
    width: int = 0

    def size(self) -> int:
        """How many terms the block holds."""
        return len(self.values) // self.width if self.width else len(self.values)

    def ints(self, lo: int, hi: int) -> Sequence[int]:
        """The ints q_lo, ..., q_{hi-1} of a fixed-point block, decoding only those fields."""
        if not self.width:
            return self.values[lo:hi]
        w, data = self.width, self.values
        return [int.from_bytes(data[i : i + w], "little", signed=True) for i in range(lo * w, hi * w, w)]

    def cut(self, lo: int, hi: int) -> "Block":
        """The block of terms lo, ..., hi - 1; a fixed-point one holds their ints unpacked."""
        if self.exp is None:
            return self._replace(values=self.values[lo:hi])
        ints = self.ints(lo, hi)
        return self._replace(values=ints, total=sum(ints), width=0)


def fixed_point_block(raw: Sequence[Any], max_bits: int, packed: bool = False) -> Optional[Block]:
    """Raw libmp values as a Block of ints q_i over one exponent e, each value exactly q_i * 2^e.

    e is the lowest exponent of a nonzero value, and no |q_i| takes more
    than ``max_bits`` bits (e = top = 0 when every value is zero).  None,
    before any int is made, when a value is inf or nan or the ints would be
    wider than ``max_bits``.  ``packed`` writes each int into the block's
    bytes as it is made, so no list of ints is built.
    """
    # inf and nan have a zero mantissa and a nonzero bit count; zero has neither
    if any(not man and bc for _, man, _, bc in raw):
        return None
    e = min((exp for _, man, exp, _ in raw if man), default=0)
    bits = max((exp + bc - e for _, man, exp, bc in raw if man), default=0)
    if bits > max_bits:
        return None
    ints = (((-man if sign else man) << (exp - e)) if man else 0 for sign, man, exp, _ in raw)
    if not packed:
        values = list(ints)
        return Block(values, e, e + bits, sum(values))
    width, total, data = bits // 8 + 1, 0, bytearray()  # bits + 1 for the sign, in whole bytes
    for q in ints:
        total += q
        data += q.to_bytes(width, "little", signed=True)
    return Block(bytes(data), e, e + bits, total, width)


def neumaier_sum(terms: Sequence[Any]) -> Any:
    """The terms' sum as an mpf: ``mpmath.fsum``, rounded once at the working precision.

    The terms are real mpmath numbers (or ints and floats), or all
    ``Block``s, whose terms are summed in order; a list of raw libmp values
    sums as ``[Block(raw)]``.  A raw value goes straight to
    ``libmp.mpf_sum``, the call ``fsum`` makes on its terms' ``_mpf_``, so
    every form of a list gives the same bits.
    Mantissas are added exactly within a window of 2 * prec bits, so the error
    is at most half an ulp of the result plus N * 2^(-2 prec) * max|term| from
    parts lying more than 2 * prec bits below a larger one, which are dropped.
    An empty list sums to 0.

    When the terms' exponents span at most 2 * prec bits, ``mpf_sum`` drops
    nothing: every part it would drop lies more than 2 * prec bits from a
    term of the sum.  It then rounds the exact sum once.  Blocks of ints
    whose bits, from the lowest ``exp`` up to below the highest ``top``,
    span at most 2 * prec bits (so their terms' exponents span less) are
    therefore summed as the blocks' exact ``total``s, shifted to their
    lowest exponent and rounded once.  Any other list of blocks
    streams its terms, each rebuilt as a raw tuple, through ``mpf_sum``.
    """
    if terms and type(terms[0]) is Block:
        return mpmath.mp.make_mpf(_block_sum(terms, *mpmath.mp._prec_rounding))
    return mpmath.fsum(terms)


def _block_sum(blocks: Sequence[Block], prec: int, rnd: str) -> Any:
    """``mpf_sum`` of the blocks' terms in order, as a raw value; see neumaier_sum."""
    if all(b.exp is not None for b in blocks):
        low = min(b.exp for b in blocks)
        if max(b.top for b in blocks) - low <= 2 * prec:
            return from_man_exp(sum(b.total << (b.exp - low) for b in blocks), low, prec, rnd)
    return mpf_sum(block_terms(blocks), prec, rnd)


def block_terms(blocks: Sequence[Block]) -> Iterator[Any]:
    """The blocks' terms as raw libmp tuples, in order, one at a time: each int q_i rebuilt exactly."""
    for b in blocks:
        if b.exp is None:
            yield from b.values
        else:
            for q in b.ints(0, b.size()):
                yield from_man_exp(q, b.exp)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix on distinct points, stored as immutable rows."""

    points: Tuple[Any, ...]
    entries: Tuple[Tuple[Any, ...], ...]
    precision_bits: int

    @property
    def size(self) -> int:
        return len(self.points)


def assemble_gram(
    kernel: Any,
    points: Sequence[Any],
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> GramMatrix:
    """Evaluate the kernel on all pairs at the given precision.

    Each unordered pair is evaluated once and mirrored, so the matrix is
    exactly symmetric.  Points that coincide at the working precision are
    rejected: they make the matrix trivially singular and usually indicate a
    config mistake.  A pair where the kernel is undefined raises
    EvaluationError naming the kernel and the pair.
    """
    if len(points) == 0:
        raise ValueError("need at least one point")
    with workprec(precision_bits):
        pts = tuple(mpf(p) for p in points)
        if len(set(p._mpf_ for p in pts)) != len(pts):
            raise ValueError("coincident points in node set")
        n = len(pts)
        rows: List[List[Any]] = [[mpf(0)] * n for _ in range(n)]
        try:
            for i in range(n):
                for j in range(i, n):
                    v = kernel.eval_mp(pts[i], pts[j])
                    rows[i][j] = v
                    rows[j][i] = v
        except (ArithmeticError, ValueError) as exc:
            raise undefined_pair(kernel, pts[i], pts[j], exc) from exc
    return GramMatrix(
        points=pts,
        entries=tuple(tuple(row) for row in rows),
        precision_bits=precision_bits,
    )


def quadratic_form(gram: GramMatrix, coefficients: Sequence[Any]) -> Any:
    """a' G a: all n^2 terms summed by neumaier_sum at the Gram's precision."""
    if len(coefficients) != gram.size:
        raise ValueError("coefficient vector length does not match the Gram size")
    with workprec(gram.precision_bits):
        a = [mpf(c) for c in coefficients]
        terms = []
        for i in range(gram.size):
            row = gram.entries[i]
            ai = a[i]
            terms.append(ai * ai * row[i])
            for j in range(i + 1, gram.size):
                terms.append(2 * ai * a[j] * row[j])
        return neumaier_sum(terms)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of the tolerance-aware PSD test.

    When ``is_psd`` is False, ``witness_vector`` refutes positive
    semidefiniteness: its re-evaluated quadratic form ``witness_value``
    (computed by direct summation at twice the working precision) is below
    ``-tolerance_used``.
    """

    is_psd: bool
    min_pivot_or_eigenvalue: Any
    tolerance_used: Any
    witness_vector: Optional[Tuple[Any, ...]] = None
    witness_value: Optional[Any] = None


@dataclass
class _Factorization:
    status: str  # "complete" | "semidefinite_stop" | "indefinite"
    perm: List[int]
    work: List[List[Any]]  # columns < steps hold L, trailing block holds the Schur complement
    steps: int
    min_diag_seen: Any
    neg_index: Optional[int] = None  # permuted index of the offending diagonal


def _pivoted_cholesky(entries: Sequence[Sequence[Any]], tau: Any) -> _Factorization:
    """Diagonally pivoted outer-product Cholesky under the ambient precision."""
    n = len(entries)
    a = [[mpf(entries[i][j]) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    min_diag = min(a[i][i] for i in range(n))
    for k in range(n):
        rem = range(k, n)
        lo = min(a[i][i] for i in rem)
        if lo < min_diag:
            min_diag = lo
        if lo < -tau:
            bad = next(i for i in rem if a[i][i] == lo)
            return _Factorization("indefinite", perm, a, k, min_diag, neg_index=bad)
        piv = max(rem, key=lambda i: a[i][i])
        if a[piv][piv] <= tau:
            return _Factorization("semidefinite_stop", perm, a, k, min_diag)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            perm[k], perm[piv] = perm[piv], perm[k]
        root = mpmath.sqrt(a[k][k])
        a[k][k] = root
        for i in range(k + 1, n):
            a[i][k] = a[i][k] / root
        for i in range(k + 1, n):
            lik = a[i][k]
            for j in range(k + 1, i + 1):
                val = a[i][j] - lik * a[j][k]
                a[i][j] = val
                a[j][i] = val
    return _Factorization("complete", perm, a, n, min_diag)


def _lift_witness(fact: _Factorization, reduced: Sequence[Tuple[int, Any]], n: int) -> List[Any]:
    """Extend a Schur-complement witness to the full space.

    ``reduced`` lists (permuted_index, weight) pairs with indices >= steps.
    The head of the vector is chosen so the lifted vector is orthogonal to the
    completed factor columns, which makes v' G v equal the reduced form up to
    rounding.
    """
    k = fact.steps
    v = [mpf(0)] * n
    for idx, w in reduced:
        v[idx] = mpf(w)
    for col in reversed(range(k)):
        s = mpf(0)
        for i in range(col + 1, n):
            s += fact.work[i][col] * v[i]
        v[col] = -s / fact.work[col][col]
    out = [mpf(0)] * n
    for pos, orig in enumerate(fact.perm):
        out[orig] = v[pos]
    return out


def psd_check(gram: GramMatrix) -> PsdVerdict:
    """Tolerance-aware positive semidefiniteness test with confirmed witnesses.

    tau = eps * n * max_i |G_ii| at eps = 2^(1 - precision_bits).  The verdict
    is "not PSD" only when a lifted witness vector re-evaluates below -tau by
    direct summation at doubled precision.
    """
    n = gram.size
    with workprec(gram.precision_bits):
        scale = max(abs(gram.entries[i][i]) for i in range(n))
        tau = mpf(2) ** (1 - gram.precision_bits) * n * scale
        fact = _pivoted_cholesky(gram.entries, tau)
        if fact.status == "complete":
            return PsdVerdict(True, fact.min_diag_seen, tau)
        if fact.status == "indefinite":
            assert fact.neg_index is not None
            reduced = [(fact.neg_index, mpf(1))]
        else:
            # Semidefinite stop: the remaining diagonal is numerically zero.  A
            # PSD matrix then needs a numerically zero remaining block, so the
            # largest remaining off-diagonal entry is the witness candidate.
            best: Optional[Tuple[int, int]] = None
            best_abs = mpf(0)
            for i in range(fact.steps, n):
                for j in range(i + 1, n):
                    mag = abs(fact.work[i][j])
                    if mag > best_abs:
                        best_abs = mag
                        best = (i, j)
            if best is None or not best_abs > tau:
                return PsdVerdict(True, fact.min_diag_seen, tau)
            i, j = best
            reduced = [(i, mpf(1)), (j, mpf(-1 if fact.work[i][j] > 0 else 1))]
        v = _lift_witness(fact, reduced, n)
        value = quadratic_form(replace(gram, precision_bits=2 * gram.precision_bits), v)
        if value < -tau:
            return PsdVerdict(False, fact.min_diag_seen, tau, tuple(v), value)
        return PsdVerdict(True, fact.min_diag_seen, tau)


def cholesky_solve(
    gram: GramMatrix,
    rhs: Sequence[Any],
    ridge: float = 0.0,
) -> List[Any]:
    """Solve (G + ridge * I) w = rhs via the pivoted factorization.

    Raises SingularGramError when the (regularized) matrix is not numerically
    positive definite at the Gram's precision.
    """
    n = gram.size
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match the Gram size")
    with workprec(gram.precision_bits):
        entries = [list(row) for row in gram.entries]
        if ridge:
            r = mpf(ridge)
            for i in range(n):
                entries[i][i] = entries[i][i] + r
        scale = max(abs(entries[i][i]) for i in range(n))
        tau = mpf(2) ** (1 - gram.precision_bits) * n * scale
        fact = _pivoted_cholesky(entries, tau)
        if fact.status != "complete":
            raise SingularGramError(
                "Gram matrix is numerically singular at this precision; "
                "raise precision_bits or add a ridge"
            )
        b = [mpf(rhs[fact.perm[i]]) for i in range(n)]
        y = [mpf(0)] * n
        for i in range(n):
            s = b[i]
            for j in range(i):
                s -= fact.work[i][j] * y[j]
            y[i] = s / fact.work[i][i]
        z = [mpf(0)] * n
        for i in reversed(range(n)):
            s = y[i]
            for j in range(i + 1, n):
                s -= fact.work[j][i] * z[j]
            z[i] = s / fact.work[i][i]
        out = [mpf(0)] * n
        for pos, orig in enumerate(fact.perm):
            out[orig] = z[pos]
        return out


def schur_deflation_control(
    kernel: KernelSpec,
    x0: float,
    points: Sequence[float],
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> PsdVerdict:
    """PSD check of K(x, y) - K(x, x0) K(x0, y) / K(x0, x0) on the given points.

    This is the Schur complement of the Gram matrix on points + [x0], so it
    must pass for every kernel; it serves as the pipeline's positive control.
    Raises ValueError before any pair is evaluated unless K(x0, x0) > 0.
    """
    with workprec(precision_bits):
        center = mpf(x0)
        k00 = kernel.eval_mp(center, center)
    if not k00 > 0:
        raise ValueError("control point has nonpositive diagonal value")

    class _Section:
        kernel_id = f"{kernel.kernel_id} deflated at x0 = {x0!r}"

        @staticmethod
        def eval_mp(x: Any, y: Any) -> Any:
            return kernel.eval_mp(x, y) - kernel.eval_mp(x, center) * kernel.eval_mp(center, y) / k00

    gram = assemble_gram(_Section(), points, precision_bits)
    return psd_check(gram)
