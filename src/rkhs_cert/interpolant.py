"""Minimum-norm interpolant norms on nested point sets.

On nodes X with Gram matrix G and values v = f(X), the smallest RKHS norm of
any member interpolating the data is sqrt(v' G^-1 v), and it is nondecreasing
as nodes are added.  For members it stays below the member's norm no matter
how the sets grow; for non-members along sets approaching an accumulation
point or marching into the kernel's decay regime it blows up.  The trace of
these norms is diagnostic evidence (a finite computation cannot prove
divergence), which complements the witness route's hard certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mpf, workprec

from .errors import SingularGramError
from .functions import CandidateFunction
from .kernels import KernelSpec
from .quadform import DEFAULT_PRECISION_BITS, assemble_gram, cholesky_solve, neumaier_sum
from .sequences import SequenceSpec, triangular_sequence


def min_norm_interpolant_norm(
    kernel: KernelSpec,
    f: CandidateFunction,
    points: Sequence[Any],
    precision_bits: int = DEFAULT_PRECISION_BITS,
    ridge: float = 0.0,
) -> Any:
    """sqrt(v' (G + ridge I)^-1 v) with v = f at the points.

    ridge = 0 is the exact minimum norm; a positive ridge damps it (the
    regularized value is never larger), which helps on nearly singular grids.
    A point where f is undefined raises EvaluationError naming it.
    """
    gram = assemble_gram(kernel, points, precision_bits)
    with workprec(precision_bits):
        values = f.values_mp(gram.points)
        weights = cholesky_solve(gram, values, ridge=ridge)
        squared = neumaier_sum([v * w for v, w in zip(values, weights)])
        # v' G^-1 v is nonnegative in exact arithmetic; a tiny negative value
        # here is pure roundoff on a nearly singular Gram.
        if squared < 0:
            squared = mpf(0)
        return mpmath.sqrt(squared)


@dataclass(frozen=True)
class NormTrace:
    """Interpolant norms along a nested family of node sets."""

    kernel_id: str
    function_id: str
    rule: str
    point_sets: Tuple[Tuple[Any, ...], ...]
    norms: Tuple[Any, ...]
    precision_bits: Tuple[int, ...]
    ridge: float
    divergence_factor: float
    divergence_evidence: bool
    truncated_reason: Optional[str] = None


def _widen_step(points: List[Any], sequence: SequenceSpec, state: dict) -> List[Any]:
    """``points`` and the first sequence point past the last index used that is not among them.

    The scan stops after len(points) + 1 indices: among that many points of
    a sequence whose points are distinct one is new, so only a sequence that
    repeats a point gets that far, and it raises ValueError.
    """
    existing = {float(p) for p in points}
    start = state.get("next_index", 1)
    for n in range(start, start + len(points) + 1):
        candidate = sequence.point(n)
        if float(candidate) not in existing:
            state["next_index"] = n + 1
            return points + [candidate]
    raise ValueError(
        f"sequence {sequence.name} repeats: its indices {start} to {n} give no point new to the {len(points)} nodes"
    )


def _refine_step(points: List[Any]) -> List[Any]:
    ordered = sorted(points, key=float)
    mids = []
    for a, b in zip(ordered, ordered[1:]):
        mids.append((mpf(a) + mpf(b)) / 2)
    merged = ordered + mids
    if len(merged) == len(points):
        raise ValueError("refinement needs at least two distinct points")
    return merged


# How norm_growth_trace extends the point set at each step.
EXTENSION_RULES = ("widen", "refine")


def norm_growth_trace(
    kernel: KernelSpec,
    f: CandidateFunction,
    base_points: Sequence[Any],
    extension_rule: str = "widen",
    steps: int = 6,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    ridge: float = 0.0,
    divergence_factor: float = 1e3,
    sequence: Optional[SequenceSpec] = None,
) -> NormTrace:
    """Norms over ``steps`` nested extensions of the base point set.

    "widen" appends the next unused point of ``sequence`` (triangular toward
    +inf by default) per step, and raises ValueError for a sequence that
    repeats a point (see ``_widen_step``); "refine" inserts midpoints between
    consecutive nodes per step.  A numerically singular step retries once at
    quadrupled precision; if that also fails the trace is truncated with the
    reason recorded rather than inventing values.  ``divergence_evidence``
    flags a last/first norm ratio above ``divergence_factor``.
    """
    if steps < 1:
        raise ValueError("need at least one extension step")
    if extension_rule not in EXTENSION_RULES:
        raise ValueError(f"unknown extension rule {extension_rule!r}")
    if not base_points:
        raise ValueError("base point set must be nonempty")
    seq = sequence if sequence is not None else triangular_sequence(1)
    sets: List[List[Any]] = [list(base_points)]
    state: dict = {}
    for _ in range(steps):
        if extension_rule == "widen":
            sets.append(_widen_step(sets[-1], seq, state))
        else:
            sets.append(_refine_step(sets[-1]))
    norms: List[Any] = []
    kept_sets: List[Tuple[Any, ...]] = []
    precisions: List[int] = []
    truncated_reason = None
    for pts in sets:
        try:
            norm = min_norm_interpolant_norm(kernel, f, pts, precision_bits, ridge)
            used_bits = precision_bits
        except SingularGramError:
            retry_bits = max(1024, 4 * precision_bits)
            try:
                norm = min_norm_interpolant_norm(kernel, f, pts, retry_bits, ridge)
                used_bits = retry_bits
            except SingularGramError as exc:
                truncated_reason = (
                    f"Gram numerically singular at {len(pts)} points even at "
                    f"{retry_bits} bits: {exc}"
                )
                break
        norms.append(norm)
        kept_sets.append(tuple(pts))
        precisions.append(used_bits)
    evidence = False
    if len(norms) >= 2 and norms[0] > 0:
        evidence = bool(norms[-1] / norms[0] > mpf(divergence_factor))
    return NormTrace(
        kernel_id=kernel.kernel_id,
        function_id=f.function_id,
        rule=extension_rule,
        point_sets=tuple(kept_sets),
        norms=tuple(norms),
        precision_bits=tuple(precisions),
        ridge=float(ridge),
        divergence_factor=float(divergence_factor),
        divergence_evidence=evidence,
        truncated_reason=truncated_reason,
    )
