#!/usr/bin/env python3
"""Run one rkhs-cert CLI command with a span around each call into a layer.

    PYTHONPATH=src python3 perfbench/trace_child.py TRACE.json <rkhs-cert arguments>

The wrappers live here, not in the program.  Module-level functions are
patched in the module that calls them, because the package binds them with
``from .x import y``; methods are patched on their class.  A span records its
name, start, end and the span that called it; a layer's self time is its
span minus the spans of the wrapped calls inside it.  Spans are held in
memory and written to TRACE.json when the command ends, together with call
counts, self and total time per name, and work counts (points, terms, pairs,
bytes).  The three per-point evaluators (``functions.eval_mp``,
``kernels.eval_mp``, ``kernels.value_mp``) run hundreds of thousands of times,
so they are aggregated without a span record each.

The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HOT = {"functions.eval_mp", "kernels.eval_mp", "kernels.value_mp"}


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []  # [name, span id, child seconds]
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total s, self s]
        self.edges: Counter = Counter()  # "parent>child" -> calls
        self.counts: Counter = Counter()
        self.spans: List[list] = []  # [id, parent id, name, start s, end s]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, edges, counts = self.stack, self.spans, self.edges, self.counts
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            t0 = clock()
            if keep:
                if parent:
                    edges[parent[0] + ">" + name] += 1
                record = [len(spans), parent_id, name, t0, t0]
                spans.append(record)
                frame = [name, record[0], 0.0]
            else:
                frame = [name, parent_id, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if keep:
                    record[4] = t1
                if stack:
                    stack[-1][2] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def dump(self, path: Path, argv: List[str], code: Optional[int]) -> None:
        path.write_text(
            json.dumps(
                {
                    "argv": argv,
                    "exit_code": code,
                    "stats": self.stats,
                    "edges": self.edges,
                    "counts": self.counts,
                    "spans": self.spans,
                }
            ),
            encoding="utf-8",
        )


def _points_arg(counts: Counter, args: tuple, result: Any) -> None:
    counts["witness.evaluate_ones_form.points"] += len(args[3])


def _terms(counts: Counter, args: tuple, result: Any) -> None:
    counts["quadform.neumaier_sum.terms"] += len(args[0])


def _pairs(counts: Counter, args: tuple, result: Any) -> None:
    n = len(args[1])
    counts["quadform.assemble_gram.pairs"] += n * (n + 1) // 2


def _sequence_points(counts: Counter, args: tuple, result: Any) -> None:
    counts["sequences.points.n"] += len(result)


def _built(counts: Counter, args: tuple, result: Any) -> None:
    counts["witness.certificates_built"] += 1
    counts["witness.built_points"] += result.n_points


def _verified(counts: Counter, args: tuple, result: Any) -> None:
    if result:
        counts["witness.verified_points"] += args[0].n_points


def _cert_points(counts: Counter, args: tuple, result: Any) -> None:
    counts["serialize.witness_to_dict.points"] += len(args[0].points)


def _dict_points(counts: Counter, args: tuple, result: Any) -> None:
    counts["serialize.witness_from_dict.points"] += len(args[0]["points"])


def _dumped(counts: Counter, args: tuple, result: Any) -> None:
    counts["serialize.canonical_dumps.bytes"] += len(result.encode("utf-8"))


def install(tracer: Tracer) -> Callable:
    """Patch every measured call site; returns the wrapped CLI entry point."""
    from rkhs_cert import cli, functions, kernels, quadform, sequences, serialize, witness

    def patch(module: Any, attr: str, name: str, count: Optional[Callable] = None) -> None:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))

    for attr in ("resolve_kernel", "resolve_function", "resolve_sequence"):
        patch(cli, attr, f"registry.{attr}")
    patch(cli, "build_witness", "witness.build_witness", _built)
    patch(cli, "verify_certificate", "witness.verify_certificate", _verified)
    patch(cli, "witness_to_dict", "serialize.witness_to_dict", _cert_points)
    patch(serialize, "witness_to_dict", "serialize.witness_to_dict", _cert_points)
    patch(cli, "witness_from_dict", "serialize.witness_from_dict", _dict_points)
    patch(cli, "canonical_dumps", "serialize.canonical_dumps", _dumped)
    patch(cli, "load_json", "serialize.load_json")
    patch(witness, "find_ell", "witness.find_ell")
    patch(witness, "evaluate_ones_form", "witness.evaluate_ones_form", _points_arg)
    patch(witness, "neumaier_sum", "quadform.neumaier_sum", _terms)
    patch(quadform, "neumaier_sum", "quadform.neumaier_sum", _terms)
    patch(witness, "assemble_gram", "quadform.assemble_gram", _pairs)
    patch(witness, "quadratic_form", "quadform.quadratic_form")
    patch(functions.CandidateFunction, "eval_mp", "functions.eval_mp")
    patch(kernels.KernelSpec, "eval_mp", "kernels.eval_mp")
    patch(kernels.RadialProfile, "value_mp", "kernels.value_mp")
    patch(sequences.SequenceSpec, "points", "sequences.points", _sequence_points)
    return tracer.wrap("cli", cli.main)


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    entry = install(tracer)
    code = None
    try:
        code = entry(argv)
    finally:
        tracer.dump(out, argv, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
