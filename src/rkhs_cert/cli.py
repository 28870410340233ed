"""Command-line interface: configured diagnostic runs and certificate checks.

Exit codes: 0 on success (including honest negative outcomes like "no witness
found"), 1 for configuration problems (unknown identifiers, malformed config,
unwritable paths), 2 when a requested task errors or a certificate fails or
cannot complete verification.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import mpmath
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .analytic import analyticity_envelope
from .errors import ConfigError, EvaluationError, SingularGramError, WitnessSearchError
from .functions import TailBound
from .interpolant import norm_growth_trace
from .quadform import assemble_gram, psd_check, schur_deflation_control
from .registry import resolve_function, resolve_kernel, resolve_sequence
from .sequences import verify_decay
from .serialize import (
    REPORT_SCHEMA,
    canonical_dumps,
    decay_to_dict,
    derivative_report_to_dict,
    load_json,
    norm_trace_to_dict,
    number_to_str,
    psd_to_dict,
    sweep_to_dict,
    witness_from_dict,
    witness_to_dict,
)
from .witness import (
    PointTable,
    SweepResult,
    VerifierStore,
    WitnessCertificate,
    build_witness,
    default_c_grid,
    resolve_alpha,
    verify_certificate,
)

# Execution order is fixed regardless of the order tasks appear in a config:
# structural sanity first, then decay, then the witness sweep, then the
# purely diagnostic tabulations.
ALL_TASKS = ("psd", "decay", "witness", "analytic", "interpolant")

DOMAIN_KINDS = ("full_line", "interval", "finite_set")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration with every default filled in."""

    kernel: Any = "gaussian"
    function: str = "paper_example"
    sequence: str = "triangular+"
    tasks: Tuple[str, ...] = ("witness",)
    c_grid: Optional[Tuple[float, ...]] = None
    ell_max: int = 10**6
    precision_bits: int = 256
    jobs: int = 1
    domain_kind: str = "full_line"
    domain_endpoints: Optional[Tuple[float, float]] = None
    domain_points: Optional[Tuple[float, ...]] = None
    has_accumulation_point: bool = True
    witness_doubling_cap: int = 6
    witness_alpha: Optional[float] = None
    psd_num_points: int = 8
    psd_points: Optional[Tuple[float, ...]] = None
    psd_control_x0: float = 0.0
    decay_window: int = 3
    decay_ell_max: int = 10
    decay_threshold: float = 1e-8
    analytic_n_max: int = 10
    analytic_norm_bound: float = 1.0
    analytic_fd_step: Optional[float] = 1e-4
    analytic_fd_x: float = 0.0
    interp_base_points: Optional[Tuple[float, ...]] = None
    interp_rule: str = "widen"
    interp_steps: int = 6
    interp_ridge: float = 0.0
    interp_divergence_factor: float = 1e3

    def to_dict(self) -> Dict[str, Any]:
        # The echo omits "jobs": parallelism must not influence report bytes.
        return {
            "kernel": self.kernel,
            "function": self.function,
            "sequence": self.sequence,
            "tasks": list(self.tasks),
            "c_grid": None if self.c_grid is None else list(self.c_grid),
            "ell_max": self.ell_max,
            "precision_bits": self.precision_bits,
            "domain": {
                "kind": self.domain_kind,
                "endpoints": None
                if self.domain_endpoints is None
                else list(self.domain_endpoints),
                "points": None if self.domain_points is None else list(self.domain_points),
                "has_accumulation_point": self.has_accumulation_point,
            },
            "witness": {
                "doubling_cap": self.witness_doubling_cap,
                "alpha": self.witness_alpha,
            },
            "psd": {
                "num_points": self.psd_num_points,
                "points": None if self.psd_points is None else list(self.psd_points),
                "control_x0": self.psd_control_x0,
            },
            "decay": {
                "window": self.decay_window,
                "ell_max": self.decay_ell_max,
                "threshold": self.decay_threshold,
            },
            "analytic": {
                "n_max": self.analytic_n_max,
                "norm_bound": self.analytic_norm_bound,
                "fd_step": self.analytic_fd_step,
                "fd_x": self.analytic_fd_x,
            },
            "interpolant": {
                "base_points": None
                if self.interp_base_points is None
                else list(self.interp_base_points),
                "rule": self.interp_rule,
                "steps": self.interp_steps,
                "ridge": self.interp_ridge,
                "divergence_factor": self.interp_divergence_factor,
            },
        }


_TOP_KEYS = {
    "kernel",
    "function",
    "sequence",
    "tasks",
    "c_grid",
    "ell_max",
    "precision_bits",
    "jobs",
    "domain",
    "witness",
    "psd",
    "decay",
    "analytic",
    "interpolant",
}


def _require_keys(section: Dict[str, Any], allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_domain(section: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the declared domain; returns RunConfig keyword arguments.

    The accumulation-point flag is a user declaration, but for the three
    supported domain shapes its truth is decidable, so contradictory
    declarations are rejected rather than recorded.
    """
    _require_keys(section, {"kind", "endpoints", "points", "has_accumulation_point"}, "domain")
    kind = section.get("kind", "full_line")
    if kind not in DOMAIN_KINDS:
        raise ConfigError(f"unknown domain kind {kind!r}; choose from {list(DOMAIN_KINDS)}")
    kwargs: Dict[str, Any] = {"domain_kind": kind}
    endpoints = section.get("endpoints")
    points = section.get("points")
    if kind == "interval":
        if endpoints is None:
            raise ConfigError("interval domain needs endpoints [a, b]")
        pair = tuple(float(e) for e in endpoints)
        if len(pair) != 2 or not all(math.isfinite(e) for e in pair):
            raise ConfigError("interval endpoints must be two finite numbers")
        if not pair[0] < pair[1]:
            raise ConfigError("interval endpoints must be strictly increasing")
        kwargs["domain_endpoints"] = pair
    elif endpoints is not None:
        raise ConfigError(f"endpoints only apply to interval domains, not {kind!r}")
    if kind == "finite_set":
        if points is None:
            raise ConfigError("finite_set domain needs a list of points")
        pts = tuple(float(p) for p in points)
        if not pts or not all(math.isfinite(p) for p in pts):
            raise ConfigError("finite_set points must be a nonempty list of finite numbers")
        if len(set(pts)) != len(pts):
            raise ConfigError("finite_set points must be distinct")
        kwargs["domain_points"] = pts
    elif points is not None:
        raise ConfigError(f"points only apply to finite_set domains, not {kind!r}")
    flag = section.get("has_accumulation_point")
    if flag is None:
        flag = kind != "finite_set"
    if not isinstance(flag, bool):
        raise ConfigError("has_accumulation_point must be a boolean")
    if kind == "finite_set" and flag:
        raise ConfigError("a finite set has no accumulation point")
    if kind != "finite_set" and not flag:
        raise ConfigError(f"a {kind} domain always has accumulation points")
    kwargs["has_accumulation_point"] = flag
    return kwargs


def config_from_dict(data: Dict[str, Any]) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, _TOP_KEYS, "config")
    cfg = RunConfig()
    kwargs: Dict[str, Any] = {}
    for key in ("kernel", "function", "sequence"):
        if key in data:
            kwargs[key] = data[key]
    if "tasks" in data:
        tasks = tuple(data["tasks"])
        bad = [t for t in tasks if t not in ALL_TASKS]
        if bad:
            raise ConfigError(f"unknown tasks {bad}; choose from {list(ALL_TASKS)}")
        if not tasks:
            raise ConfigError("tasks must be nonempty")
        if len(set(tasks)) != len(tasks):
            raise ConfigError("tasks must not repeat")
        kwargs["tasks"] = tasks
    if "c_grid" in data and data["c_grid"] is not None:
        grid = tuple(float(c) for c in data["c_grid"])
        if not grid or any(not (c > 0 and math.isfinite(c)) for c in grid):
            raise ConfigError("c_grid must be a nonempty list of positive finite scales")
        kwargs["c_grid"] = grid
    for key, caster in (("ell_max", int), ("precision_bits", int), ("jobs", int)):
        if key in data:
            kwargs[key] = caster(data[key])
    kwargs.update(_parse_domain(data.get("domain", {})))
    section = data.get("witness", {})
    _require_keys(section, {"doubling_cap", "alpha"}, "witness")
    if "doubling_cap" in section:
        kwargs["witness_doubling_cap"] = int(section["doubling_cap"])
    if section.get("alpha") is not None:
        alpha = float(section["alpha"])
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ConfigError("witness alpha must be positive and finite")
        kwargs["witness_alpha"] = alpha
    section = data.get("psd", {})
    _require_keys(section, {"num_points", "points", "control_x0"}, "psd")
    if "num_points" in section:
        kwargs["psd_num_points"] = int(section["num_points"])
    if section.get("points") is not None:
        kwargs["psd_points"] = tuple(float(p) for p in section["points"])
    if "control_x0" in section:
        kwargs["psd_control_x0"] = float(section["control_x0"])
    section = data.get("decay", {})
    _require_keys(section, {"window", "ell_max", "threshold"}, "decay")
    if "window" in section:
        kwargs["decay_window"] = int(section["window"])
    if "ell_max" in section:
        kwargs["decay_ell_max"] = int(section["ell_max"])
    if "threshold" in section:
        kwargs["decay_threshold"] = float(section["threshold"])
    section = data.get("analytic", {})
    _require_keys(section, {"n_max", "norm_bound", "fd_step", "fd_x"}, "analytic")
    if "n_max" in section:
        kwargs["analytic_n_max"] = int(section["n_max"])
    if "norm_bound" in section:
        kwargs["analytic_norm_bound"] = float(section["norm_bound"])
    if "fd_step" in section:
        kwargs["analytic_fd_step"] = None if section["fd_step"] is None else float(section["fd_step"])
    if "fd_x" in section:
        kwargs["analytic_fd_x"] = float(section["fd_x"])
    section = data.get("interpolant", {})
    _require_keys(
        section,
        {"base_points", "rule", "steps", "ridge", "divergence_factor"},
        "interpolant",
    )
    if section.get("base_points") is not None:
        kwargs["interp_base_points"] = tuple(float(p) for p in section["base_points"])
    if "rule" in section:
        kwargs["interp_rule"] = str(section["rule"])
    if "steps" in section:
        kwargs["interp_steps"] = int(section["steps"])
    if "ridge" in section:
        kwargs["interp_ridge"] = float(section["ridge"])
    if "divergence_factor" in section:
        kwargs["interp_divergence_factor"] = float(section["divergence_factor"])
    try:
        cfg = replace(cfg, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cfg.precision_bits < 64:
        raise ConfigError("precision_bits must be at least 64")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return cfg


def _witness_worker(args: Tuple[Any, ...]) -> List[Tuple[str, float, Any]]:
    """Build one certificate per scale of a group; runs in-process or in a worker process.

    The group's scales share one table of f values along the sequence.
    """
    (kernel_spec, function_id, sequence_id, scales, alpha, provenance, ell_max, bits, cap) = args
    kernel = resolve_kernel(kernel_spec)
    sequence = resolve_sequence(sequence_id)
    f = resolve_function(function_id, kernel)
    table = PointTable(f, sequence, bits)
    outcomes: List[Tuple[str, float, Any]] = []
    for c in scales:
        try:
            cert = build_witness(
                kernel,
                f,
                sequence,
                c,
                alpha=alpha,
                alpha_provenance=provenance,
                ell_max=ell_max,
                precision_bits=bits,
                doubling_cap=cap,
                table=table,
            )
        except WitnessSearchError as exc:
            outcomes.append(("fail", c, f"{exc.reason}: {exc}"))
            continue
        outcomes.append(("ok", c, cert))
    del table  # its points and values are garbage before serialization starts
    return [(status, c, witness_to_dict(x) if status == "ok" else x) for status, c, x in outcomes]


def _domain_transfer_note(cfg: RunConfig) -> str:
    """How a real-line certificate bears on the declared domain."""
    if cfg.domain_kind == "full_line":
        return (
            "certificates apply directly: the declared domain is the full "
            "real line"
        )
    if cfg.has_accumulation_point:
        return (
            "restriction remark: because the declared domain has an "
            "accumulation point, real-line non-membership carries over to the "
            "restricted space on that domain, provided the candidate's "
            "supplied extension is analytic (analyticity is not verified here)"
        )
    return (
        "restriction remark withheld: the declared domain has no accumulation "
        "point, so real-line non-membership says nothing about the restricted "
        "space on it"
    )


def _run_witness_task(cfg: RunConfig, kernel: Any, f: Any, sequence: Any) -> Dict[str, Any]:
    grid = cfg.c_grid if cfg.c_grid is not None else default_c_grid()
    if cfg.witness_alpha is not None:
        tail = TailBound(alpha=cfg.witness_alpha, sign=1, threshold=0.0)
    else:
        tail = resolve_alpha(f, sequence, precision_bits=cfg.precision_bits)
    # Scales are dealt round-robin to the workers; outcomes return to grid order.
    groups = min(cfg.jobs, len(grid))
    arglist = [
        (
            cfg.kernel,
            f.function_id,
            cfg.sequence,
            [float(c) for c in grid[g::groups]],
            tail.alpha,
            tail.provenance,
            cfg.ell_max,
            cfg.precision_bits,
            cfg.witness_doubling_cap,
        )
        for g in range(groups)
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=groups) as pool:
            dealt = list(pool.map(_witness_worker, arglist))
    else:
        dealt = [_witness_worker(a) for a in arglist]
    outcomes = [dealt[i % groups][i // groups] for i in range(len(grid))]
    certificates: List[WitnessCertificate] = []
    failures: List[Tuple[float, str]] = []
    scaling: List[Tuple[float, float]] = []
    for status, c, payload in outcomes:
        if status == "fail":
            failures.append((c, payload))
            continue
        cert = witness_from_dict(payload)
        certificates.append(cert)
        scaling.append((c, cert.n_points * c * c))
    # The windows mostly contain one another, so one store evaluates f once
    # per distinct stored point; largest first keeps its memory at the
    # largest certificate's.
    store = VerifierStore(f)
    passed = set()
    for i in sorted(range(len(certificates)), key=lambda i: -certificates[i].n_points):
        if verify_certificate(certificates[i], kernel, f, store):
            passed.add(i)
    del store  # its kept values are garbage before serialization starts
    verified = [c for i, (c, _) in enumerate(scaling) if i in passed]
    result = SweepResult(
        c_values=tuple(float(c) for c in grid),
        certificates=tuple(certificates),
        failures=tuple(failures),
        scaling=tuple(scaling),
        alpha=tail.alpha,
        alpha_provenance=tail.provenance,
    )
    out = sweep_to_dict(result, cfg.precision_bits)
    out["verified_scales"] = [number_to_str(c, cfg.precision_bits) for c in verified]
    out["all_verified"] = len(verified) == len(grid)
    out["domain_transfer"] = _domain_transfer_note(cfg)
    return out


def _run_psd_task(cfg: RunConfig, kernel: Any, sequence: Any) -> List[Dict[str, Any]]:
    if cfg.psd_points is not None:
        points = list(cfg.psd_points)
    else:
        points = [float(sequence.point(n)) for n in range(1, cfg.psd_num_points + 1)]
    gram = assemble_gram(kernel, points, cfg.precision_bits)
    base = psd_to_dict(psd_check(gram), cfg.precision_bits)
    base["label"] = "gram"
    base["points"] = [number_to_str(p, cfg.precision_bits) for p in points]
    control = psd_to_dict(
        schur_deflation_control(kernel, cfg.psd_control_x0, points, cfg.precision_bits),
        cfg.precision_bits,
    )
    control["label"] = f"schur_control:x0={cfg.psd_control_x0!r}"
    return [base, control]


def _verdict_summary(cfg: RunConfig, results: Dict[str, Any], errors: Dict[str, str]) -> str:
    if "witness" not in cfg.tasks:
        return "diagnostics only: no witness task requested"
    if "witness" in errors:
        return "inconclusive: witness task errored"
    witness = results["witness"]
    n_grid = len(witness["c_values"])
    n_cert = len(witness["certificates"])
    if witness["all_verified"] and n_cert == n_grid:
        return (
            "non-membership witnessed (per c-grid): every scale carries an "
            "independently verified negativity certificate"
        )
    if n_cert == 0 and all(
        f["reason"].startswith("doubling-cap-exhausted") for f in witness["failures"]
    ):
        # Kernel sections lie in the space by construction, so finding no
        # negative form for one is the expected control outcome, not a gap.
        if cfg.function.startswith("kernel_section:"):
            return (
                "positive-control passed: quadratic forms stayed nonnegative "
                "at every scale for a member of the space"
            )
        return (
            "inconclusive: quadratic forms stayed nonnegative at every scale, "
            "consistent with membership of the candidate"
        )
    return "inconclusive: witness construction or verification failed for some scales"


def run(cfg: RunConfig) -> Tuple[Dict[str, Any], int]:
    """Execute the configured tasks; returns (report, exit_code)."""
    kernel = resolve_kernel(cfg.kernel)
    f = resolve_function(cfg.function, kernel)
    sequence = resolve_sequence(cfg.sequence)
    results: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    # Requested tasks run in the fixed ALL_TASKS order, not config order.
    for task in ALL_TASKS:
        if task not in cfg.tasks:
            continue
        try:
            if task == "psd":
                results["psd"] = _run_psd_task(cfg, kernel, sequence)
            elif task == "decay":
                report = verify_decay(
                    kernel,
                    sequence,
                    cfg.decay_window,
                    cfg.decay_ell_max,
                    cfg.decay_threshold,
                    cfg.precision_bits,
                )
                results["decay"] = decay_to_dict(report, cfg.precision_bits)
            elif task == "witness":
                results["witness"] = _run_witness_task(cfg, kernel, f, sequence)
            elif task == "analytic":
                report = analyticity_envelope(
                    kernel,
                    cfg.analytic_norm_bound,
                    cfg.analytic_n_max,
                    cfg.precision_bits,
                    fd_step=cfg.analytic_fd_step,
                    fd_x=cfg.analytic_fd_x,
                )
                results["analytic"] = derivative_report_to_dict(report, cfg.precision_bits)
            elif task == "interpolant":
                if cfg.interp_base_points is not None:
                    base = list(cfg.interp_base_points)
                else:
                    base = [float(sequence.point(n)) for n in range(1, 4)]
                trace = norm_growth_trace(
                    kernel,
                    f,
                    base,
                    extension_rule=cfg.interp_rule,
                    steps=cfg.interp_steps,
                    precision_bits=cfg.precision_bits,
                    ridge=cfg.interp_ridge,
                    divergence_factor=cfg.interp_divergence_factor,
                    sequence=sequence,
                )
                results["interpolant"] = norm_trace_to_dict(trace, cfg.precision_bits)
        except (ValueError, ArithmeticError, WitnessSearchError, SingularGramError) as exc:
            errors[task] = f"{type(exc).__name__}: {exc}"
    report = {
        "schema": REPORT_SCHEMA,
        "config": cfg.to_dict(),
        "results": results,
        "task_errors": errors,
        "verdict_summary": _verdict_summary(cfg, results, errors),
    }
    return report, (2 if errors else 0)


def _write_output(path: str, payload: Dict[str, Any]) -> None:
    try:
        Path(path).write_text(canonical_dumps(payload), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def _write_certificates(directory: str, witness_result: Dict[str, Any]) -> List[str]:
    certs = witness_result.get("certificates", [])
    out = []
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for idx, cert in enumerate(certs):
            path = Path(directory) / f"certificate_{idx:02d}.json"
            path.write_text(canonical_dumps(cert), encoding="utf-8")
            out.append(str(path))
    except OSError as exc:
        raise ConfigError(f"cannot write certificates to {directory!r}: {exc}") from exc
    return out


def _csv_rows(task: str, result: Any) -> List[List[Any]]:
    """Flatten one task result into a header row plus data rows.

    Real numbers stay in their decimal-string form from the report, so the
    tables are exactly as reproducible as the JSON they mirror.
    """
    if task == "witness":
        rows: List[List[Any]] = [["c", "status", "n_points", "ell", "r_value", "verified", "detail"]]
        certs = {cert["c"]: cert for cert in result["certificates"]}
        failures = {item["c"]: item["reason"] for item in result["failures"]}
        verified = set(result["verified_scales"])
        for c in result["c_values"]:
            if c in certs:
                cert = certs[c]
                rows.append(
                    [
                        c,
                        "certificate",
                        cert["n_points"],
                        cert["ell"],
                        cert["r_value"],
                        "true" if c in verified else "false",
                        "",
                    ]
                )
            else:
                rows.append([c, "failure", "", "", "", "", failures.get(c, "")])
        return rows
    if task == "decay":
        rows = [["ell", "max_offdiag"]]
        rows.extend([ell, v] for ell, v in zip(result["ell_values"], result["max_offdiag"]))
        return rows
    if task == "psd":
        rows = [["label", "is_psd", "min_pivot_or_eigenvalue", "tolerance_used"]]
        rows.extend(
            [
                item["label"],
                "true" if item["is_psd"] else "false",
                item["min_pivot_or_eigenvalue"],
                item["tolerance_used"],
            ]
            for item in result
        )
        return rows
    if task == "analytic":
        rows = [["order", "dnn_value", "exact_bound", "bound_curve", "fd_value"]]
        fd = result.get("fd_values") or []
        for i, n in enumerate(result["orders"]):
            fd_val = fd[n - 1] if 1 <= n <= len(fd) else ""
            rows.append(
                [n, result["dnn_values"][i], result["exact_bounds"][i], result["bound_curve"][i], fd_val]
            )
        return rows
    rows = [["step", "num_points", "norm", "precision_bits"]]
    trace = zip(result["point_sets"], result["norms"], result["precision_bits"])
    for i, (pts, norm, bits) in enumerate(trace):
        rows.append([i, len(pts), norm, bits])
    return rows


def _write_csv_tables(directory: str, report: Dict[str, Any]) -> List[str]:
    """One CSV per executed task, written in the fixed task order."""
    results = report["results"]
    written = []
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for task in ALL_TASKS:
            if task not in results:
                continue
            path = Path(directory) / f"{task}.csv"
            with path.open("w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows(_csv_rows(task, results[task]))
            written.append(str(path))
    except OSError as exc:
        raise ConfigError(f"cannot write csv tables to {directory!r}: {exc}") from exc
    return written


def _load_config_file(path: Optional[str]) -> Dict[str, Any]:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def _apply_overrides(data: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    if getattr(args, "kernel", None) is not None:
        data["kernel"] = args.kernel
    if getattr(args, "function", None) is not None:
        data["function"] = args.function
    if getattr(args, "sequence", None) is not None:
        data["sequence"] = args.sequence
    if getattr(args, "tasks", None) is not None:
        data["tasks"] = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if getattr(args, "c_grid", None) is not None:
        try:
            data["c_grid"] = [float(c) for c in args.c_grid.split(",") if c.strip()]
        except ValueError as exc:
            raise ConfigError(f"malformed --c-grid: {exc}") from exc
    if getattr(args, "ell_max", None) is not None:
        data["ell_max"] = args.ell_max
    if getattr(args, "precision_bits", None) is not None:
        data["precision_bits"] = args.precision_bits
    if getattr(args, "jobs", None) is not None:
        data["jobs"] = args.jobs
    if getattr(args, "alpha", None) is not None:
        data.setdefault("witness", {})["alpha"] = args.alpha
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    data = _apply_overrides(_load_config_file(args.config), args)
    cfg = config_from_dict(data)
    report, code = run(cfg)
    _write_output(args.out, report)
    if args.certs_dir is not None and "witness" in report["results"]:
        written = _write_certificates(args.certs_dir, report["results"]["witness"])
        print(f"wrote {len(written)} certificate(s) to {args.certs_dir}")
    if args.csv_dir is not None:
        tables = _write_csv_tables(args.csv_dir, report)
        print(f"wrote {len(tables)} csv table(s) to {args.csv_dir}")
    print(report["verdict_summary"])
    for task, message in report["task_errors"].items():
        print(f"task {task} errored: {message}", file=sys.stderr)
    return code


def _cmd_witness(args: argparse.Namespace) -> int:
    kernel = resolve_kernel(args.kernel)
    f = resolve_function(args.function, kernel)
    sequence = resolve_sequence(args.sequence)
    if not args.c > 0:
        raise ConfigError("--c must be positive")
    try:
        cert = build_witness(
            kernel,
            f,
            sequence,
            args.c,
            alpha=args.alpha,
            ell_max=args.ell_max,
            precision_bits=args.precision_bits,
        )
    except WitnessSearchError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 2
    payload = witness_to_dict(cert)
    if args.out:
        _write_output(args.out, payload)
    print(
        f"witness found: N={cert.n_points} ell={cert.ell} "
        f"r={mpmath.nstr(cert.r_value, 17)}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = load_json(args.certificate)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read certificate {args.certificate!r}: {exc}") from exc
    cert = witness_from_dict(data)
    kernel = resolve_kernel(cert.kernel_id)
    f = resolve_function(cert.function_id, kernel)
    try:
        ok = verify_certificate(cert, kernel, f)
    except (ValueError, WitnessSearchError) as exc:
        # The kernel and function come from the certificate itself, so a
        # ValueError is a defect of the stored window (coincident points in a
        # dense one), as is a banded one that is not monotone.  Other search
        # errors are about the kernel and stay search errors.
        if isinstance(exc, WitnessSearchError) and exc.reason != "not-monotone":
            raise
        print(f"certificate FAILED verification: {exc}", file=sys.stderr)
        return 2
    if ok:
        print(
            f"certificate verified: kernel={cert.kernel_id} function={cert.function_id} "
            f"c={cert.c} N={cert.n_points}"
        )
        return 0
    print("certificate FAILED verification", file=sys.stderr)
    return 2


def _single_task_run(args: argparse.Namespace, task: str, extra: Dict[str, Any]) -> int:
    data: Dict[str, Any] = {"tasks": [task]}
    if getattr(args, "kernel", None) is not None:
        data["kernel"] = args.kernel
    if getattr(args, "function", None) is not None:
        data["function"] = args.function
    if getattr(args, "sequence", None) is not None:
        data["sequence"] = args.sequence
    if getattr(args, "precision_bits", None) is not None:
        data["precision_bits"] = args.precision_bits
    data.update(extra)
    cfg = config_from_dict(data)
    report, code = run(cfg)
    if getattr(args, "out", None):
        _write_output(args.out, report)
    if code == 0:
        result = report["results"][task]
        if task == "decay":
            state = "passed" if result["passed"] else f"failed: {result.get('reason')}"
            print(f"decay check {state} (evidence: {result['evidence']})")
        elif task == "psd":
            states = ", ".join(f"{r['label']}={'PSD' if r['is_psd'] else 'NOT PSD'}" for r in result)
            print(f"psd check: {states}")
        elif task == "analytic":
            print(
                f"derivative bounds tabulated for orders 0..{result['orders'][-1]}; "
                "envelope dominates at every order"
            )
        elif task == "interpolant":
            print(
                f"interpolant norms over {len(result['norms'])} nested sets; "
                f"divergence evidence: {result['divergence_evidence']}"
            )
    else:
        for task_name, message in report["task_errors"].items():
            print(f"task {task_name} errored: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhs-cert",
        description=(
            "Witness-based certificates that candidate functions lie outside "
            "the reproducing kernel Hilbert space of a decaying kernel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute configured diagnostic tasks")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--kernel")
    p_run.add_argument("--function")
    p_run.add_argument("--sequence")
    p_run.add_argument("--tasks", help="comma-separated subset of: " + ",".join(ALL_TASKS))
    p_run.add_argument("--c-grid", dest="c_grid", help="comma-separated positive scales")
    p_run.add_argument("--ell-max", dest="ell_max", type=int)
    p_run.add_argument("--precision-bits", dest="precision_bits", type=int)
    p_run.add_argument(
        "--jobs",
        type=int,
        help="at most this many worker processes; scales are dealt round-robin and each worker shares f values",
    )
    p_run.add_argument("--alpha", type=float, help="declared tail lower bound for the witness task")
    p_run.add_argument("--out", required=True, help="report output path")
    p_run.add_argument("--certs-dir", dest="certs_dir", help="also write one JSON file per certificate")
    p_run.add_argument("--csv-dir", dest="csv_dir", help="also write one CSV table per task result")
    p_run.set_defaults(func=_cmd_run)

    p_wit = sub.add_parser("witness", help="build a single negativity certificate")
    p_wit.add_argument("--kernel", required=True)
    p_wit.add_argument("--function", required=True)
    p_wit.add_argument("--sequence", default="triangular+")
    p_wit.add_argument("--c", type=float, required=True)
    p_wit.add_argument("--alpha", type=float, help="override the tail lower bound")
    p_wit.add_argument("--ell-max", dest="ell_max", type=int, default=10**6)
    p_wit.add_argument("--precision-bits", dest="precision_bits", type=int, default=256)
    p_wit.add_argument("--out", help="certificate output path")
    p_wit.set_defaults(func=_cmd_witness)

    p_decay = sub.add_parser("decay-check", help="measure off-diagonal kernel decay")
    p_decay.add_argument("--kernel", required=True)
    p_decay.add_argument("--sequence", default="triangular+")
    p_decay.add_argument("--window", type=int, default=3)
    p_decay.add_argument("--ell-max", dest="ell_max", type=int, default=10)
    p_decay.add_argument("--threshold", type=float, default=1e-8)
    p_decay.add_argument("--precision-bits", dest="precision_bits", type=int)
    p_decay.add_argument("--out")

    def run_decay(args: argparse.Namespace) -> int:
        return _single_task_run(
            args,
            "decay",
            {
                "decay": {
                    "window": args.window,
                    "ell_max": args.ell_max,
                    "threshold": args.threshold,
                }
            },
        )

    p_decay.set_defaults(func=run_decay)

    p_psd = sub.add_parser("psd-check", help="PSD test of the kernel Gram matrix")
    p_psd.add_argument("--kernel", required=True)
    p_psd.add_argument("--sequence", default="triangular+")
    p_psd.add_argument("--points", help="comma-separated nodes (default: first sequence points)")
    p_psd.add_argument("--num-points", dest="num_points", type=int, default=8)
    p_psd.add_argument("--control-x0", dest="control_x0", type=float, default=0.0)
    p_psd.add_argument("--precision-bits", dest="precision_bits", type=int)
    p_psd.add_argument("--out")

    def run_psd(args: argparse.Namespace) -> int:
        section: Dict[str, Any] = {
            "num_points": args.num_points,
            "control_x0": args.control_x0,
        }
        if args.points is not None:
            try:
                section["points"] = [float(p) for p in args.points.split(",") if p.strip()]
            except ValueError as exc:
                raise ConfigError(f"malformed --points: {exc}") from exc
        return _single_task_run(args, "psd", {"psd": section})

    p_psd.set_defaults(func=run_psd)

    p_der = sub.add_parser("derivatives", help="diagonal derivative bounds and envelope")
    p_der.add_argument("--kernel", required=True)
    p_der.add_argument("--n-max", dest="n_max", type=int, default=10)
    p_der.add_argument("--norm-bound", dest="norm_bound", type=float, default=1.0)
    p_der.add_argument("--fd-step", dest="fd_step", type=float, default=1e-4)
    p_der.add_argument("--fd-x", dest="fd_x", type=float, default=0.0)
    p_der.add_argument("--precision-bits", dest="precision_bits", type=int)
    p_der.add_argument("--out")

    def run_der(args: argparse.Namespace) -> int:
        return _single_task_run(
            args,
            "analytic",
            {
                "analytic": {
                    "n_max": args.n_max,
                    "norm_bound": args.norm_bound,
                    "fd_step": args.fd_step,
                    "fd_x": args.fd_x,
                }
            },
        )

    p_der.set_defaults(func=run_der)

    p_interp = sub.add_parser("interp-norm", help="minimum-norm interpolant growth trace")
    p_interp.add_argument("--kernel", required=True)
    p_interp.add_argument("--function", required=True)
    p_interp.add_argument("--sequence", default="triangular+")
    p_interp.add_argument("--points", help="comma-separated base nodes")
    p_interp.add_argument("--rule", choices=("widen", "refine"), default="widen")
    p_interp.add_argument("--steps", type=int, default=6)
    p_interp.add_argument("--ridge", type=float, default=0.0)
    p_interp.add_argument("--precision-bits", dest="precision_bits", type=int)
    p_interp.add_argument("--out")

    def run_interp(args: argparse.Namespace) -> int:
        section: Dict[str, Any] = {
            "rule": args.rule,
            "steps": args.steps,
            "ridge": args.ridge,
        }
        if args.points is not None:
            try:
                section["base_points"] = [float(p) for p in args.points.split(",") if p.strip()]
            except ValueError as exc:
                raise ConfigError(f"malformed --points: {exc}") from exc
        return _single_task_run(args, "interpolant", {"interpolant": section})

    p_interp.set_defaults(func=run_interp)

    p_ver = sub.add_parser("verify", help="re-check a certificate from its JSON file alone")
    p_ver.add_argument("certificate", help="path to a certificate JSON file")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WitnessSearchError as exc:
        print(f"witness search error ({exc.reason}): {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
