"""Command-line interface: configured diagnostic runs and certificate checks.

Exit codes: 0 on success (including honest negative outcomes: a sweep that
finds no witness at some scale), 1 for configuration problems (a bad flag
value, a usage error such as a missing or unknown argument, unknown
identifiers, malformed config, unwritable paths), 2 when a requested task
errors (``witness`` finding no witness among them) or a certificate fails or
cannot complete verification.  Each error is one line on stderr.

Every flag but ``--config``, ``--out``, ``--certs-dir``, ``--csv-dir`` and
``witness --c`` is a config key, and its text reaches config_from_dict as
it is, to be converted and checked there as a config file's string is.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import mpmath
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from .analytic import analyticity_envelope
from .errors import ConfigError, EvaluationError, WitnessSearchError
from .interpolant import EXTENSION_RULES, norm_growth_trace
from .kernels import check_analytic_constants
from .quadform import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS
from .quadform import assemble_gram, psd_check, schur_deflation_control
from .registry import resolve_function, resolve_kernel, resolve_sequence
from .sequences import verify_decay
from .serialize import (
    REPORT_SCHEMA,
    canonical_dumps,
    decay_to_dict,
    derivative_report_to_dict,
    load_certificate,
    load_json,
    norm_trace_to_dict,
    number_to_str,
    psd_to_dict,
    stream_certificate,
    sweep_to_dict,
    witness_from_dict,
)
from .serialize import witness_to_dict  # noqa: F401  unused; perfbench/trace_child.py patches it here
from .witness import (
    DEFAULT_DOUBLING_CAP,
    DEFAULT_ELL_MAX,
    PointTable,
    SweepResult,
    build_witness,
    default_c_grid,
    sweep_c,
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
    ell_max: int = DEFAULT_ELL_MAX
    precision_bits: int = DEFAULT_PRECISION_BITS
    jobs: int = 1
    domain_kind: str = "full_line"
    domain_endpoints: Optional[Tuple[float, float]] = None
    domain_points: Optional[Tuple[float, ...]] = None
    has_accumulation_point: bool = True
    witness_doubling_cap: int = DEFAULT_DOUBLING_CAP
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
        """The config echo: every field at its config key, but "jobs"."""
        out: Dict[str, Any] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            section, key = _place(field.name)
            target = out.setdefault(section, {}) if section else out
            target[key] = list(value) if isinstance(value, tuple) else value
        del out["jobs"]  # parallelism must not influence report bytes
        return out


# A RunConfig field's name prefix names its config section.
_SECTIONS = {
    "domain_": "domain",
    "witness_": "witness",
    "psd_": "psd",
    "decay_": "decay",
    "analytic_": "analytic",
    "interp_": "interpolant",
}


def _place(name: str) -> Tuple[str, str]:
    """The (section, key) of RunConfig field ``name`` in a config; section "" is the top level."""
    if name == "has_accumulation_point":
        return "domain", name
    for prefix, section in _SECTIONS.items():
        if name.startswith(prefix):
            return section, name[len(prefix) :]
    return "", name


# The config schema is the echo's, plus "jobs", which the echo omits.
_ECHO = RunConfig().to_dict()
_KEYS = set(_ECHO) | {"jobs"}


def _require_keys(section: Dict[str, Any], allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(data: Dict[str, Any], key: str) -> Dict[str, Any]:
    """The config object under ``key`` (empty when absent), holding only keys the echo shows there."""
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a JSON object, not {section!r}")
    _require_keys(section, set(_ECHO[key]), key)
    return section


def _cast(caster: Callable[[Any], Any], value: Any, where: str) -> Any:
    """``caster(value)``, with a value it cannot take reported as a ConfigError naming ``where``.

    A boolean is no number here, an integer takes no fractional float, and
    no number is infinite or NaN.
    """
    kind = "an integer" if caster is int else "a finite number"
    refused = isinstance(value, bool) or (caster is int and isinstance(value, float) and not value.is_integer())
    try:
        cast = caster(value)
    except (TypeError, ValueError, OverflowError):
        refused = True
    if refused or (caster is float and not math.isfinite(cast)):
        raise ConfigError(f"{where} must be {kind}, not {value!r}")
    return cast


def _list(value: Any, where: str) -> Tuple[Any, ...]:
    if not isinstance(value, (list, tuple)):  # a string or an object would iterate
        raise ConfigError(f"{where} must be a list, not {value!r}")
    return tuple(value)


def _numbers(value: Any, where: str) -> Tuple[float, ...]:
    return tuple(_cast(float, v, f"each entry of {where}") for v in _list(value, where))


def _parse_domain(section: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the declared domain; returns RunConfig keyword arguments.

    The accumulation-point flag is a user declaration, but for the three
    supported domain shapes its truth is decidable, so contradictory
    declarations are rejected rather than recorded.
    """
    kind = section.get("kind", "full_line")
    if kind not in DOMAIN_KINDS:
        raise ConfigError(f"unknown domain kind {kind!r}; choose from {list(DOMAIN_KINDS)}")
    kwargs: Dict[str, Any] = {"domain_kind": kind}
    endpoints = section.get("endpoints")
    points = section.get("points")
    if kind == "interval":
        if endpoints is None:
            raise ConfigError("interval domain needs endpoints [a, b]")
        pair = _numbers(endpoints, "interval endpoints")
        if len(pair) != 2:
            raise ConfigError("interval endpoints must be two finite numbers")
        if not pair[0] < pair[1]:
            raise ConfigError("interval endpoints must be strictly increasing")
        kwargs["domain_endpoints"] = pair
    elif endpoints is not None:
        raise ConfigError(f"endpoints only apply to interval domains, not {kind!r}")
    if kind == "finite_set":
        if points is None:
            raise ConfigError("finite_set domain needs a list of points")
        pts = _numbers(points, "finite_set points")
        if not pts:
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
    _require_keys(data, _KEYS, "config")
    kwargs: Dict[str, Any] = {}
    for key in ("kernel", "function", "sequence"):
        if key in data:
            kwargs[key] = data[key]
    if "tasks" in data:
        tasks = _list(data["tasks"], "tasks")
        bad = [t for t in tasks if t not in ALL_TASKS]
        if bad:
            raise ConfigError(f"unknown tasks {bad}; choose from {list(ALL_TASKS)}")
        if not tasks:
            raise ConfigError("tasks must be nonempty")
        if len(set(tasks)) != len(tasks):
            raise ConfigError("tasks must not repeat")
        kwargs["tasks"] = tasks
    if "c_grid" in data and data["c_grid"] is not None:
        grid = _numbers(data["c_grid"], "c_grid")
        if not grid or any(not c > 0 for c in grid):
            raise ConfigError("c_grid must be a nonempty list of positive finite scales")
        kwargs["c_grid"] = grid
    kwargs.update(_parse_domain(_section(data, "domain")))
    # A plain number must convert to the type of its field's default; an
    # Optional one may also be null.
    for field in fields(RunConfig):
        caster = type(field.default)
        if caster not in (int, float):
            continue
        name, key = _place(field.name)
        section = _section(data, name) if name else data
        if key in section:
            value = section[key]
            nullable = value is None and field.type.startswith("Optional")
            kwargs[field.name] = None if nullable else _cast(caster, value, f"{name} {key}".lstrip())
    section = _section(data, "witness")
    if section.get("alpha") is not None:
        alpha = _cast(float, section["alpha"], "witness alpha")
        if not alpha > 0:
            raise ConfigError("witness alpha must be positive and finite")
        kwargs["witness_alpha"] = alpha
    section = _section(data, "psd")
    if section.get("points") is not None:
        kwargs["psd_points"] = _numbers(section["points"], "psd points")
    section = _section(data, "interpolant")
    if section.get("base_points") is not None:
        kwargs["interp_base_points"] = _numbers(section["base_points"], "interpolant base_points")
    if "rule" in section:
        rule = section["rule"]
        if rule not in EXTENSION_RULES:
            raise ConfigError(f"interpolant rule must be one of {list(EXTENSION_RULES)}, not {rule!r}")
        kwargs["interp_rule"] = rule
    cfg = RunConfig(**kwargs)
    if not MIN_PRECISION_BITS <= cfg.precision_bits <= MAX_PRECISION_BITS:
        raise ConfigError(f"precision_bits must be {MIN_PRECISION_BITS} to {MAX_PRECISION_BITS}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if cfg.ell_max < 0:
        raise ConfigError("ell_max must be >= 0")
    if cfg.witness_doubling_cap < 0:
        raise ConfigError("witness doubling_cap must be >= 0")
    return cfg


def _sweep(cfg: RunConfig, scales: Tuple[float, ...], kernel: Any, f: Any, sequence: Any) -> SweepResult:
    return sweep_c(
        kernel, f, sequence, scales, cfg.ell_max, cfg.precision_bits, cfg.witness_doubling_cap,
        alpha=cfg.witness_alpha,
    )


def _witness_worker(args: Tuple[RunConfig, Tuple[float, ...]]) -> SweepResult:
    """Sweep one group of scales in a worker process, which resolves its own objects."""
    cfg, scales = args
    kernel = resolve_kernel(cfg.kernel)
    return _sweep(cfg, scales, kernel, resolve_function(cfg.function, kernel), resolve_sequence(cfg.sequence))


def _analytic_profile(profile: Any) -> bool:
    """Whether a profile declares analytic constants that check out: then every member is analytic."""
    try:
        check_analytic_constants(profile)  # ValueError when none are declared
    except ValueError:
        return False
    return True


def _domain_transfer_note(cfg: RunConfig, kernel: Any) -> str:
    """How a real-line certificate bears on the declared domain."""
    if cfg.domain_kind == "full_line":
        return "certificates apply directly: the declared domain is the full real line"
    if not cfg.has_accumulation_point:
        return (
            "restriction remark withheld: the declared domain has no accumulation point, so real-line "
            "non-membership says nothing about the restricted space on it"
        )
    if kernel.profile is None or not _analytic_profile(kernel.profile):
        return (
            f"restriction remark withheld: kernel {kernel.kernel_id} has no checked analytic constants, so "
            "members of its space need not be analytic, and one may agree with the candidate on the domain"
        )
    return (
        "restriction remark: because the kernel's analytic constants are checked and the declared domain "
        "has an accumulation point, real-line non-membership carries over to the restricted space on "
        "that domain, provided the candidate's supplied extension is analytic (the candidate's "
        "analyticity is not verified here)"
    )


def _run_witness_task(
    cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]
) -> Dict[str, Any]:
    grid = tuple(float(c) for c in (cfg.c_grid if cfg.c_grid is not None else default_c_grid()))
    # Scales are dealt round-robin to the sweeps.  A scale's outcome depends
    # on its value alone, so outcomes return to grid order by value, repeated
    # scales included.
    groups = min(cfg.jobs, len(grid))
    if cfg.jobs > 1:
        # imported here: the pool's modules cost a serial run's startup time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=groups) as pool:
            sweeps = list(pool.map(_witness_worker, [(cfg, grid[g::groups]) for g in range(groups)]))
    else:
        sweeps = [_sweep(cfg, grid, kernel, f, sequence)]
    built = {cert.c: cert for sweep in sweeps for cert in sweep.certificates}
    failed = dict(failure for sweep in sweeps for failure in sweep.failures)
    result = replace(
        sweeps[0],
        c_values=grid,
        certificates=tuple(built[c] for c in grid if c in built),
        failures=tuple((c, failed[c]) for c in grid if c not in built),
    )
    # The windows mostly contain one another, so one table evaluates f once
    # per distinct stored point; largest first keeps its memory at the
    # largest certificate's.
    certificates = result.certificates
    table = PointTable(f, None, cfg.precision_bits)
    passed = set()
    for i in sorted(range(len(certificates)), key=lambda i: -certificates[i].n_points):
        if verify_certificate(certificates[i], kernel, f, table):
            passed.add(i)
    del table  # its values are garbage before serialization starts
    out = sweep_to_dict(result, cfg.precision_bits, certs_dir)
    out["verified_scales"] = [
        number_to_str(cert.c, cfg.precision_bits) for i, cert in enumerate(certificates) if i in passed
    ]
    out["all_verified"] = len(passed) == len(grid)
    out["domain_transfer"] = _domain_transfer_note(cfg, kernel)
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


def run(cfg: RunConfig, certs_dir: Optional[str] = None) -> Tuple[Dict[str, Any], int]:
    """Execute the configured tasks; returns (report, exit_code).

    With ``certs_dir`` the witness task also writes each certificate there as
    a standalone file; a file it cannot write raises OSError.
    """
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
                results["witness"] = _run_witness_task(cfg, kernel, f, sequence, certs_dir)
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
        except (ValueError, ArithmeticError, WitnessSearchError) as exc:
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


def _load_json_file(load: Callable[[str], Any], path: str, what: str) -> Any:
    """``load(path)``, with a file that cannot be read or parsed reported as one ConfigError line.

    A file that is not UTF-8 or not JSON is a ValueError; one nested too
    deeply for json's recursive parser is a RecursionError.
    """
    try:
        return load(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def _apply_flags(data: Dict[str, Any], args: argparse.Namespace) -> Dict[str, Any]:
    """``data`` with every config flag given in ``args`` set at its config key.

    A config flag's argparse dest is its key, dotted inside a section
    (``decay.ell_max``); the other dests (``out``, ``config``, ``c``) are no keys.
    Its value is the text given, or for a comma-list key the list of its
    entries' texts, unconverted: config_from_dict converts and checks it.
    ``data`` that is not a dict is returned as it is, for config_from_dict to reject.
    """
    if not isinstance(data, dict):
        return data
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or (section or key) not in _KEYS:
            continue
        target = data.setdefault(section, {}) if section else data
        if isinstance(target, dict):  # config_from_dict rejects anything else
            target[key] = value
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    data = {} if args.config is None else _load_json_file(load_json, args.config, "config file")
    cfg = config_from_dict(_apply_flags(data, args))
    try:
        report, code = run(cfg, args.certs_dir)
    except OSError as exc:  # run writes no file but the certificates
        raise ConfigError(f"cannot write certificates to {args.certs_dir!r}: {exc}") from exc
    _write_output(args.out, report)
    if args.certs_dir is not None and "witness" in report["results"]:
        written = len(report["results"]["witness"]["certificates"])
        print(f"wrote {written} certificate(s) to {args.certs_dir}")
    if args.csv_dir is not None:
        tables = _write_csv_tables(args.csv_dir, report)
        print(f"wrote {len(tables)} csv table(s) to {args.csv_dir}")
    print(report["verdict_summary"])
    for task, message in report["task_errors"].items():
        print(f"task {task} errored: {message}", file=sys.stderr)
    return code


def _cmd_witness(args: argparse.Namespace) -> int:
    cfg = config_from_dict(_apply_flags({"c_grid": [args.c]}, args))
    kernel = resolve_kernel(cfg.kernel)
    f = resolve_function(cfg.function, kernel)
    sequence = resolve_sequence(cfg.sequence)
    try:
        cert = build_witness(
            kernel,
            f,
            sequence,
            cfg.c_grid[0],
            alpha=cfg.witness_alpha,
            ell_max=cfg.ell_max,
            precision_bits=cfg.precision_bits,
            doubling_cap=cfg.witness_doubling_cap,
        )
    except WitnessSearchError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            stream_certificate(cert, args.out)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.out!r}: {exc}") from exc
    print(
        f"witness found: N={cert.n_points} ell={cert.ell} "
        f"r={mpmath.nstr(cert.r_value, 17)}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    data = _load_json_file(load_certificate, args.certificate, "certificate")
    cert = witness_from_dict(data)
    del data  # its point list: the certificate holds the same points as its own tuple
    kernel = resolve_kernel(cert.kernel_id)
    f = resolve_function(cert.function_id, kernel)
    try:
        ok = verify_certificate(cert, kernel, f)
    except ValueError as exc:
        # The kernel and function come from the certificate itself, so a
        # ValueError is a defect of the stored window: coincident points, or
        # points whose exact keys would span too many bits.
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


def _cmd_task(args: argparse.Namespace) -> int:
    """A single-task subcommand: a run of that task alone, summed up in one line."""
    report, code = run(config_from_dict(_apply_flags({}, args)))
    if args.out:
        _write_output(args.out, report)
    if code == 0:
        (task,) = args.tasks
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


def _comma_list(text: str) -> List[str]:
    """A comma-separated flag value as its nonempty entries; config_from_dict converts them."""
    return [entry.strip() for entry in text.split(",") if entry.strip()]


# The help of the config flags whose name does not say it all, at their config keys.
_FLAG_HELP = {
    "tasks": "comma-separated subset of: " + ",".join(ALL_TASKS),
    "c_grid": "comma-separated positive scales",
    "jobs": "at most this many worker processes; scales are dealt round-robin and each worker shares f values",
    "witness.alpha": "declared tail lower bound for the witness task",
    "psd.points": "comma-separated nodes (default: first sequence points)",
    "interpolant.base_points": "comma-separated base nodes",
    "interpolant.rule": "one of: " + ",".join(EXTENSION_RULES),
}
_COMMA_KEYS = ("tasks", "c_grid", "psd.points", "interpolant.base_points")

# The single-task commands: (command, task, help, config keys of its flags).
_TASK_COMMANDS = (
    ("decay-check", "decay", "measure off-diagonal kernel decay",
     ("kernel", "sequence", "decay.window", "decay.ell_max", "decay.threshold", "precision_bits")),
    ("psd-check", "psd", "PSD test of the kernel Gram matrix",
     ("kernel", "sequence", "psd.points", "psd.num_points", "psd.control_x0", "precision_bits")),
    ("derivatives", "analytic", "diagonal derivative bounds and envelope",
     ("kernel", "analytic.n_max", "analytic.norm_bound", "analytic.fd_step", "analytic.fd_x", "precision_bits")),
    ("interp-norm", "interpolant", "minimum-norm interpolant growth trace",
     ("kernel", "function", "sequence", "interpolant.base_points", "interpolant.rule", "interpolant.steps",
      "interpolant.ridge", "precision_bits")),
)


def _config_flags(parser: argparse.ArgumentParser, keys: Sequence[str], required: bool = False) -> None:
    """Add one flag per config key in ``keys``, each setting its key to the text given.

    The flag is "--" and the key's last part, "_" written "-"; only
    ``interpolant.base_points`` is ``--points``.  It has no default, type or
    choices: config_from_dict supplies the default and converts and checks
    the text.  A comma-list key's text is split into its entries first.
    With ``required``, ``--kernel`` and ``--function`` must be given: every
    command but ``run``, which may read them from a config file, asks that.
    """
    for key in keys:
        name = "points" if key == "interpolant.base_points" else key.rpartition(".")[2]
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=key, metavar=name.upper(),
            required=required and key in ("kernel", "function"),
            type=_comma_list if key in _COMMA_KEYS else None, help=_FLAG_HELP.get(key),
        )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, whose usage errors raise ConfigError."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rkhs-cert",
        description=(
            "Witness-based certificates that candidate functions lie outside "
            "the reproducing kernel Hilbert space of a decaying kernel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute configured diagnostic tasks")
    p_run.add_argument("--config", help="JSON config file")
    run_keys = ("kernel", "function", "sequence", "tasks", "c_grid", "ell_max", "precision_bits", "jobs",
                "witness.alpha")
    _config_flags(p_run, run_keys)
    p_run.add_argument("--out", required=True, help="report output path")
    p_run.add_argument("--certs-dir", help="also write one JSON file per certificate")
    p_run.add_argument("--csv-dir", help="also write one CSV table per task result")
    p_run.set_defaults(func=_cmd_run)

    p_wit = sub.add_parser("witness", help="build a single negativity certificate")
    _config_flags(p_wit, ("kernel", "function", "sequence", "witness.alpha", "ell_max", "precision_bits"), required=True)
    p_wit.add_argument("--c", required=True, help="the one scale of the grid")
    p_wit.add_argument("--out", help="certificate output path")
    p_wit.set_defaults(func=_cmd_witness)

    for command, task, help_text, keys in _TASK_COMMANDS:
        p_task = sub.add_parser(command, help=help_text)
        _config_flags(p_task, keys, required=True)
        p_task.add_argument("--out", help="report output path")
        p_task.set_defaults(func=_cmd_task, tasks=[task])

    p_ver = sub.add_parser("verify", help="re-check a certificate from its JSON file alone")
    p_ver.add_argument("certificate", help="path to a certificate JSON file")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError among them
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
