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
Each key's RunConfig field declares its domain, so a value outside it
exits 1 before any task runs, and exit 2 never comes from a config value's
range: only from what a task finds, such as a kernel with no analytic
constants or a sequence that repeats a point.  A flag is taken by its full
name only, never by a prefix, and a text after it that starts as a negative
number (``-1e-3``, ``-inf``) is its value.  A RunConfig built directly is
checked as a config file is.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from collections import namedtuple

import mpmath
from dataclasses import dataclass, field, fields, replace
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

# --- the tasks -------------------------------------------------------------------
# Each task is one record of _TASKS: ``run(cfg, kernel, f, sequence,
# certs_dir)`` returns its report entry, its result, and ``rows(result)`` its
# CSV table, a header row then data rows.  Real numbers stay in their
# decimal-string form from the report, so a table is exactly as reproducible
# as the JSON it mirrors.  A task with a single-task command also names the
# command, its help, the config keys of its flags and ``line(result)``, the
# command's summary line.


def _resolve(cfg: RunConfig) -> Tuple[Any, Any, Any]:
    """The kernel, function and sequence ``cfg`` names, resolved in that order."""
    kernel = resolve_kernel(cfg.kernel)
    return kernel, resolve_function(cfg.function, kernel), resolve_sequence(cfg.sequence)


def _nodes(given: Optional[Tuple[float, ...]], sequence: Any, count: int) -> List[float]:
    """The nodes ``given``, or by default the first ``count`` sequence points."""
    return list(given) if given is not None else [float(sequence.point(n)) for n in range(1, count + 1)]


def _run_psd(cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]) -> List[Dict[str, Any]]:
    points = _nodes(cfg.psd_points, sequence, cfg.psd_num_points)
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


def _psd_rows(result: List[Dict[str, Any]]) -> List[List[Any]]:
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


def _psd_line(result: List[Dict[str, Any]]) -> str:
    states = ", ".join(f"{r['label']}={'PSD' if r['is_psd'] else 'NOT PSD'}" for r in result)
    return f"psd check: {states}"


def _run_decay(cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]) -> Dict[str, Any]:
    report = verify_decay(
        kernel,
        sequence,
        cfg.decay_window,
        cfg.decay_ell_max,
        cfg.decay_threshold,
        cfg.precision_bits,
    )
    return decay_to_dict(report, cfg.precision_bits)


def _decay_rows(result: Dict[str, Any]) -> List[List[Any]]:
    rows = [["ell", "max_offdiag"]]
    rows.extend([ell, v] for ell, v in zip(result["ell_values"], result["max_offdiag"]))
    return rows


def _decay_line(result: Dict[str, Any]) -> str:
    state = "passed" if result["passed"] else f"failed: {result.get('reason')}"
    return f"decay check {state} (evidence: {result['evidence']})"


def _sweep(cfg: RunConfig, scales: Tuple[float, ...], kernel: Any, f: Any, sequence: Any) -> SweepResult:
    return sweep_c(
        kernel, f, sequence, scales, cfg.ell_max, cfg.precision_bits, cfg.witness_doubling_cap,
        alpha=cfg.witness_alpha,
    )


def _witness_worker(args: Tuple[RunConfig, Tuple[float, ...]]) -> SweepResult:
    """Sweep one group of scales in a worker process, which resolves its own objects."""
    cfg, scales = args
    return _sweep(cfg, scales, *_resolve(cfg))


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


def _run_witness(cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]) -> Dict[str, Any]:
    """The sweep over the c grid, each certificate verified; with ``certs_dir`` each is also written there."""
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


def _witness_rows(result: Dict[str, Any]) -> List[List[Any]]:
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


def _run_analytic(cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]) -> Dict[str, Any]:
    report = analyticity_envelope(
        kernel,
        cfg.analytic_norm_bound,
        cfg.analytic_n_max,
        cfg.precision_bits,
        fd_step=cfg.analytic_fd_step,
        fd_x=cfg.analytic_fd_x,
    )
    return derivative_report_to_dict(report, cfg.precision_bits)


def _analytic_rows(result: Dict[str, Any]) -> List[List[Any]]:
    rows = [["order", "dnn_value", "exact_bound", "bound_curve", "fd_value"]]
    fd = result.get("fd_values") or []
    for i, n in enumerate(result["orders"]):
        fd_val = fd[n - 1] if 1 <= n <= len(fd) else ""
        rows.append(
            [n, result["dnn_values"][i], result["exact_bounds"][i], result["bound_curve"][i], fd_val]
        )
    return rows


def _analytic_line(result: Dict[str, Any]) -> str:
    return (
        f"derivative bounds tabulated for orders 0..{result['orders'][-1]}; "
        "envelope dominates at every order"
    )


def _run_interpolant(cfg: RunConfig, kernel: Any, f: Any, sequence: Any, certs_dir: Optional[str]) -> Dict[str, Any]:
    trace = norm_growth_trace(
        kernel,
        f,
        _nodes(cfg.interp_base_points, sequence, 3),
        extension_rule=cfg.interp_rule,
        steps=cfg.interp_steps,
        precision_bits=cfg.precision_bits,
        ridge=cfg.interp_ridge,
        divergence_factor=cfg.interp_divergence_factor,
        sequence=sequence,
    )
    return norm_trace_to_dict(trace, cfg.precision_bits)


def _interpolant_rows(result: Dict[str, Any]) -> List[List[Any]]:
    rows = [["step", "num_points", "norm", "precision_bits"]]
    trace = zip(result["point_sets"], result["norms"], result["precision_bits"])
    for i, (pts, norm, bits) in enumerate(trace):
        rows.append([i, len(pts), norm, bits])
    return rows


def _interpolant_line(result: Dict[str, Any]) -> str:
    truncated = result.get("truncated_reason")
    return (
        f"interpolant norms over {len(result['norms'])} nested sets; "
        f"divergence evidence: {result['divergence_evidence']}"
        + (f"; truncated: {truncated}" if truncated else "")
    )


# A task with no single-task command has no command, help, keys or line.
_Task = namedtuple("_Task", "run rows command help keys line", defaults=(None, None, (), None))

# Execution order is fixed regardless of the order tasks appear in a config:
# structural sanity first, then decay, then the witness sweep, then the
# purely diagnostic tabulations.
_TASKS: Dict[str, _Task] = {
    "psd": _Task(
        _run_psd, _psd_rows, "psd-check", "PSD test of the kernel Gram matrix",
        ("kernel", "sequence", "psd.points", "psd.num_points", "psd.control_x0", "precision_bits"), _psd_line,
    ),
    "decay": _Task(
        _run_decay, _decay_rows, "decay-check", "measure off-diagonal kernel decay",
        ("kernel", "sequence", "decay.window", "decay.ell_max", "decay.threshold", "precision_bits"), _decay_line,
    ),
    "witness": _Task(_run_witness, _witness_rows),
    "analytic": _Task(
        _run_analytic, _analytic_rows, "derivatives", "diagonal derivative bounds and envelope",
        ("kernel", "analytic.n_max", "analytic.norm_bound", "analytic.fd_step", "analytic.fd_x", "precision_bits"),
        _analytic_line,
    ),
    "interpolant": _Task(
        _run_interpolant, _interpolant_rows, "interp-norm", "minimum-norm interpolant growth trace",
        ("kernel", "function", "sequence", "interpolant.base_points", "interpolant.rule", "interpolant.steps",
         "interpolant.ridge", "precision_bits"),
        _interpolant_line,
    ),
}
ALL_TASKS = tuple(_TASKS)

DOMAIN_KINDS = ("full_line", "interval", "finite_set")


@dataclass(frozen=True)
class Domain:
    """The values one config key admits, each range copied from the guard of the code that reads the key.

    ``kind`` converts a value: int and float as _cast does (so a number is
    finite), bool takes only a boolean, str only one of ``choices``, and
    object takes any value as it is, an identifier for the registry to
    resolve.  A number lies in [``min``, ``max``] and above ``above``.
    ``null`` admits null, the field's None.  On a tuple-typed field this
    holds for each entry, and the list is nonempty, with no entry twice if
    ``distinct``.
    """

    kind: type
    min: Optional[float] = None
    max: Optional[float] = None
    above: Optional[float] = None
    choices: Tuple[str, ...] = ()
    null: bool = False
    distinct: bool = False

    def outside(self, number: float) -> bool:
        return not (
            (self.min is None or number >= self.min)
            and (self.max is None or number <= self.max)
            and (self.above is None or number > self.above)
        )

    def bounds(self) -> str:
        """The numeric range in words, as a refusal states it."""
        if self.above is not None:
            return f"above {self.above}" if self.above else "positive"
        return f">= {self.min}" if self.max is None else f"{self.min} to {self.max}"


def _key(
    default: Any, key: str, kind: type, help: Optional[str] = None, flag: Optional[str] = None, **domain: Any
) -> Any:
    """A RunConfig field declaring its config key ``key`` ("section.name" inside a section).

    ``kind`` and ``domain`` make the key's Domain.  ``help`` is the help of
    the key's flag, and ``flag`` the flag's name where it is not the key's
    last part.
    """
    return field(default=default, metadata={"key": key, "domain": Domain(kind, **domain), "help": help, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration with every default filled in.

    Each field is the one declaration of its config key: default, Domain and
    flag help (see _key).  However it is built, a RunConfig holds only
    values its fields' Domains admit, converted as a config file's are, and
    keys that agree with one another (``__post_init__``).
    """

    kernel: Any = _key("gaussian", "kernel", object)
    function: str = _key("paper_example", "function", object)
    sequence: str = _key("triangular+", "sequence", object)
    tasks: Tuple[str, ...] = _key(
        ("witness",), "tasks", str, "comma-separated subset of: " + ",".join(ALL_TASKS),
        choices=ALL_TASKS, distinct=True,
    )
    c_grid: Optional[Tuple[float, ...]] = _key(
        None, "c_grid", float, "comma-separated positive scales", above=0, null=True
    )
    ell_max: int = _key(DEFAULT_ELL_MAX, "ell_max", int, min=0)
    precision_bits: int = _key(
        DEFAULT_PRECISION_BITS, "precision_bits", int, min=MIN_PRECISION_BITS, max=MAX_PRECISION_BITS
    )
    jobs: int = _key(
        1, "jobs", int,
        "at most this many worker processes; scales are dealt round-robin and each worker shares f values", min=1,
    )
    domain_kind: str = _key("full_line", "domain.kind", str, choices=DOMAIN_KINDS)
    domain_endpoints: Optional[Tuple[float, float]] = _key(None, "domain.endpoints", float, null=True)
    domain_points: Optional[Tuple[float, ...]] = _key(None, "domain.points", float, null=True, distinct=True)
    # null, the default, reads the flag off the domain's kind (see _cross_key_rules)
    has_accumulation_point: Optional[bool] = _key(None, "domain.has_accumulation_point", bool, null=True)
    witness_doubling_cap: int = _key(DEFAULT_DOUBLING_CAP, "witness.doubling_cap", int, min=0)
    witness_alpha: Optional[float] = _key(
        None, "witness.alpha", float, "declared tail lower bound for the witness task", above=0, null=True
    )
    psd_num_points: int = _key(8, "psd.num_points", int, min=1)
    psd_points: Optional[Tuple[float, ...]] = _key(
        None, "psd.points", float, "comma-separated nodes (default: first sequence points)", null=True, distinct=True
    )
    psd_control_x0: float = _key(0.0, "psd.control_x0", float)
    decay_window: int = _key(3, "decay.window", int, min=2)
    decay_ell_max: int = _key(10, "decay.ell_max", int, min=1)
    decay_threshold: float = _key(1e-8, "decay.threshold", float)
    analytic_n_max: int = _key(10, "analytic.n_max", int, min=0)
    analytic_norm_bound: float = _key(1.0, "analytic.norm_bound", float, min=0)
    analytic_fd_step: Optional[float] = _key(1e-4, "analytic.fd_step", float, above=0, null=True)
    analytic_fd_x: float = _key(0.0, "analytic.fd_x", float)
    interp_base_points: Optional[Tuple[float, ...]] = _key(
        None, "interpolant.base_points", float, "comma-separated base nodes", flag="points", null=True, distinct=True
    )
    interp_rule: str = _key(
        "widen", "interpolant.rule", str, "one of: " + ",".join(EXTENSION_RULES), choices=EXTENSION_RULES
    )
    interp_steps: int = _key(6, "interpolant.steps", int, min=1)
    interp_ridge: float = _key(0.0, "interpolant.ridge", float, min=0)
    interp_divergence_factor: float = _key(1e3, "interpolant.divergence_factor", float)

    def __post_init__(self) -> None:
        """Admit each field's value by its Domain, in field order, then apply the cross-key rules.

        A value outside its domain, or keys that contradict one another,
        raise ConfigError, the refusal a config file gets; an unset (None)
        accumulation flag is filled in from the domain's kind.
        """
        for f in fields(self):
            object.__setattr__(self, f.name, _admit(f, getattr(self, f.name), f.metadata["key"].replace(".", " ")))
        object.__setattr__(self, "has_accumulation_point", _cross_key_rules(self))

    def to_dict(self) -> Dict[str, Any]:
        """The config echo: every field at its config key, but "jobs"."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            section, _, key = f.metadata["key"].rpartition(".")
            target = out.setdefault(section, {}) if section else out
            target[key] = list(value) if isinstance(value, tuple) else value
        del out["jobs"]  # parallelism must not influence report bytes
        return out


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


def _listed(f: Any) -> bool:
    """Whether RunConfig field ``f`` is tuple-typed: its key takes a list, and its flag a comma list."""
    return "Tuple[" in f.type


def _entry(domain: Domain, value: Any, where: str) -> Any:
    """One value of ``domain``'s kind, converted, or a ConfigError naming ``where``; choices are checked by _admit."""
    if domain.kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean, not {value!r}")
    if domain.kind not in (int, float):
        return value
    number = _cast(domain.kind, value, where)
    if domain.outside(number):
        raise ConfigError(f"{where} must be {domain.bounds()}, not {value!r}")
    return number


def _admit(f: Any, value: Any, where: str) -> Any:
    """``value`` as RunConfig field ``f`` holds it, or a ConfigError naming ``where`` if f's Domain refuses it."""
    domain: Domain = f.metadata["domain"]
    if value is None and domain.null:
        return None
    listed = _listed(f)
    if listed and not isinstance(value, (list, tuple)):  # a string or an object would iterate
        raise ConfigError(f"{where} must be a list, not {value!r}")
    values = tuple(value) if listed else (value,)
    unknown = [v for v in values if domain.choices and v not in domain.choices]
    if unknown:
        raise ConfigError(f"unknown {where} {unknown if listed else value!r}; choose from {list(domain.choices)}")
    values = tuple(_entry(domain, v, f"each entry of {where}" if listed else where) for v in values)
    if not listed:
        return values[0]
    if not values:
        raise ConfigError(f"{where} must be nonempty")
    if domain.distinct and len(set(values)) != len(values):
        raise ConfigError(f"{where} must not repeat: its entries must be distinct")
    return values


def _cross_key_rules(cfg: RunConfig) -> bool:
    """``cfg``'s accumulation flag, filled in where unset (None); a ConfigError where its keys contradict one another.

    The accumulation-point flag is a user declaration, but for the three
    supported domain shapes its truth is decidable, so contradictory
    declarations are rejected rather than recorded.  Refinement puts
    midpoints between base points, so it needs two of them.
    """
    kind, endpoints = cfg.domain_kind, cfg.domain_endpoints
    if kind == "interval":
        if endpoints is None:
            raise ConfigError("interval domain needs endpoints [a, b]")
        if len(endpoints) != 2:
            raise ConfigError("interval endpoints must be two finite numbers")
        if not endpoints[0] < endpoints[1]:
            raise ConfigError("interval endpoints must be strictly increasing")
    elif endpoints is not None:
        raise ConfigError(f"endpoints only apply to interval domains, not {kind!r}")
    if kind == "finite_set" and cfg.domain_points is None:
        raise ConfigError("finite_set domain needs a list of points")
    if kind != "finite_set" and cfg.domain_points is not None:
        raise ConfigError(f"points only apply to finite_set domains, not {kind!r}")
    flag = kind != "finite_set"
    if cfg.has_accumulation_point not in (None, flag):
        truth = f"a {kind} domain always has accumulation points" if flag else "a finite set has no accumulation point"
        raise ConfigError(truth)
    if cfg.interp_rule == "refine" and cfg.interp_base_points is not None and len(cfg.interp_base_points) < 2:
        raise ConfigError("interpolant rule refine needs at least two distinct base_points")
    return flag


# The config schema is the echo's, plus "jobs", which the echo omits.
_ECHO = RunConfig().to_dict()
_KEYS = set(_ECHO) | {"jobs"}
# Each config key's RunConfig field, in declaration order.
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def config_from_dict(data: Dict[str, Any]) -> RunConfig:
    """The RunConfig of config object ``data``: each key given, at the field that declares it (see RunConfig)."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, _KEYS, "config")
    kwargs: Dict[str, Any] = {}
    for key, f in _FIELDS.items():
        section, _, name = key.rpartition(".")
        values = _section(data, section) if section else data
        if name in values:
            kwargs[f.name] = values[name]
    return RunConfig(**kwargs)


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
    kernel, f, sequence = _resolve(cfg)
    results: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    # Requested tasks run in the fixed _TASKS order, not config order.
    for name, task in _TASKS.items():
        if name not in cfg.tasks:
            continue
        try:
            results[name] = task.run(cfg, kernel, f, sequence, certs_dir)
        except (ValueError, ArithmeticError, WitnessSearchError) as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
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


def _write_csv_tables(directory: str, report: Dict[str, Any]) -> List[str]:
    """One CSV per executed task, written in the fixed task order."""
    written = []
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for name, result in report["results"].items():  # run fills them in the fixed _TASKS order
            path = Path(directory) / f"{name}.csv"
            with path.open("w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows(_TASKS[name].rows(result))
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
        if value is None or dest not in _FIELDS:
            continue
        section, _, key = dest.rpartition(".")
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
    try:
        cert = build_witness(
            *_resolve(cfg),
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
    del data  # the certificate holds its point window itself
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
        (name,) = args.tasks
        print(_TASKS[name].line(report["results"][name]))
    for name, message in report["task_errors"].items():
        print(f"task {name} errored: {message}", file=sys.stderr)
    return code


def _comma_list(text: str) -> List[str]:
    """A comma-separated flag value as its nonempty entries; config_from_dict converts them."""
    return [entry.strip() for entry in text.split(",") if entry.strip()]


def _config_flags(parser: argparse.ArgumentParser, keys: Sequence[str], required: bool = False) -> None:
    """Add one flag per config key in ``keys``, each setting its key to the text given.

    The flag, its help, and whether its text is a comma list to split into
    entries come from the key's RunConfig field (see _key).  It has no
    default, type or choices: config_from_dict supplies the default and
    converts and checks the text.  With ``required``, ``--kernel`` and
    ``--function`` must be given: every command but ``run``, which may read
    them from a config file, asks that.
    """
    for key in keys:
        f = _FIELDS[key]
        name = f.metadata["flag"] or key.rpartition(".")[2]
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=key, metavar=name.upper(),
            required=required and key in ("kernel", "function"),
            type=_comma_list if _listed(f) else None, help=f.metadata["help"],
        )


# An argument argparse reads as a value, not a flag: one that starts as a negative number,
# "-inf" or "-nan" does (argparse itself reads only -5, -.5 and -1.5 so).
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that takes no prefix of a flag for the flag,
    takes any negative number (``-1e-3``, ``-inf``, ``-1,2``) after a flag as its value,
    and whose usage errors raise ConfigError."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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

    for name, task in _TASKS.items():
        if task.command is None:
            continue
        p_task = sub.add_parser(task.command, help=task.help)
        _config_flags(p_task, task.keys, required=True)
        p_task.add_argument("--out", help="report output path")
        p_task.set_defaults(func=_cmd_task, tasks=[name])

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
