#!/usr/bin/env python3
"""Benchmark for rkhs-cert: witness sweeps, certificate verification and a
positive control, timed end to end through the CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_constant --seed 1 --seconds 15 --trace 0

Every timed command is the ``rkhs-cert`` entry point in a fresh Python
process with ``src/`` on its path, so the numbers are what a user of the
command line sees.  With ``--trace 0`` the benchmark repeats the workload's
commands until ``--seconds`` have passed (at least once) and prints the
end-to-end metrics as medians over those repetitions.  With ``--trace 1`` it
runs the commands once untraced and once under ``trace_child.py``, which
wraps each layer's public functions, and prints the per-layer metrics.

The workloads take no random input: ``--seed`` is recorded but changes
nothing.  Outputs are checked against ``reference.json`` outside the timed
region; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and for which per-layer metric should move which end-to-end one.

This file uses the standard library only; everything that needs mpmath runs
in the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

CLI_BOOT = "import sys; from rkhs_cert.cli import main; sys.exit(main())"
SETUP_SAMPLES = 7
# Relative agreement required between a recomputed r and the reference,
# the same 2^-100 the verifier itself applies.
R_REL_TOL_BITS = 100
# A run never starts another repetition past this point, so it ends well
# inside the three minutes a run may take.
RUN_DEADLINE_S = 120.0


@dataclass(frozen=True)
class Sweep:
    """One ``rkhs-cert run`` over the scales 2^0 .. 2^-depth."""

    function: str
    depth: int
    alpha: Optional[float] = None
    kernel: str = "gaussian"
    sequence: str = "triangular+"

    def argv(self, work: Path, tag: str) -> List[str]:
        args = [
            "run",
            "--kernel", self.kernel,
            "--function", self.function,
            "--sequence", self.sequence,
            "--c-grid", ",".join(repr(2.0 ** -k) for k in range(self.depth + 1)),
            "--precision-bits", "256",
            "--jobs", "1",
            "--out", str(work / f"report-{tag}.json"),
            "--certs-dir", str(work / f"certs-{tag}"),
        ]
        if self.alpha is not None:
            args += ["--alpha", repr(self.alpha)]
        return args


@dataclass(frozen=True)
class Certificate:
    """One certificate the verify workload builds untimed, then verifies."""

    function: str
    c: float
    reference: str  # the sweep workload whose reference holds this scale
    kernel: str = "gaussian"


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: Optional[Sweep] = None
    certificates: Tuple[Certificate, ...] = ()

    def resolves(self) -> List[Tuple[str, str, str]]:
        """(kernel, function, sequence) triples the workload's commands resolve."""
        if self.sweep is not None:
            return [(self.sweep.kernel, self.sweep.function, self.sweep.sequence)]
        return [(c.kernel, c.function, "triangular+") for c in self.certificates]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_paper_example", sweep=Sweep("paper_example", depth=6)),
        Workload("sweep_constant", sweep=Sweep("constant:1.0", depth=8)),
        Workload(
            "verify_certificates",
            certificates=(
                Certificate("paper_example", 2.0 ** -6, "sweep_paper_example"),
                Certificate("constant:1.0", 2.0 ** -8, "sweep_constant"),
            ),
        ),
        # Kernel sections lie in the space, so every scale must exhaust the
        # doubling cap.  The grid stops at 2^-3: the 2^-4 scale alone takes
        # about 9 s and spreads widely between runs.
        Workload(
            "positive_control",
            sweep=Sweep("kernel_section:0.0", depth=3, alpha=0.5),
        ),
    )
}


# --------------------------------------------------------------------------
# Child processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Proc:
    code: int
    start: float
    end: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def spawn(argv: List[str], work: Path, tag: str) -> Proc:
    """Run argv to completion; wall time and this child's own peak RSS."""
    out_path = work / f"{tag}.stdout"
    err_path = work / f"{tag}.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        start=start,
        end=end,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli(args: List[str], work: Path, tag: str, trace_out: Optional[Path] = None) -> Proc:
    if trace_out is None:
        argv = [sys.executable, "-c", CLI_BOOT, *args]
    else:
        argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_out), *args]
    return spawn(argv, work, tag)


SETUP_PROBE = """
import json, sys
import rkhs_cert.cli
from rkhs_cert.registry import resolve_function, resolve_kernel, resolve_sequence
for kernel_id, function_id, sequence_id in json.loads(sys.argv[1]):
    kernel = resolve_kernel(kernel_id)
    resolve_function(function_id, kernel)
    resolve_sequence(sequence_id)
print(rkhs_cert.cli.__file__)
"""

FACTS_PROBE = """
import importlib.util, json, platform
import mpmath, mpmath.libmp
print(json.dumps({
    "python": platform.python_version(),
    "mpmath": mpmath.__version__,
    "mpmath_backend": mpmath.libmp.BACKEND,
    "gmpy2": importlib.util.find_spec("gmpy2") is not None,
}))
"""


class ProgramMissing(Exception):
    pass


def check_program(work: Path, nproc: int) -> Dict[str, Any]:
    """Byte-compile src/ and collect the facts that change every number."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    proc = spawn([sys.executable, "-c", FACTS_PROBE], work, "facts")
    if proc.code != 0:
        raise ProgramMissing(f"cannot import mpmath: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout)
    facts["nproc"] = nproc
    return facts


def measure_setup(workload: Workload, work: Path, speed: "SpeedProbe") -> Tuple[float, float]:
    """Median time for a fresh process to import the CLI and resolve inputs.

    Returns (raw seconds, seconds at reference speed).  The probes are too
    short to carry their own speed samples, so all of them share the factor
    measured over the whole series.
    """
    spec = json.dumps(workload.resolves())
    procs = []
    for i in range(SETUP_SAMPLES):
        proc = spawn([sys.executable, "-c", SETUP_PROBE, spec], work, f"setup-{i}")
        loaded = Path(proc.stdout.strip() or ".").resolve()
        if proc.code != 0 or SRC.resolve() not in loaded.parents:
            raise ProgramMissing(f"setup probe did not load rkhs_cert from {SRC}: {proc.stderr.strip()}")
        procs.append(proc)
    raw = statistics.median(p.wall_s for p in procs)
    return raw, raw * speed.factor(procs[0].start, procs[-1].end)


# --------------------------------------------------------------------------
# Machine speed

CALIBRATOR = """
import os, sys, time
parent = os.getppid()
mask = (1 << 256) - 1
x = 1
with open(sys.argv[1], "w", buffering=1) as out:
    while os.getppid() == parent:
        time.sleep(0.1)
        t0 = time.thread_time()
        for i in range(6000):
            x = (x * 0x9E3779B97F4A7C15 + i) & mask
        out.write(f"{time.perf_counter():.6f} {time.thread_time() - t0:.9f}\\n")
"""
# CPU time of one calibrator chunk at the reference speed: about its time on
# an idle 2-vCPU Xeon VM, so that reference seconds read close to seconds there.
REF_CHUNK_S = 1.5e-3
MIN_SPEED_SAMPLES = 5


class SpeedProbe:
    """Samples the speed of the CPU that runs the timed commands.

    On a small shared VM a CPU can change speed by a third within minutes,
    for every process alike, as neighbouring VMs load the shared cores.  A
    calibrator process on the same CPU wakes every 0.1 s, runs a
    fixed 256-bit integer loop of about 2 ms and logs the CPU time it took,
    costing the measured command about 2 %.  ``factor`` is the reference
    chunk time over the mean chunk time logged while a command ran; a wall
    time times that factor is the wall time at the reference speed.
    """

    def __init__(self, work: Path) -> None:
        self.log = work / "speed.log"
        self.proc = subprocess.Popen([sys.executable, "-c", CALIBRATOR, str(self.log)], cwd=work)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def factor(self, start: float, end: float) -> float:
        try:
            lines = self.log.read_text(encoding="utf-8").split("\n")[:-1]
        except FileNotFoundError:
            lines = []
        samples = [tuple(map(float, line.split())) for line in lines]
        pad = 0.0
        chunk: List[float] = []
        while len(chunk) < MIN_SPEED_SAMPLES and pad <= 5.0:
            chunk = [d for t, d in samples if start - pad <= t <= end + pad]
            pad += 0.2
        if not chunk:
            raise RuntimeError("the speed calibrator logged no samples")
        return REF_CHUNK_S / statistics.mean(chunk)


# --------------------------------------------------------------------------
# Correctness gate


class Gate:
    """Counts operations (a grid scale, a certificate build or verify) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, set] = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    def output(self, label: str, data: bytes) -> None:
        """Record one command's output; all repetitions must be byte-identical."""
        self.digests.setdefault(label, set()).add(hashlib.sha256(data).hexdigest())

    @property
    def correct(self) -> bool:
        return not self.problems and all(len(d) == 1 for d in self.digests.values())


def r_matches(value: str, reference: str) -> bool:
    with localcontext() as ctx:
        ctx.prec = 200
        a, b = Decimal(value), Decimal(reference)
        return abs(a - b) <= abs(b) * Decimal(2) ** -R_REL_TOL_BITS


def check_certificate(cert: Dict[str, Any], ref: Dict[str, Any]) -> bool:
    return (
        cert.get("n_points") == ref["n_points"]
        and cert.get("ell") == ref["ell"]
        and r_matches(str(cert.get("r_value")), ref["r_value"])
    )


def check_sweep(gate: Gate, name: str, proc: Proc, report_path: Path, certs_dir: Path) -> None:
    ref = REFERENCE[name]
    scales = ref["scales"]
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
        witness = report["results"]["witness"]
    except (OSError, ValueError, KeyError) as exc:
        for s in scales:
            gate.op(False, f"{name} c={s['c']}: no report ({exc}; exit {proc.code}: {proc.stderr.strip()[-200:]})")
        return
    gate.output("report", raw)
    if proc.code != 0:
        gate.note(f"{name}: exit code {proc.code}")
    if report.get("verdict_summary") != ref["verdict_summary"]:
        gate.note(f"{name}: verdict {report.get('verdict_summary')!r}")
    certs = {c["c"]: c for c in witness.get("certificates", [])}
    failures = {f["c"]: f["reason"] for f in witness.get("failures", [])}
    verified = set(witness.get("verified_scales", []))
    written = sorted(certs_dir.glob("*.json")) if certs_dir.is_dir() else []
    if len(written) != len(certs):
        gate.note(f"{name}: {len(written)} certificate files for {len(certs)} certificates")
    for s in scales:
        c = s["c"]
        if "reason" in s:
            ok = c not in certs and failures.get(c, "").startswith(s["reason"] + ":")
        else:
            ok = c in certs and c in verified and check_certificate(certs[c], s)
        gate.op(ok, f"{name} c={c}: outcome differs from the reference")


def reference_scale(cert: Certificate) -> Dict[str, Any]:
    c = repr(cert.c)
    return next(s for s in REFERENCE[cert.reference]["scales"] if s["c"] == c)


def tamper(src: Path, dst: Path) -> None:
    """Copy a certificate with its second point moved half a unit.

    The triangular points differ by at least 2, so the window stays strictly
    monotone: only recomputing r can expose the change.
    """
    data = json.loads(src.read_text(encoding="utf-8"))
    points = data["points"]
    points[1] = str(Decimal(points[1]) + Decimal("0.5"))
    dst.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# One repetition of a workload's timed commands


@dataclass
class Iteration:
    procs: List[Proc]  # the timed commands
    report_bytes: int
    cert_bytes: int
    traces: List[Path]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    def ref_wall_s(self, speed: SpeedProbe) -> float:
        return sum(p.wall_s * speed.factor(p.start, p.end) for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def sweep_iteration(w: Workload, work: Path, tag: str, gate: Gate, traced: bool) -> Iteration:
    sweep = w.sweep
    assert sweep is not None
    trace_out = OUT / f"trace-{w.name}.json" if traced else None
    proc = cli(sweep.argv(work, tag), work, tag, trace_out)
    report = work / f"report-{tag}.json"
    certs_dir = work / f"certs-{tag}"
    check_sweep(gate, w.name, proc, report, certs_dir)
    report_bytes = report.stat().st_size if report.exists() else 0
    cert_bytes = sum(p.stat().st_size for p in certs_dir.glob("*.json")) if certs_dir.is_dir() else 0
    shutil.rmtree(certs_dir, ignore_errors=True)
    report.unlink(missing_ok=True)
    return Iteration([proc], report_bytes, cert_bytes, [trace_out] if traced else [])


def produce_certificates(w: Workload, work: Path, gate: Gate) -> List[Path]:
    """Untimed: build each certificate with the code under test and check it."""
    paths = []
    for i, cert in enumerate(w.certificates):
        path = work / f"certificate-{i}.json"
        proc = cli(
            ["witness", "--kernel", cert.kernel, "--function", cert.function,
             "--c", repr(cert.c), "--out", str(path)],
            work,
            f"produce-{i}",
        )
        try:
            ok = proc.code == 0 and check_certificate(
                json.loads(path.read_text(encoding="utf-8")), reference_scale(cert)
            )
        except (OSError, ValueError):
            ok = False
        gate.op(ok, f"building {cert.function} at c={cert.c!r} differs from the reference")
        paths.append(path)
    return paths


def verify_iteration(w: Workload, certs: List[Path], work: Path, tag: str, gate: Gate, traced: bool) -> Iteration:
    procs = []
    traces = []
    for i, path in enumerate(certs):
        trace_out = OUT / f"trace-{w.name}-{i}.json" if traced else None
        proc = cli(["verify", str(path)], work, f"{tag}-{i}", trace_out)
        gate.op(
            proc.code == 0 and proc.stdout.startswith("certificate verified"),
            f"verify {path.name}: exit {proc.code}",
        )
        gate.output(f"verify-{i}", proc.stdout.encode())
        procs.append(proc)
        if trace_out is not None:
            traces.append(trace_out)
    cert_bytes = sum(p.stat().st_size for p in certs if p.exists())
    return Iteration(procs, 0, cert_bytes, traces)


def check_tampered(certs: List[Path], work: Path, gate: Gate) -> None:
    """Untimed: a tampered copy of each certificate must fail with exit 2."""
    for i, path in enumerate(certs):
        bad = work / f"tampered-{i}.json"
        tamper(path, bad)
        proc = cli(["verify", str(bad)], work, f"tampered-{i}")
        gate.op(proc.code == 2, f"tampered {path.name}: exit {proc.code}, expected 2")


# --------------------------------------------------------------------------
# Runs


def repeat(w: Workload, work: Path, gate: Gate, seconds: float, certs: List[Path]) -> List[Iteration]:
    """Repeat the timed commands until ``seconds`` have passed, at least once."""
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < min(seconds, RUN_DEADLINE_S):
        iterations.append(one_iteration(w, work, f"it{len(iterations)}", gate, certs, traced=False))
    return iterations


def one_iteration(w: Workload, work: Path, tag: str, gate: Gate, certs: List[Path], traced: bool) -> Iteration:
    if w.sweep is not None:
        return sweep_iteration(w, work, tag, gate, traced)
    return verify_iteration(w, certs, work, tag, gate, traced)


def end_to_end(iterations: List[Iteration], setup_s: float, speed: SpeedProbe) -> Dict[str, Tuple[float, str]]:
    med = statistics.median
    return {
        "wall_s": (med(it.ref_wall_s(speed) for it in iterations), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (med(it.rss_mb for it in iterations), "MB"),
        "json_bytes": (statistics.median_low(it.report_bytes + it.cert_bytes for it in iterations), "bytes"),
    }


def print_lines(title: str, values: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in values.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:38s} {shown:>16s} {unit}")


def load_traces(it: Iteration, speed: SpeedProbe) -> Tuple[Dict[str, List[float]], Dict[str, int], Dict[str, int]]:
    """Sum the traces of one repetition's commands, times at reference speed."""
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    edges: Dict[str, int] = {}
    for path, proc in zip(it.traces, it.procs):
        data = json.loads(path.read_text(encoding="utf-8"))
        factor = speed.factor(proc.start, proc.end)
        for name, (calls, total_s, self_s) in data["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total_s * factor
            acc[2] += self_s * factor
        for target, source in ((counts, data["counts"]), (edges, data["edges"])):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
    return stats, counts, edges


def ratio(a: float, b: float) -> float:
    """a / b, or 0 where the workload never exercises the denominator."""
    return a / b if b else 0.0


def layer_metrics(traced: Iteration, plain: Iteration, speed: SpeedProbe) -> Dict[str, Tuple[float, str]]:
    stats, counts, edges = load_traces(traced, speed)
    row = lambda name: stats.get(name, [0, 0.0, 0.0])  # noqa: E731
    calls = lambda name: int(row(name)[0])  # noqa: E731
    self_s = lambda name: row(name)[2]  # noqa: E731
    f_calls = calls("functions.eval_mp")
    build_evals = edges.get("witness.build_witness>witness.evaluate_ones_form", 0)
    # Certified points: those built, or for the verify command those checked.
    cert_points = counts.get("witness.built_points", 0) or counts.get("witness.verified_points", 0)
    terms = counts.get("quadform.neumaier_sum.terms", 0)
    return {
        "registry.resolve_s": (sum(row(f"registry.resolve_{x}")[1] for x in ("kernel", "function", "sequence")), "s"),
        "functions.eval_mp.calls": (f_calls, "count"),
        "functions.eval_mp.self_s": (self_s("functions.eval_mp"), "s"),
        "functions.eval_mp.us_per_call": (ratio(1e6 * self_s("functions.eval_mp"), f_calls), "us"),
        "witness.f_evals_per_cert_point": (ratio(f_calls, cert_points), "ratio"),
        "witness.evaluate_ones_form.calls": (calls("witness.evaluate_ones_form"), "count"),
        "witness.evaluate_ones_form.points": (counts.get("witness.evaluate_ones_form.points", 0), "count"),
        "witness.evaluate_ones_form.self_s": (self_s("witness.evaluate_ones_form"), "s"),
        "quadform.neumaier_sum.terms": (terms, "count"),
        "quadform.neumaier_sum.self_s": (self_s("quadform.neumaier_sum"), "s"),
        "quadform.neumaier_sum.ns_per_term": (ratio(1e9 * self_s("quadform.neumaier_sum"), terms), "ns"),
        "quadform.assemble_gram.pairs": (counts.get("quadform.assemble_gram.pairs", 0), "count"),
        "quadform.assemble_gram.self_s": (self_s("quadform.assemble_gram"), "s"),
        "quadform.quadratic_form.self_s": (self_s("quadform.quadratic_form"), "s"),
        "kernels.eval_mp.calls": (calls("kernels.eval_mp"), "count"),
        "kernels.eval_mp.self_s": (self_s("kernels.eval_mp"), "s"),
        "kernels.value_mp.calls": (calls("kernels.value_mp"), "count"),
        "kernels.value_mp.self_s": (self_s("kernels.value_mp"), "s"),
        "witness.doublings": (build_evals - calls("witness.build_witness"), "count"),
        "witness.useful_eval_ratio": (ratio(counts.get("witness.certificates_built", 0), build_evals), "ratio"),
        "witness.find_ell.calls": (calls("witness.find_ell"), "count"),
        "witness.find_ell.self_s": (self_s("witness.find_ell"), "s"),
        "witness.build_witness.self_s": (self_s("witness.build_witness"), "s"),
        "witness.verify_certificate.self_s": (self_s("witness.verify_certificate"), "s"),
        "sequences.points.n": (counts.get("sequences.points.n", 0), "count"),
        "sequences.points.self_s": (self_s("sequences.points"), "s"),
        "serialize.witness_to_dict.points": (counts.get("serialize.witness_to_dict.points", 0), "count"),
        "serialize.witness_to_dict.self_s": (self_s("serialize.witness_to_dict"), "s"),
        "serialize.canonical_dumps.bytes": (counts.get("serialize.canonical_dumps.bytes", 0), "bytes"),
        "serialize.canonical_dumps.self_s": (self_s("serialize.canonical_dumps"), "s"),
        "serialize.witness_from_dict.points": (counts.get("serialize.witness_from_dict.points", 0), "count"),
        "serialize.witness_from_dict.self_s": (self_s("serialize.witness_from_dict"), "s"),
        "serialize.load_json.self_s": (self_s("serialize.load_json"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_s": (traced.ref_wall_s(speed) - plain.ref_wall_s(speed), "s"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the workloads take no random input")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (SRC / "rkhs_cert" / "cli.py").is_file():
        print(f"perfbench: no rkhs_cert sources under {SRC}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    # Every command, and the speed calibrator, inherits this one CPU.
    os.sched_setaffinity(0, {min(cpus)})
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    speed = SpeedProbe(work)
    try:
        try:
            facts = check_program(work, len(cpus))
        except ProgramMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(f"workload {w.name} seed {args.seed} (no random input) trace {args.trace}")
        print("machine " + json.dumps(facts, sort_keys=True))
        gate = Gate()
        certs = produce_certificates(w, work, gate) if w.certificates else []
        if args.trace:
            plain = one_iteration(w, work, "plain", gate, certs, traced=False)
            traced = one_iteration(w, work, "traced", gate, certs, traced=True)
            metrics = layer_metrics(traced, plain, speed)
            print(f"raw wall untraced {plain.wall_s:.4f} s, traced {traced.wall_s:.4f} s")
        else:
            try:
                raw_setup_s, setup_s = measure_setup(w, work, speed)
            except ProgramMissing as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 2
            iterations = repeat(w, work, gate, args.seconds, certs)
            metrics = end_to_end(iterations, setup_s, speed)
            last = iterations[-1]
            print(f"repetitions {len(iterations)}")
            print("  raw wall s      " + " ".join(f"{it.wall_s:.4f}" for it in iterations))
            print("  reference-speed " + " ".join(f"{it.ref_wall_s(speed):.4f}" for it in iterations))
            print(f"  raw setup s     {raw_setup_s:.4f}")
            print_lines(
                "outputs (per repetition)",
                {"report_bytes": (last.report_bytes, "bytes"), "cert_bytes": (last.cert_bytes, "bytes")},
            )
        if certs:
            check_tampered(certs, work, gate)
        print_lines("metrics", metrics)
        print(f"failed_frac {gate.failed}/{gate.attempted} = {gate.failed / max(gate.attempted, 1):.6g}")
        for problem in gate.problems:
            print(f"problem: {problem}")
        result = {
            "correct": gate.correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
