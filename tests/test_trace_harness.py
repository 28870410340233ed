"""The perfbench trace harness still finds every call site it patches.

``perfbench/trace_child.py`` wraps functions by name (``witness.find_ell``,
``witness.evaluate_ones_form``, ``cli.verify_certificate``,
``cli.build_witness``, ``cli.resolve_kernel`` and others), so a rename in the
program breaks ``perfbench/run.py --trace 1``.  This runs it on ``witness``,
on ``verify`` of one small certificate, on a one-scale ``run`` with and
without ``--certs-dir``, on one over float points and on ``psd-check``, and
checks that the kernel layer's counters (``kernels.eval_mp``,
``kernels.value_mp``), which the benchmark reports, still count calls, and
that ``functions.eval_mp`` counts one call per window for a function that
never reads its point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from rkhs_cert.cli import main

ROOT = Path(__file__).resolve().parents[1]
WITNESS = ["--kernel", "gaussian", "--function", "paper_example"]


def _traced(tmp_path, *argv):
    """The per-name stats of ``rkhs-cert argv`` run under the trace harness."""
    trace = tmp_path / "trace.json"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(trace), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())["stats"]


def test_trace_child_runs_verify(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["witness"] + WITNESS + ["--c", "0.5", "--out", str(cert)]) == 0
    stats = _traced(tmp_path, "verify", str(cert))
    assert stats["functions.eval_mp"][0] > 0
    assert stats["witness.verify_certificate"][0] == 1


def test_trace_child_runs_witness(tmp_path):
    stats = _traced(tmp_path, "witness", *WITNESS, "--c", "0.5", "--out", str(tmp_path / "cert.json"))
    assert stats["witness.build_witness"][0] == 1
    assert stats["registry.resolve_kernel"][0] == 1


def test_trace_child_runs_a_one_scale_run(tmp_path):
    stats = _traced(tmp_path, "run", *WITNESS, "--c-grid", "0.5", "--out", str(tmp_path / "r.json"))
    assert stats["registry.resolve_kernel"][0] >= 1
    assert stats["witness.find_ell"][0] == 1
    assert stats["witness.verify_certificate"][0] == 1
    assert stats["serialize.canonical_dumps"][0] == 1
    assert stats["functions.eval_mp"][0] > 0
    assert stats["kernels.value_mp"][0] > 0


def test_trace_child_counts_one_evaluation_per_window_of_a_constant(tmp_path):
    # constant:1.0 never reads x, so each window (built, then verified) costs one f evaluation
    out = tmp_path / "r.json"
    stats = _traced(tmp_path, "run", "--function", "constant:1.0", "--c-grid", "0.5", "--out", str(out))
    (cert,) = json.loads(out.read_text())["results"]["witness"]["certificates"]
    assert cert["n_points"] > 1
    assert stats["witness.evaluate_ones_form"][0] == 2
    assert stats["functions.eval_mp"][0] == 2


def test_trace_child_runs_a_one_scale_run_on_float_points(tmp_path):
    # a float window's keys come from its converted points, not the points themselves
    argv = ["--sequence", "arithmetic:7.5", "--c-grid", "0.5", "--out", str(tmp_path / "r.json")]
    stats = _traced(tmp_path, "run", *WITNESS, *argv)
    assert stats["witness.evaluate_ones_form"][0] >= 2  # built and verified
    assert stats["kernels.value_mp"][0] > 0


def test_trace_child_runs_a_one_scale_run_writing_certificates(tmp_path):
    # each certificate is turned into a dict once, and dumped once for its file
    certs = tmp_path / "certs"
    argv = ["--c-grid", "0.5", "--out", str(tmp_path / "r.json"), "--certs-dir", str(certs)]
    stats = _traced(tmp_path, "run", *WITNESS, *argv)
    files = sorted(certs.glob("certificate_*.json"))
    assert len(files) == 1
    assert stats["serialize.witness_to_dict"][0] == len(files)
    assert stats["serialize.canonical_dumps"][0] == 1 + len(files)
    assert stats["witness.verify_certificate"][0] == len(files)


def test_trace_child_runs_a_psd_check(tmp_path):
    stats = _traced(tmp_path, "psd-check", "--kernel", "gaussian", "--out", str(tmp_path / "psd.json"))
    assert stats["registry.resolve_kernel"][0] == 1
    assert stats["kernels.eval_mp"][0] > 0
