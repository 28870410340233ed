"""The perfbench trace harness still finds every call site it patches.

``perfbench/trace_child.py`` wraps functions by name (``witness.find_ell``,
``witness.evaluate_ones_form``, ``cli.verify_certificate`` and others), so a
rename in the program breaks ``perfbench/run.py --trace 1``.  This runs it on
``verify`` of one small certificate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from rkhs_cert.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_trace_child_runs_verify(tmp_path, capsys):
    cert, trace = tmp_path / "cert.json", tmp_path / "trace.json"
    args = ["--kernel", "gaussian", "--function", "paper_example", "--c", "0.5", "--out", str(cert)]
    assert main(["witness"] + args) == 0
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(trace), "verify", str(cert)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    stats = json.loads(trace.read_text())["stats"]
    assert stats["functions.eval_mp"][0] > 0
    assert stats["witness.verify_certificate"][0] == 1
