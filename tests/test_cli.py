import argparse
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rkhs_cert import cli
from rkhs_cert.cli import ALL_TASKS, RunConfig, build_parser, config_from_dict, main, run
from rkhs_cert.errors import ConfigError
from rkhs_cert.registry import resolve_function, resolve_kernel, resolve_sequence
from rkhs_cert.sequences import SequenceSpec
from rkhs_cert.serialize import (
    canonical_dumps,
    load_certificate,
    load_json,
    number_to_str,
    witness_from_dict,
    witness_to_dict,
)
from rkhs_cert.witness import MAX_WINDOW_POINTS, build_witness, sweep_c
from test_serialize import _JSON, _cert


# --- config parsing ----------------------------------------------------------


def test_config_defaults_fill_in():
    cfg = config_from_dict({})
    assert cfg.kernel == "gaussian"
    assert cfg.tasks == ("witness",)
    assert cfg.precision_bits == 256
    assert cfg.jobs == 1


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"kernell": "gaussian"})
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"witness": {"doubling": 3}})
    with pytest.raises(ConfigError, match="unknown tasks"):
        config_from_dict({"tasks": ["witness", "bogus"]})
    with pytest.raises(ConfigError):
        config_from_dict({"tasks": []})
    with pytest.raises(ConfigError):
        config_from_dict({"c_grid": [1.0, -0.5]})
    with pytest.raises(ConfigError):
        config_from_dict({"precision_bits": 32})
    with pytest.raises(ConfigError):
        config_from_dict({"jobs": 0})
    with pytest.raises(ConfigError):
        config_from_dict("gaussian")


def test_config_echo_omits_jobs():
    cfg = config_from_dict({"jobs": 4, "c_grid": [1.0]})
    echoed = cfg.to_dict()
    assert "jobs" not in echoed
    assert echoed["c_grid"] == [1.0]


def test_run_config_covers_all_tasks():
    assert set(ALL_TASKS) == {"psd", "decay", "witness", "analytic", "interpolant"}


# --- full runs through main() --------------------------------------------------


def _run_report(tmp_path, name, argv_extra):
    out = tmp_path / name
    code = main(["run", "--out", str(out)] + argv_extra)
    return code, (load_json(out) if out.exists() else None)


def test_run_witness_end_to_end(tmp_path, capsys):
    code, report = _run_report(
        tmp_path,
        "r.json",
        ["--function", "constant:1.0", "--c-grid", "1,0.5", "--tasks", "witness"],
    )
    assert code == 0
    assert report["schema"] == "rkhs-cert/report/v2"
    assert report["task_errors"] == {}
    witness = report["results"]["witness"]
    assert len(witness["certificates"]) == 2
    assert witness["all_verified"] is True
    assert report["verdict_summary"].startswith("non-membership witnessed")
    assert "jobs" not in report["config"]
    assert capsys.readouterr().out.strip().endswith("negativity certificate")


def test_rerun_is_byte_identical(tmp_path):
    args = ["--function", "constant:1.0", "--c-grid", "1,0.5"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "--out", str(out1)] + args) == 0
    assert main(["run", "--out", str(out2)] + args) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "grid,jobs",
    [("1,0.5,0.25", 3), ("0.25,1,0.5,0.25", 2), ("0.25,1,0.5,0.25", 5)],
    ids=["sorted-3", "repeated-2", "repeated-5"],
)
def test_jobs_do_not_change_report_bytes(tmp_path, grid, jobs):
    args = ["--function", "constant:1.0", "--c-grid", grid]
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["run", "--out", str(serial), "--jobs", "1"] + args) == 0
    assert main(["run", "--out", str(parallel), "--jobs", str(jobs)] + args) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    witness = load_json(serial)["results"]["witness"]
    assert [float(c["c"]) for c in witness["certificates"]] == [float(c) for c in grid.split(",")]


def test_certificates_written_and_verifiable(tmp_path, capsys):
    certs = tmp_path / "certs"
    out = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--out",
            str(out),
            "--certs-dir",
            str(certs),
            "--function",
            "constant:1.0",
            "--c-grid",
            "1,0.5",
        ]
    )
    assert code == 0
    files = sorted(certs.glob("certificate_*.json"))
    assert len(files) == 2
    for path in files:
        assert main(["verify", str(path)]) == 0
    assert "certificate verified" in capsys.readouterr().out


def test_verify_detects_tampering(tmp_path, capsys):
    certs = tmp_path / "certs"
    out = tmp_path / "r.json"
    main(
        [
            "run",
            "--out",
            str(out),
            "--certs-dir",
            str(certs),
            "--function",
            "constant:1.0",
            "--c-grid",
            "1,0.125",
        ]
    )
    path = certs / "certificate_00.json"
    data = json.loads(path.read_text())
    data["n_points"] = 2
    data["points"] = data["points"][:2]
    (tmp_path / "short.json").write_text(json.dumps(data))
    assert main(["verify", str(tmp_path / "short.json")]) == 2
    assert "FAILED" in capsys.readouterr().err
    # A repeated point fails in a window of any size (N = 3 and N = 129).
    for name, n in (("certificate_00.json", 3), ("certificate_01.json", 129)):
        data = json.loads((certs / name).read_text())
        assert data["n_points"] == n
        data["points"][1] = data["points"][0]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("certificate FAILED verification")
        assert err.count("\n") == 1 and "Traceback" not in err
    # The form is symmetric in the points, so a swapped pair still verifies.
    data = json.loads((certs / "certificate_01.json").read_text())
    data["points"][60], data["points"][61] = data["points"][61], data["points"][60]
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 0


def test_verify_missing_file_is_config_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 1


def test_multi_task_run(tmp_path):
    code, report = _run_report(
        tmp_path,
        "multi.json",
        [
            "--function",
            "paper_example",
            "--c-grid",
            "1,0.5",
            "--tasks",
            "psd,decay,witness,analytic,interpolant",
        ],
    )
    assert code == 0
    assert set(report["results"]) == {"psd", "decay", "witness", "analytic", "interpolant"}
    assert report["task_errors"] == {}
    labels = [entry["label"] for entry in report["results"]["psd"]]
    assert labels == ["gram", "schur_control:x0=0.0"]
    assert all(entry["is_psd"] for entry in report["results"]["psd"])
    assert report["results"]["decay"]["passed"] is True
    assert report["results"]["decay"]["evidence"] == "proved"


def test_task_error_sets_exit_2_but_writes_report(tmp_path, capsys):
    code, report = _run_report(
        tmp_path,
        "err.json",
        ["--kernel", "laplace", "--tasks", "analytic"],
    )
    assert code == 2
    assert "analytic" in report["task_errors"]
    assert report["verdict_summary"] == "diagnostics only: no witness task requested"
    assert "errored" in capsys.readouterr().err


def test_unknown_kernel_exits_1(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--out", str(out), "--kernel", "sombrero"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_c_grid_exits_1(tmp_path):
    assert main(["run", "--out", str(tmp_path / "r.json"), "--c-grid", "1,abc"]) == 1


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "r.json"
    code = main(
        ["run", "--out", str(out), "--function", "constant:1.0", "--c-grid", "1"]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, error",
    [("run", "config error: cannot write certificates"), ("witness", "config error: cannot write output file")],
)
def test_certificate_write_failing_part_way_leaves_no_file(tmp_path, monkeypatch, capsys, command, error):
    """A disk that fills part-way through a certificate's points: exit 1 with
    a one-line error, and no certificate file left, partial or temporary."""
    from rkhs_cert import serialize
    from rkhs_cert.functions import make_constant
    from rkhs_cert.kernels import make_gaussian
    from rkhs_cert.sequences import triangular_sequence
    from rkhs_cert.serialize import canonical_dumps
    from rkhs_cert.witness import build_witness

    cert = build_witness(make_gaussian(), make_constant(1.0), triangular_sequence(1), 0.25)
    text = canonical_dumps(witness_to_dict(cert))
    room = text.index('"points": [') + 40  # the disk fills after the first few points
    assert room < text.index("]")

    class FullDisk:
        """A file that takes ``room`` characters, then fails as a full disk does."""

        def __init__(self, file):
            self.file, self.room = file, room

        def write(self, part):
            if len(part) > self.room:
                self.file.write(part[: self.room])
                raise OSError(28, "No space left on device")
            self.room -= len(part)
            return self.file.write(part)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

    monkeypatch.setattr(serialize, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs)), raising=False)
    monkeypatch.setattr(serialize, "POINT_CHUNK", 3)
    certs, out = tmp_path / "certs", tmp_path / "r.json"
    argv = ["--kernel", "gaussian", "--function", "constant:1.0"]
    if command == "run":
        argv += ["--c-grid", "0.25", "--out", str(out), "--certs-dir", str(certs)]
    else:
        certs.mkdir()
        argv += ["--c", "0.25", "--out", str(certs / "certificate_00.json")]
    assert main([command] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert list(certs.iterdir()) == []
    assert not out.exists()


def test_config_file_and_overrides(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "kernel": "inverse_quadratic",
                "function": "constant:1.0",
                "tasks": ["witness"],
                "c_grid": [0.5],
            }
        )
    )
    out = tmp_path / "r.json"
    code = main(["run", "--config", str(config), "--out", str(out), "--c-grid", "1"])
    assert code == 0
    report = load_json(out)
    assert report["config"]["kernel"] == "inverse_quadratic"
    assert report["config"]["c_grid"] == [1.0]


def test_config_file_invalid_json(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 1


# --- single-purpose subcommands --------------------------------------------------


def test_witness_subcommand_prints_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        [
            "witness",
            "--kernel",
            "gaussian",
            "--function",
            "constant:1.0",
            "--c",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "witness found: N=3 ell=0" in captured
    assert out.exists()
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("function", ["constant:-2.5", "poly:3", "poly:1,-0.5,0.25"])
def test_witness_subcommand_threshold_of_one_point(tmp_path, capsys, function):
    out = tmp_path / "cert.json"
    argv = ["witness", "--kernel", "gaussian", "--function", function, "--c", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert "witness found: N=2 " in capsys.readouterr().out
    assert main(["verify", str(out)]) == 0


def test_run_with_threshold_of_one_point_verifies_every_scale(tmp_path):
    out = tmp_path / "r.json"
    argv = ["run", "--function", "constant:-2.5", "--c-grid", "1,0.5", "--out", str(out)]
    assert main(argv) == 0
    witness = load_json(out)["results"]["witness"]
    assert witness["verified_scales"] == ["1.0", "0.5"]
    assert witness["failures"] == []


def test_witness_subcommand_member_control(capsys):
    code = main(
        [
            "witness",
            "--kernel",
            "gaussian",
            "--function",
            "kernel_section:0.0",
            "--alpha",
            "1.0",
            "--c",
            "1.0",
        ]
    )
    assert code == 2
    assert "no witness" in capsys.readouterr().err


def test_witness_subcommand_rejects_bad_scale(capsys):
    # witness flags pass the checks of the config keys they set, as run's do
    argv = ["witness", "--kernel", "gaussian", "--function", "constant:1.0"]
    bad = [["--c", "-1"], ["--c", "inf"], ["--c", "1", "--alpha", "inf"], ["--c", "1", "--precision-bits", "8"]]
    for flags in bad:
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def test_decay_check_subcommand(capsys):
    assert main(["decay-check", "--kernel", "gaussian", "--threshold", "1e-8"]) == 0
    assert "decay check passed (evidence: proved)" in capsys.readouterr().out
    assert main(["decay-check", "--kernel", "exp_product"]) == 0
    assert "failed: divergent" in capsys.readouterr().out


def test_psd_check_subcommand(capsys):
    assert main(["psd-check", "--kernel", "inverse_quadratic", "--num-points", "6"]) == 0
    out = capsys.readouterr().out
    assert "gram=PSD" in out
    assert "schur_control:x0=0.0=PSD" in out


def test_derivatives_subcommand(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["derivatives", "--kernel", "gaussian", "--n-max", "4", "--out", str(out)]) == 0
    assert "envelope dominates" in capsys.readouterr().out
    report = load_json(out)
    assert report["results"]["analytic"]["dnn_values"] == ["1", "2", "12", "120", "1680"]
    assert main(["derivatives", "--kernel", "laplace"]) == 2


def test_interp_norm_subcommand(capsys):
    code = main(
        [
            "interp-norm",
            "--kernel",
            "gaussian",
            "--function",
            "paper_example",
            "--points",
            "1,3,6",
            "--steps",
            "3",
        ]
    )
    assert code == 0
    assert "interpolant norms over 4 nested sets" in capsys.readouterr().out


def test_run_api_returns_report_and_code():
    cfg = RunConfig(function="constant:1.0", c_grid=(1.0,), tasks=("witness",))
    report, code = run(cfg)
    assert code == 0
    assert report["results"]["witness"]["all_verified"] is True


# --- declared domains ----------------------------------------------------------


def test_domain_config_validation():
    with pytest.raises(ConfigError, match="unknown domain kind"):
        config_from_dict({"domain": {"kind": "half_line"}})
    with pytest.raises(ConfigError, match="needs endpoints"):
        config_from_dict({"domain": {"kind": "interval"}})
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict({"domain": {"kind": "interval", "endpoints": [2.0, 1.0]}})
    with pytest.raises(ConfigError, match="two finite"):
        config_from_dict({"domain": {"kind": "interval", "endpoints": [1.0]}})
    with pytest.raises(ConfigError, match="points only apply"):
        config_from_dict(
            {"domain": {"kind": "interval", "endpoints": [0.0, 1.0], "points": [2.0]}}
        )
    with pytest.raises(ConfigError, match="endpoints only apply"):
        config_from_dict({"domain": {"kind": "full_line", "endpoints": [0.0, 1.0]}})
    with pytest.raises(ConfigError, match="needs a list"):
        config_from_dict({"domain": {"kind": "finite_set"}})
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict({"domain": {"kind": "finite_set", "points": [1.0, 1.0]}})
    with pytest.raises(ConfigError, match="nonempty"):
        config_from_dict({"domain": {"kind": "finite_set", "points": []}})
    with pytest.raises(ConfigError, match="no accumulation point"):
        config_from_dict(
            {"domain": {"kind": "finite_set", "points": [1.0], "has_accumulation_point": True}}
        )
    with pytest.raises(ConfigError, match="always has accumulation points"):
        config_from_dict({"domain": {"kind": "full_line", "has_accumulation_point": False}})
    with pytest.raises(ConfigError, match="must be a boolean"):
        config_from_dict({"domain": {"kind": "full_line", "has_accumulation_point": "yes"}})


def test_domain_defaults_and_echo():
    cfg = config_from_dict({})
    assert cfg.domain_kind == "full_line"
    assert cfg.has_accumulation_point is True
    assert cfg.to_dict()["domain"] == {
        "kind": "full_line",
        "endpoints": None,
        "points": None,
        "has_accumulation_point": True,
    }
    cfg = config_from_dict({"domain": {"kind": "finite_set", "points": [1.0, 3.0]}})
    assert cfg.has_accumulation_point is False
    cfg = config_from_dict({"domain": {"kind": "interval", "endpoints": [-1, 1]}})
    assert cfg.domain_endpoints == (-1.0, 1.0)
    assert cfg.to_dict()["domain"]["endpoints"] == [-1.0, 1.0]


def test_domain_transfer_note_on_witness_results():
    base = {"function": "constant:1.0", "c_grid": [1.0]}
    report, code = run(config_from_dict(dict(base)))
    assert code == 0
    note = report["results"]["witness"]["domain_transfer"]
    assert note.startswith("certificates apply directly")

    interval = dict(base, domain={"kind": "interval", "endpoints": [0.0, 5.0]})
    report, code = run(config_from_dict(interval))
    assert code == 0
    note = report["results"]["witness"]["domain_transfer"]
    assert note.startswith("restriction remark:")
    assert "accumulation point" in note

    finite = dict(base, domain={"kind": "finite_set", "points": [1.0, 3.0, 6.0]})
    report, code = run(config_from_dict(finite))
    assert code == 0
    note = report["results"]["witness"]["domain_transfer"]
    assert note.startswith("restriction remark withheld")

    # H^1 bumps equal to 1 on [0, 1] lie in the Laplace kernel's space, so the
    # remark would be false there; that kernel declares no analytic constants
    laplace = dict(base, kernel="laplace", c_grid=[1.0, 0.5], domain={"kind": "interval", "endpoints": [0, 1]})
    report, code = run(config_from_dict(laplace))
    assert code == 0 and report["results"]["witness"]["verified_scales"] == ["1.0", "0.5"]
    note = report["results"]["witness"]["domain_transfer"]
    assert note.startswith("restriction remark withheld: kernel laplace has no checked analytic constants")


# --- fixed task order ------------------------------------------------------------


def test_tasks_execute_in_fixed_order():
    cfg = config_from_dict(
        {"function": "constant:1.0", "tasks": ["analytic", "decay", "psd"]}
    )
    report, code = run(cfg)
    assert code == 0
    assert list(report["results"]) == ["psd", "decay", "analytic"]
    # the echo still reflects the order the user wrote
    assert report["config"]["tasks"] == ["analytic", "decay", "psd"]


def test_duplicate_tasks_rejected():
    with pytest.raises(ConfigError, match="must not repeat"):
        config_from_dict({"tasks": ["psd", "psd"]})


# --- verdict vocabulary -----------------------------------------------------------


def test_member_control_run_reports_positive_control(tmp_path, capsys):
    out = tmp_path / "member.json"
    code = main(
        [
            "run",
            "--function",
            "kernel_section:0.0",
            "--c-grid",
            "1",
            "--alpha",
            "1.0",
            "--out",
            str(out),
        ]
    )
    # a completed sweep with recorded failures is not a task error
    assert code == 0
    assert "positive-control passed" in capsys.readouterr().out
    report = load_json(out)
    assert report["task_errors"] == {}
    assert report["verdict_summary"].startswith("positive-control passed")
    witness = report["results"]["witness"]
    assert witness["certificates"] == []
    assert witness["failures"][0]["reason"].startswith("doubling-cap-exhausted")
    assert witness["alpha_provenance"] == "declared"


def test_starved_window_reports_inconclusive():
    # alpha declared far above the true tail keeps every window below the
    # size where the all-ones form could turn negative
    cfg = config_from_dict(
        {
            "function": "constant:1.0",
            "c_grid": [2.0 ** -8],
            "witness": {"alpha": 100.0},
        }
    )
    report, code = run(cfg)
    assert code == 0
    assert report["verdict_summary"].startswith("inconclusive")
    assert report["results"]["witness"]["failures"][0]["reason"].startswith(
        "doubling-cap-exhausted"
    )


def _no_window_beyond_the_search_limit(monkeypatch):
    """Make a request for more than MAX_WINDOW_POINTS sequence points fail at once, not generate them."""
    points = SequenceSpec.points

    def bounded(self, start, count):
        assert count <= MAX_WINDOW_POINTS, f"asked for {count} sequence points"
        return points(self, start, count)

    monkeypatch.setattr(SequenceSpec, "points", bounded)


@pytest.mark.parametrize("c", ["1e-4", "1e-300"])
def test_witness_beyond_the_window_limit_exits_2_at_once(monkeypatch, capsys, c):
    # paper_example needs N = 1,477,811,220 at c = 10^-4 and about 1.5 * 10^601
    # at 10^-300: the search refuses either window before any of its points
    _no_window_beyond_the_search_limit(monkeypatch)
    start = time.perf_counter()
    code = main(["witness", "--kernel", "gaussian", "--function", "paper_example", "--c", c])
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("no witness: window of 1.47781e+") and err.count("\n") == 1
    assert err.endswith(f"points exceeds the search limit of {MAX_WINDOW_POINTS}\n")


def test_run_fails_the_scales_beyond_the_window_limit_and_certifies_the_rest(monkeypatch):
    _no_window_beyond_the_search_limit(monkeypatch)
    report, code = run(config_from_dict({"function": "paper_example", "c_grid": [1.0, 1e-4, 0.5, 1e-300]}))
    assert code == 0
    assert report["verdict_summary"].startswith("inconclusive")
    witness = report["results"]["witness"]
    assert [cert["c"] for cert in witness["certificates"]] == ["1.0", "0.5"]
    assert [float(failure["c"]) for failure in witness["failures"]] == [1e-4, 1e-300]
    assert all(failure["reason"].startswith("window-too-large") for failure in witness["failures"])


def test_config_witness_alpha_validation():
    with pytest.raises(ConfigError, match="alpha must be positive"):
        config_from_dict({"witness": {"alpha": -2.0}})


# --- csv tables --------------------------------------------------------------------


def _read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_csv_tables_written_and_deterministic(tmp_path, capsys):
    args = [
        "run",
        "--function",
        "constant:1.0",
        "--c-grid",
        "1,0.5",
        "--tasks",
        "witness,decay,psd",
    ]
    csv1 = tmp_path / "tables1"
    out1 = tmp_path / "r1.json"
    assert main(args + ["--out", str(out1), "--csv-dir", str(csv1)]) == 0
    assert "wrote 3 csv table(s)" in capsys.readouterr().out
    assert sorted(p.name for p in csv1.iterdir()) == ["decay.csv", "psd.csv", "witness.csv"]

    rows = _read_csv(csv1 / "witness.csv")
    assert rows[0] == ["c", "status", "n_points", "ell", "r_value", "verified", "detail"]
    report = load_json(out1)
    witness = report["results"]["witness"]
    assert [r[0] for r in rows[1:]] == witness["c_values"]
    for row in rows[1:]:
        assert row[1] == "certificate"
        assert row[5] == "true"
        assert row[6] == ""
    assert rows[1][2] == "3"  # N at c=1
    assert rows[1][4] == witness["certificates"][0]["r_value"]

    decay_rows = _read_csv(csv1 / "decay.csv")
    assert decay_rows[0] == ["ell", "max_offdiag"]
    assert len(decay_rows) == len(report["results"]["decay"]["ell_values"]) + 1

    psd_rows = _read_csv(csv1 / "psd.csv")
    assert psd_rows[0] == ["label", "is_psd", "min_pivot_or_eigenvalue", "tolerance_used"]
    assert [r[0] for r in psd_rows[1:]] == ["gram", "schur_control:x0=0.0"]
    assert all(r[1] == "true" for r in psd_rows[1:])

    csv2 = tmp_path / "tables2"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out2), "--csv-dir", str(csv2)]) == 0
    for name in ("witness.csv", "decay.csv", "psd.csv"):
        assert (csv1 / name).read_bytes() == (csv2 / name).read_bytes()


def test_csv_failure_rows_and_diagnostic_tables(tmp_path):
    tables = tmp_path / "tables"
    out = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--function",
            "kernel_section:0.0",
            "--c-grid",
            "1",
            "--alpha",
            "1.0",
            "--tasks",
            "witness,analytic,interpolant",
            "--out",
            str(out),
            "--csv-dir",
            str(tables),
        ]
    )
    assert code == 0
    rows = _read_csv(tables / "witness.csv")
    assert len(rows) == 2
    assert rows[1][1] == "failure"
    assert rows[1][2] == ""  # no window size for a failed scale
    assert rows[1][6].startswith("doubling-cap-exhausted")

    report = load_json(out)
    analytic_rows = _read_csv(tables / "analytic.csv")
    assert analytic_rows[0] == ["order", "dnn_value", "exact_bound", "bound_curve", "fd_value"]
    assert len(analytic_rows) == len(report["results"]["analytic"]["orders"]) + 1
    assert analytic_rows[1][0] == "0" and analytic_rows[1][4] == ""  # no stencil at order 0
    assert analytic_rows[2][4] != "" and analytic_rows[3][4] != ""  # orders 1 and 2
    assert analytic_rows[4][4] == ""

    interp_rows = _read_csv(tables / "interpolant.csv")
    assert interp_rows[0] == ["step", "num_points", "norm", "precision_bits"]
    assert len(interp_rows) == len(report["results"]["interpolant"]["norms"]) + 1
    assert [r[0] for r in interp_rows[1:]] == [str(i) for i in range(len(interp_rows) - 1)]


def test_csv_dir_unwritable(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    out = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--function",
            "constant:1.0",
            "--c-grid",
            "1",
            "--out",
            str(out),
            "--csv-dir",
            str(blocker),
        ]
    )
    assert code == 1


# sha256 of each table of a two-scale constant:1.0 run with every task,
# recorded before the tasks' rows were read from one table of tasks.
CSV_DIGESTS = {
    "psd.csv": "e9d530b51472a3d6e42870be25c87058d8952f0a0e0846564c6110c1ca50994c",
    "decay.csv": "c3b519719c5100c61c9a21652769ff9650799f3ddc7b4c5dc61f19cbb2591231",
    "witness.csv": "518df67a55e2a35eb7c9a40042b661e0da866c1d86ce82ba4a413272542a51c8",
    "analytic.csv": "3e655c59f9ca13d599d366bf7a0a9a5ac6a29d60f5f42778f0a2a4184c20b011",
    "interpolant.csv": "46bc6ff34bfea618c7ea7da6fa123d9f89f35a5b492ba6093f7467aea32a7d2f",
}


def test_csv_table_bytes_are_pinned(tmp_path, capsys):
    tables = tmp_path / "tables"
    argv = ["run", "--function", "constant:1.0", "--c-grid", "1,0.5", "--tasks", ",".join(ALL_TASKS)]
    assert main(argv + ["--out", str(tmp_path / "r.json"), "--csv-dir", str(tables)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote 5 csv table(s) to {tables}\n")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tables.iterdir()}
    assert digests == CSV_DIGESTS


# --- single-task summary lines and every subcommand's flags, pinned ---------------


@pytest.mark.parametrize(
    "argv, line",
    [
        (["decay-check", "--kernel", "gaussian", "--threshold", "1e-8"], "decay check passed (evidence: proved)"),
        (["decay-check", "--kernel", "exp_product"], "decay check failed: divergent (evidence: empirical)"),
        (["psd-check", "--kernel", "inverse_quadratic", "--num-points", "6"],
         "psd check: gram=PSD, schur_control:x0=0.0=PSD"),
        (["derivatives", "--kernel", "gaussian", "--n-max", "4"],
         "derivative bounds tabulated for orders 0..4; envelope dominates at every order"),
        (["interp-norm", "--kernel", "gaussian", "--function", "paper_example", "--points", "1,3,6", "--steps", "3"],
         "interpolant norms over 4 nested sets; divergence evidence: False"),
    ],
    ids=["decay-check-passed", "decay-check-failed", "psd-check", "derivatives", "interp-norm"],
)
def test_single_task_summary_line_is_pinned(capsys, argv, line):
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"


_HELP = ("-h", "--help"), "help", "show this help message and exit", False
_OUT = ("--out",), "out", "report output path", False
_KERNEL = ("--kernel",), "kernel", None, True
_SEQUENCE = ("--sequence",), "sequence", None, False
_BITS = ("--precision-bits",), "precision_bits", None, False
_ALPHA = ("--alpha",), "witness.alpha", "declared tail lower bound for the witness task", False

# Each subcommand's help, then (option strings, dest, help, required) of each of its arguments.
PARSER_PINS = {
    "run": ("execute configured diagnostic tasks", [
        _HELP,
        (("--config",), "config", "JSON config file", False),
        (("--kernel",), "kernel", None, False),
        (("--function",), "function", None, False),
        _SEQUENCE,
        (("--tasks",), "tasks", "comma-separated subset of: psd,decay,witness,analytic,interpolant", False),
        (("--c-grid",), "c_grid", "comma-separated positive scales", False),
        (("--ell-max",), "ell_max", None, False),
        _BITS,
        (("--jobs",), "jobs",
         "at most this many worker processes; scales are dealt round-robin and each worker shares f values", False),
        _ALPHA,
        (("--out",), "out", "report output path", True),
        (("--certs-dir",), "certs_dir", "also write one JSON file per certificate", False),
        (("--csv-dir",), "csv_dir", "also write one CSV table per task result", False),
    ]),
    "witness": ("build a single negativity certificate", [
        _HELP, _KERNEL, (("--function",), "function", None, True), _SEQUENCE, _ALPHA,
        (("--ell-max",), "ell_max", None, False), _BITS,
        (("--c",), "c", "the one scale of the grid", True),
        (("--out",), "out", "certificate output path", False),
    ]),
    "decay-check": ("measure off-diagonal kernel decay", [
        _HELP, _KERNEL, _SEQUENCE,
        (("--window",), "decay.window", None, False),
        (("--ell-max",), "decay.ell_max", None, False),
        (("--threshold",), "decay.threshold", None, False),
        _BITS, _OUT,
    ]),
    "psd-check": ("PSD test of the kernel Gram matrix", [
        _HELP, _KERNEL, _SEQUENCE,
        (("--points",), "psd.points", "comma-separated nodes (default: first sequence points)", False),
        (("--num-points",), "psd.num_points", None, False),
        (("--control-x0",), "psd.control_x0", None, False),
        _BITS, _OUT,
    ]),
    "derivatives": ("diagonal derivative bounds and envelope", [
        _HELP, _KERNEL,
        (("--n-max",), "analytic.n_max", None, False),
        (("--norm-bound",), "analytic.norm_bound", None, False),
        (("--fd-step",), "analytic.fd_step", None, False),
        (("--fd-x",), "analytic.fd_x", None, False),
        _BITS, _OUT,
    ]),
    "interp-norm": ("minimum-norm interpolant growth trace", [
        _HELP, _KERNEL, (("--function",), "function", None, True), _SEQUENCE,
        (("--points",), "interpolant.base_points", "comma-separated base nodes", False),
        (("--rule",), "interpolant.rule", "one of: widen,refine", False),
        (("--steps",), "interpolant.steps", None, False),
        (("--ridge",), "interpolant.ridge", None, False),
        _BITS, _OUT,
    ]),
    "verify": ("re-check a certificate from its JSON file alone", [
        _HELP, ((), "certificate", "path to a certificate JSON file", True),
    ]),
}


def test_every_subcommand_and_its_arguments_are_pinned():
    """Read from the parser as data, not as --help text, whose layout varies by Python version."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in commands._choices_actions}
    found = {
        command: (helps[command], [(tuple(a.option_strings), a.dest, a.help, a.required) for a in sub._actions])
        for command, sub in commands.choices.items()
    }
    assert found == PARSER_PINS


# --- input robustness -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--function", "constant:inf"],
        ["--function", "constant:nan"],
        ["--function", "poly:1,inf"],
        ["--function", "kernel_section:inf"],
        ["--sequence", "arithmetic:inf"],
        ["--c-grid", "1,inf"],
        ["--alpha", "inf"],
        ["--kernel", "custom:1/r"],  # phi(0) undefined
        ["--kernel", "custom:exp(1000-r)"],  # phi(0) overflows a double
        ["--function", "poly:1e308,1e308"],  # the tail bound overflows to alpha = inf
        ["--function", "expr:1e999"],  # a literal that parses to inf
    ],
)
def test_non_finite_inputs_exit_1_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(["run", "--out", str(out), "--c-grid", "1"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["decay-check", "--kernel", "gaussian", "--threshold", "nan"],
        ["derivatives", "--kernel", "gaussian", "--fd-x", "inf"],
        ["interp-norm", "--kernel", "gaussian", "--function", "paper_example", "--ridge", "nan"],
        ["psd-check", "--kernel", "gaussian", "--control-x0", "inf"],
    ],
)
def test_non_finite_config_numbers_exit_1_with_one_line(tmp_path, capsys, argv):
    # NaN and inf are no JSON numbers, so the report could not hold them
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be a finite number" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_deeply_nested_json_exits_1_with_one_line(tmp_path, capsys, command):
    # json's parser recurses once per bracket: 10^5 of them exceed the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    out = tmp_path / "r.json"
    argv = ["run", "--config", str(path), "--out", str(out)] if command == "run" else ["verify", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and "recursion" in err and err.count("\n") == 1
    assert not out.exists()


_DEEP = {"--function": ("expr:", "x"), "--kernel": ("custom:", "r"), "--sequence": ("custom:", "n")}


@pytest.mark.parametrize("terms", [250, 600, 3000])
@pytest.mark.parametrize("flag", sorted(_DEEP))
@pytest.mark.parametrize("command", ["run", "witness"])
def test_deep_expression_exits_1_with_one_line(tmp_path, capsys, command, flag, terms):
    # a sum of 250 terms overflows the nesting of the compiled source, of 600
    # the recursion of ast.unparse, of 3,000 the parser's: each one config error
    prefix, variable = _DEEP[flag]
    out = tmp_path / "r.json"
    argv = ["run", "--c-grid", "1"] if command == "run" else ["witness", "--c", "1"]
    argv += ["--kernel", "gaussian", "--function", "constant:1.0"]  # the flag below overrides its own
    assert main(argv + ["--out", str(out), flag, prefix + "+".join([variable] * terms)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "nests too deeply to compile" in err
    assert len(err.encode("utf-8")) < 300  # the expression is named by a prefix and its length
    assert not out.exists()


def test_custom_kernel_profile_must_be_a_string(tmp_path, capsys):
    with pytest.raises(ConfigError, match="profile must be an expression string"):
        resolve_kernel({"id": "custom", "profile": 5})
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps({"kernel": {"id": "custom", "profile": 5}}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["decays_to_zero", "nonneg", "monotone_decreasing", "profle"])
def test_custom_kernel_object_refuses_unknown_keys(tmp_path, capsys, key):
    # decay is proved from the profile's expression, so the old flags are
    # unknown keys like any other
    kernel = {"id": "custom", "profile": "exp(-r)", key: True}
    with pytest.raises(ConfigError, match=f"unknown custom kernel key '{key}'"):
        resolve_kernel(kernel)
    assert resolve_kernel({"id": "custom", "profile": "exp(-r)"}).kernel_id == "custom:exp(-r)"
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps({"kernel": kernel, "c_grid": [1.0]}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [{"decays_to_zero": "false"}, {"nonneg": "no"}, {"monotone_decreasing": 1}])
def test_custom_kernel_flags_must_be_bool(flags):
    # The flag values are no longer type-checked: the key is refused before its
    # value is read, so a non-bool value fails as an unknown key, not a type error
    (key,) = flags
    with pytest.raises(ConfigError, match=f"unknown custom kernel key '{key}'") as info:
        resolve_kernel({"id": "custom", "profile": "exp(-r)", **flags})
    assert "must be true or false" not in str(info.value)


@pytest.mark.parametrize(
    "profile,flag,why",
    [
        ("exp(r)", "decays_to_zero", r"phi\(2\*\*512\) = .* is not below 2\*\*-64 \* phi\(0\)"),
        ("1", "decays_to_zero", r"phi\(2\*\*512\) = 1\.0 is not below"),
        ("exp(r)", "monotone_decreasing", r"phi\(2\*\*-16\) = 1\.00002 exceeds phi\(0\) = 1\.0"),
        ("cos(r)", "nonneg", r"phi\(2\*\*1\) = -0\.416147"),
        ("sqrt(1 - r)", "nonneg", r"sqrt\(1 - r\) is undefined at r = 2\*\*1"),
    ],
)
def test_custom_kernel_flag_its_profile_breaks_exits_1(tmp_path, capsys, profile, flag, why):
    # Each flag here declares a fact its profile breaks; `why` is the sampled
    # refutation the config used to print. No profile is sampled now: the key
    # alone is refused, and the profile's own interval facts prove no decay.
    kernel = {"id": "custom", "profile": profile, flag: True}
    with pytest.raises(ConfigError, match=f"unknown custom kernel key '{flag}'"):
        resolve_kernel(kernel)
    assert resolve_kernel({"id": "custom", "profile": profile}).profile.truncation_radius() is None
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps({"kernel": kernel, "c_grid": [1.0]}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    assert flag in err and re.search(why, err) is None
    assert not out.exists()


def test_verify_search_error_exits_2_without_traceback(tmp_path, capsys):
    # This custom profile stays above 2^-(precision + 64), so it has no
    # truncation radius and a window above the dense limit cannot be
    # re-evaluated; that is a search error, exit 2.
    path = tmp_path / "cert.json"
    args = ["--kernel", "gaussian", "--function", "constant:1.0", "--c", "0.015625"]
    assert main(["witness", "--out", str(path)] + args) == 0
    data = json.loads(path.read_text())
    assert data["n_points"] == 8193
    data["kernel_id"] = "custom:1/(1 + r) + 1/2**300"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("witness search error (window-too-large)") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config",
    [
        {"c_grid": [None]},
        {"c_grid": 5},
        {"tasks": 5},
        {"jobs": None},
        {"witness": {"doubling_cap": [1]}},
        {"witness": {"doubling_cap": -1}},
        {"witness": 5},
        {"psd": {"points": [None]}},
        {"domain": {"kind": "interval", "endpoints": [0, None]}},
        {"precision_bits": 1 << 20},
        {"jobs": True},
        {"witness": {"doubling_cap": 2.7}},
        {"c_grid": [True]},
        {"decay": {"threshold": False}},
        {"interpolant": {"rule": "bogus"}},
        {"interpolant": {"rule": 5}},
        {"ell_max": -1},
        [1, 2],  # no object: a flag has no key to set
    ],
)
@pytest.mark.parametrize("extra", [[], ["--alpha", "0.5"]], ids=["config", "alpha-override"])
def test_mistyped_config_exits_1_with_one_line(tmp_path, capsys, config, extra):
    path, out = tmp_path / "config.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("points", 5),
        ("points", None),
        ("points", ["1", ["3"], "1/0"]),
        ("coefficients", 1),
        ("coefficients", {"a": 1}),
        ("n_points", None),
        ("n_points", [3]),
        ("c", None),
        ("c", {"c": 1}),
        ("precision_bits", [256]),
        ("precision_bits", "many"),
        ("precision_bits", 10**400),
        ("ell", 2.7),
        ("ell", True),
        ("n_points", "15"),
        ("precision_bits", 256.0),
        # a kernel value at such a point would take longer than any test
        ("points", ["1e99999999", "3", "6"]),
        ("ell", -7),
    ],
)
def test_verify_of_mistyped_certificate_exits_1_with_one_line(tmp_path, capsys, field, value):
    path = tmp_path / "cert.json"
    args = ["--kernel", "gaussian", "--function", "constant:1.0", "--c", "1"]
    assert main(["witness", "--out", str(path)] + args) == 0
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: certificate") and field.split("_")[-1] in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field,value",
    [
        pytest.param("alpha", "inf", id="alpha"),
        pytest.param("c", "inf", id="c"),
        pytest.param("r_value", "-inf", id="r_value"),
    ],
)
def test_verify_rejects_an_infinite_scale_or_tail_bound(tmp_path, capsys, field, value):
    # an infinite c or alpha makes the window threshold 0, which any window
    # would clear; an r of -inf matches any r to 2^-100, as inf <= inf
    path = tmp_path / "cert.json"
    args = ["--kernel", "gaussian", "--function", "constant:1.0", "--c", "1"]
    assert main(["witness", "--out", str(path)] + args) == 0
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "certificate FAILED verification\n"


@pytest.mark.parametrize("field,value", [("points", ["1", "3/2", "6"]), ("r_value", "-1/2")])
def test_verify_of_fraction_point_or_r_exits_1_with_one_line(tmp_path, capsys, field, value):
    # mpf arithmetic takes no Fraction: points and r are integers or decimals
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(witness_to_dict(_cert()), **{field: value})))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: certificate field {field!r} is malformed") and "fraction" in err
    assert err.count("\n") == 1


_CERT_DICT = witness_to_dict(_cert())


@given(field=st.sampled_from(sorted(_CERT_DICT)), value=_JSON)
@settings(max_examples=200, deadline=None)
def test_verify_of_any_json_field_exits_with_at_most_one_line(field, value):
    data = dict(_CERT_DICT, **{field: value})
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1


_POINT_VALUES = st.one_of(
    st.sampled_from(
        ["6", " 6", "6\n", "1_000", "+6", "-0", "6.0", "6.5", "1e3", "\u0663", "1/2", "inf", "nan", "", "x",
         str(2**1024), "+" + str(2**1024), str(-(2**1023)), "1" + "0" * 5000,
         2**1024, -(2**1023), 1.5, True, None, [6], {"6": 6}]
    ),
    st.integers(-3, 10**6),
    st.integers(-3, 10**6).map(str),
)
_POINT_LISTS = st.one_of(st.just(_CERT_DICT["points"]), st.just([1, 3, 6]), st.lists(_POINT_VALUES, max_size=5))


@st.composite
def _certificate_texts(draw):
    """A certificate's JSON text in one of several layouts, its points spelled
    in several ways, then perhaps truncated, or with a character deleted or inserted."""
    data = dict(_CERT_DICT, points=draw(_POINT_LISTS))
    layout = draw(st.sampled_from(["canonical", "compact", "tabs", "shuffled", "twice, first", "twice, last", "list"]))
    compact = json.dumps(data, separators=(",", ":"))
    other = json.dumps(draw(_POINT_LISTS))
    if layout == "canonical":
        text = canonical_dumps(data)
    elif layout == "compact":
        text = compact
    elif layout == "tabs":
        text = json.dumps(data, indent="\t", sort_keys=True)
    elif layout == "shuffled":
        text = json.dumps({key: data[key] for key in draw(st.permutations(sorted(data)))}, indent=1)
    elif layout == "twice, first":
        text = '{"points": ' + other + ", " + compact[1:]
    elif layout == "twice, last":
        text = compact[:-1] + ', "points": ' + other + "}"
    else:
        text = json.dumps([data])
    edit = draw(st.sampled_from(["none", "truncate", "delete", "insert"]))
    # anywhere, or at a delimiter, where json's grammar has the most to refuse
    delimiters = [i for i, char in enumerate(text) if char in '[]{},:"']
    at = draw(st.integers(0, len(text)) | st.sampled_from(delimiters or [0]))
    if edit == "truncate":
        text = text[:at]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    elif edit == "insert":
        text = text[:at] + draw(st.sampled_from(list('"{}[],:0-1.e\\x \t\n\r\x00\ufeff\u00e9'))) + text[at:]
    return text


def _fields(cert):
    """A certificate's fields as comparable values: each mpf's bits, each float's hex."""
    def bits(value):
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        if isinstance(value, float):
            return float, value.hex()
        return type(value), getattr(value, "_mpf_", value)

    return [bits(getattr(cert, f.name)) for f in fields(cert)]


@given(text=_certificate_texts())
@settings(max_examples=300, deadline=None)
@example(text=json.dumps(dict(_CERT_DICT, points=["1", "+" + str(2**1024)])))
@example(text=canonical_dumps(_CERT_DICT).replace('"6"\n', '"6",\n'))
@example(text=canonical_dumps(_CERT_DICT).replace('"\n}', '",\n}'))
def test_certificate_reader_reads_as_json_loads_does(text):
    """``load_certificate`` gives ``witness_from_dict`` the certificate, or the
    refusal, that ``load_json`` gives it: equal fields, or the same error and
    message.  ``verify`` through either exits with the same code and output."""
    from unittest.mock import patch

    import rkhs_cert.cli as cli

    def outcome(load):
        try:
            return _fields(witness_from_dict(load(path)))
        except (ValueError, RecursionError) as exc:
            return type(exc), str(exc)

    def verify():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        return code, out.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(text, encoding="utf-8")
        assert outcome(load_certificate) == outcome(load_json)
        streamed = verify()
        with patch.object(cli, "load_certificate", load_json):
            assert verify() == streamed
    assert streamed[2].count("\n") <= 1


# --- every subcommand's flags are config keys ---------------------------------------


@pytest.mark.parametrize(
    "command,flags,config",
    [
        (
            "decay-check",
            ["--kernel", "inverse_quadratic", "--sequence", "triangular-", "--window", "4", "--ell-max", "12",
             "--threshold", "1e-3", "--precision-bits", "128"],
            {"kernel": "inverse_quadratic", "sequence": "triangular-", "precision_bits": 128, "tasks": ["decay"],
             "decay": {"window": 4, "ell_max": 12, "threshold": 1e-3}},
        ),
        (
            "psd-check",
            ["--kernel", "gaussian", "--sequence", "arithmetic:0.5", "--points", "1, 2.5,4", "--num-points", "5",
             "--control-x0", "0.25", "--precision-bits", "128"],
            {"kernel": "gaussian", "sequence": "arithmetic:0.5", "precision_bits": 128, "tasks": ["psd"],
             "psd": {"points": [1, 2.5, 4], "num_points": 5, "control_x0": 0.25}},
        ),
        (
            "derivatives",
            ["--kernel", "gaussian", "--n-max", "5", "--norm-bound", "2", "--fd-step", "1e-3", "--fd-x", "0.5",
             "--precision-bits", "128"],
            {"kernel": "gaussian", "precision_bits": 128, "tasks": ["analytic"],
             "analytic": {"n_max": 5, "norm_bound": 2, "fd_step": 1e-3, "fd_x": 0.5}},
        ),
        (
            "interp-norm",
            ["--kernel", "gaussian", "--function", "constant:1.0", "--sequence", "arithmetic:2", "--points", "1,3,6",
             "--rule", "refine", "--steps", "3", "--ridge", "1e-10", "--precision-bits", "128"],
            {"kernel": "gaussian", "function": "constant:1.0", "sequence": "arithmetic:2", "precision_bits": 128,
             "tasks": ["interpolant"],
             "interpolant": {"base_points": [1, 3, 6], "rule": "refine", "steps": 3, "ridge": 1e-10}},
        ),
    ],
    ids=["decay-check", "psd-check", "derivatives", "interp-norm"],
)
def test_single_task_subcommand_is_a_run_of_that_task(tmp_path, capsys, command, flags, config):
    single, path, full = tmp_path / "single.json", tmp_path / "config.json", tmp_path / "run.json"
    assert main([command, "--out", str(single)] + flags) == 0
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(full)]) == 0
    assert single.read_bytes() == full.read_bytes()


# --- pinned report bytes ------------------------------------------------------------

# sha256 of the report of a two-scale run with every task, recorded before the
# built-in kernels and functions became compiled expressions.  A change to any
# of them must leave these bytes alone.  Regenerated since: paper_example and
# constant:1.0 when windows of up to 128 points moved from the deflated Gram
# matrix to the pair loop (r moved in its last bits), the two poly entries
# when sweeps began starting at their declared tail's entry offset, and all of
# them for report/v2 (certificate summaries with points_sha256 in place of the
# points; paper_example's alpha also became the double below exp(-1)).
REPORT_DIGESTS = [
    ("gaussian", "paper_example", [], 0, "632297db55c20881a64075f94ab2d96ae784ae569c2fde9f651c06dc43b055a9"),
    ("gaussian", "constant:-0.5", [], 0, "ebac364c6cace36b9162c889841bde3da313e345fcffbca23d9d2ce7990ddca4"),
    ("inverse_quadratic", "poly:-6,1", [], 0, "c17575c35f7f6ea7e888b3242c5d04dcefb96b7f8fc960230de41bcadaa99250"),
    ("gaussian", "poly:0.25,-0.5,0.125", [], 0, "f0a92b234870a2d62b547f2e393e2b95416557192bc26110703887596a3dbf33"),
    ("inverse_quadratic", "expr:2 + cos(x)", [], 0, "46cfa082faa3918f95c69ad3755331cbedb52e9fefabd43e608be01d6fbeac2c"),
    ("laplace", "sin_squared_shifted", [], 2, "ac20f7003ef26cde66b9f99664a7a2143873037ea3151f36d6ebb40146a5cc53"),
    ("laplace", "poly:0.75", [], 2, "ad68b022c4b44400d69f9bba2abec823600e57a0260bbd15e50f5e7bf585dadd"),
    ("gaussian", "kernel_section:0.0", ["--alpha", "0.5"], 0, "61b662a0206a155fc811f58c29ab683cffa0fa8ed6d07dd7f5a05d48dfc565ff"),
    # banded windows up to N = 8,193; recorded before integer windows got
    # exact-integer bookkeeping
    ("gaussian", "constant:1.0", ["--c-grid", "1,0.25,0.0625,0.015625"], 0, "d173c8ad6a9461a7ac94849fcccafa05fc89bfe028a0c6bc47f8ffface70ca04"),
]


@pytest.mark.parametrize(
    "kernel,function,extra,code,digest", REPORT_DIGESTS, ids=[f"{k}-{f}" for k, f, *_ in REPORT_DIGESTS]
)
def test_report_bytes_are_pinned(tmp_path, kernel, function, extra, code, digest):
    out = tmp_path / "r.json"
    argv = ["run", "--kernel", kernel, "--function", function, "--c-grid", "1,0.5"]
    argv += ["--tasks", ",".join(ALL_TASKS), "--out", str(out)] + extra
    assert main(argv) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_positive_control_evaluates_f_only_where_its_window_sums_read_it(tmp_path, monkeypatch):
    """The positive control's windows end at the first fill past which every
    value is proved dropped: run to 2^-3 as the benchmark runs it, f is
    evaluated at no more than 4,096 indices (32,833 when every window was
    summed whole), and the pinned run's report keeps its digest."""
    from rkhs_cert.functions import CandidateFunction

    calls = []
    eval_mp = CandidateFunction.eval_mp
    monkeypatch.setattr(CandidateFunction, "eval_mp", lambda self, x: calls.append(x) or eval_mp(self, x))
    kernel, function, extra, code, digest = next(pin for pin in REPORT_DIGESTS if pin[1] == "kernel_section:0.0")
    test_report_bytes_are_pinned(tmp_path, kernel, function, extra, code, digest)
    del calls[:]
    argv = ["--kernel", "gaussian", "--function", "kernel_section:0.0", "--alpha", "0.5", "--c-grid", "1,0.5,0.25,0.125"]
    code, report = _run_report(tmp_path, "control.json", argv + ["--certs-dir", str(tmp_path / "certs")])
    failures = report["results"]["witness"]["failures"]
    assert code == 0 and len(failures) == 4
    assert all(x["reason"].startswith("doubling-cap-exhausted") for x in failures)
    assert 0 < len(calls) <= 4096


# --- verification inside a run --------------------------------------------------


@pytest.mark.parametrize(
    "kernel,function,grid,extra",
    [
        pytest.param("gaussian", "paper_example", "1,0.5,0.25,0.125", [], id="gaussian-paper_example-1,0.5,0.25,0.125"),
        pytest.param("inverse_quadratic", "poly:-6,1", "0.5,1", [], id="inverse_quadratic-poly:-6,1-0.5,1"),
        pytest.param("laplace", "sin_squared_shifted", "1,0.5,0.25", [], id="laplace-sin_squared_shifted-1,0.5,0.25"),
        # the 129-point window of float points gets its keys through conversion
        pytest.param("gaussian", "constant:1.0", "1,0.125", ["--sequence", "arithmetic:7.5"], id="float-points"),
        pytest.param("gaussian", "paper_example", "1,0.5,0.25", ["--sequence", "custom:n*n"], id="custom-sequence"),
        pytest.param("gaussian", "paper_example", "0.25,1,0.5,0.125", ["--jobs", "2"], id="jobs-2"),
        # N = 8,193 at c = 2^-6, beyond the full-sum limit: verify must band it as the run did
        pytest.param("custom:exp(-r)", "constant:1.0", "1,0.015625", [], id="custom-kernel-banded"),
    ],
)
def test_run_verdicts_agree_with_standalone_verify(tmp_path, capsys, kernel, function, grid, extra):
    certs = tmp_path / "certs"
    argv = ["--kernel", kernel, "--function", function, "--c-grid", grid, "--certs-dir", str(certs)] + extra
    code, report = _run_report(tmp_path, "r.json", argv)
    assert code == 0
    witness = report["results"]["witness"]
    files = sorted(certs.glob("certificate_*.json"))
    assert witness["failures"] == [] and len(files) == len(witness["certificates"]) > 0
    for path in files:
        c = load_json(path)["c"]
        assert (main(["verify", str(path)]) == 0) == (c in witness["verified_scales"])
    assert len(witness["verified_scales"]) == len(files)


def _count_f_calls(monkeypatch):
    """Points f is evaluated at in a run, as floats: (in the search, in verification)."""
    from rkhs_cert import cli
    from rkhs_cert.functions import CandidateFunction

    search, verifying, verification = [], [], []
    eval_mp, verify = CandidateFunction.eval_mp, cli.verify_certificate

    def counting_eval(self, x):
        (verification if verifying else search).append(float(x))
        return eval_mp(self, x)

    def marked_verify(*args):
        verifying.append(True)
        try:
            return verify(*args)
        finally:
            verifying.pop()

    monkeypatch.setattr(CandidateFunction, "eval_mp", counting_eval)
    monkeypatch.setattr(cli, "verify_certificate", marked_verify)
    return search, verification


def _window(summary):
    """The points of a report's certificate summary, regenerated from its sequence."""
    return resolve_sequence(summary["sequence_id"]).points(summary["ell"] + 1, summary["n_points"])


def _points_digest(points):
    """SHA-256 of the point strings, each followed by a newline: the report's points_sha256."""
    return hashlib.sha256("".join(f"{p}\n" for p in points).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        ["--function", "constant:1.0", "--c-grid", "1,0.5,0.25"],
        ["--function", "paper_example", "--c-grid", "0.5,1,0.5", "--jobs", "2"],
        # float points, written as decimal strings at the working precision
        ["--function", "constant:1.0", "--c-grid", "1,0.125", "--sequence", "arithmetic:7.5"],
        ["--sequence", "mixed_sign_triangular", "--c-grid", "1,0.5"],
    ],
    ids=["constant", "paper_example-jobs-2", "float-points", "mixed-sign"],
)
def test_report_summaries_match_certificate_files(tmp_path, capsys, argv):
    certs = tmp_path / "certs"
    code, report = _run_report(tmp_path, "r.json", argv + ["--certs-dir", str(certs)])
    assert code == 0
    summaries = report["results"]["witness"]["certificates"]
    files = sorted(certs.glob("certificate_*.json"))
    assert len(files) == len(summaries) > 0
    for summary, path in zip(summaries, files):
        data = load_json(path)
        points = data.pop("points")
        assert summary == dict(data, points_sha256=_points_digest(points))
        regenerated = [number_to_str(x, summary["precision_bits"]) for x in _window(summary)]
        assert summary["points_sha256"] == _points_digest(regenerated)
        assert main(["verify", str(path)]) == 0


def test_run_verification_evaluates_f_once_per_distinct_point(monkeypatch):
    _, calls = _count_f_calls(monkeypatch)
    report, code = run(config_from_dict({"c_grid": [1.0, 0.5, 0.25, 0.125]}))
    assert code == 0
    certificates = report["results"]["witness"]["certificates"]
    stored = [float(p) for cert in certificates for p in _window(cert)]
    assert len(calls) == len(set(calls)) == len(set(stored)) < len(stored)


def test_run_search_evaluates_f_once_per_index(monkeypatch):
    # no declared tail bound: the sampled points x_1 .. x_32 are also window points
    calls, _ = _count_f_calls(monkeypatch)
    cfg = {"function": "expr:2 + cos(x)", "c_grid": [1.0, 0.5, 0.25], "jobs": 1}
    report, code = run(config_from_dict(cfg))
    assert code == 0 and report["results"]["witness"]["alpha_provenance"] == "empirical"
    assert len(calls) == len(set(calls)) >= 32


def test_one_scale_run_resolves_each_object_once(monkeypatch):
    # at --jobs 1 the sweep uses the objects the run resolved
    from rkhs_cert import cli

    calls = []

    def counted(name):
        resolve = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return resolve(*args)

        return wrapper

    for name in ("resolve_kernel", "resolve_function", "resolve_sequence"):
        monkeypatch.setattr(cli, name, counted(name))
    report, code = run(config_from_dict({"c_grid": [0.5]}))
    assert code == 0 and len(report["results"]["witness"]["certificates"]) == 1
    assert sorted(calls) == ["resolve_function", "resolve_kernel", "resolve_sequence"]


def test_run_and_witness_start_at_the_tail_entry_offset(tmp_path, capsys):
    # poly:-30,1 declares alpha = 0.5 from x >= 31 on; x_8 = 36 is the first such point
    args = ["--kernel", "gaussian", "--function", "poly:-30,1"]
    code, report = _run_report(tmp_path, "r.json", args + ["--c-grid", "1"])
    assert code == 0
    (cert,) = report["results"]["witness"]["certificates"]
    assert main(["witness", "--c", "1", "--out", str(tmp_path / "cert.json")] + args) == 0
    assert cert["ell"] == load_json(tmp_path / "cert.json")["ell"] == 7


def test_mixed_sign_run_outcomes_are_pinned(tmp_path):
    # unsorted windows are sorted, then band-truncated under the gaussian
    certs = tmp_path / "certs"
    argv = ["--sequence", "mixed_sign_triangular", "--c-grid", "1,0.5,0.25", "--certs-dir", str(certs)]
    code, report = _run_report(tmp_path, "r.json", argv)
    assert code == 0
    witness = report["results"]["witness"]
    assert [(cert["c"], cert["n_points"], cert["ell"]) for cert in witness["certificates"]] == [
        ("1.0", 15, 0),
        ("0.5", 59, 0),
        ("0.25", 235, 0),
    ]
    assert witness["verified_scales"] == ["1.0", "0.5", "0.25"]
    assert witness["failures"] == []
    assert [main(["verify", str(path)]) for path in sorted(certs.iterdir())] == [0, 0, 0]


# --- the run and the library sweep ------------------------------------------------


@pytest.mark.parametrize(
    "function,grid,alpha,jobs",
    [
        ("paper_example", (0.25, 1.0, 0.5, 0.25), None, 1),
        ("paper_example", (0.25, 1.0, 0.5, 0.25), None, 2),
        ("kernel_section:0.0", (1.0, 0.5), 0.5, 1),
    ],
)
def test_run_witness_section_is_the_library_sweep(function, grid, alpha, jobs):
    from rkhs_cert.registry import resolve_function
    from rkhs_cert.serialize import sweep_to_dict
    from rkhs_cert.witness import sweep_c

    cfg = {"function": function, "c_grid": list(grid), "jobs": jobs, "witness": {"alpha": alpha}}
    report, code = run(config_from_dict(cfg))
    assert code == 0
    witness = dict(report["results"]["witness"])
    for key in ("verified_scales", "all_verified", "domain_transfer"):
        del witness[key]
    kernel = resolve_kernel("gaussian")
    f = resolve_function(function, kernel)
    sweep = sweep_c(kernel, f, resolve_sequence("triangular+"), grid, alpha=alpha)
    assert witness == sweep_to_dict(sweep, 256)


@pytest.mark.parametrize("alpha", [["--alpha", "0.5"], []], ids=["window", "sampled"])
@pytest.mark.parametrize(
    "command,function,point",
    [
        ("witness", "expr:sqrt(x - 10)", "x = 1"),
        ("witness", "expr:1/(x-3)", "x = 3"),
        ("run", "expr:sqrt(x - 10)", "x = 1"),
        ("run", "expr:1/(x-3)", "x = 3"),
        ("witness", "expr:1/0", "x = 1: division by zero"),  # evaluated once per window, at its first point
        ("run", "expr:1/0", "x = 1: division by zero"),
    ],
)
def test_undefined_function_value_exits_2_with_one_line(tmp_path, capsys, command, function, point, alpha):
    # With --alpha the first window meets the point; without, the tail sample does.
    argv = [command, "--kernel", "gaussian", "--function", function] + alpha
    argv += ["--c", "0.5"] if command == "witness" else ["--c-grid", "0.5", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"function {function} is undefined at {point}" in err


def test_interpolant_undefined_function_value_names_the_point(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"function": "expr:1/x", "tasks": ["interpolant"], "interpolant": {"base_points": [0.0, 1.0, 2.0]}}
    ))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    message = "function expr:1/x is undefined at x = 0.0: division by zero"
    assert err == f"task interpolant errored: EvaluationError: {message}\n"


def _child_env():
    """This environment, with this checkout's ``src`` first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # the pool's modules are imported only by a run with --jobs > 1
    code = "import sys, rkhs_cert.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


@pytest.mark.parametrize("command", ["witness", "run"])
@pytest.mark.parametrize(
    "sequence,index",
    [
        ("custom:1/(n-5)", 5),
        ("custom:1/(n-1)", 1),
        ("custom:sqrt(n-3)", 1),
        ("custom:1e200*1e200*n", 1),  # beyond the double range
        ("custom:exp(n*400)", 2),
    ],
)
def test_undefined_sequence_point_blames_the_sequence(tmp_path, capsys, command, sequence, index):
    # A custom sequence has no direction, so alpha is sampled along it.
    argv = [command, "--kernel", "gaussian", "--function", "paper_example", "--sequence", sequence]
    argv += ["--c", "0.5"] if command == "witness" else ["--c-grid", "0.5", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"sequence {sequence} is undefined at n = {index}" in err
    assert "function" not in err


def test_run_labels_verified_exactly_what_verify_accepts(tmp_path, capsys):
    # At c = 0.25 the window's 33 integer points reach 3.3e308, beyond 2**1024.
    out, certs = tmp_path / "r.json", tmp_path / "certs"
    argv = ["run", "--function", "constant:1.0", "--sequence", "arithmetic:1e307", "--c-grid", "1,0.5,0.25"]
    assert main(argv + ["--out", str(out), "--certs-dir", str(certs)]) == 0
    witness = json.loads(out.read_text())["results"]["witness"]
    assert witness["verified_scales"] == ["1.0", "0.5"] and not witness["all_verified"]
    paths = sorted(certs.iterdir())
    assert len(paths) == 3
    for path in paths:
        listed = json.loads(path.read_text())["c"] in witness["verified_scales"]
        assert main(["verify", str(path)]) == (0 if listed else 1)


def test_verify_of_undefined_stored_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cert.json"
    args = ["--kernel", "gaussian", "--function", "constant:1.0", "--c", "1"]
    assert main(["witness", "--out", str(path)] + args) == 0
    data = json.loads(path.read_text())
    assert data["points"] == ["1", "3", "6"]
    data["function_id"] = "expr:1/(x-3)"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "function expr:1/(x-3) is undefined at x = 3" in err


def test_verify_refuses_a_window_of_too_wide_span_with_one_line(tmp_path, capsys):
    # one stored point of 2^-9965784 would widen every exact key of the window
    path = tmp_path / "cert.json"
    args = ["--kernel", "gaussian", "--function", "constant:1.0", "--sequence", "arithmetic:7.5", "--c", "0.125"]
    assert main(["witness", "--out", str(path)] + args) == 0
    data = json.loads(path.read_text())
    assert data["n_points"] == 129
    data["points"][0] = "1e-3000000"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("certificate FAILED verification") and "span" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("sequence", ["triangular+", "arithmetic:1"])
def test_tail_beyond_ell_max_fails_its_scale(tmp_path, sequence):
    # poly:-1e12,1 declares its tail bound from x >= 1e12 + 1 on, which no
    # offset up to the default ell_max of 10^6 reaches on either sequence
    argv = ["--function", "poly:-1e12,1", "--sequence", sequence, "--c-grid", "1"]
    code, report = _run_report(tmp_path, "r.json", argv)
    assert code == 0
    assert report["task_errors"] == {}
    (failure,) = report["results"]["witness"]["failures"]
    assert failure["reason"].startswith("tail-unreachable") and "offset 1000000" in failure["reason"]


# --- flags are config keys: one checker, one exit code for usage errors ----------

_NO_KEY_FLAGS = {"-h", "--help", "--config", "--out", "--certs-dir", "--csv-dir", "--c"}


def _is_config_key(dest):
    section, _, key = dest.rpartition(".")
    echo = RunConfig().to_dict()
    return dest == "jobs" or (key in echo.get(section, {}) if section else key in echo)


def _options():
    """(command, action) for every option of every subcommand."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return [
        (command, action)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings
    ]


def test_every_config_flag_is_named_by_its_key_and_left_to_the_config_to_check():
    options = _options()
    config_options = [(command, action) for command, action in options if _is_config_key(action.dest)]
    no_key_flags = {flag for _, action in options if not _is_config_key(action.dest) for flag in action.option_strings}
    assert no_key_flags == _NO_KEY_FLAGS
    assert len(config_options) == 41
    for command, action in config_options:
        name = "points" if action.dest == "interpolant.base_points" else action.dest.rpartition(".")[2]
        assert action.option_strings == ["--" + name.replace("_", "-")], (command, action.dest)
        assert action.type in (None, cli._comma_list), (command, action.dest)
        assert action.choices is None and action.default is None, (command, action.dest)
    helps = {}
    for _, action in config_options:
        assert helps.setdefault(action.dest, action.help) == action.help, action.dest


def _valid_argv(command, tmp_path):
    """Flags that make ``command`` well formed, each with a value every check passes."""
    if command == "run":
        return ["--out", str(tmp_path / "r.json")]
    argv = ["--kernel", "gaussian"]
    if command in ("witness", "interp-norm"):
        argv += ["--function", "constant:1.0"]
    return argv + (["--c", "1"] if command == "witness" else [])


def _refusal(data):
    """The ConfigError message for config ``data``: config_from_dict's, else resolving its identifiers'."""
    with pytest.raises(ConfigError) as info:
        cfg = config_from_dict(data)
        resolve_function(cfg.function, resolve_kernel(cfg.kernel))
        resolve_sequence(cfg.sequence)
    return str(info.value)


_BAD_TEXT_CASES = [
    (command, action.option_strings[0], action.dest, action.type is not None)
    for command, action in _options()
    if _is_config_key(action.dest)
] + [("witness", "--c", "c_grid", True)]


@pytest.mark.parametrize(
    "command, flag, key, listed", _BAD_TEXT_CASES, ids=[f"{case[0]} {case[1]}" for case in _BAD_TEXT_CASES]
)
def test_bad_text_at_any_flag_is_the_config_refusal_of_that_text(tmp_path, capsys, command, flag, key, listed):
    argv = [command] + _valid_argv(command, tmp_path) + [flag, "abc"]
    data = {"kernel": "gaussian", "function": "constant:1.0"}
    section, _, name = key.rpartition(".")
    (data.setdefault(section, {}) if section else data)[name] = ["abc"] if listed else "abc"
    expected = _refusal(data)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify"], "rkhs-cert verify: the following arguments are required: certificate"),
        (["verify", "a", "b"], "rkhs-cert: unrecognized arguments: b"),
        (["run"], "rkhs-cert run: the following arguments are required: --out"),
        (["run", "--kernel"], "rkhs-cert run: argument --kernel: expected one argument"),
        (["bogus"], "rkhs-cert: argument command: invalid choice: 'bogus'"),
        ([], "rkhs-cert: the following arguments are required: command"),
    ],
    ids=["verify", "verify-two-paths", "run-no-out", "run-flag-no-value", "bogus", "no-command"],
)
def test_usage_error_is_a_config_error_of_one_line(capsys, argv, message):
    assert main(argv) == 1  # no SystemExit
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


def test_run_config_search_defaults_are_the_searchs_own():
    for search in (build_witness, sweep_c):
        parameters = inspect.signature(search).parameters
        assert parameters["ell_max"].default == RunConfig().ell_max == 10**6
        assert parameters["doubling_cap"].default == RunConfig().witness_doubling_cap == 6


# --- a kernel undefined at a pair; a sequence that repeats under widening ---------

_POLE_KERNEL = "custom:1/(r-4)**2"  # undefined at every pair two apart


def _pole_message(x, y):
    return f"kernel {_POLE_KERNEL} is undefined at (x, y) = ({x}, {y}): division by zero"


def test_verify_of_a_window_where_the_kernel_is_undefined_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "cert.json"
    argv = ["witness", "--kernel", _POLE_KERNEL, "--function", "constant:1.0", "--c", "1", "--out", str(path)]
    assert main(argv) == 0
    data = json.loads(path.read_text())
    data["ell"], data["points"] = 0, ["1", "3"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"evaluation error: {_pole_message(1.0, 3.0)}\n"


@pytest.mark.parametrize(
    "command, task, flags, pair",
    [
        ("psd-check", "psd", [], (1.0, 3.0)),
        ("interp-norm", "interpolant", ["--function", "constant:1.0"], (1.0, 3.0)),
        ("decay-check", "decay", ["--sequence", "arithmetic:1"], (2.0, 4.0)),
    ],
)
def test_task_where_the_kernel_is_undefined_names_the_kernel_and_the_pair(capsys, command, task, flags, pair):
    assert main([command, "--kernel", _POLE_KERNEL] + flags) == 2
    assert capsys.readouterr().err == f"task {task} errored: EvaluationError: {_pole_message(*pair)}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sequence", "custom:1"], "sequence custom:1 repeats: its indices 1 to 4 give no point new to the 3 nodes"),
        (
            ["--points", "1,2", "--sequence", "custom:1+0*n", "--steps", "1"],
            "sequence custom:1+0*n repeats: its indices 1 to 3 give no point new to the 2 nodes",
        ),
    ],
)
def test_widening_along_a_repeating_sequence_ends_with_one_line(flags, message):
    # in a child process, so a widening that never ends fails the test instead of hanging the suite
    argv = [sys.executable, "-m", "rkhs_cert.cli", "interp-norm", "--kernel", "gaussian", "--function", "constant:1.0"]
    done = subprocess.run(argv + flags, env=_child_env(), capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stderr) == (2, f"task interpolant errored: ValueError: {message}\n")


# --- each config key declares its domain: a value outside it is refused before any task runs ----

# (config key, a text just outside the key's domain); every numeric and list key has a case
_OUTSIDE_DOMAIN = [
    ("tasks", ","), ("tasks", "psd,psd"), ("tasks", "witness,bogus"),
    ("c_grid", ","), ("c_grid", "1,0"),
    ("ell_max", "-1"),
    ("precision_bits", "63"), ("precision_bits", "65537"),
    ("jobs", "0"),
    ("domain.endpoints", ","), ("domain.points", ","), ("domain.points", "1,1"),
    ("witness.doubling_cap", "-1"), ("witness.alpha", "0"),
    ("psd.num_points", "0"), ("psd.points", ","), ("psd.points", "2,2.0"), ("psd.control_x0", "inf"),
    ("decay.window", "1"), ("decay.ell_max", "0"), ("decay.threshold", "nan"),
    ("analytic.n_max", "-1"), ("analytic.norm_bound", "-5e-324"), ("analytic.fd_step", "0"),
    ("analytic.fd_x", "-inf"),
    ("interpolant.base_points", ","), ("interpolant.base_points", "1,1"), ("interpolant.steps", "0"),
    ("interpolant.ridge", "-5e-324"), ("interpolant.divergence_factor", "inf"),
]


def test_every_numeric_and_list_key_has_a_case_outside_its_domain():
    declared = {key for key, f in cli._FIELDS.items() if f.metadata["domain"].kind in (int, float) or cli._listed(f)}
    assert {key for key, _ in _OUTSIDE_DOMAIN} == declared


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:  # nan, inf: no JSON numbers, so the config file holds the text, as a flag does
        return text


# each case from a config file (no flag), and from every command's flag that sets the key
_OUTSIDE_CASES = [(key, text, None) for key, text in _OUTSIDE_DOMAIN] + [
    (key, text, (command, action.option_strings[0]))
    for key, text in _OUTSIDE_DOMAIN
    for command, action in _options()
    if action.dest == key
]


@pytest.mark.parametrize(
    "key, text, flag",
    _OUTSIDE_CASES,
    ids=[f"{key}={text} " + (" ".join(flag) if flag else "config") for key, text, flag in _OUTSIDE_CASES],
)
def test_a_value_outside_its_domain_is_one_config_error_before_any_task(tmp_path, capsys, monkeypatch, key, text, flag):
    def no_task(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run", no_task)
    out = tmp_path / "r.json"
    if flag is None:
        section, _, name = key.rpartition(".")
        listed = cli._listed(cli._FIELDS[key])
        value = [_json_or_text(entry) for entry in text.split(",") if entry] if listed else _json_or_text(text)
        data = {section: {name: value}} if section else {name: value}
        (tmp_path / "config.json").write_text(json.dumps(data))
        argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(out)]
    else:
        command, option = flag
        # "--flag=text": argparse would take a text such as -5e-324 for a flag of its own
        argv = [command] + _valid_argv(command, tmp_path) + [f"{option}={text}", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert key.replace(".", " ") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["interp-norm", "--function", "constant:1.0", "--steps=1", "--ridge=0"],
        ["interp-norm", "--function", "constant:1.0", "--rule=refine", "--points=1,2", "--steps=1"],
        ["decay-check", "--window=2", "--ell-max=1"],
        ["psd-check", "--num-points=1"],
        ["psd-check", "--points=2", "--precision-bits=64"],
        ["psd-check", "--points=2", "--precision-bits=65536"],
        ["derivatives", "--n-max=0", "--norm-bound=0", "--fd-step=5e-324"],
        ["run", "--function", "constant:1.0", "--c-grid=1", "--ell-max=0", "--jobs=1", "--tasks=witness"],
    ],
)
def test_a_value_on_its_domain_boundary_runs_its_task(tmp_path, argv):
    out = tmp_path / "r.json"
    kernel = [] if argv[0] == "run" else ["--kernel", "gaussian"]
    assert main(argv[:1] + kernel + argv[1:] + ["--out", str(out)]) == 0
    assert load_json(out)["task_errors"] == {}


def test_refinement_of_one_base_point_is_a_config_error():
    with pytest.raises(ConfigError, match="refine needs at least two"):
        config_from_dict({"interpolant": {"rule": "refine", "base_points": [1.0]}})
    assert config_from_dict({"interpolant": {"rule": "widen", "base_points": [1.0]}}).interp_base_points == (1.0,)


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--function", "constant:1.0", "--c-grid", "1", "--prec", "128"], "--prec 128"),
        (["decay-check", "--kernel", "gaussian", "--thr", "1e-3"], "--thr 1e-3"),
    ],
)
def test_a_prefix_of_a_flag_is_no_flag(tmp_path, capsys, argv, prefix):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: rkhs-cert: unrecognized arguments: {prefix}\n"
    assert not out.exists()


def test_interp_norm_summary_says_the_trace_was_truncated(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["interp-norm", "--kernel", "gaussian", "--function", "constant:1.0", "--points", "0,1e-200"]
    assert main(argv + ["--out", str(out)]) == 0
    reason = load_json(out)["results"]["interpolant"]["truncated_reason"]
    assert reason.startswith("Gram numerically singular at 2 points even at 1024 bits")
    summary = f"interpolant norms over 0 nested sets; divergence evidence: False; truncated: {reason}\n"
    assert capsys.readouterr().out == summary


def test_readme_config_example_names_every_key_and_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])
    config_from_dict(example)
    echo = RunConfig().to_dict()
    sections = {key for key, value in echo.items() if isinstance(value, dict)}

    def keys(config):
        top = {key for key in config if key not in sections}
        return top | {f"{key}.{name}" for key in sections & set(config) for name in config[key]}

    # endpoints and points belong to the interval and finite_set domains, not the example's full line
    assert keys(example) == (keys(echo) | {"jobs"}) - {"domain.endpoints", "domain.points"}


def test_a_directly_built_config_is_checked_as_a_config_file_is():
    # the field default leaves the accumulation flag to the domain's kind: a one-point set has none
    cfg = RunConfig(function="constant:1.0", c_grid=(1.0,), domain_kind="finite_set", domain_points=(1.0,))
    assert cfg.has_accumulation_point is False
    domain = {"kind": "finite_set", "points": [1.0]}
    assert cfg == config_from_dict({"function": "constant:1.0", "c_grid": [1.0], "domain": domain})
    report, code = run(cfg)
    assert code == 0
    assert report["results"]["witness"]["domain_transfer"].startswith(
        "restriction remark withheld: the declared domain has no accumulation point"
    )
    with pytest.raises(ConfigError, match=r"^interpolant ridge must be >= 0, not -1.0$"):
        RunConfig(tasks=("interpolant",), interp_ridge=-1.0)
    with pytest.raises(ConfigError, match="^a finite set has no accumulation point$"):
        RunConfig(domain_kind="finite_set", domain_points=(1.0,), has_accumulation_point=True)
    # values are converted as a config file's are
    assert RunConfig(c_grid=[1, 0.5], ell_max=7.0).c_grid == (1.0, 0.5)


_NEGATIVE_AFTER_FLAG = [
    (["interp-norm", "--kernel", "gaussian", "--function", "constant:1.0"], "--ridge", "-1e-300"),
    (["interp-norm", "--kernel", "gaussian", "--function", "constant:1.0"], "--ridge", "-inf"),
    (["run", "--function", "constant:1.0", "--tasks", "witness"], "--c-grid", "-1e-3"),
    (["run", "--function", "constant:1.0", "--tasks", "witness"], "--c-grid", "-inf"),
    (["derivatives", "--kernel", "gaussian"], "--fd-x", "-2e-3"),
    (["derivatives", "--kernel", "gaussian"], "--fd-x", "-inf"),
]


@pytest.mark.parametrize(
    "argv,flag,value", _NEGATIVE_AFTER_FLAG, ids=[f"{a[0]} {f} {v}" for a, f, v in _NEGATIVE_AFTER_FLAG]
)
def test_a_negative_number_after_its_flag_is_its_value(tmp_path, capsys, argv, flag, value):
    """``--flag -1e-3`` reaches the config as ``--flag=-1e-3`` does: the same exit, output and report."""

    def outcome(given, name):
        out = tmp_path / name
        code = main(argv + given + ["--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    apart, joined = outcome([flag, value], "apart.json"), outcome([f"{flag}={value}"], "joined.json")
    assert apart == joined
    assert "expected one argument" not in apart[2]
    assert apart[0] == (0 if value == "-2e-3" else 1)
